// bench_compare — the perf-regression gate for committed bench baselines.
//
// Diffs a fresh bench --json report against its committed BENCH_*.json
// baseline:
//
//   bench_compare BASELINE FRESH [options]
//     --budget FIELD=FRAC   relative noise budget for one metric
//                           (e.g. --budget wall_ms=0.35)
//     --default-budget FRAC budget for metrics without their own
//                           (default 0: deterministic metrics must match)
//     --skip FIELD          ignore a metric entirely (timing noise)
//     --key FIELD           treat this numeric field as part of the row
//                           key, not a compared metric
//     --subset              allow FRESH to contain a subset of BASELINE's
//                           rows (a --smoke run vs the full baseline)
//
// Rows are matched by their key: every string-valued field plus any
// --key fields, in file order. A metric regresses when
// |fresh - base| > budget * max(|base|, 1) — the absolute floor of 1
// keeps zero-valued baselines from demanding exact zeros under a
// nonzero budget.
//
// Exit codes: 0 ok, 1 regression/missing rows, 2 usage or parse error.
// Dependency-free by design (same constraint as tools/autra_lint): it
// parses only the restricted JSON bench::JsonReport emits — one object
// per row line, string and %.6g number literals, no nesting.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

namespace {

struct Row {
  std::vector<std::pair<std::string, std::string>> fields;  // insertion order
};

struct Report {
  std::string bench;
  std::vector<Row> rows;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BASELINE FRESH [--budget FIELD=FRAC]...\n"
               "          [--default-budget FRAC] [--skip FIELD]...\n"
               "          [--key FIELD]... [--subset]\n",
               argv0);
  std::exit(2);
}

/// A budget parsed whole ("0.3x", "O" and "" are usage errors, never a
/// truncated number or a silent 0), finite and non-negative.
double parse_budget(const char* s, const char* argv0) {
  double v = 0.0;
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0.0) {
    usage(argv0);
  }
  return v;
}

[[noreturn]] void parse_fail(const std::string& path, int lineno,
                             const std::string& why) {
  std::fprintf(stderr, "bench_compare: %s:%d: %s\n", path.c_str(), lineno,
               why.c_str());
  std::exit(2);
}

/// Scans one `"key": value` pair starting at `pos` in a row line. Returns
/// false when only the closing brace remains.
bool next_field(const std::string& line, std::size_t& pos, std::string& key,
                std::string& value) {
  const std::size_t k0 = line.find('"', pos);
  if (k0 == std::string::npos) return false;
  const std::size_t k1 = line.find('"', k0 + 1);
  if (k1 == std::string::npos) return false;
  key = line.substr(k0 + 1, k1 - k0 - 1);
  std::size_t v0 = line.find(':', k1);
  if (v0 == std::string::npos) return false;
  ++v0;
  while (v0 < line.size() && line[v0] == ' ') ++v0;
  if (v0 >= line.size()) return false;
  std::size_t v1;
  if (line[v0] == '"') {
    v1 = line.find('"', v0 + 1);
    if (v1 == std::string::npos) return false;
    ++v1;
  } else {
    v1 = v0;
    while (v1 < line.size() && line[v1] != ',' && line[v1] != '}') ++v1;
  }
  value = line.substr(v0, v1 - v0);
  pos = v1;
  return true;
}

Report load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  Report report;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string key;
    std::string value;
    const std::size_t brace = line.find('{');
    if (brace == std::string::npos) {
      // Header ("bench": ...) or structural line ("rows": [, closers).
      std::size_t pos = 0;
      if (report.bench.empty() && report.rows.empty() &&
          next_field(line, pos, key, value) && key == "bench") {
        report.bench = value;
      }
      continue;
    }
    Row row;
    std::size_t pos = brace + 1;
    while (next_field(line, pos, key, value)) {
      row.fields.emplace_back(key, value);
    }
    // The report's own opening '{' carries no fields — not a row.
    if (row.fields.empty()) continue;
    report.rows.push_back(std::move(row));
  }
  if (report.rows.empty()) {
    parse_fail(path, lineno, "no rows found (not a bench JsonReport?)");
  }
  return report;
}

bool is_string(const std::string& v) {
  return !v.empty() && v.front() == '"';
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  for (const std::string& e : v) {
    if (e == s) return true;
  }
  return false;
}

std::string row_key(const Row& row, const std::vector<std::string>& keys) {
  std::string k;
  for (const auto& [name, value] : row.fields) {
    if (is_string(value) || contains(keys, name)) {
      k += name + "=" + value + "|";
    }
  }
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  std::map<std::string, double> budgets;
  std::vector<std::string> skips;
  std::vector<std::string> keys;
  double default_budget = 0.0;
  bool subset = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--budget") {
      const std::string spec = value();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) usage(argv[0]);
      budgets[spec.substr(0, eq)] =
          parse_budget(spec.c_str() + eq + 1, argv[0]);
    } else if (arg == "--default-budget") {
      default_budget = parse_budget(value(), argv[0]);
    } else if (arg == "--skip") {
      skips.push_back(value());
    } else if (arg == "--key") {
      keys.push_back(value());
    } else if (arg == "--subset") {
      subset = true;
    } else if (arg[0] == '-') {
      usage(argv[0]);
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (fresh_path.empty()) {
      fresh_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (fresh_path.empty()) usage(argv[0]);

  const Report baseline = load(baseline_path);
  const Report fresh = load(fresh_path);
  if (!baseline.bench.empty() && baseline.bench != fresh.bench) {
    std::fprintf(stderr,
                 "bench_compare: bench name mismatch: baseline %s vs "
                 "fresh %s\n",
                 baseline.bench.c_str(), fresh.bench.c_str());
    return 2;
  }

  // Index baseline rows by key; duplicate keys are a baseline bug.
  std::map<std::string, const Row*> by_key;
  for (const Row& row : baseline.rows) {
    const std::string k = row_key(row, keys);
    if (!by_key.emplace(k, &row).second) {
      std::fprintf(stderr, "bench_compare: duplicate baseline row key %s\n",
                   k.c_str());
      return 2;
    }
  }

  int regressions = 0;
  int compared = 0;
  std::size_t matched = 0;
  for (const Row& row : fresh.rows) {
    const std::string k = row_key(row, keys);
    const auto it = by_key.find(k);
    if (it == by_key.end()) {
      std::fprintf(stderr, "MISSING in baseline: %s\n", k.c_str());
      ++regressions;
      continue;
    }
    ++matched;
    const Row& base = *it->second;
    for (const auto& [name, value] : row.fields) {
      if (is_string(value) || contains(keys, name) || contains(skips, name)) {
        continue;
      }
      const auto bit = std::find_if(
          base.fields.begin(), base.fields.end(),
          [&name = name](const auto& f) { return f.first == name; });
      if (bit == base.fields.end()) {
        std::fprintf(stderr, "MISSING metric %s in baseline row %s\n",
                     name.c_str(), k.c_str());
        ++regressions;
        continue;
      }
      const double b = std::atof(bit->second.c_str());
      const double f = std::atof(value.c_str());
      const auto budget_it = budgets.find(name);
      const double budget =
          budget_it != budgets.end() ? budget_it->second : default_budget;
      // Absolute floor of 1 on the reference: zero baselines tolerate
      // |fresh| <= budget instead of demanding exact zero.
      const double allowed = budget * std::max(std::fabs(b), 1.0);
      ++compared;
      if (std::fabs(f - b) > allowed) {
        std::fprintf(stderr,
                     "REGRESSION %s: %s = %s (baseline %s, budget %g)\n",
                     k.c_str(), name.c_str(), value.c_str(),
                     bit->second.c_str(), budget);
        ++regressions;
      }
    }
  }
  if (!subset && matched < by_key.size()) {
    std::fprintf(stderr,
                 "bench_compare: fresh report covers %zu of %zu baseline "
                 "rows (pass --subset for smoke runs)\n",
                 matched, by_key.size());
    ++regressions;
  }

  if (regressions > 0) {
    std::fprintf(stderr, "bench_compare: %d regression(s) across %d "
                         "compared metrics\n",
                 regressions, compared);
    return 1;
  }
  std::printf("bench_compare: OK — %zu rows, %d metrics within budget\n",
              matched, compared);
  return 0;
}
