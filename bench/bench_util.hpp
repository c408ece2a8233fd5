// Shared helpers for the experiment-reproduction benches.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "streamsim/job_runner.hpp"

namespace autra::bench {

inline std::string cfg(const sim::Parallelism& p) {
  std::string s = "(";
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(p[i]);
  }
  return s + ")";
}

inline int total(const sim::Parallelism& p) {
  return std::accumulate(p.begin(), p.end(), 0);
}

/// Parses a numeric flag value whole into `out`: "3x", "abc" and "" are
/// rejected (false, `out` untouched), never read as a truncated number.
template <class T>
[[nodiscard]] bool parse_number(const char* s, T& out) {
  T v{};
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

inline void header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// Machine-readable bench output: a flat list of rows, each an *ordered*
/// sequence of key/value fields, serialised as
///   {"bench": <name>, "rows": [{...}, ...]}
/// Field order is insertion order and rows are emitted in the order they
/// were added — never via an unordered container — so two runs of the same
/// bench produce structurally identical files (the autra_lint determinism
/// contract for committed baselines).
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  JsonReport& row() {
    rows_.emplace_back();
    return *this;
  }
  JsonReport& num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    rows_.back().emplace_back(key, std::string(buf));
    return *this;
  }
  JsonReport& str(const char* key, const std::string& value) {
    rows_.back().emplace_back(key, "\"" + value + "\"");
    return *this;
  }

  /// Writes the report; returns false (and prints to stderr) on I/O error.
  /// Keys and string values must not need JSON escaping (plain
  /// identifiers only — this is a bench artifact, not a serialiser).
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n",
                 bench_.c_str());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "    {");
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i > 0 ? ", " : "",
                     rows_[r][i].first.c_str(), rows_[r][i].second.c_str());
      }
      std::fprintf(f, "}%s\n", r + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

}  // namespace autra::bench
