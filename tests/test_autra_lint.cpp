// The linter's own tier-1 coverage: every rule has a good and a bad
// fixture under tools/autra_lint/testdata/, and flipping any good fixture
// to its bad twin must flip the verdict — that is the property CI leans
// on when it trusts a green `autra_lint` run. The cross-file suite does
// the same for the pass-1 symbol index (D2 across translation units),
// and the baseline suite pins the fingerprint format the committed
// findings baseline depends on.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline.hpp"
#include "index.hpp"
#include "rules.hpp"

namespace autra {
namespace {

using lint::Baseline;
using lint::FileScope;
using lint::Finding;
using lint::SymbolIndex;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(AUTRA_LINT_TESTDATA) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The scope a fixture pair is exercised under. Rules are scope-gated
/// (D2/D4 need decision_path, D5 wall_clock_banned, A2 numeric_header,
/// A4 container_api_header), so each pair gets exactly the gates its
/// rule needs — a clock-seeded D3 fixture must not also trip D5.
FileScope scope_for(std::string_view rule, bool header) {
  FileScope scope;
  scope.header = header;
  scope.library_code = true;
  scope.decision_path =
      rule == "D1" || rule == "D2" || rule == "D3" || rule == "D4";
  scope.numeric_header = rule == "A2";
  scope.wall_clock_banned = rule == "D5";
  scope.container_api_header = rule == "A4";
  return scope;
}

bool is_header(const std::string& name) {
  return name.size() > 4 && name.substr(name.size() - 4) == ".hpp";
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  std::string_view rule) {
  return lint::lint_source(read_fixture(name), name,
                           scope_for(rule, is_header(name)));
}

std::multiset<std::string> rules_of(const std::vector<Finding>& findings) {
  std::multiset<std::string> out;
  for (const Finding& f : findings) out.insert(f.rule);
  return out;
}

struct RulePair {
  const char* rule;  ///< primary rule; at least one finding must be it
  const char* good;
  const char* bad;
  std::size_t bad_count;  ///< total findings the bad fixture fires
  /// Secondary rule the bad fixture legitimately also trips (D2 and D4
  /// overlap on a manual += over an unordered range), or "".
  const char* also;
};

// gtest would print the parameter as raw bytes (pointers included) into
// every test name; print the rule instead, so the names are stable.
void PrintTo(const RulePair& p, std::ostream* os) { *os << p.rule; }

class FixtureCorpus : public ::testing::TestWithParam<RulePair> {};

TEST_P(FixtureCorpus, GoodFixtureIsCleanBadFixtureFiresItsRule) {
  const RulePair& p = GetParam();
  const std::vector<Finding> good = lint_fixture(p.good, p.rule);
  EXPECT_TRUE(good.empty()) << p.good << " fired " << good.size()
                            << " findings, first: "
                            << (good.empty() ? "" : good.front().message);

  const std::vector<Finding> bad = lint_fixture(p.bad, p.rule);
  EXPECT_EQ(bad.size(), p.bad_count) << p.bad;
  const std::multiset<std::string> rules = rules_of(bad);
  EXPECT_GE(rules.count(p.rule), 1u) << p.bad << " should fire " << p.rule;
  for (const Finding& f : bad) {
    EXPECT_TRUE(f.rule == p.rule || f.rule == p.also) << f.message;
    EXPECT_GT(f.line, 0);
    EXPECT_EQ(f.file, p.bad);
    EXPECT_FALSE(f.message.empty());
    EXPECT_FALSE(f.context.empty()) << "baseline needs a token context";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, FixtureCorpus,
    ::testing::Values(
        RulePair{"D1", "d1_good.cpp", "d1_bad.cpp", 4, ""},
        RulePair{"D2", "d2_good.cpp", "d2_bad.cpp", 3, "D4"},
        RulePair{"D3", "d3_good.cpp", "d3_bad.cpp", 2, ""},
        RulePair{"D4", "d4_good.cpp", "d4_bad.cpp", 4, "D2"},
        RulePair{"D5", "d5_good.cpp", "d5_bad.cpp", 3, ""},
        RulePair{"A1", "a1_good.cpp", "a1_bad.cpp", 2, ""},
        RulePair{"A2", "a2_good.hpp", "a2_bad.hpp", 2, ""},
        RulePair{"A3", "a3_good.hpp", "a3_bad.hpp", 2, ""},
        RulePair{"A4", "a4_good.hpp", "a4_bad.hpp", 2, ""},
        RulePair{"H1", "h1_good.hpp", "h1_bad.hpp", 2, ""}),
    [](const ::testing::TestParamInfo<RulePair>& info) {
      return info.param.rule;
    });

TEST(FixtureCorpusArrival, ArrivalThemedD3PairCoversTheNewSubsystem) {
  // Same contract as the parameterised corpus, for the arrival-flavoured
  // pair (a thinning sampler): clean when the seed is a named parameter,
  // D3 on both the literal and the clock seed otherwise.
  const std::vector<Finding> good = lint_fixture("d3_arrival_good.cpp", "D3");
  EXPECT_TRUE(good.empty())
      << "first: " << (good.empty() ? "" : good.front().message);
  const std::vector<Finding> bad = lint_fixture("d3_arrival_bad.cpp", "D3");
  ASSERT_EQ(bad.size(), 2u);
  for (const Finding& f : bad) EXPECT_EQ(f.rule, "D3") << f.message;
}

// --- Cross-file D2: the pass-1 symbol index at work -----------------------

/// Indexes the header + both consumers, then lints `consumer` with the
/// index attached (the two-pass path main.cpp drives).
std::vector<Finding> lint_crossfile(const char* header, const char* consumer) {
  SymbolIndex index;
  for (const char* name : {header, consumer}) {
    index.add_file(name, read_fixture(name));
  }
  index.finalize();
  FileScope scope = scope_for("D2", false);
  return lint::lint_source(read_fixture(consumer), consumer, scope, &index);
}

struct CrossFileCase {
  const char* tag;  ///< test name suffix
  const char* header;
  const char* bad;
  const char* good;
};

void PrintTo(const CrossFileCase& c, std::ostream* os) { *os << c.tag; }

class CrossFileD2 : public ::testing::TestWithParam<CrossFileCase> {};

TEST_P(CrossFileD2, HeaderDeclaredUnorderedTypeIsSeenAcrossFiles) {
  const CrossFileCase& c = GetParam();
  const std::vector<Finding> bad = lint_crossfile(c.header, c.bad);
  ASSERT_EQ(bad.size(), 1u) << c.bad;
  EXPECT_EQ(bad.front().rule, "D2") << bad.front().message;

  const std::vector<Finding> good = lint_crossfile(c.header, c.good);
  EXPECT_TRUE(good.empty())
      << c.good << " first: " << (good.empty() ? "" : good.front().message);
}

TEST_P(CrossFileD2, WithoutTheIndexTheBadFileLooksClean) {
  // The pre-index engine's blind spot, pinned as a test: lint the bad
  // consumer standalone (local one-file index) and nothing fires.
  const CrossFileCase& c = GetParam();
  const std::vector<Finding> findings =
      lint::lint_source(read_fixture(c.bad), c.bad, scope_for("D2", false));
  EXPECT_TRUE(findings.empty())
      << "first: " << (findings.empty() ? "" : findings.front().message);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CrossFileD2,
    ::testing::Values(
        // Member declared in another header, iterated in the .cpp.
        CrossFileCase{"Member", "crossfile_member.hpp",
                      "crossfile_member_bad.cpp", "crossfile_member_good.cpp"},
        // `using` alias (alias-of-alias) resolved through the fixpoint.
        CrossFileCase{"Alias", "crossfile_alias.hpp", "crossfile_alias_bad.cpp",
                      "crossfile_alias_good.cpp"},
        // Function whose return type is unordered, iterated at the call.
        CrossFileCase{"FnReturn", "crossfile_fn.hpp", "crossfile_fn_bad.cpp",
                      "crossfile_fn_good.cpp"}),
    [](const ::testing::TestParamInfo<CrossFileCase>& info) {
      return info.param.tag;
    });

TEST(SymbolIndexUnit, AliasChainsResolveAndIncludeClosureIsTransitive) {
  SymbolIndex index;
  index.add_file("a.hpp",
                 "#pragma once\n#include <unordered_map>\n"
                 "using Inner = std::unordered_map<int, int>;\n");
  index.add_file("b.hpp",
                 "#pragma once\n#include \"a.hpp\"\n"
                 "using Outer = Inner;\nOuter table_;\n");
  index.add_file("c.cpp", "#include \"b.hpp\"\n");
  index.finalize();

  const lint::IndexView* view = index.view("c.cpp");
  ASSERT_NE(view, nullptr);
  // a.hpp's alias and b.hpp's alias-of-alias both arrive through the
  // two-hop include chain, and the Outer-typed declaration is promoted.
  EXPECT_EQ(view->unordered_aliases.count("Inner"), 1u);
  EXPECT_EQ(view->unordered_aliases.count("Outer"), 1u);
  EXPECT_EQ(view->unordered_names.count("table_"), 1u);
  EXPECT_EQ(index.view("nope.cpp"), nullptr);
}

// --- Baseline: fingerprints, round-trip, staleness ------------------------

TEST(BaselineFormat, RoundTripAbsorbsEveryFindingItWasBuiltFrom) {
  const std::vector<Finding> findings = lint_fixture("d1_bad.cpp", "D1");
  ASSERT_FALSE(findings.empty());

  std::ostringstream out;
  Baseline::from_findings(findings).write(out);

  Baseline parsed;
  std::string error;
  std::istringstream in(out.str());
  ASSERT_TRUE(parsed.parse(in, error)) << error;
  EXPECT_GT(parsed.size(), 0u);

  const std::vector<Finding> remaining = parsed.filter(findings);
  EXPECT_TRUE(remaining.empty())
      << "first survivor: " << (remaining.empty() ? "" : remaining[0].message);
  EXPECT_TRUE(parsed.stale().empty());
}

TEST(BaselineFormat, FingerprintsSurviveLineDriftButNotCodeEdits) {
  const std::string source = read_fixture("d2_bad.cpp");
  const FileScope scope = scope_for("D2", false);
  const std::vector<Finding> before =
      lint::lint_source(source, "d2_bad.cpp", scope);
  ASSERT_FALSE(before.empty());

  // Unrelated lines above the findings shift every line number but must
  // not re-key a single entry — that is the whole point of hashing token
  // context instead of positions.
  const std::vector<Finding> after = lint::lint_source(
      "\n// unrelated drift\n\nint unrelated_decl = 0;\n" + source,
      "d2_bad.cpp", scope);
  ASSERT_EQ(after.size(), before.size());

  std::multiset<std::uint64_t> fp_before;
  std::multiset<std::uint64_t> fp_after;
  for (const Finding& f : before) fp_before.insert(lint::fingerprint_of(f));
  for (const Finding& f : after) fp_after.insert(lint::fingerprint_of(f));
  EXPECT_EQ(fp_before, fp_after);
  EXPECT_NE(before.front().line, after.front().line);
}

TEST(BaselineFormat, PathNormalizationMakesInvocationStylesAgree) {
  using lint::normalize_path;
  EXPECT_EQ(normalize_path("/root/repo/src/gp/kernel.hpp"),
            "src/gp/kernel.hpp");
  EXPECT_EQ(normalize_path("./src/gp/kernel.hpp"), "src/gp/kernel.hpp");
  EXPECT_EQ(normalize_path("src/gp/kernel.hpp"), "src/gp/kernel.hpp");
  EXPECT_EQ(normalize_path("tools/autra_lint/main.cpp"),
            "tools/autra_lint/main.cpp");
}

TEST(BaselineFormat, StaleEntriesSurfaceRetiredDebt) {
  // Build a baseline from real findings, then run it against a clean
  // tree: every entry is unconsumed debt the gate should report.
  const std::vector<Finding> findings = lint_fixture("d1_bad.cpp", "D1");
  std::ostringstream out;
  Baseline::from_findings(findings).write(out);
  Baseline parsed;
  std::string error;
  std::istringstream in(out.str());
  ASSERT_TRUE(parsed.parse(in, error)) << error;

  const std::vector<Finding> remaining = parsed.filter({});
  EXPECT_TRUE(remaining.empty());
  EXPECT_EQ(parsed.stale().size(), parsed.size());
}

TEST(BaselineFormat, MalformedLinesAreParseErrorsNotSilentDrops) {
  Baseline baseline;
  std::string error;
  std::istringstream bad_count("D1 0123456789abcdef not-a-count src/x.cpp\n");
  EXPECT_FALSE(baseline.parse(bad_count, error));
  EXPECT_FALSE(error.empty());

  std::istringstream truncated("D1 0123456789abcdef\n");
  error.clear();
  EXPECT_FALSE(baseline.parse(truncated, error));
  EXPECT_FALSE(error.empty());

  std::istringstream fine("# comment only\n\n");
  error.clear();
  Baseline empty;
  EXPECT_TRUE(empty.parse(fine, error)) << error;
  EXPECT_EQ(empty.size(), 0u);
}

// --- Suppressions, path classification, matcher edge cases ----------------

TEST(Suppressions, ReasonedAllowSilencesTheNamedRule) {
  const std::vector<Finding> findings =
      lint_fixture("suppress_good.cpp", "D3");
  EXPECT_TRUE(findings.empty())
      << "first: " << (findings.empty() ? "" : findings.front().message);
}

TEST(Suppressions, BareOrUnknownAllowIsAnErrorAndSuppressesNothing) {
  const std::vector<Finding> findings = lint_fixture("suppress_bad.cpp", "D3");
  const std::multiset<std::string> rules = rules_of(findings);
  // Two S1 errors (bare reason, unknown rule) and the two D3 findings the
  // broken suppressions failed to cover.
  EXPECT_EQ(rules.count("S1"), 2u);
  EXPECT_EQ(rules.count("D3"), 2u);
  EXPECT_EQ(findings.size(), 4u);
}

TEST(PathClassification, RepoLayoutMapsToTheDocumentedScopes) {
  const FileScope core = lint::classify_path("src/core/rate_aware.cpp");
  EXPECT_TRUE(core.decision_path);
  EXPECT_TRUE(core.library_code);
  EXPECT_TRUE(core.wall_clock_banned);
  EXPECT_FALSE(core.header);
  EXPECT_FALSE(core.numeric_header);
  EXPECT_FALSE(core.container_api_header);

  const FileScope gp_hdr =
      lint::classify_path("/root/repo/src/gp/kernel.hpp");
  EXPECT_TRUE(gp_hdr.decision_path);
  EXPECT_TRUE(gp_hdr.numeric_header);
  EXPECT_TRUE(gp_hdr.header);
  EXPECT_TRUE(gp_hdr.container_api_header);

  // bench/ and tools/ own their wall clocks (that is where timing is
  // measured); everything else is simulated time only.
  EXPECT_FALSE(lint::classify_path("bench/bench_resilience.cpp")
                   .wall_clock_banned);
  EXPECT_FALSE(lint::classify_path("tools/bench_compare/main.cpp")
                   .wall_clock_banned);
  EXPECT_TRUE(lint::classify_path("tests/test_gp.cpp").wall_clock_banned);
  EXPECT_TRUE(lint::classify_path("examples/replay.cpp").wall_clock_banned);

  // A4 covers the public headers of the hash-order-sensitive layers.
  EXPECT_TRUE(
      lint::classify_path("src/linalg/matrix.hpp").container_api_header);
  EXPECT_TRUE(
      lint::classify_path("src/runtime/tenant.hpp").container_api_header);
  EXPECT_TRUE(lint::classify_path("src/core/policy.hpp").container_api_header);
  EXPECT_FALSE(
      lint::classify_path("src/streamsim/engine.hpp").container_api_header);
  EXPECT_FALSE(
      lint::classify_path("src/linalg/solve.cpp").container_api_header);

  const FileScope test_file = lint::classify_path("tests/test_gp.cpp");
  EXPECT_FALSE(test_file.decision_path);
  EXPECT_FALSE(test_file.library_code);

  const FileScope bench_file = lint::classify_path("bench/bench_util.hpp");
  EXPECT_FALSE(bench_file.library_code);
  EXPECT_TRUE(bench_file.header);

  // The arrival subsystem is decision-path: its construction-time RNG
  // falls under D1/D3 like the chaos generator's.
  const FileScope arrival = lint::classify_path("src/arrival/hawkes.cpp");
  EXPECT_TRUE(arrival.decision_path);
  EXPECT_TRUE(arrival.library_code);
  EXPECT_FALSE(lint::classify_path("src/arrival/mmpp.hpp").numeric_header);

  const FileScope linalg = lint::classify_path("src/linalg/matrix.hpp");
  EXPECT_TRUE(linalg.numeric_header);
  EXPECT_FALSE(lint::classify_path("src/streamsim/engine.hpp")
                   .numeric_header);
}

TEST(RuleEdgeCases, DeclarationsAndReferencesAreNotConstructions) {
  const FileScope scope = scope_for("D3", false);
  // Reference parameters, member declarations, using-aliases and
  // template arguments never construct an engine.
  const char* clean =
      "#include <random>\n"
      "using Rng = std::mt19937_64;\n"
      "struct S { std::mt19937_64 rng_; };\n"
      "void seed_from(std::mt19937_64& rng);\n"
      "double draw(std::uniform_real_distribution<double>& d,\n"
      "            std::mt19937_64* rng) { return d(*rng); }\n";
  EXPECT_TRUE(lint::lint_source(clean, "f.cpp", scope).empty());

  // A cast does not turn a literal into a named seed.
  const char* cast =
      "#include <random>\n"
      "std::mt19937_64 rng(static_cast<unsigned>(7));\n";
  const std::vector<Finding> findings =
      lint::lint_source(cast, "f.cpp", scope);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "D3");
}

TEST(RuleEdgeCases, LiteralSeedsAreLegalOutsideLibraryCode) {
  FileScope scope = scope_for("D3", false);
  scope.library_code = false;  // tests/bench pin literal seeds by design
  const char* pinned =
      "#include <random>\n"
      "std::mt19937_64 rng(20260806);\n";
  EXPECT_TRUE(lint::lint_source(pinned, "t.cpp", scope).empty());

  // Clock seeds stay illegal everywhere.
  const char* clocked =
      "#include <chrono>\n#include <random>\n"
      "std::mt19937_64 rng(std::chrono::steady_clock::now()\n"
      "                        .time_since_epoch().count());\n";
  const std::vector<Finding> findings =
      lint::lint_source(clocked, "t.cpp", scope);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "D3");
}

TEST(RuleEdgeCases, CommentsAndStringsNeverFireCodeRules) {
  FileScope scope = scope_for("D2", false);
  scope.wall_clock_banned = true;
  const char* masked =
      "// std::random_device in a comment\n"
      "/* for (auto& kv : unordered_map_) */\n"
      "const char* kDoc = \"rand() and srand() and system_clock::now()\";\n"
      "const char* kRaw = R\"(std::random_device)\";\n";
  EXPECT_TRUE(lint::lint_source(masked, "f.cpp", scope).empty());
}

TEST(RuleEdgeCases, MemberFunctionsNamedLikeBannedCallsAreFine) {
  FileScope scope = scope_for("D2", false);
  scope.wall_clock_banned = true;
  const char* members =
      "double t = engine.time();\n"
      "double u = sampler->rand();\n"
      "double c = engine.clock();\n"
      "double a = sim->accumulate();\n";
  EXPECT_TRUE(lint::lint_source(members, "f.cpp", scope).empty());
}

TEST(RuleEdgeCases, OrderFreeStdAlgorithmsDoNotTripD4) {
  const FileScope scope = scope_for("D4", false);
  // max_element / minmax / sort are order-free or ordering; only the
  // raw fold family (accumulate / reduce) is D4.
  const char* clean =
      "#include <algorithm>\n#include <vector>\n"
      "double best(const std::vector<double>& v) {\n"
      "  return *std::max_element(v.begin(), v.end());\n"
      "}\n";
  EXPECT_TRUE(lint::lint_source(clean, "f.cpp", scope).empty());

  const char* folded =
      "#include <numeric>\n#include <vector>\n"
      "double total(const std::vector<double>& v) {\n"
      "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
      "}\n";
  const std::vector<Finding> findings =
      lint::lint_source(folded, "f.cpp", scope);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "D4");
}

}  // namespace
}  // namespace autra
