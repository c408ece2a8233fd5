// Tests for the benefit scoring function (Eq. 4), the termination threshold
// (Eq. 9), and bootstrap sample construction (Sec. III-D).
#include "core/bootstrap.hpp"
#include "core/scoring.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

namespace autra::core {
namespace {

ScoreParams params(double target_ms = 100.0, double alpha = 0.5) {
  return {.target_latency_ms = target_ms,
          .alpha = alpha,
          .base = {1, 2, 3}};
}

TEST(Scoring, PerfectAtBaseMeetingLatency) {
  EXPECT_DOUBLE_EQ(benefit_score({1, 2, 3}, 50.0, params()), 1.0);
  EXPECT_DOUBLE_EQ(benefit_score({1, 2, 3}, 100.0, params()), 1.0);
}

TEST(Scoring, LatencyViolationLowersScore) {
  const double at_target = benefit_score({1, 2, 3}, 100.0, params());
  const double violated = benefit_score({1, 2, 3}, 200.0, params());
  EXPECT_LT(violated, at_target);
  // l_t / l_r = 0.5, alpha = 0.5 -> 0.25 + 0.5 = 0.75.
  EXPECT_DOUBLE_EQ(violated, 0.75);
}

TEST(Scoring, OverProvisioningLowersScore) {
  const double lean = benefit_score({1, 2, 3}, 50.0, params());
  const double fat = benefit_score({2, 4, 6}, 50.0, params());
  EXPECT_LT(fat, lean);
  // Resource term = 0.5 -> F = 0.5 + 0.25 = 0.75.
  EXPECT_DOUBLE_EQ(fat, 0.75);
}

TEST(Scoring, BelowBaseDoesNotExceedOne) {
  // Guard: configurations below base (should not happen in the search
  // space) must not reward with ratios > 1.
  const double s = benefit_score({1, 1, 1}, 50.0, params());
  EXPECT_LE(s, 1.0);
}

TEST(Scoring, AlphaExtremes) {
  // alpha=1: only latency matters.
  EXPECT_DOUBLE_EQ(benefit_score({9, 9, 9}, 50.0, params(100.0, 1.0)), 1.0);
  // alpha=0: only resources matter.
  EXPECT_DOUBLE_EQ(benefit_score({1, 2, 3}, 1e6, params(100.0, 0.0)), 1.0);
}

TEST(Scoring, ZeroLatencyTreatedAsCompliant) {
  EXPECT_DOUBLE_EQ(benefit_score({1, 2, 3}, 0.0, params()), 1.0);
}

TEST(Scoring, MetricsOverload) {
  runtime::JobMetrics m;
  m.parallelism = {1, 2, 3};
  m.latency_ms = 200.0;
  EXPECT_DOUBLE_EQ(benefit_score(m, params()), 0.75);
}

TEST(Scoring, Validation) {
  EXPECT_THROW(benefit_score({1, 2, 3}, 50.0,
                             {.target_latency_ms = 0.0, .base = {1, 2, 3}}),
               std::invalid_argument);
  EXPECT_THROW(benefit_score({1, 2}, 50.0, params()), std::invalid_argument);
  EXPECT_THROW(benefit_score({1, 2, 0}, 50.0, params()),
               std::invalid_argument);
  ScoreParams bad = params();
  bad.alpha = 1.5;
  EXPECT_THROW(benefit_score({1, 2, 3}, 50.0, bad), std::invalid_argument);
}

TEST(Scoring, NonFiniteLatencyOrTargetThrows) {
  // min(1, target / NaN) would be 1: a NaN latency must not score as
  // meeting the target (100 ms scores 1.0 and 400 ms 0.75 here).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const ScoreParams p{.target_latency_ms = 200.0, .alpha = 0.5, .base = {2, 2}};
  EXPECT_DOUBLE_EQ(benefit_score({2, 2}, 100.0, p), 1.0);
  EXPECT_DOUBLE_EQ(benefit_score({2, 2}, 400.0, p), 0.75);
  for (const double bad : {kNaN, kInf, -kInf}) {
    EXPECT_THROW(benefit_score({2, 2}, bad, p), std::invalid_argument);
    ScoreParams bad_target = p;
    bad_target.target_latency_ms = bad;
    EXPECT_THROW(benefit_score({2, 2}, 100.0, bad_target),
                 std::invalid_argument);
  }
  runtime::JobMetrics m;
  m.parallelism = {2, 2};
  m.latency_ms = kNaN;
  EXPECT_THROW(benefit_score(m, p), std::invalid_argument);
}

TEST(Scoring, ThresholdEquation9) {
  // F >= alpha + (1-alpha)/(1+w).
  EXPECT_DOUBLE_EQ(score_threshold(0.5, 0.0), 1.0);
  EXPECT_NEAR(score_threshold(0.5, 1.0 / 3.0), 0.875, 1e-12);
  EXPECT_DOUBLE_EQ(score_threshold(1.0, 0.5), 1.0);
  EXPECT_NEAR(score_threshold(0.5, 0.25), 0.9, 1e-12);  // the paper's 0.9
  EXPECT_THROW(score_threshold(-0.1, 0.1), std::invalid_argument);
  EXPECT_THROW(score_threshold(0.5, -0.1), std::invalid_argument);
}

TEST(Bootstrap, Validation) {
  EXPECT_THROW(bootstrap_samples({}, 10, 3), std::invalid_argument);
  EXPECT_THROW(bootstrap_samples({1, 2}, 10, 0), std::invalid_argument);
  EXPECT_THROW(bootstrap_samples({1, 20}, 10, 3), std::invalid_argument);
}

TEST(Bootstrap, ContainsBaseAndFamilies) {
  const runtime::Parallelism base{1, 2, 3};
  const auto samples = bootstrap_samples(base, 12, 4);

  // The base configuration itself.
  EXPECT_NE(std::find(samples.begin(), samples.end(), base), samples.end());

  // Family 1: uniform levels from k'_max=3 to P_max=12 in 3 intervals:
  // 3, 6, 9, 12.
  for (int level : {3, 6, 9, 12}) {
    const runtime::Parallelism uniform(3, level);
    EXPECT_NE(std::find(samples.begin(), samples.end(), uniform),
              samples.end())
        << "missing uniform level " << level;
  }

  // Family 2: one operator at P_max, others at base.
  for (std::size_t j = 0; j < base.size(); ++j) {
    runtime::Parallelism s = base;
    s[j] = 12;
    EXPECT_NE(std::find(samples.begin(), samples.end(), s), samples.end())
        << "missing single-op sample " << j;
  }
}

TEST(Bootstrap, CountIsBasePlusMPlusNMinusDuplicates) {
  // base (2,2), P_max 8, M=3: base + uniform {(2,2),(5,5),(8,8)} +
  // single-op {(8,2),(2,8)}; the base duplicates the first uniform level,
  // leaving 5 unique samples.
  const auto samples = bootstrap_samples({2, 2}, 8, 3);
  const std::set<runtime::Parallelism> unique(samples.begin(), samples.end());
  EXPECT_EQ(samples.size(), unique.size());  // de-duplicated
  EXPECT_EQ(samples.size(), 5u);
}

TEST(Bootstrap, DuplicatesCollapseWhenBaseUniform) {
  // base (3,3): base == first uniform level -> one duplicate removed.
  const auto samples = bootstrap_samples({3, 3}, 3, 2);
  // Everything collapses to the single point (3,3).
  EXPECT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples.front(), (runtime::Parallelism{3, 3}));
}

TEST(Bootstrap, AllSamplesWithinSearchSpace) {
  const runtime::Parallelism base{1, 4, 2, 6};
  const auto samples = bootstrap_samples(base, 20, 6);
  for (const auto& s : samples) {
    ASSERT_EQ(s.size(), base.size());
    const int k_max = 6;
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_GE(s[i], std::min(base[i], k_max));
      EXPECT_LE(s[i], 20);
    }
  }
}

TEST(Bootstrap, PaperSampleCounts) {
  // WordCount: N=4 operators, M=6 uniform + 4 single-op + base ~ 10-11
  // (the paper reports an initial set of 10).
  const auto wc = bootstrap_samples({1, 1, 3, 2}, 60, 6);
  EXPECT_EQ(wc.size(), 11u);
  // Yahoo: N=5 operators, M=35 targets the paper's 40-sample set; the
  // uniform family collapses when the span from k'_max to P_max is shorter
  // than M, so only a lower bound holds.
  const auto yahoo = bootstrap_samples({14, 1, 1, 1, 44}, 60, 35);
  EXPECT_GE(yahoo.size(), 20u);
  EXPECT_LE(yahoo.size(), 41u);
}

}  // namespace
}  // namespace autra::core
