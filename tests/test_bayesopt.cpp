// Unit tests for the discrete search space and the generic BO loop.
#include "bayesopt/bayes_opt.hpp"
#include "bayesopt/search_space.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace autra::bo {
namespace {

/// The rows of a candidate block as configs, for comparisons.
std::vector<Config> rows(const ConfigBlock& block) {
  std::vector<Config> out;
  for (std::size_t r = 0; r < block.size(); ++r) {
    out.emplace_back(block[r].begin(), block[r].end());
  }
  return out;
}

TEST(SearchSpace, ValidatesBounds) {
  EXPECT_THROW(SearchSpace({}, {}), std::invalid_argument);
  EXPECT_THROW(SearchSpace({1, 2}, {3}), std::invalid_argument);
  EXPECT_THROW(SearchSpace({5}, {3}), std::invalid_argument);
  EXPECT_NO_THROW(SearchSpace({1, 1}, {1, 1}));
}

TEST(SearchSpace, Contains) {
  const SearchSpace s({1, 2}, {3, 4});
  EXPECT_TRUE(s.contains({1, 2}));
  EXPECT_TRUE(s.contains({3, 4}));
  EXPECT_TRUE(s.contains({2, 3}));
  EXPECT_FALSE(s.contains({0, 3}));
  EXPECT_FALSE(s.contains({2, 5}));
  EXPECT_FALSE(s.contains({2}));
  EXPECT_FALSE(s.contains({2, 3, 4}));
}

TEST(SearchSpace, Clamp) {
  const SearchSpace s({1, 2}, {3, 4});
  EXPECT_EQ(s.clamp({0, 9}), (Config{1, 4}));
  EXPECT_EQ(s.clamp({2, 3}), (Config{2, 3}));
}

TEST(SearchSpace, Cardinality) {
  EXPECT_EQ(SearchSpace({1, 1}, {3, 4}).cardinality(), 12u);
  EXPECT_EQ(SearchSpace({2}, {2}).cardinality(), 1u);
  // Saturates instead of overflowing.
  const SearchSpace huge(16, 1, 1000000);
  EXPECT_EQ(huge.cardinality(), std::numeric_limits<std::uint64_t>::max());
}

TEST(SearchSpace, EnumerateCompleteAndOrdered) {
  const SearchSpace s({1, 1}, {2, 3});
  const auto all = rows(s.enumerate());
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all.front(), (Config{1, 1}));
  EXPECT_EQ(all.back(), (Config{2, 3}));
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  const std::set<Config> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
  for (const Config& c : all) EXPECT_TRUE(s.contains(c));
}

TEST(SearchSpace, EnumerateTooLargeThrows) {
  const SearchSpace s(8, 1, 60);
  EXPECT_THROW(s.enumerate(1000), std::length_error);
}

TEST(SearchSpace, SampleWithinBounds) {
  const SearchSpace s({1, 5, 10}, {3, 9, 60});
  std::mt19937_64 rng(3);
  for (const Config& c : rows(s.sample(200, rng))) {
    EXPECT_TRUE(s.contains(c));
  }
}

TEST(SearchSpace, CandidatesSmallSpaceEnumerates) {
  const SearchSpace s({1, 1}, {3, 3});
  std::mt19937_64 rng(3);
  EXPECT_EQ(s.candidates(100, rng).size(), 9u);
}

TEST(SearchSpace, CandidatesLargeSpaceIncludesCorners) {
  const SearchSpace s(6, 1, 60);
  std::mt19937_64 rng(3);
  const auto cands = rows(s.candidates(64, rng));
  EXPECT_LE(cands.size(), 66u);
  EXPECT_NE(std::find(cands.begin(), cands.end(), Config(6, 1)), cands.end());
  EXPECT_NE(std::find(cands.begin(), cands.end(), Config(6, 60)), cands.end());
}

TEST(SearchSpace, ToFeatures) {
  EXPECT_EQ(to_features({1, 5}), (std::vector<double>{1.0, 5.0}));
}

TEST(SearchSpace, LocalCandidatesWithinSpaceAndAdjacent) {
  const SearchSpace s({1, 1, 1}, {10, 10, 10});
  const Config center{5, 5, 5};
  const auto local = rows(s.local_candidates(center, 2));
  EXPECT_FALSE(local.empty());
  for (const Config& c : local) {
    EXPECT_TRUE(s.contains(c));
    EXPECT_NE(c, center);
    int linf = 0, changed = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      linf = std::max(linf, std::abs(c[i] - center[i]));
      changed += c[i] != center[i];
    }
    EXPECT_LE(linf, 2);
  }
  // Single-dim +-1 moves must be present.
  EXPECT_NE(std::find(local.begin(), local.end(), Config({6, 5, 5})),
            local.end());
  EXPECT_NE(std::find(local.begin(), local.end(), Config({4, 5, 5})),
            local.end());
  // The uniform +1 move too.
  EXPECT_NE(std::find(local.begin(), local.end(), Config({6, 6, 6})),
            local.end());
}

TEST(SearchSpace, AxisCandidatesSweepEachDimension) {
  const SearchSpace s({1, 1}, {61, 61});
  const auto axis = rows(s.axis_candidates({1, 1}, 7));
  for (const Config& c : axis) {
    EXPECT_TRUE(s.contains(c));
    // Exactly one coordinate differs from the center.
    EXPECT_TRUE((c[0] == 1) != (c[1] == 1));
  }
  // The sweep reaches both the middle and the far end of each axis.
  EXPECT_NE(std::find(axis.begin(), axis.end(), Config({61, 1})),
            axis.end());
  EXPECT_NE(std::find(axis.begin(), axis.end(), Config({31, 1})),
            axis.end());
  EXPECT_NE(std::find(axis.begin(), axis.end(), Config({1, 61})),
            axis.end());
}

TEST(SearchSpace, AxisCandidatesExcludeCenterAndClamp) {
  const SearchSpace s({2, 2}, {10, 10});
  // The center is clamped to (5, 10).
  const auto axis = rows(s.axis_candidates({5, 100}, 5));
  for (const Config& c : axis) {
    EXPECT_TRUE(s.contains(c));
    EXPECT_NE(c, (Config{5, 10}));
  }
}

TEST(SearchSpace, LocalCandidatesAtCornerAreClamped) {
  const SearchSpace s({1, 1}, {10, 10});
  const auto local = rows(s.local_candidates({1, 1}, 2));
  for (const Config& c : local) EXPECT_TRUE(s.contains(c));
  // Downward moves from the corner are dropped, upward ones kept.
  EXPECT_NE(std::find(local.begin(), local.end(), Config({2, 1})),
            local.end());
  EXPECT_EQ(std::find(local.begin(), local.end(), Config({0, 1})),
            local.end());
}

TEST(BayesOpt, SuggestFineTunesNearIncumbentInHugeSpace) {
  // Optimum at (3,3,3,3) right next to the lower corner of a space with
  // ~13M points: random candidates alone would essentially never find it,
  // local moves around the incumbent must.
  const auto f = [](const Config& c) {
    double s = 0.0;
    for (int k : c) {
      const double d = k - 3.0;
      s -= d * d;
    }
    return s;
  };
  BayesOpt opt(SearchSpace(4, 2, 62), {.xi = 0.01, .seed = 17});
  opt.observe({2, 2, 2, 2}, f({2, 2, 2, 2}));
  opt.observe({62, 62, 62, 62}, f({62, 62, 62, 62}));
  for (int i = 0; i < 20; ++i) {
    const Config next = opt.suggest().config;
    opt.observe(next, f(next));
    if (opt.best()->score == 0.0) break;
  }
  // Within L-inf distance 1 of the optimum (score -4 would mean every
  // coordinate off by one); pure random candidates score around -10^3.
  const Observation best = *opt.best();
  EXPECT_GE(best.score, -4.0);
  for (int k : best.config) EXPECT_NEAR(k, 3, 1);
}

TEST(BayesOpt, ObserveValidation) {
  BayesOpt opt(SearchSpace({1, 1}, {5, 5}));
  EXPECT_THROW(opt.observe({0, 1}, 1.0), std::invalid_argument);
  EXPECT_THROW(opt.suggest(), std::logic_error);
  EXPECT_FALSE(opt.best().has_value());
}

TEST(BayesOpt, ReobserveReplacesScore) {
  BayesOpt opt(SearchSpace({1}, {5}));
  opt.observe({2}, 1.0);
  opt.observe({2}, 3.0);
  ASSERT_EQ(opt.observations().size(), 1u);
  EXPECT_DOUBLE_EQ(opt.observations().front().score, 3.0);
}

TEST(BayesOpt, BestTracksMaximum) {
  BayesOpt opt(SearchSpace({1}, {9}));
  opt.observe({1}, 0.2);
  opt.observe({5}, 0.9);
  opt.observe({9}, 0.4);
  ASSERT_TRUE(opt.best());
  EXPECT_EQ(opt.best()->config, (Config{5}));
  EXPECT_DOUBLE_EQ(opt.best()->score, 0.9);
}

TEST(BayesOpt, SuggestAvoidsObservedPoints) {
  BayesOpt opt(SearchSpace({1}, {4}));
  opt.observe({1}, 0.1);
  opt.observe({2}, 0.2);
  opt.observe({3}, 0.3);
  const Suggestion next = opt.suggest();
  EXPECT_EQ(next.config, (Config{4}));
  // The only path that proposes an unobserved config with >= 2 samples is
  // the acquisition, so the suggestion must carry a positive EI.
  EXPECT_EQ(next.source, SuggestionSource::kAcquisition);
  EXPECT_GT(next.expected_improvement, 0.0);
}

TEST(BayesOpt, SuggestReturnsIncumbentWhenExhausted) {
  BayesOpt opt(SearchSpace({1}, {2}));
  opt.observe({1}, 0.1);
  opt.observe({2}, 0.9);
  const Suggestion next = opt.suggest();
  EXPECT_EQ(next.config, (Config{2}));  // Space exhausted -> incumbent.
  EXPECT_EQ(next.source, SuggestionSource::kBestObservedFallback);
  EXPECT_DOUBLE_EQ(next.expected_improvement, 0.0);
}

TEST(BayesOpt, SuggestionSourceNames) {
  EXPECT_STREQ(to_string(SuggestionSource::kAcquisition), "acquisition");
  EXPECT_STREQ(to_string(SuggestionSource::kBestObservedFallback),
               "best_observed_fallback");
  EXPECT_STREQ(to_string(SuggestionSource::kRandomBootstrap),
               "random_bootstrap");
}

TEST(BayesOpt, OptimizesConcaveFunction) {
  // f(x, y) = -(x-6)^2 - (y-3)^2, maximum at (6, 3).
  const auto f = [](const Config& c) {
    const double dx = c[0] - 6.0, dy = c[1] - 3.0;
    return -(dx * dx) - (dy * dy);
  };
  BayesOpt opt(SearchSpace({1, 1}, {12, 12}), {.xi = 0.01, .seed = 9});
  opt.observe({1, 1}, f({1, 1}));
  opt.observe({12, 12}, f({12, 12}));
  opt.observe({1, 12}, f({1, 12}));
  for (int i = 0; i < 30; ++i) {
    const Config next = opt.suggest().config;
    opt.observe(next, f(next));
    if (opt.best()->score == 0.0) break;
  }
  const Config best = opt.best()->config;
  EXPECT_NEAR(best[0], 6, 1);
  EXPECT_NEAR(best[1], 3, 1);
}

TEST(BayesOpt, PredictBeforeObservationsThrows) {
  BayesOpt opt(SearchSpace({1}, {5}));
  EXPECT_THROW((void)opt.predict({3}), std::logic_error);
}

TEST(BayesOpt, SingleObservationSuggestsRandomFresh) {
  BayesOpt opt(SearchSpace({1}, {9}));
  opt.observe({5}, 0.5);
  const Suggestion next = opt.suggest();
  EXPECT_NE(next.config, (Config{5}));
  EXPECT_TRUE(opt.space().contains(next.config));
  EXPECT_EQ(next.source, SuggestionSource::kRandomBootstrap);
  EXPECT_DOUBLE_EQ(next.expected_improvement, 0.0);
}

TEST(BayesOpt, TinyCandidateBudgetStillWorks) {
  BayesOpt opt(SearchSpace(4, 1, 50), {.candidate_budget = 8, .seed = 5});
  opt.observe({1, 1, 1, 1}, 0.1);
  opt.observe({50, 50, 50, 50}, 0.9);
  for (int i = 0; i < 5; ++i) {
    const Config next = opt.suggest().config;
    ASSERT_TRUE(opt.space().contains(next));
    opt.observe(next, 0.5);
  }
}

TEST(BayesOpt, PredictMatchesSurrogateAfterFit) {
  BayesOpt opt(SearchSpace({1}, {10}));
  for (int x = 1; x <= 10; x += 3) {
    opt.observe({x}, static_cast<double>(x));
  }
  const gp::Prediction p = opt.predict({7});
  EXPECT_NEAR(p.mean, 7.0, 1.5);
}

// Property: across seeds, BO on a separable quadratic beats random search
// with the same budget (sanity that the surrogate actually guides search).
class BayesOptSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BayesOptSeeds, FindsNearOptimum) {
  const auto f = [](const Config& c) {
    double s = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const double d = c[i] - 7.0;
      s -= d * d;
    }
    return s;
  };
  BayesOpt opt(SearchSpace(3, 1, 15), {.xi = 0.01, .seed = GetParam()});
  opt.observe({1, 1, 1}, f({1, 1, 1}));
  opt.observe({15, 15, 15}, f({15, 15, 15}));
  for (int i = 0; i < 25; ++i) {
    const Config next = opt.suggest().config;
    opt.observe(next, f(next));
  }
  EXPECT_GT(opt.best()->score, -27.0)
      << "BO failed to approach optimum for seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BayesOptSeeds,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// --------------------------------------------------------------------------
// Bit-exact reference oracles: the std::set candidate generators the flat
// blocks replaced. Same rows, same order, and the same RNG state after.

std::vector<Config> reference_sample(const SearchSpace& s, std::size_t n,
                                     std::mt19937_64& rng) {
  std::vector<Config> out;
  for (std::size_t k = 0; k < n; ++k) {
    Config c(s.dims());
    for (std::size_t i = 0; i < s.dims(); ++i) {
      std::uniform_int_distribution<int> dist(s.lower()[i], s.upper()[i]);
      c[i] = dist(rng);
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Config> reference_candidates(const SearchSpace& s,
                                         std::size_t budget,
                                         std::mt19937_64& rng) {
  if (s.cardinality() <= budget) {
    std::vector<Config> all;
    Config c = s.lower();
    while (true) {
      all.push_back(c);
      std::size_t i = s.dims();
      while (i-- > 0) {
        if (c[i] < s.upper()[i]) {
          ++c[i];
          for (std::size_t j = i + 1; j < s.dims(); ++j) c[j] = s.lower()[j];
          break;
        }
        if (i == 0) return all;
      }
    }
  }
  std::set<Config> unique;
  unique.insert(s.lower());
  unique.insert(s.upper());
  for (const Config& c : reference_sample(s, budget, rng)) unique.insert(c);
  return {unique.begin(), unique.end()};
}

std::vector<Config> reference_local(const SearchSpace& s, const Config& center,
                                    int radius) {
  const Config c = s.clamp(center);
  std::set<Config> unique;
  for (std::size_t i = 0; i < s.dims(); ++i) {
    for (int d = 1; d <= radius; ++d) {
      for (int sign : {-1, 1}) {
        Config m = c;
        m[i] += sign * d;
        if (s.contains(m)) unique.insert(std::move(m));
      }
    }
  }
  for (std::size_t i = 0; i < s.dims(); ++i) {
    for (std::size_t j = i + 1; j < s.dims(); ++j) {
      for (int si : {-1, 1}) {
        for (int sj : {-1, 1}) {
          Config m = c;
          m[i] += si;
          m[j] += sj;
          if (s.contains(m)) unique.insert(std::move(m));
        }
      }
    }
  }
  for (int sign : {-1, 1}) {
    Config m = c;
    for (int& k : m) k += sign;
    if (s.contains(m)) unique.insert(std::move(m));
  }
  return {unique.begin(), unique.end()};
}

std::vector<Config> reference_axis(const SearchSpace& s, const Config& center,
                                   int levels) {
  const Config c = s.clamp(center);
  std::set<Config> unique;
  for (std::size_t i = 0; i < s.dims(); ++i) {
    const int lo = s.lower()[i];
    const int hi = s.upper()[i];
    const int steps = std::max(1, levels - 1);
    for (int k = 0; k < levels; ++k) {
      Config m = c;
      m[i] = lo + static_cast<int>(std::llround(
                      static_cast<double>(hi - lo) * k / steps));
      if (m != c) unique.insert(std::move(m));
    }
  }
  return {unique.begin(), unique.end()};
}

TEST(CandidateOracle, EnumeratePathMatchesSetGenerator) {
  const SearchSpace s({1, 2, 3}, {16, 9, 12});  // 1280 points <= budget
  std::mt19937_64 flat_rng(21);
  std::mt19937_64 ref_rng(21);
  EXPECT_EQ(rows(s.candidates(4096, flat_rng)),
            reference_candidates(s, 4096, ref_rng));
  EXPECT_TRUE(flat_rng == ref_rng);
}

TEST(CandidateOracle, SampledPathMatchesSetGenerator) {
  // Narrow and wide coordinate ranges (one and two radix digits), a small
  // space where samples repeat and an 8-dimensional one where they do not.
  const SearchSpace spaces[] = {SearchSpace({1, 1, 1, 1}, {6, 6, 6, 6}),
                                SearchSpace(Config(8, 2), Config(8, 24)),
                                SearchSpace({-300, 0, 5}, {400, 1, 1000})};
  for (const SearchSpace& s : spaces) {
    for (const std::size_t budget : {std::size_t{64}, std::size_t{1000}}) {
      if (s.cardinality() <= budget) continue;
      std::mt19937_64 flat_rng(22 + budget);
      std::mt19937_64 ref_rng(22 + budget);
      EXPECT_EQ(rows(s.candidates(budget, flat_rng)),
                reference_candidates(s, budget, ref_rng))
          << s.dims() << " dims, budget " << budget;
      EXPECT_TRUE(flat_rng == ref_rng);
      EXPECT_EQ(rows(s.sample(budget, flat_rng)),
                reference_sample(s, budget, ref_rng));
      EXPECT_TRUE(flat_rng == ref_rng);
    }
  }
}

TEST(CandidateOracle, LocalAndAxisMovesMatchSetGenerator) {
  const SearchSpace s({1, 1, 1, 1, 1}, {12, 30, 12, 4, 12});
  for (const Config& center : {Config{1, 1, 1, 1, 1}, Config{6, 15, 12, 2, 7},
                               Config{0, 40, 5, 9, -3}}) {
    for (const int radius : {1, 2, 3}) {
      EXPECT_EQ(rows(s.local_candidates(center, radius)),
                reference_local(s, center, radius));
    }
    for (const int levels : {1, 2, 8}) {
      EXPECT_EQ(rows(s.axis_candidates(center, levels)),
                reference_axis(s, center, levels));
    }
  }
}

TEST(ConfigBlock, SortedContainsFindsExactlyTheRows) {
  ConfigBlock block(2);
  for (const Config& c : {Config{3, 1}, Config{1, 2}, Config{3, 1},
                          Config{-4, 9}}) {
    block.push_back(c);
  }
  block.sort_unique();
  EXPECT_EQ(rows(block), (std::vector<Config>{{-4, 9}, {1, 2}, {3, 1}}));
  for (const Config& c : rows(block)) EXPECT_TRUE(block.sorted_contains(c));
  for (const Config& c : {Config{0, 0}, Config{3, 2}, Config{-5, 9},
                          Config{4, 0}}) {
    EXPECT_FALSE(block.sorted_contains(c));
  }
  EXPECT_THROW(block.push_back(Config{1, 2, 3}), std::invalid_argument);
}

}  // namespace
}  // namespace autra::bo
