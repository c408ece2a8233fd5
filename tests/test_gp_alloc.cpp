// Pins the allocation-free posterior path: batched prediction, the in-place
// windowed factor update and EI scoring. This binary replaces the global
// operator new with a counting one, which is why it is not folded into
// test_gp: the counter must see only the calls a test brackets.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <span>
#include <vector>

#include "bayesopt/bayes_opt.hpp"
#include "gp/gp_regressor.hpp"

#include <gtest/gtest.h>

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

}  // namespace

// Out of line, like the deletes below: inlined into a caller, GCC's
// -Wmismatched-new-delete pairs the malloc() and free() inside them with
// the caller's delete and new and reports a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace autra {
namespace {

constexpr std::size_t kDims = 4;

/// Point i of a Weyl sequence in [1, 20]^4; points 0 and 1 are the box's
/// corners, so a fit on any prefix freezes a box that holds every point.
void weyl_point(std::size_t i, double* x) {
  constexpr double kWeyl[kDims] = {0.6180339887498949, 0.4142135623730951,
                                   0.7320508075688772, 0.2360679774997897};
  for (std::size_t j = 0; j < kDims; ++j) {
    const double f = static_cast<double>(i) * kWeyl[j];
    x[j] = i < 2 ? (i == 0 ? 1.0 : 20.0) : 1.0 + 19.0 * (f - std::floor(f));
  }
}

double target(const double* x) {
  double s = 1.0;
  for (std::size_t j = 0; j < kDims; ++j) {
    const double d = (x[j] - 8.0) / 10.0;
    s -= d * d / static_cast<double>(kDims);
  }
  return s;
}

gp::GpRegressor windowed_gp(std::size_t n) {
  gp::GpConfig cfg;
  cfg.optimize_hyperparams = false;
  cfg.length_scale = 0.3;
  cfg.noise_variance = 1e-3;
  cfg.max_observations = static_cast<int>(n);
  linalg::Matrix x(n, kDims);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    weyl_point(i, x.row(i).data());
    y[i] = target(x.row(i).data());
  }
  gp::GpRegressor model(cfg);
  model.fit(x, y);
  return model;
}

TEST(GpAlloc, WarmPredictBatchAllocatesNothing) {
  const gp::GpRegressor model = windowed_gp(64);
  std::vector<double> points(32 * kDims);
  for (std::size_t c = 0; c < 32; ++c) weyl_point(500 + c, &points[c * kDims]);
  std::vector<gp::Prediction> out(32);
  gp::PredictWorkspace ws;
  model.predict_batch(points, out, ws);  // grows the workspace

  const std::size_t before = g_allocations.load();
  model.predict_batch(points, out, ws);
  // A smaller block reuses the same buffers.
  model.predict_batch(std::span(points).first(5 * kDims),
                      std::span(out).first(5), ws);
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(GpAlloc, WindowedObserveAllocatesLessThanAQuarterOfTheFactor) {
  constexpr std::size_t n = 256;
  constexpr std::size_t kFactorBytes = n * n * sizeof(double);
  gp::GpRegressor model = windowed_gp(n);
  // Enough steps for the window's buffer to slide back to its corner.
  for (std::size_t step = 0; step < 40; ++step) {
    double x[kDims];
    weyl_point(n + step, x);
    const std::size_t before = g_bytes.load();
    model.observe(x, target(x));
    const std::size_t bytes = g_bytes.load() - before;
    EXPECT_LT(bytes, kFactorBytes / 4) << "observe " << step;
  }
  EXPECT_EQ(model.fit_stats().incremental_updates, 40u);
  EXPECT_EQ(model.fit_stats().window_evictions, 40u);
}

TEST(BayesOptAlloc, SuggestAllocatesLessThanOncePerScoredCandidate) {
  const bo::SearchSpace space(8, 1, 20);
  bo::BayesOptConfig cfg;
  cfg.gp.threads = 1;
  bo::BayesOpt opt(space, cfg);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int> dist(1, 20);
  for (int i = 0; i < 24; ++i) {
    bo::Config c(8);
    double s = 1.0;
    for (int& k : c) {
      k = dist(rng);
      s -= 0.002 * (k - 7) * (k - 7);
    }
    opt.observe(c, s);
  }
  // suggest() scores at least every sampled candidate that was not
  // observed (local and axis moves only add to them).
  std::mt19937_64 same_stream(cfg.seed);
  const std::size_t scored_at_least =
      space.candidates(cfg.candidate_budget, same_stream).size() -
      opt.observations().size();
  ASSERT_GT(scored_at_least, 4000u);

  const std::size_t before = g_allocations.load();
  const bo::Suggestion next = opt.suggest();  // refits the surrogate too
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_EQ(next.source, bo::SuggestionSource::kAcquisition);
  EXPECT_LT(allocations, scored_at_least);
}

}  // namespace
}  // namespace autra
