// Pins the allocation-free posterior path: batched prediction, the in-place
// windowed factor update and EI scoring, and the one n^2 buffer of a fit.
// This binary replaces the global operator new with a counting one, which
// is why it is not folded into test_gp: the counter must see only the
// calls a test brackets.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <span>
#include <vector>

#include "bayesopt/bayes_opt.hpp"
#include "gp/gp_regressor.hpp"
#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};
// Blocks of at least g_big_bytes: how many were allocated, how many are
// live (std::allocator frees them through the sized delete), and the most
// that were live at once since a test last reset g_big_peak.
std::atomic<std::size_t> g_big_bytes{std::numeric_limits<std::size_t>::max()};
std::atomic<std::size_t> g_big_allocations{0};
std::atomic<std::size_t> g_big_live{0};
std::atomic<std::size_t> g_big_peak{0};

}  // namespace

// Out of line, like the deletes below: inlined into a caller, GCC's
// -Wmismatched-new-delete pairs the malloc() and free() inside them with
// the caller's delete and new and reports a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size >= g_big_bytes.load(std::memory_order_relaxed)) {
    g_big_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t live =
        g_big_live.fetch_add(1, std::memory_order_relaxed) + 1;
    std::size_t peak = g_big_peak.load(std::memory_order_relaxed);
    while (live > peak && !g_big_peak.compare_exchange_weak(peak, live)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t size) noexcept {
  if (size >= g_big_bytes.load(std::memory_order_relaxed)) {
    g_big_live.fetch_sub(1, std::memory_order_relaxed);
  }
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

struct Data {
  linalg::Matrix x;
  linalg::Vector y;
};

/// Points first, ..., first + n - 1 of the Weyl sequence and their targets.
Data weyl_data(std::size_t n, std::size_t first) {
  Data d{linalg::Matrix(n, kDims), linalg::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    weyl_point(first + i, d.x.row(i).data());
    d.y[i] = target(d.x.row(i).data());
  }
  return d;
}

gp::GpConfig frozen_config() {
  gp::GpConfig cfg;
  cfg.optimize_hyperparams = false;
  cfg.length_scale = 0.3;
  cfg.noise_variance = 1e-3;
  return cfg;
}

gp::GpRegressor windowed_gp(std::size_t n) {
  gp::GpConfig cfg = frozen_config();
  cfg.max_observations = static_cast<int>(n);
  const Data data = weyl_data(n, 0);
  gp::GpRegressor model(cfg);
  model.fit(data.x, data.y);
  return model;
}

/// Counts blocks of at least n^2 doubles while in scope.
class BigBlocks {
 public:
  explicit BigBlocks(std::size_t n) {
    g_big_live = 0;
    g_big_bytes = n * n * sizeof(double);
  }
  ~BigBlocks() { g_big_bytes = std::numeric_limits<std::size_t>::max(); }
  BigBlocks(const BigBlocks&) = delete;
  BigBlocks& operator=(const BigBlocks&) = delete;
};

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

TEST(GpAlloc, FrozenFitBuildsItsGramInItsOneFactorBuffer) {
  constexpr std::size_t n = 256;
  const Data first = weyl_data(n, 0);
  const Data second = weyl_data(n, 1000);
  const BigBlocks big(n);
  std::size_t before = g_bytes.load();
  { const linalg::Cholesky buffer(n); }
  const std::size_t factor_bytes = g_bytes.load() - before;

  gp::GpRegressor model(frozen_config());
  // The second fit is a refit: the first fit's factor is live when it
  // starts, and must be freed before the new buffer is allocated.
  for (const Data* data : {&first, &second}) {
    const std::size_t allocations = g_big_allocations.load();
    before = g_bytes.load();
    g_big_peak = g_big_live.load();
    model.fit(data->x, data->y);
    EXPECT_EQ(g_big_allocations.load() - allocations, 1u);
    EXPECT_LT(g_bytes.load() - before, factor_bytes + factor_bytes / 4);
    EXPECT_EQ(g_big_peak.load(), 1u);
  }
  EXPECT_EQ(model.fit_stats().full_fits, 2u);
}

TEST(GpAlloc, GridFitKeepsOneFactorBufferPerTask) {
  constexpr std::size_t n = 256;
  const Data data = weyl_data(n, 0);
  const BigBlocks big(n);
  gp::GpConfig cfg;
  cfg.threads = 1;
  gp::GpRegressor model(cfg);
  const std::size_t allocations = g_big_allocations.load();
  g_big_peak = 0;
  model.fit(data.x, data.y);
  // One buffer for each of the 12 length scales' 12 signal variances, one
  // for the final factor, and at one thread never two at once.
  EXPECT_LE(g_big_allocations.load() - allocations, 13u);
  EXPECT_EQ(g_big_peak.load(), 1u);
}

TEST(GpAlloc, GridFitSolvesIntoOneScratchVectorPerTask) {
  // A 12 x 12 grid fit at one thread: each length scale's task allocates
  // its kernel, shapes, factor buffer and one vector every signal
  // variance's solve overwrites, never a vector per solve.
  for (const std::size_t n : {24u, 64u, 256u}) {
    const Data data = weyl_data(n, 0);
    gp::GpConfig cfg;
    cfg.threads = 1;
    gp::GpRegressor model(cfg);
    const std::size_t before = g_allocations.load();
    model.fit(data.x, data.y);
    EXPECT_LE(g_allocations.load() - before, 75u) << "n = " << n;
  }
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
