// The incremental-GP contract (DESIGN.md §14): posteriors built through
// GpRegressor::observe() must be indistinguishable (<= 1e-9) from a
// from-scratch fit on the same data, snapshots must round-trip the fitted
// state bit-for-bit, every fallback-to-refit condition must fire and be
// counted, the observation window must evict exactly, and the always-on
// BayesOpt decision stream must be bit-identical across thread counts and
// across a snapshot/restore process boundary.
#include "bayesopt/bayes_opt.hpp"
#include "gp/gp_regressor.hpp"
#include "linalg/cholesky.hpp"

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "linalg_helpers.hpp"

namespace autra::gp {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// Random training set in [1, 10]^d whose first two rows pin the exact box
/// corners, so any prefix fit of >= 2 rows freezes the same normalisation
/// box and every later point is in-box (the incremental fast path).
struct DataSet {
  Matrix x;
  Vector y;
};

DataSet make_data(std::mt19937_64& rng, std::size_t n, std::size_t d) {
  std::uniform_real_distribution<double> coord(1.0, 10.0);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  DataSet data;
  data.x = Matrix(n, d);
  data.y.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      data.x(i, j) = i == 0 ? 1.0 : (i == 1 ? 10.0 : coord(rng));
    }
    double s = 1.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double dd = (data.x(i, j) - 6.0) / 5.0;
      s -= dd * dd / static_cast<double>(d);
    }
    data.y[i] = s + noise(rng);
  }
  return data;
}

GpConfig frozen_config() {
  GpConfig cfg;
  cfg.optimize_hyperparams = false;
  cfg.length_scale = 0.5;
  return cfg;
}

TEST(IncrementalGp, ObserveMatchesBatchFitAcross250Seeds) {
  for (std::uint64_t seed = 0; seed < 250; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t d = 1 + seed % 3;
    const std::size_t n = 8 + seed % 8;
    const DataSet data = make_data(rng, n, d);

    GpRegressor batch(frozen_config());
    batch.fit(data.x, data.y);

    const std::size_t n_seed = 2 + seed % 3;
    GpRegressor inc(frozen_config());
    Matrix x_seed(n_seed, d);
    Vector y_seed(n_seed);
    for (std::size_t i = 0; i < n_seed; ++i) {
      for (std::size_t j = 0; j < d; ++j) x_seed(i, j) = data.x(i, j);
      y_seed[i] = data.y[i];
    }
    inc.fit(x_seed, y_seed);
    for (std::size_t i = n_seed; i < n; ++i) {
      inc.observe(data.x.row(i), data.y[i]);
    }

    ASSERT_EQ(inc.num_samples(), n) << "seed " << seed;
    EXPECT_EQ(inc.fit_stats().incremental_updates, n - n_seed)
        << "seed " << seed;
    EXPECT_EQ(inc.fit_stats().full_fits, 1u) << "seed " << seed;

    // Every training point and a spread of fresh probes agree to <= 1e-9.
    std::uniform_real_distribution<double> coord(1.0, 10.0);
    for (std::size_t i = 0; i < n + 16; ++i) {
      std::vector<double> probe(d);
      if (i < n) {
        for (std::size_t j = 0; j < d; ++j) probe[j] = data.x(i, j);
      } else {
        for (std::size_t j = 0; j < d; ++j) probe[j] = coord(rng);
      }
      const Prediction a = batch.predict(probe);
      const Prediction b = inc.predict(probe);
      EXPECT_NEAR(a.mean, b.mean, 1e-9) << "seed " << seed << " probe " << i;
      EXPECT_NEAR(a.variance, b.variance, 1e-9)
          << "seed " << seed << " probe " << i;
    }
    EXPECT_NEAR(batch.log_marginal_likelihood(),
                inc.log_marginal_likelihood(), 1e-9)
        << "seed " << seed;
  }
}

TEST(IncrementalGp, DowndateUpdateRoundTripRestoresFactor) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 3 + static_cast<std::size_t>(rep) % 6;
    // Random SPD matrix A = B B^T + n I.
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b(i, j) = u(rng);
    }
    Matrix a = b * linalg::test_util::transposed(b);
    linalg::test_util::add_diagonal(a, static_cast<double>(n));
    auto chol = linalg::Cholesky::factor(a);
    ASSERT_TRUE(chol.has_value());
    const Matrix before = chol->lower();

    Vector v(n);
    for (double& x : v) x = u(rng);
    chol->update(v);
    chol->downdate(v);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        EXPECT_NEAR(chol->lower()(i, j), before(i, j), 1e-9)
            << "rep " << rep << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(IncrementalGp, SnapshotRestoreIsBitIdentical) {
  std::mt19937_64 rng(7);
  const DataSet data = make_data(rng, 10, 2);
  GpRegressor gp(frozen_config());
  Matrix x_seed(4, 2);
  Vector y_seed(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 2; ++j) x_seed(i, j) = data.x(i, j);
    y_seed[i] = data.y[i];
  }
  gp.fit(x_seed, y_seed);
  for (std::size_t i = 4; i < 10; ++i) gp.observe(data.x.row(i), data.y[i]);

  GpRegressor fresh(frozen_config());
  fresh.restore(gp.snapshot());

  ASSERT_EQ(fresh.num_samples(), gp.num_samples());
  std::uniform_real_distribution<double> coord(1.0, 10.0);
  for (int p = 0; p < 32; ++p) {
    const std::vector<double> probe{coord(rng), coord(rng)};
    const Prediction a = gp.predict(probe);
    const Prediction b = fresh.predict(probe);
    // Bit-identity, not approximation: restore() adopts the serialised
    // factor and recomputes the derived state with the same op order.
    EXPECT_EQ(a.mean, b.mean) << "probe " << p;
    EXPECT_EQ(a.variance, b.variance) << "probe " << p;
  }
  EXPECT_EQ(gp.log_marginal_likelihood(), fresh.log_marginal_likelihood());

  // The restored model keeps observing incrementally, bit-identically.
  const std::vector<double> nx{5.0, 5.0};
  gp.observe(nx, 0.5);
  fresh.observe(nx, 0.5);
  EXPECT_EQ(fresh.fit_stats().incremental_updates, 1u);
  const std::vector<double> probe{3.0, 7.0};
  EXPECT_EQ(gp.predict(probe).mean, fresh.predict(probe).mean);
}

TEST(IncrementalGp, OutOfBoxPointFallsBackToFullRefit) {
  std::mt19937_64 rng(11);
  const DataSet data = make_data(rng, 6, 2);
  GpRegressor gp(frozen_config());
  gp.fit(data.x, data.y);

  const std::vector<double> outside{20.0, 5.0};
  gp.observe(outside, 0.1);
  EXPECT_EQ(gp.fit_stats().normalisation_refits, 1u);
  EXPECT_EQ(gp.fit_stats().incremental_updates, 0u);
  EXPECT_EQ(gp.fit_stats().full_fits, 2u);

  // The refit widened the box; the next in-box point goes incremental and
  // the posterior still matches a batch fit of the same 8 rows.
  const std::vector<double> inside{15.0, 5.0};
  gp.observe(inside, 0.2);
  EXPECT_EQ(gp.fit_stats().incremental_updates, 1u);

  Matrix x_all(8, 2);
  Vector y_all(8);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 2; ++j) x_all(i, j) = data.x(i, j);
    y_all[i] = data.y[i];
  }
  x_all(6, 0) = 20.0;
  x_all(6, 1) = 5.0;
  y_all[6] = 0.1;
  x_all(7, 0) = 15.0;
  x_all(7, 1) = 5.0;
  y_all[7] = 0.2;
  GpRegressor batch(frozen_config());
  batch.fit(x_all, y_all);
  const std::vector<double> probe{8.0, 4.0};
  EXPECT_NEAR(batch.predict(probe).mean, gp.predict(probe).mean, 1e-9);
}

TEST(IncrementalGp, ReoptimizeCadenceTriggersHyperparamRefit) {
  std::mt19937_64 rng(13);
  const DataSet data = make_data(rng, 8, 2);
  GpConfig cfg;  // optimize_hyperparams stays on.
  cfg.reoptimize_every = 2;
  GpRegressor gp(cfg);
  Matrix x_seed(4, 2);
  Vector y_seed(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 2; ++j) x_seed(i, j) = data.x(i, j);
    y_seed[i] = data.y[i];
  }
  gp.fit(x_seed, y_seed);
  gp.observe(data.x.row(4), data.y[4]);  // 1st since fit: incremental.
  gp.observe(data.x.row(5), data.y[5]);  // 2nd: cadence refit.
  gp.observe(data.x.row(6), data.y[6]);  // counter reset: incremental again.
  EXPECT_EQ(gp.fit_stats().hyperparam_refits, 1u);
  EXPECT_EQ(gp.fit_stats().incremental_updates, 2u);
  EXPECT_EQ(gp.fit_stats().full_fits, 2u);
}

TEST(IncrementalGp, JitteredFactorFallsBackToFullRefit) {
  // Zero observation noise + a duplicated row force the fit's jitter
  // ladder to apply jitter; a jittered factor must never be extended
  // incrementally. The duplicate pair leads so the pivot residual is
  // exactly 1 - 1 = 0, making the unjittered factorisation fail
  // deterministically, and the ladder's first rung is enough.
  GpConfig cfg = frozen_config();
  cfg.noise_variance = 0.0;
  GpRegressor gp(cfg);
  Matrix x{{4.0}, {4.0}, {1.0}, {10.0}};
  Vector y{0.3, 0.3, 0.1, 0.2};
  gp.fit(x, y);
  EXPECT_EQ(gp.snapshot().jitter, 1e-10);
  gp.observe(std::vector<double>{7.0}, 0.4);
  EXPECT_EQ(gp.fit_stats().jitter_refits, 1u);
  EXPECT_EQ(gp.fit_stats().incremental_updates, 0u);
  EXPECT_EQ(gp.snapshot().jitter, 1e-10);
}

TEST(IncrementalGp, FailedFactorExtensionFallsBackToFullRefit) {
  // Noise-free model: re-observing an existing point makes the bordered
  // matrix singular, so append_row throws and observe() must recover
  // through a full (jittered) refit instead of corrupting the factor.
  GpConfig cfg = frozen_config();
  cfg.noise_variance = 0.0;
  GpRegressor gp(cfg);
  Matrix x{{1.0}, {10.0}, {4.0}};
  Vector y{0.1, 0.2, 0.3};
  gp.fit(x, y);
  ASSERT_EQ(gp.fit_stats().full_fits, 1u);
  gp.observe(std::vector<double>{4.0}, 0.3);
  EXPECT_EQ(gp.fit_stats().jitter_refits, 1u);
  EXPECT_EQ(gp.fit_stats().incremental_updates, 0u);
  EXPECT_EQ(gp.num_samples(), 4u);
  // Rounding leaves the refit's Gram matrix factorable without jitter.
  EXPECT_EQ(gp.snapshot().jitter, 0.0);
  // Still usable afterwards.
  EXPECT_TRUE(std::isfinite(gp.predict(std::vector<double>{5.0}).mean));
}

TEST(IncrementalGp, WindowEvictsOldestAndStaysBounded) {
  std::mt19937_64 rng(17);
  const DataSet data = make_data(rng, 12, 2);
  GpConfig cfg = frozen_config();
  cfg.max_observations = 6;
  GpRegressor gp(cfg);
  Matrix x_seed(6, 2);
  Vector y_seed(6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 2; ++j) x_seed(i, j) = data.x(i, j);
    y_seed[i] = data.y[i];
  }
  gp.fit(x_seed, y_seed);
  for (std::size_t i = 6; i < 12; ++i) gp.observe(data.x.row(i), data.y[i]);

  EXPECT_EQ(gp.num_samples(), 6u);
  EXPECT_EQ(gp.fit_stats().window_evictions, 6u);
  EXPECT_EQ(gp.fit_stats().incremental_updates, 6u);
  EXPECT_EQ(gp.fit_stats().full_fits, 1u);

  // The snapshot window is exactly the 6 newest raw observations.
  const GpSnapshot snap = gp.snapshot();
  ASSERT_EQ(snap.x.rows(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(snap.x(i, j), data.x(i + 6, j));
    }
    EXPECT_EQ(snap.y[i], data.y[i + 6]);
  }

  // A restored windowed model continues the eviction stream bit-identically.
  GpRegressor fresh(cfg);
  fresh.restore(snap);
  const std::vector<double> nx{4.5, 6.5};
  gp.observe(nx, 0.7);
  fresh.observe(nx, 0.7);
  ASSERT_EQ(fresh.num_samples(), 6u);
  const std::vector<double> probe{5.0, 5.0};
  EXPECT_EQ(gp.predict(probe).mean, fresh.predict(probe).mean);
  EXPECT_EQ(gp.predict(probe).variance, fresh.predict(probe).variance);
}

TEST(IncrementalGp, ObserveValidatesInput) {
  GpRegressor unfitted;
  EXPECT_THROW(unfitted.observe(std::vector<double>{1.0}, 0.0),
               std::logic_error);
  EXPECT_THROW(unfitted.snapshot(), std::logic_error);

  std::mt19937_64 rng(23);
  const DataSet data = make_data(rng, 5, 2);
  GpRegressor gp(frozen_config());
  gp.fit(data.x, data.y);
  EXPECT_THROW(gp.observe(std::vector<double>{1.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(gp.restore(GpSnapshot{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Always-on BayesOpt: decision bit-identity across threads and restarts.

double synthetic_score(const bo::Config& c) {
  double s = 1.0;
  for (int k : c) {
    const double d = (k - 5.0) / 8.0;
    s -= d * d / static_cast<double>(c.size());
  }
  return s;
}

bo::BayesOptConfig incremental_bo_config(int threads) {
  bo::BayesOptConfig cfg;
  cfg.incremental = true;
  cfg.gp.threads = threads;
  cfg.candidate_budget = 256;
  cfg.seed = 1234;
  return cfg;
}

std::vector<bo::Config> run_trajectory(bo::BayesOpt& opt, int rounds) {
  std::vector<bo::Config> decisions;
  for (int r = 0; r < rounds; ++r) {
    const bo::Suggestion s = opt.suggest();
    decisions.push_back(s.config);
    opt.observe(s.config, synthetic_score(s.config));
  }
  return decisions;
}

TEST(IncrementalBayesOpt, UsesIncrementalPathBetweenRounds) {
  bo::BayesOpt opt(bo::SearchSpace(2, 1, 8), incremental_bo_config(1));
  opt.observe({1, 1}, synthetic_score({1, 1}));
  opt.observe({8, 8}, synthetic_score({8, 8}));
  opt.observe({4, 4}, synthetic_score({4, 4}));
  (void)run_trajectory(opt, 6);
  const gp::FitStats& stats = opt.surrogate().fit_stats();
  EXPECT_GT(stats.incremental_updates, 0u);
  // Features are integer grid points inside the pinned [1,8] box, so no
  // normalisation fallback can fire; only the first fit is full.
  EXPECT_EQ(stats.normalisation_refits, 0u);
}

TEST(IncrementalBayesOpt, DecisionStreamBitIdenticalAcrossThreads) {
  std::vector<std::vector<bo::Config>> streams;
  for (const int threads : {1, 2, 8}) {
    bo::BayesOpt opt(bo::SearchSpace(3, 1, 6), incremental_bo_config(threads));
    opt.observe({1, 1, 1}, synthetic_score({1, 1, 1}));
    opt.observe({6, 6, 6}, synthetic_score({6, 6, 6}));
    opt.observe({3, 2, 4}, synthetic_score({3, 2, 4}));
    streams.push_back(run_trajectory(opt, 8));
  }
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);
}

TEST(IncrementalBayesOpt, SnapshotRestoreReproducesSuggestTrajectory) {
  const auto cfg = incremental_bo_config(1);
  bo::BayesOpt original(bo::SearchSpace(2, 1, 10), cfg);
  original.observe({1, 1}, synthetic_score({1, 1}));
  original.observe({10, 10}, synthetic_score({10, 10}));
  original.observe({5, 6}, synthetic_score({5, 6}));
  (void)run_trajectory(original, 4);  // Advance mid-run state.

  const bo::BayesOptSnapshot snap = original.snapshot();
  bo::BayesOpt restored(bo::SearchSpace(2, 1, 10), cfg);
  restored.restore(snap);

  const auto want = run_trajectory(original, 10);
  const auto got = run_trajectory(restored, 10);
  EXPECT_EQ(want, got);
}

TEST(IncrementalBayesOpt, RestoreRejectsForeignState) {
  const auto cfg = incremental_bo_config(1);
  bo::BayesOpt original(bo::SearchSpace(2, 1, 10), cfg);
  original.observe({9, 9}, 0.5);
  const bo::BayesOptSnapshot snap = original.snapshot();

  bo::BayesOpt smaller(bo::SearchSpace(2, 1, 4), cfg);
  EXPECT_THROW(smaller.restore(snap), std::invalid_argument);

  bo::BayesOptSnapshot bad = snap;
  bad.rng_state = "not a generator";
  bo::BayesOpt fresh(bo::SearchSpace(2, 1, 10), cfg);
  EXPECT_THROW(fresh.restore(bad), std::invalid_argument);
}

}  // namespace
}  // namespace autra::gp
