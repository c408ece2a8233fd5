// Unit tests for kernels, the GP regressor, the normal helpers and the
// Expected Improvement acquisition (paper Eqs. 5-7).
#include "gp/acquisition.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "gp/normal.hpp"

#include <cmath>
#include <limits>
#include <ostream>
#include <random>
#include <span>
#include <string>

#include <gtest/gtest.h>

namespace autra::gp {

// gtest prints a parameter it has no printer for as raw object bytes, and
// those bytes become part of the parameterised test names; ADL finds this
// one, so the names read (matern52, 1) and so on.
void PrintTo(KernelKind kind, std::ostream* os) { *os << to_string(kind); }

namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(Normal, PdfPeakAtZero) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_GT(normal_pdf(0.0), normal_pdf(0.5));
  EXPECT_NEAR(normal_pdf(1.0), normal_pdf(-1.0), 1e-15);
}

TEST(Normal, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
  EXPECT_NEAR(normal_cdf(8.0), 1.0, 1e-12);
}

TEST(Kernel, DiagonalIsSignalVariance) {
  const Matern52 k(2.5, 1.0);
  const std::vector<double> x{1.0, 2.0};
  EXPECT_NEAR(k(x, x), 2.5, 1e-12);
  EXPECT_DOUBLE_EQ(k.diagonal(), 2.5);
}

TEST(Kernel, SymmetricAndDecaying) {
  for (const KernelKind kind :
       {KernelKind::kMatern52, KernelKind::kMatern32, KernelKind::kRbf}) {
    const auto k = make_kernel(kind);
    const std::vector<double> a{0.0}, b{1.0}, c{3.0};
    EXPECT_NEAR((*k)(a, b), (*k)(b, a), 1e-15) << to_string(kind);
    EXPECT_GT((*k)(a, b), (*k)(a, c)) << to_string(kind);
    EXPECT_GT((*k)(a, a), (*k)(a, b)) << to_string(kind);
    EXPECT_GT((*k)(a, c), 0.0) << to_string(kind);
  }
}

TEST(Kernel, Matern52KnownValue) {
  const Matern52 k(1.0, 1.0);
  const std::vector<double> a{0.0}, b{1.0};
  const double s = std::sqrt(5.0);
  EXPECT_NEAR(k(a, b), (1.0 + s + 5.0 / 3.0) * std::exp(-s), 1e-12);
}

TEST(Kernel, RbfKnownValue) {
  const Rbf k(1.0, 2.0);
  const std::vector<double> a{0.0}, b{2.0};
  EXPECT_NEAR(k(a, b), std::exp(-0.5), 1e-12);
}

TEST(Kernel, BadHyperparamsThrow) {
  EXPECT_THROW(Matern52(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Matern52(1.0, -1.0), std::invalid_argument);
  Matern52 k;
  EXPECT_THROW(k.set_signal_variance(0.0), std::invalid_argument);
  EXPECT_THROW(k.set_length_scale(-0.1), std::invalid_argument);
}

TEST(Kernel, LogParamsRoundTrip) {
  Matern32 k(2.0, 0.5);
  const auto p = k.log_params();
  ASSERT_EQ(p.size(), 2u);
  Matern32 k2;
  k2.set_log_params(p);
  EXPECT_NEAR(k2.signal_variance(), 2.0, 1e-12);
  EXPECT_NEAR(k2.length_scale(), 0.5, 1e-12);
  EXPECT_THROW(k2.set_log_params(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Kernel, ParseUnknownNameThrows) {
  EXPECT_THROW(parse_kernel_kind("laplace"), std::invalid_argument);
  EXPECT_THROW(parse_kernel_kind(""), std::invalid_argument);
  EXPECT_THROW(parse_kernel_kind("Matern52"), std::invalid_argument);
}

TEST(Kernel, KindNameRoundTrip) {
  for (const KernelKind kind :
       {KernelKind::kMatern52, KernelKind::kMatern32, KernelKind::kRbf}) {
    EXPECT_EQ(parse_kernel_kind(to_string(kind)), kind);
    EXPECT_EQ(make_kernel(kind)->kind(), kind);
    EXPECT_EQ(make_kernel(kind)->name(), to_string(kind));
  }
}

TEST(Kernel, CloneIsIndependent) {
  Matern52 k(1.0, 1.0);
  const auto c = k.clone();
  k.set_length_scale(9.0);
  EXPECT_NEAR(c->length_scale(), 1.0, 1e-15);
  EXPECT_EQ(c->name(), "matern52");
}

TEST(Kernel, GramIsPositiveDefiniteWithJitter) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 5.0);
  Matrix x(12, 3);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) x(i, j) = dist(rng);
  }
  for (const KernelKind kind :
       {KernelKind::kMatern52, KernelKind::kMatern32, KernelKind::kRbf}) {
    const auto k = make_kernel(kind);
    Matrix g = k->gram(x);
    // Symmetric.
    for (std::size_t i = 0; i < g.rows(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_NEAR(g(i, j), g(j, i), 1e-14) << to_string(kind);
      }
    }
    g.add_diagonal(1e-8);
    EXPECT_NO_THROW(linalg::Cholesky::factor_with_jitter(g))
        << to_string(kind);
  }
}

TEST(GpRegressor, FitValidation) {
  GpRegressor gp;
  EXPECT_THROW(gp.fit(Matrix(), Vector{}), std::invalid_argument);
  EXPECT_THROW(gp.fit(Matrix(2, 1), Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(gp.predict(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(gp.log_marginal_likelihood(), std::logic_error);
  EXPECT_THROW(gp.best_observed(), std::logic_error);
  EXPECT_FALSE(gp.is_fitted());
}

TEST(GpRegressor, InterpolatesTrainingPoints) {
  Matrix x{{0.0}, {1.0}, {2.0}, {3.0}, {4.0}};
  Vector y{0.0, 1.0, 4.0, 9.0, 16.0};
  GpConfig cfg;
  cfg.noise_variance = 1e-8;
  GpRegressor gp(cfg);
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const Prediction p = gp.predict(x.row(i));
    EXPECT_NEAR(p.mean, y[i], 0.15) << "i=" << i;
    EXPECT_LT(p.stddev(), 0.5);
  }
}

TEST(GpRegressor, VarianceGrowsAwayFromData) {
  Matrix x{{0.0}, {1.0}, {2.0}};
  Vector y{1.0, 2.0, 1.5};
  GpRegressor gp;
  gp.fit(x, y);
  const double near = gp.predict(std::vector<double>{1.0}).variance;
  const double far = gp.predict(std::vector<double>{30.0}).variance;
  EXPECT_GT(far, near);
}

TEST(GpRegressor, PredictDimMismatchThrows) {
  GpRegressor gp;
  gp.fit(Matrix{{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}}, Vector{0.0, 1.0, 2.0});
  EXPECT_THROW(gp.predict(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(GpRegressor, ConstantTargetsHandled) {
  GpRegressor gp;
  gp.fit(Matrix{{0.0}, {1.0}, {2.0}}, Vector{5.0, 5.0, 5.0});
  const Prediction p = gp.predict(std::vector<double>{0.5});
  EXPECT_NEAR(p.mean, 5.0, 0.1);
  EXPECT_TRUE(std::isfinite(p.variance));
}

TEST(GpRegressor, SingleSampleFit) {
  GpRegressor gp;
  gp.fit(Matrix{{3.0}}, Vector{7.0});
  const Prediction p = gp.predict(std::vector<double>{3.0});
  EXPECT_NEAR(p.mean, 7.0, 0.2);
  EXPECT_EQ(gp.num_samples(), 1u);
}

TEST(GpRegressor, BestObserved) {
  GpRegressor gp;
  gp.fit(Matrix{{0.0}, {1.0}, {2.0}}, Vector{1.0, 9.0, 4.0});
  EXPECT_NEAR(gp.best_observed(), 9.0, 1e-9);
}

TEST(GpRegressor, LogMarginalLikelihoodFiniteAndBetterForTrueModel) {
  // Data drawn from a smooth function should prefer a moderate length
  // scale over a pathologically small one.
  Matrix x(9, 1);
  Vector y(9);
  for (int i = 0; i < 9; ++i) {
    x(static_cast<std::size_t>(i), 0) = i;
    y[static_cast<std::size_t>(i)] = std::sin(0.5 * i);
  }
  GpRegressor gp;
  gp.fit(x, y);
  EXPECT_TRUE(std::isfinite(gp.log_marginal_likelihood()));
  EXPECT_GT(gp.kernel().length_scale(), 0.05);
}

TEST(GpRegressor, FixedHyperparametersRespected) {
  GpConfig cfg;
  cfg.optimize_hyperparams = false;
  GpRegressor gp(cfg);
  const double sv_before = gp.kernel().signal_variance();
  const double ls_before = gp.kernel().length_scale();
  Matrix x{{0.0}, {1.0}, {2.0}, {3.0}, {4.0}, {5.0}};
  Vector y{0.0, 1.0, 4.0, 9.0, 16.0, 25.0};
  gp.fit(x, y);
  EXPECT_DOUBLE_EQ(gp.kernel().signal_variance(), sv_before);
  EXPECT_DOUBLE_EQ(gp.kernel().length_scale(), ls_before);
  // Predictions are still sane.
  EXPECT_NEAR(gp.predict(std::vector<double>{2.0}).mean, 4.0, 2.0);
}

TEST(GpRegressor, CustomGridBoundsHonoured) {
  GpConfig cfg;
  cfg.min_length_scale = 0.5;
  cfg.max_length_scale = 1.0;
  cfg.grid_points = 4;
  GpRegressor gp(cfg);
  Matrix x(10, 1);
  Vector y(10);
  for (int i = 0; i < 10; ++i) {
    x(static_cast<std::size_t>(i), 0) = i;
    y[static_cast<std::size_t>(i)] = std::sin(i * 0.7);
  }
  gp.fit(x, y);
  EXPECT_GE(gp.kernel().length_scale(), 0.5 - 1e-9);
  EXPECT_LE(gp.kernel().length_scale(), 1.0 + 1e-9);
}

TEST(GpRegressor, TwoSamplesSkipHyperparameterSearch) {
  GpRegressor gp;
  gp.fit(Matrix{{0.0}, {5.0}}, Vector{1.0, 3.0});
  EXPECT_TRUE(gp.is_fitted());
  EXPECT_EQ(gp.num_samples(), 2u);
  EXPECT_TRUE(std::isfinite(gp.predict(std::vector<double>{2.5}).mean));
}

TEST(GpRegressor, RefitWithIdenticalDataShortCircuits) {
  Matrix x{{0.0}, {2.0}, {5.0}};
  Vector y{1.0, -1.0, 0.5};
  GpRegressor gp;
  gp.fit(x, y);
  ASSERT_EQ(gp.fit_stats().full_fits, 1u);
  const Prediction before = gp.predict(std::vector<double>{1.5});

  // Byte-identical inputs must be recognised and the cached factor reused.
  gp.fit(x, y);
  EXPECT_EQ(gp.fit_stats().fingerprint_hits, 1u);
  EXPECT_EQ(gp.fit_stats().full_fits, 1u);
  const Prediction cached = gp.predict(std::vector<double>{1.5});
  EXPECT_EQ(cached.mean, before.mean);
  EXPECT_EQ(cached.variance, before.variance);

  // Any changed byte must defeat the short-circuit.
  y[2] = 0.75;
  gp.fit(x, y);
  EXPECT_EQ(gp.fit_stats().fingerprint_hits, 1u);
  EXPECT_EQ(gp.fit_stats().full_fits, 2u);
  EXPECT_NE(gp.predict(std::vector<double>{5.0}).mean, before.mean);
}

TEST(GpRegressor, CopyIsDeepAndIndependent) {
  GpRegressor original;
  original.fit(Matrix{{0.0}, {1.0}, {2.0}}, Vector{1.0, 2.0, 3.0});
  GpRegressor copy = original;
  const Prediction before = copy.predict(std::vector<double>{1.5});
  // Refitting the original must not change the copy.
  original.fit(Matrix{{0.0}, {1.0}, {2.0}}, Vector{-9.0, -9.0, -9.0});
  const Prediction after = copy.predict(std::vector<double>{1.5});
  EXPECT_DOUBLE_EQ(before.mean, after.mean);
  EXPECT_DOUBLE_EQ(before.variance, after.variance);

  GpRegressor assigned;
  assigned = copy;
  EXPECT_DOUBLE_EQ(assigned.predict(std::vector<double>{1.5}).mean,
                   before.mean);
}

TEST(GpRegressor, BatchPredictMatchesPointwise) {
  Matrix x{{0.0}, {2.0}, {5.0}};
  Vector y{1.0, -1.0, 0.5};
  GpRegressor gp;
  gp.fit(x, y);
  const auto batch = gp.predict(x);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const Prediction p = gp.predict(x.row(i));
    EXPECT_EQ(batch[i].mean, p.mean);
    EXPECT_EQ(batch[i].variance, p.variance);
  }
}

// Property: the regressor stays numerically healthy across kernels and
// dimensions on random data.
class GpRegressorProperty
    : public ::testing::TestWithParam<std::tuple<KernelKind, int>> {};

TEST_P(GpRegressorProperty, FinitePredictionsOnRandomData) {
  const auto [kernel, dims] = GetParam();
  std::mt19937_64 rng(101 + static_cast<unsigned>(dims));
  std::uniform_real_distribution<double> dist(0.0, 10.0);

  Matrix x(20, static_cast<std::size_t>(dims));
  Vector y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      x(i, j) = dist(rng);
      s += x(i, j);
    }
    y[i] = std::sin(s) + 0.1 * dist(rng);
  }

  GpConfig cfg;
  cfg.kernel = kernel;
  GpRegressor gp(cfg);
  gp.fit(x, y);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> q(static_cast<std::size_t>(dims));
    for (double& v : q) v = dist(rng);
    const Prediction p = gp.predict(q);
    EXPECT_TRUE(std::isfinite(p.mean));
    EXPECT_TRUE(std::isfinite(p.variance));
    EXPECT_GE(p.variance, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndDims, GpRegressorProperty,
    ::testing::Combine(::testing::Values(KernelKind::kMatern52,
                                         KernelKind::kMatern32,
                                         KernelKind::kRbf),
                       ::testing::Values(1, 2, 4, 6)));

TEST(ExpectedImprovement, ZeroWhenNoVariance) {
  EXPECT_DOUBLE_EQ(
      expected_improvement({.mean = 10.0, .variance = 0.0}, 0.0), 0.0);
}

TEST(ExpectedImprovement, PositiveWhenMeanAboveIncumbent) {
  const double ei =
      expected_improvement({.mean = 1.0, .variance = 0.01}, 0.0, 0.0);
  EXPECT_NEAR(ei, 1.0, 0.01);  // Essentially certain improvement of 1.
}

TEST(ExpectedImprovement, DecreasesWithIncumbent) {
  const Prediction p{.mean = 1.0, .variance = 0.25};
  EXPECT_GT(expected_improvement(p, 0.0), expected_improvement(p, 0.9));
}

TEST(ExpectedImprovement, VarianceEnablesExploration) {
  // Mean below incumbent: only variance can make EI positive.
  const double low_var =
      expected_improvement({.mean = 0.0, .variance = 0.0001}, 1.0);
  const double high_var =
      expected_improvement({.mean = 0.0, .variance = 4.0}, 1.0);
  EXPECT_GT(high_var, low_var);
  EXPECT_GE(low_var, 0.0);
}

TEST(ExpectedImprovement, XiReducesGreediness) {
  const Prediction p{.mean = 1.0, .variance = 0.04};
  EXPECT_GT(expected_improvement(p, 0.5, 0.0),
            expected_improvement(p, 0.5, 0.4));
}

TEST(ExpectedImprovement, NeverNegative) {
  for (double mean : {-5.0, 0.0, 5.0}) {
    for (double var : {0.0, 0.01, 1.0}) {
      for (double best : {-10.0, 0.0, 10.0}) {
        EXPECT_GE(expected_improvement({.mean = mean, .variance = var}, best),
                  0.0);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Bit-exact reference oracle: the per-point posterior as it was computed
// before prediction was batched (kernel pairs, a one-row forward solve, two
// dot products), rebuilt from the regressor's snapshot.

double reference_kernel(const GpSnapshot& s, std::span<const double> a,
                        std::span<const double> b) {
  double d2 = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double diff = a[j] - b[j];
    d2 += diff * diff;
  }
  const double sv = s.signal_variance;
  const double ls = s.length_scale;
  switch (s.kernel) {
    case KernelKind::kMatern52: {
      const double r = std::sqrt(d2) / ls;
      const double t = std::sqrt(5.0) * r;
      return sv * (1.0 + t + t * t / 3.0) * std::exp(-t);
    }
    case KernelKind::kMatern32: {
      const double r = std::sqrt(d2) / ls;
      const double t = std::sqrt(3.0) * r;
      return sv * (1.0 + t) * std::exp(-t);
    }
    case KernelKind::kRbf:
      return sv * std::exp(-d2 / (2.0 * ls * ls));
  }
  return 0.0;
}

Vector reference_forward(const Matrix& l, const Vector& b) {
  Vector x(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

Vector reference_backward(const Matrix& l, const Vector& b) {
  const std::size_t n = b.size();
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

double reference_dot(const Vector& a, const Vector& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

Prediction reference_predict(const GpSnapshot& s,
                             std::span<const double> x_star) {
  const std::size_t n = s.x.rows();
  const std::size_t d = s.x.cols();
  Vector offset(d), scale(d);
  for (std::size_t j = 0; j < d; ++j) {
    offset[j] = s.x_lo[j];
    scale[j] = s.x_hi[j] > s.x_lo[j] ? s.x_hi[j] - s.x_lo[j] : 1.0;
  }
  double y_mean = 0.0;
  for (double v : s.y) y_mean += v;
  y_mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : s.y) var += (v - y_mean) * (v - y_mean);
  var /= static_cast<double>(n);
  const double y_std = var > 1e-12 ? std::sqrt(var) : 1.0;
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = (s.y[i] - y_mean) / y_std;
  const Vector alpha = reference_backward(s.l, reference_forward(s.l, y));

  Vector z(d);
  for (std::size_t j = 0; j < d; ++j) z[j] = (x_star[j] - offset[j]) / scale[j];
  Vector k_star(n);
  Vector xi(d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      xi[j] = (s.x(i, j) - offset[j]) / scale[j];
    }
    k_star[i] = reference_kernel(s, xi, z);
  }
  const double mean_n = reference_dot(k_star, alpha);
  const Vector v = reference_forward(s.l, k_star);
  const double var_n = std::max(s.signal_variance - reference_dot(v, v), 0.0);
  return {mean_n * y_std + y_mean, var_n * y_std * y_std};
}

/// Predicts `points` (row-major) one by one and as one block, and checks
/// both against the reference, bit for bit.
void expect_matches_reference(const GpRegressor& gp, const Matrix& points,
                              const std::string& where) {
  const GpSnapshot snap = gp.snapshot();
  PredictWorkspace ws;
  std::vector<Prediction> batch(points.rows());
  gp.predict_batch(points.data(), batch, ws);
  for (std::size_t c = 0; c < points.rows(); ++c) {
    const Prediction want = reference_predict(snap, points.row(c));
    const Prediction one = gp.predict(points.row(c));
    EXPECT_EQ(one.mean, want.mean) << where << " point " << c;
    EXPECT_EQ(one.variance, want.variance) << where << " point " << c;
    EXPECT_EQ(batch[c].mean, want.mean) << where << " point " << c;
    EXPECT_EQ(batch[c].variance, want.variance) << where << " point " << c;
  }
}

TEST(GpPredictOracle, BatchAndPointMatchReferenceAfterObserveAndRestore) {
  constexpr std::size_t kDims = 3;
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto draw = [&] {
    std::vector<double> p(kDims);
    for (double& v : p) v = 1.0 + 9.0 * unit(rng);
    return p;
  };
  const auto target = [](std::span<const double> p) {
    return std::sin(p[0]) + 0.3 * p[1] - 0.05 * p[2] * p[2];
  };
  for (const KernelKind kind :
       {KernelKind::kMatern52, KernelKind::kMatern32, KernelKind::kRbf}) {
    const std::string name = to_string(kind);
    GpConfig cfg;
    cfg.kernel = kind;
    cfg.max_observations = 24;
    cfg.threads = 1;
    GpRegressor gp(cfg);
    // Rows 0 and 1 pin the box corners, so later points stay inside it and
    // observe() takes the incremental path.
    Matrix x(20, kDims);
    Vector y(20);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const std::vector<double> p =
          i < 2 ? std::vector<double>(kDims, i == 0 ? 1.0 : 10.0) : draw();
      std::copy(p.begin(), p.end(), x.row(i).begin());
      y[i] = target(p);
    }
    gp.fit(x, y);
    for (int k = 0; k < 12; ++k) {
      const std::vector<double> p = draw();
      gp.observe(p, target(p));
    }
    ASSERT_GT(gp.fit_stats().window_evictions, 0u) << name;
    ASSERT_GT(gp.fit_stats().incremental_updates, 0u) << name;

    // 37 points: not a multiple of the solve's 8-row block.
    Matrix points(37, kDims);
    for (std::size_t c = 0; c < points.rows(); ++c) {
      const std::vector<double> p = draw();
      std::copy(p.begin(), p.end(), points.row(c).begin());
    }
    expect_matches_reference(gp, points, name + " after observe");

    GpRegressor restored(cfg);
    restored.restore(gp.snapshot());
    expect_matches_reference(restored, points, name + " after restore");
  }
}

TEST(GpPredictOracle, BatchValidatesItsInput) {
  GpRegressor gp;
  PredictWorkspace ws;
  Prediction out[2];
  const std::vector<double> rows{1.0, 2.0};
  EXPECT_THROW(gp.predict_batch(rows, out, ws), std::logic_error);
  gp.fit(Matrix{{0.0}, {1.0}, {2.0}}, Vector{0.0, 1.0, 0.5});
  EXPECT_THROW(gp.predict_batch(std::vector<double>{1.0}, out, ws),
               std::invalid_argument);
  EXPECT_NO_THROW(gp.predict_batch(rows, out, ws));
  EXPECT_NO_THROW(gp.predict_batch({}, {}, ws));
  EXPECT_TRUE(gp.predict(Matrix(0, 1)).empty());
}

// --------------------------------------------------------------------------
// Non-finite input is rejected at the boundary, before any state changes.

void expect_same_state(const GpRegressor& gp, const GpSnapshot& before,
                       const FitStats& stats_before) {
  const GpSnapshot after = gp.snapshot();
  EXPECT_TRUE(after.x == before.x);
  EXPECT_EQ(after.y, before.y);
  EXPECT_TRUE(after.l == before.l);
  EXPECT_EQ(gp.fit_stats(), stats_before);
}

TEST(GpRegressor, NonFiniteInputThrowsBeforeChangingState) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  GpConfig cfg;
  cfg.max_observations = 4;
  GpRegressor gp(cfg);
  const Matrix x{{0.0, 0.0}, {4.0, 4.0}, {1.0, 3.0}, {2.0, 1.0}};
  const Vector y{0.5, -0.5, 0.25, 1.0};

  GpRegressor fresh(cfg);
  EXPECT_THROW(fresh.fit(x, Vector{0.5, nan, 0.25, 1.0}),
               std::invalid_argument);
  EXPECT_FALSE(fresh.is_fitted());

  gp.fit(x, y);
  const GpSnapshot before = gp.snapshot();
  const FitStats stats = gp.fit_stats();

  EXPECT_THROW(gp.fit(x, Vector{0.5, -0.5, nan, 1.0}), std::invalid_argument);
  expect_same_state(gp, before, stats);
  Matrix bad_x = x;
  bad_x(2, 1) = inf;
  EXPECT_THROW(gp.fit(bad_x, y), std::invalid_argument);
  expect_same_state(gp, before, stats);

  // A full window, so a bad observation would also have evicted a point.
  EXPECT_THROW(gp.observe(std::vector<double>{2.0, 2.0}, nan),
               std::invalid_argument);
  expect_same_state(gp, before, stats);
  EXPECT_THROW(gp.observe(std::vector<double>{nan, 2.0}, 0.3),
               std::invalid_argument);
  expect_same_state(gp, before, stats);
  EXPECT_THROW(gp.observe(std::vector<double>{2.0, -inf}, 0.3),
               std::invalid_argument);
  expect_same_state(gp, before, stats);

  // Still a working model.
  gp.observe(std::vector<double>{2.0, 2.0}, 0.3);
  EXPECT_EQ(gp.fit_stats().incremental_updates, 1u);
}

}  // namespace
}  // namespace autra::gp
