#include "gp/gp_regressor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>

#include "exec/exec.hpp"

namespace autra::gp {

namespace {

/// Log marginal likelihood for a given factorisation:
/// -1/2 y^T alpha - sum log L_ii - n/2 log(2 pi).
double compute_log_ml(const linalg::Cholesky& chol, const linalg::Vector& y,
                      const linalg::Vector& alpha) {
  double fit = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) fit += y[i] * alpha[i];
  const double n = static_cast<double>(y.size());
  return -0.5 * fit - 0.5 * chol.log_determinant() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

/// True when `a` and `b` hold the same doubles bit for bit (so -0.0 and
/// 0.0 differ): the only case in which fit() may skip a refit.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::ranges::equal(std::as_bytes(a), std::as_bytes(b));
}

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

void check_noise_variance(double v, const char* where) {
  if (!std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument(std::string(where) +
                                ": noise_variance must be finite and >= 0");
  }
}

}  // namespace

double Prediction::stddev() const noexcept { return std::sqrt(variance); }

GpRegressor::GpRegressor(GpConfig config)
    : config_(std::move(config)),
      kernel_(make_kernel(config_.kernel, config_.signal_variance,
                          config_.length_scale)) {
  check_noise_variance(config_.noise_variance, "GpRegressor");
}

GpRegressor::GpRegressor(const GpRegressor& other)
    : config_(other.config_),
      kernel_(other.kernel_->clone()),
      fitted_(other.fitted_),
      x_raw_(other.x_raw_),
      y_raw_(other.y_raw_),
      observe_count_(other.observe_count_),
      x_(other.x_),
      y_(other.y_),
      x_offset_(other.x_offset_),
      x_scale_(other.x_scale_),
      x_lo_(other.x_lo_),
      x_hi_(other.x_hi_),
      y_mean_(other.y_mean_),
      y_std_(other.y_std_),
      chol_(other.chol_),
      alpha_(other.alpha_),
      log_ml_(other.log_ml_),
      jitter_(other.jitter_),
      stats_(other.stats_) {}

GpRegressor& GpRegressor::operator=(const GpRegressor& other) {
  if (this != &other) {
    GpRegressor copy(other);
    *this = std::move(copy);
  }
  return *this;
}

void GpRegressor::fit(const linalg::Matrix& x, const linalg::Vector& y) {
  if (x.rows() == 0 || x.cols() == 0) {
    throw std::invalid_argument("GpRegressor::fit: empty training data");
  }
  if (x.rows() != y.size()) {
    throw std::invalid_argument("GpRegressor::fit: X/y size mismatch");
  }
  if (!all_finite(x.data()) || !all_finite(y)) {
    throw std::invalid_argument("GpRegressor::fit: non-finite training data");
  }
  // Equal lengths of y and of X's data make the shapes equal too.
  if (fitted_ && same_bits(y, y_raw_) && same_bits(x.data(), x_raw_.data())) {
    ++stats_.fingerprint_hits;
    return;
  }
  x_raw_ = x;
  y_raw_ = y;
  fit_from_raw();
}

void GpRegressor::fit_from_raw() {
  // The model counts as fitted again only once its new factor is whole,
  // and the old factor goes first, so a refit never holds two.
  fitted_ = false;
  chol_.reset();
  const std::size_t n = x_raw_.rows();
  const std::size_t d = x_raw_.cols();

  // Input normalisation to [0, 1] per dimension (constant dims map to 0).
  // The data box is frozen here: observe() extends the factor only for
  // points inside it, which is exactly the condition under which a batch
  // refit would derive the same offset/scale.
  x_offset_.assign(d, 0.0);
  x_scale_.assign(d, 1.0);
  x_lo_.assign(d, 0.0);
  x_hi_.assign(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    double lo = x_raw_(0, j), hi = x_raw_(0, j);
    for (std::size_t i = 1; i < n; ++i) {
      lo = std::min(lo, x_raw_(i, j));
      hi = std::max(hi, x_raw_(i, j));
    }
    x_lo_[j] = lo;
    x_hi_[j] = hi;
    x_offset_[j] = lo;
    x_scale_[j] = (hi > lo) ? (hi - lo) : 1.0;
  }
  x_ = linalg::Matrix(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      x_(i, j) = normalize(x_raw_(i, j), j);
    }
  }

  refresh_targets();
  observe_count_ = 0;
  ++stats_.full_fits;

  if (config_.optimize_hyperparams && n >= 3) choose_hyperparameters();
  factor_gram();
  fitted_ = true;
}

void GpRegressor::choose_hyperparameters() {
  // Multi-start grid search over (signal variance, length scale) maximising
  // the log marginal likelihood. With standardised targets the optimal
  // signal variance is near 1, so a modest grid around it suffices. A
  // kernel's shape and decay depend on the length scale only, so each
  // length scale computes them once and builds the Gram matrix, Cholesky
  // and log-ML of every signal variance from them; the length scales run
  // in parallel. The argmax scan runs serially in grid order (signal
  // variance outer), which keeps the selected hyper-parameters
  // bit-identical at any thread count.
  const std::size_t n = x_.rows();
  const std::size_t g =
      static_cast<std::size_t>(std::max(2, config_.grid_points));
  const auto log_spaced = [g](double lo, double hi, std::size_t i) {
    return std::exp(std::log(lo) + (std::log(hi) - std::log(lo)) *
                                       static_cast<double>(i) /
                                       static_cast<double>(g - 1));
  };
  std::vector<double> svs(g), lss(g);
  for (std::size_t i = 0; i < g; ++i) {
    svs[i] = log_spaced(0.1, 10.0, i);
    lss[i] = log_spaced(config_.min_length_scale, config_.max_length_scale, i);
  }
  // The pairwise distances do not depend on the hyper-parameters: the
  // squared distances below the diagonal, row by row, computed once.
  std::vector<double> below;
  below.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      below.push_back(linalg::squared_distance(x_.row(i), x_.row(j)));
    }
  }

  std::vector<double> log_mls(g * g);
  const exec::ExecContext ctx(config_.threads);
  exec::parallel_for(ctx, g, [&](std::size_t b) {
    const auto kernel = make_kernel(kernel_->kind(), 1.0, lss[b]);
    std::vector<double> shape = below;
    std::vector<double> decay(below.size());
    kernel->shape_and_decay(shape, decay);
    // One factor buffer, refilled with the lower triangle of K + noise I
    // for each signal variance, and one vector each solve overwrites.
    linalg::Cholesky k(n);
    linalg::Vector alpha;
    for (std::size_t a = 0; a < g; ++a) {
      kernel->set_signal_variance(svs[a]);
      std::size_t p = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::span<double> row = k.lower_row(i);
        for (std::size_t j = 0; j < i; ++j, ++p) {
          row[j] = kernel->covariance(shape[p], decay[p]);
        }
        row[i] = kernel->diagonal() + config_.noise_variance;
      }
      if (!k.factor_in_place()) {
        log_mls[a * g + b] = -std::numeric_limits<double>::infinity();
        continue;
      }
      alpha = y_;
      k.solve_in_place(alpha);
      log_mls[a * g + b] = compute_log_ml(k, y_, alpha);
    }
  });

  double best_ml = -std::numeric_limits<double>::infinity();
  double best_sv = 1.0;
  double best_ls = 1.0;
  for (std::size_t i = 0; i < log_mls.size(); ++i) {
    if (log_mls[i] > best_ml) {
      best_ml = log_mls[i];
      best_sv = svs[i / g];
      best_ls = lss[i % g];
    }
  }
  kernel_->set_signal_variance(best_sv);
  kernel_->set_length_scale(best_ls);
}

void GpRegressor::factor_gram() {
  const std::size_t n = x_.rows();
  const double diagonal = kernel_->diagonal() + config_.noise_variance;
  linalg::Cholesky chol(n);
  // The jitter ladder, the standard defence against the nearly singular
  // Gram matrices of duplicated points: the plain matrix first, then
  // 1e-10, 1e-9, ... up to 1e-2 on its diagonal, each attempt refilling
  // the buffer the one before overwrote. observe() extends only a factor
  // without jitter.
  for (double jitter = 0.0;; jitter = jitter == 0.0 ? 1e-10 : jitter * 10.0) {
    if (jitter > 1e-2) {
      throw std::runtime_error(
          "GpRegressor::fit: Gram matrix not positive definite even with "
          "maximum jitter");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<double> row = chol.lower_row(i);
      for (std::size_t j = 0; j < i; ++j) {
        row[j] = linalg::squared_distance(x_.row(i), x_.row(j));
      }
      kernel_->covariance_from_squared_distances(row.first(i));
      row[i] = diagonal + jitter;
    }
    if (chol.factor_in_place()) {
      jitter_ = jitter;
      break;
    }
  }
  chol_ = std::move(chol);
  alpha_ = chol_->solve(y_);
  log_ml_ = compute_log_ml(*chol_, y_, alpha_);
}

void GpRegressor::refresh_targets() {
  // Identical floating-point op order to the historical batch fit(): a
  // posterior built through observe() must match a from-scratch fit on the
  // same raw window bit-for-bit on the y side.
  const std::size_t n = y_raw_.size();
  double mean = 0.0;
  for (double v : y_raw_) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : y_raw_) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n);
  y_mean_ = mean;
  y_std_ = var > 1e-12 ? std::sqrt(var) : 1.0;
  y_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) y_[i] = (y_raw_[i] - y_mean_) / y_std_;
}

void GpRegressor::observe(std::span<const double> x, double y) {
  if (!fitted_) {
    throw std::logic_error("GpRegressor::observe: model not fitted");
  }
  if (x.size() != x_raw_.cols()) {
    throw std::invalid_argument("GpRegressor::observe: dimension mismatch");
  }
  if (!all_finite(x) || !std::isfinite(y)) {
    throw std::invalid_argument("GpRegressor::observe: non-finite observation");
  }

  x_raw_.append_row(x);
  y_raw_.push_back(y);
  bool evicted = false;
  if (config_.max_observations > 0 &&
      x_raw_.rows() > static_cast<std::size_t>(config_.max_observations)) {
    x_raw_.drop_first_row();
    y_raw_.erase(y_raw_.begin());
    evicted = true;
    ++stats_.window_evictions;
  }
  ++observe_count_;

  // Fallback ladder: conditions under which the cached factor cannot be
  // extended exactly, each falling back to (and counted as) a full refit.
  if (config_.optimize_hyperparams && config_.reoptimize_every > 0 &&
      observe_count_ %
              static_cast<std::uint64_t>(config_.reoptimize_every) ==
          0) {
    ++stats_.hyperparam_refits;
    fit_from_raw();
    return;
  }
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] < x_lo_[j] || x[j] > x_hi_[j]) {
      ++stats_.normalisation_refits;
      fit_from_raw();
      return;
    }
  }
  if (jitter_ > 0.0) {
    ++stats_.jitter_refits;
    fit_from_raw();
    return;
  }

  // Incremental path: O(n^2) factor surgery instead of the O(n^3) refit.
  if (evicted) {
    chol_->drop_first();
    x_.drop_first_row();
  }
  std::vector<double> z(x.size());
  for (std::size_t j = 0; j < z.size(); ++j) z[j] = normalize(x[j], j);
  const linalg::Vector k_star = kernel_->cross(x_, z);
  try {
    chol_->append_row(k_star, kernel_->diagonal() + config_.noise_variance);
  } catch (const std::runtime_error&) {
    ++stats_.jitter_refits;
    fit_from_raw();
    return;
  }
  x_.append_row(z);
  refresh_targets();
  alpha_ = chol_->solve(y_);
  log_ml_ = compute_log_ml(*chol_, y_, alpha_);
  ++stats_.incremental_updates;
}

GpSnapshot GpRegressor::snapshot() const {
  if (!fitted_) {
    throw std::logic_error("GpRegressor::snapshot: model not fitted");
  }
  GpSnapshot s;
  s.kernel = kernel_->kind();
  s.signal_variance = kernel_->signal_variance();
  s.length_scale = kernel_->length_scale();
  s.noise_variance = config_.noise_variance;
  s.jitter = jitter_;
  s.observe_count = observe_count_;
  s.x_lo = x_lo_;
  s.x_hi = x_hi_;
  s.x = x_raw_;
  s.y = y_raw_;
  s.l = chol_->lower();
  return s;
}

void GpRegressor::restore(const GpSnapshot& snap) {
  const std::size_t n = snap.x.rows();
  const std::size_t d = snap.x.cols();
  if (n == 0 || d == 0) {
    throw std::invalid_argument("GpRegressor::restore: empty snapshot");
  }
  if (snap.y.size() != n || snap.l.rows() != n || snap.l.cols() != n ||
      snap.x_lo.size() != d || snap.x_hi.size() != d) {
    throw std::invalid_argument(
        "GpRegressor::restore: inconsistent snapshot shapes");
  }
  check_noise_variance(snap.noise_variance, "GpRegressor::restore");
  // The serialised factor is adopted verbatim — an incrementally built L
  // differs from a refactorisation in the low bits, and bit-identity of
  // subsequent decisions depends on keeping exactly it. It and the kernel
  // are the checks that can still throw, so they come before any change.
  linalg::Cholesky chol = linalg::Cholesky::from_lower(snap.l);
  kernel_ = make_kernel(snap.kernel, snap.signal_variance, snap.length_scale);
  config_.kernel = snap.kernel;
  config_.noise_variance = snap.noise_variance;

  x_raw_ = snap.x;
  y_raw_ = snap.y;
  x_lo_ = snap.x_lo;
  x_hi_ = snap.x_hi;
  x_offset_.assign(d, 0.0);
  x_scale_.assign(d, 1.0);
  for (std::size_t j = 0; j < d; ++j) {
    x_offset_[j] = x_lo_[j];
    x_scale_[j] = (x_hi_[j] > x_lo_[j]) ? (x_hi_[j] - x_lo_[j]) : 1.0;
  }
  x_ = linalg::Matrix(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      x_(i, j) = normalize(x_raw_(i, j), j);
    }
  }
  refresh_targets();
  chol_ = std::move(chol);
  alpha_ = chol_->solve(y_);
  log_ml_ = compute_log_ml(*chol_, y_, alpha_);
  jitter_ = snap.jitter;
  observe_count_ = snap.observe_count;
  fitted_ = true;
}

void GpRegressor::predict_batch(std::span<const double> rows,
                                std::span<Prediction> out,
                                PredictWorkspace& ws) const {
  if (!fitted_) {
    throw std::logic_error("GpRegressor::predict: model not fitted");
  }
  const std::size_t n = x_.rows();
  const std::size_t d = x_.cols();
  const std::size_t m = out.size();
  if (rows.size() != m * d) {
    throw std::invalid_argument("GpRegressor::predict: dimension mismatch");
  }
  if (m == 0) return;
  ws.z.resize(m * d);
  ws.k.resize(n * m);
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t j = 0; j < d; ++j) {
      ws.z[j * m + c] = normalize(rows[c * d + j], j);
    }
  }
  kernel_->cross(x_, ws.z, ws.k);

  // Per point: mean = dot(k*, alpha) and variance = diag - dot(v, v) with
  // v = L^-1 k*, each summed in ascending training index from 0.0. `out`
  // holds the two running sums.
  for (Prediction& p : out) p = Prediction{};
  for (std::size_t i = 0; i < n; ++i) {
    const double a = alpha_[i];
    const double* ki = ws.k.data() + i * m;
    for (std::size_t c = 0; c < m; ++c) out[c].mean += ki[c] * a;
  }
  chol_->solve_lower_in_place(ws.k, m);
  for (std::size_t i = 0; i < n; ++i) {
    const double* vi = ws.k.data() + i * m;
    for (std::size_t c = 0; c < m; ++c) out[c].variance += vi[c] * vi[c];
  }
  const double diag = kernel_->diagonal();
  for (Prediction& p : out) {
    const double var_n = std::max(diag - p.variance, 0.0);
    p.mean = p.mean * y_std_ + y_mean_;
    p.variance = var_n * y_std_ * y_std_;
  }
}

Prediction GpRegressor::predict(std::span<const double> x_star) const {
  Prediction p;
  PredictWorkspace ws;
  predict_batch(x_star, {&p, 1}, ws);
  return p;
}

std::vector<Prediction> GpRegressor::predict(const linalg::Matrix& x) const {
  std::vector<Prediction> out(x.rows());
  PredictWorkspace ws;
  predict_batch(x.data(), out, ws);
  return out;
}

double GpRegressor::log_marginal_likelihood() const {
  if (!fitted_) {
    throw std::logic_error(
        "GpRegressor::log_marginal_likelihood: model not fitted");
  }
  return log_ml_;
}

double GpRegressor::best_observed() const {
  if (!fitted_) {
    throw std::logic_error("GpRegressor::best_observed: model not fitted");
  }
  double best = -std::numeric_limits<double>::infinity();
  for (double v : y_) best = std::max(best, v);
  return best * y_std_ + y_mean_;
}

}  // namespace autra::gp
