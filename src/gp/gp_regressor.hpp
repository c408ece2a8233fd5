// Gaussian-process regression: the surrogate model of AuTraScale's Bayesian
// optimiser (paper Sec. III-E, "Surrogate Model").
//
// The regressor owns a kernel, normalises inputs to the unit cube and
// standardises targets, fits kernel hyper-parameters by maximising the log
// marginal likelihood over a coarse multi-start grid (adequate for the tens
// of samples BO generates per job), and predicts posterior mean and variance
// at new points.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace autra::gp {

/// Posterior prediction at a single point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;  ///< Always >= 0.

  [[nodiscard]] double stddev() const noexcept;
};

/// Scratch buffers of GpRegressor::predict_batch, owned by the caller: once
/// they have grown to a block's size, predicting further blocks of that
/// size allocates nothing.
struct PredictWorkspace {
  std::vector<double> z;  ///< The block, normalised, coordinate-major.
  std::vector<double> k;  ///< Cross-covariances, then L^-1 of them (n x m).
};

/// Counters reporting which model-update path ran — the observability
/// contract of the incremental Plan path (an always-on controller asserts
/// its rounds ran incremental_updates, not full_fits).
struct FitStats {
  std::uint64_t full_fits = 0;          ///< Batch fits (initial + fallbacks).
  std::uint64_t fingerprint_hits = 0;   ///< fit() short-circuits on unchanged data.
  std::uint64_t incremental_updates = 0;///< observe() reused the cached factor.
  std::uint64_t window_evictions = 0;   ///< Oldest points dropped by the window.
  /// observe() fallbacks to a full refit, by cause:
  std::uint64_t hyperparam_refits = 0;    ///< reoptimize_every cadence hit.
  std::uint64_t normalisation_refits = 0; ///< Point outside the frozen box.
  std::uint64_t jitter_refits = 0;        ///< Jittered factor / extension failed.

  friend bool operator==(const FitStats&, const FitStats&) = default;
};

/// The full fitted state of a regressor, round-trippable through the
/// model-I/O text format: raw (original-unit) observations, kernel
/// hyper-parameters, the frozen normalisation box and the cached Cholesky
/// factor. Restoring a snapshot reproduces the live model bit-for-bit —
/// including factors built by incremental updates, which a refit from the
/// samples alone would not reproduce in the low bits.
struct GpSnapshot {
  KernelKind kernel = KernelKind::kMatern52;
  double signal_variance = 1.0;
  double length_scale = 1.0;
  double noise_variance = 1e-4;
  double jitter = 0.0;  ///< Jitter baked into the cached factor.
  std::uint64_t observe_count = 0;  ///< Observes since the last full fit.
  linalg::Vector x_lo, x_hi;  ///< Normalisation box frozen at the last fit.
  linalg::Matrix x;  ///< Raw inputs, row per observation.
  linalg::Vector y;  ///< Raw targets.
  linalg::Matrix l;  ///< Cached lower Cholesky factor of K + noise I.
};

/// Configuration of the regressor.
struct GpConfig {
  KernelKind kernel = KernelKind::kMatern52;
  /// Observation noise variance added to the kernel diagonal (in normalised
  /// target units).
  double noise_variance = 1e-4;
  /// If true, fit() maximises log marginal likelihood over a multi-start
  /// grid of (signal variance, length scale); otherwise the kernel's current
  /// hyper-parameters are used as-is.
  bool optimize_hyperparams = true;
  /// Lower/upper bounds of the length-scale grid, in normalised input units.
  double min_length_scale = 0.05;
  double max_length_scale = 4.0;
  /// Number of grid points per hyper-parameter dimension.
  int grid_points = 12;
  /// Worker threads for the multi-start grid search (one task per length
  /// scale, each building the Gram matrix, Cholesky and log-ML of every
  /// signal variance) and for batch EI scoring when the regressor backs a
  /// BayesOpt loop. <= 0 uses the process default (AUTRA_THREADS or
  /// hardware_concurrency); 1 forces the guaranteed-serial path. Results
  /// are bit-identical at any value.
  int threads = 0;
  /// Initial kernel hyper-parameters (the fitted values when
  /// optimize_hyperparams is off).
  double signal_variance = 1.0;
  double length_scale = 1.0;
  /// Observation-window cap for observe(): when positive and the window is
  /// full, the oldest observation is evicted (factor drop_first) before the
  /// new one is appended, bounding every update at O(cap^2) for long-lived
  /// daemons. 0 = unbounded. fit() itself never trims.
  int max_observations = 0;
  /// observe() re-runs the full fit (incl. hyper-parameter search when
  /// optimize_hyperparams is on) every k-th observation since the last
  /// full fit; 0 = never, the hyper-parameters stay frozen between fits.
  int reoptimize_every = 0;
};

/// Exact GP regression with normalisation and marginal-likelihood
/// hyper-parameter selection.
class GpRegressor {
 public:
  /// Throws std::invalid_argument on a negative or non-finite
  /// noise_variance.
  explicit GpRegressor(GpConfig config = {});

  /// Fits the model to `x` (row per sample) and targets `y`.
  /// Throws std::invalid_argument on shape mismatch, empty data or any
  /// non-finite value, before any state changes. Throws
  /// std::runtime_error when the Gram matrix cannot be factored even with
  /// the maximum jitter; the model is then unfitted.
  /// Fitting a fitted model's exact window again (the same bits as the
  /// data it holds; FitStats::fingerprint_hits counts it) is a no-op — the
  /// cached factor and hyper-parameters are already right.
  void fit(const linalg::Matrix& x, const linalg::Vector& y);

  /// Appends one observation in original units, reusing the cached
  /// Cholesky factor: an O(n^2) factor extension instead of the O(n^3)
  /// refit, with the posterior identical (to rounding) to a from-scratch
  /// fit() on the extended data. Falls back to a full refit — counted per
  /// cause in FitStats — when the point lies outside the normalisation box
  /// of the last fit, when the reoptimize_every cadence fires, or when the
  /// factor cannot be extended (active jitter / lost positive
  /// definiteness). With max_observations set, the oldest observation is
  /// evicted first once the window is full. Throws std::logic_error before
  /// fit() and std::invalid_argument on dimension mismatch or a non-finite
  /// x or y, before any state changes; a fallback refit throws as fit()
  /// does, leaving the model unfitted.
  void observe(std::span<const double> x, double y);

  /// Captures the full fitted state (raw window, hyper-parameters, cached
  /// factor) for persistence; restore() on a fresh regressor reproduces
  /// the live model bit-for-bit. Throws std::logic_error before fit().
  [[nodiscard]] GpSnapshot snapshot() const;

  /// Rebuilds the fitted state from a snapshot (derived quantities —
  /// normalised data and alpha — are recomputed from it
  /// deterministically). Throws std::invalid_argument, before any state
  /// changes, on inconsistent shapes, a non-positive factor diagonal,
  /// non-positive kernel hyper-parameters or a negative or non-finite
  /// noise variance.
  void restore(const GpSnapshot& snap);

  /// Posterior mean/variance at each of the out.size() points of `rows`
  /// (row-major, out.size() x input_dim(), original input space). The
  /// block is normalised, crossed with the training inputs in one pass,
  /// and run through one multi-right-hand-side forward solve, so each
  /// factor row is read once per block. Every point's sums run in the
  /// order a one-point block uses, so a prediction does not depend on the
  /// block it is in. Throws std::logic_error if called before fit() and
  /// std::invalid_argument on a size mismatch.
  void predict_batch(std::span<const double> rows, std::span<Prediction> out,
                     PredictWorkspace& ws) const;

  /// Posterior mean/variance at one point: a one-row predict_batch.
  [[nodiscard]] Prediction predict(std::span<const double> x_star) const;

  /// Log marginal likelihood of the fitted model (on normalised targets),
  /// computed from the cached factor on each call.
  [[nodiscard]] double log_marginal_likelihood() const;

  [[nodiscard]] bool is_fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t num_samples() const noexcept { return x_.rows(); }
  [[nodiscard]] std::size_t input_dim() const noexcept { return x_.cols(); }
  [[nodiscard]] const Kernel& kernel() const noexcept { return kernel_; }
  [[nodiscard]] const GpConfig& config() const noexcept { return config_; }
  /// Which update paths ran over this model's lifetime.
  [[nodiscard]] const FitStats& fit_stats() const noexcept { return stats_; }

 private:
  void fit_from_raw();
  /// Sets the kernel's hyper-parameters to the grid point of highest log
  /// marginal likelihood on the normalised data.
  void choose_hyperparameters();
  /// Factors K + noise I of the normalised data, built in the factor's own
  /// buffer, climbing the jitter ladder until it factors; sets the cached
  /// factor, jitter and alpha.
  void factor_gram();
  void refresh_targets();
  /// Coordinate j of an input, mapped into the unit box of the last fit.
  [[nodiscard]] double normalize(double v, std::size_t j) const noexcept {
    return (v - x_offset_[j]) / x_scale_[j];
  }

  GpConfig config_;
  Kernel kernel_;
  bool fitted_ = false;

  // Raw training window in original units (what fit()/observe() were given;
  // the fallback refits and snapshots rebuild everything from it).
  linalg::Matrix x_raw_;
  linalg::Vector y_raw_;
  std::uint64_t observe_count_ = 0; ///< Observes since the last full fit.

  // Normalised training data.
  linalg::Matrix x_;
  linalg::Vector y_;
  // Input normalisation: per-dimension offset and scale, plus the raw
  // data box they were derived from (frozen until the next full fit; a
  // point outside it forces a refit because it would change them).
  linalg::Vector x_offset_;
  linalg::Vector x_scale_;
  linalg::Vector x_lo_;
  linalg::Vector x_hi_;
  // Target standardisation.
  double y_mean_ = 0.0;
  double y_std_ = 1.0;

  std::optional<linalg::Cholesky> chol_;
  linalg::Vector alpha_;  // K^-1 y (normalised).
  double jitter_ = 0.0;  ///< Jitter baked into the cached factor.
  FitStats stats_;
};

}  // namespace autra::gp
