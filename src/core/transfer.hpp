// Algorithm 2: transfer learning when the input data rate changes
// (paper Sec. III-F).
//
// A benefit model is bound to the rate it was trained at. When the rate
// changes, training a new model from scratch costs many real job runs, so
// AuTraScale instead:
//
//   1. picks the library model M_{c-1} whose rate is closest to the new
//      rate;
//   2. fits a *residual* GP M'_c on the few real samples available at the
//      new rate, targeting s_t - mu_{c-1}(k_t);
//   3. synthesises estimated scores mu_c(x) = mu_{c-1}(x) + M'_c(x) for the
//      whole bootstrap set — replacing real bootstrap runs with free
//      predictions;
//   4. asks Algorithm 1's recommender for the next configuration, runs only
//      that one for real, and repeats;
//   5. once N_num real samples exist, switches to plain Algorithm 1 on real
//      data only (estimates would start hurting a well-trained model).
#pragma once

#include <optional>
#include <vector>

#include "core/steady_rate.hpp"
#include "gp/gp_regressor.hpp"

namespace autra::core {

/// A trained benefit model bound to one input data rate.
struct BenefitModel {
  double rate = 0.0;  ///< Records/s the model was trained at.
  runtime::Parallelism base;  ///< Base configuration k' at that rate.
  std::vector<SamplePoint> samples;  ///< Real samples it was trained on.
  /// Surrogate covariance kernel used by fit().
  gp::KernelKind kernel = gp::KernelKind::kMatern52;
  /// Worker threads for fit()'s hyper-parameter search (see GpConfig).
  int threads = 0;
  /// Observation-window cap forwarded to the GP for observe(); 0 =
  /// unbounded. When the GP evicts, `samples` is trimmed in lockstep.
  int max_observations = 0;
  gp::GpRegressor gp;  ///< Fitted on (config, score).

  /// Rebuilds `gp` with `kernel` and fits it from `samples`; throws
  /// std::invalid_argument when empty.
  void fit();

  /// Folds one new sample into the model through the GP's O(n^2)
  /// incremental path (full fit when the model is not fitted yet), keeping
  /// `samples` and the GP window in lockstep under max_observations.
  void observe(const SamplePoint& sample);

  [[nodiscard]] double predict_mean(const runtime::Parallelism& config) const;
};

/// Builds a benefit model from an Algorithm 1 result.
[[nodiscard]] BenefitModel make_benefit_model(
    double rate, const runtime::Parallelism& base,
    const SteadyRateResult& result,
    gp::KernelKind kernel = gp::KernelKind::kMatern52, int threads = 0,
    int max_observations = 0);

/// The Plan stage's model library: benefit models keyed by rate.
class ModelLibrary {
 public:
  void add(BenefitModel model);

  /// Model whose rate is closest to `rate`; nullptr when empty.
  [[nodiscard]] const BenefitModel* closest(double rate) const;

  /// Mutable model within `tolerance` relative rate distance of `rate`;
  /// nullptr when none qualifies. The warm-start path feeds new samples
  /// into the returned model via BenefitModel::observe.
  [[nodiscard]] BenefitModel* find_for(double rate, double tolerance = 0.05);

  /// True if a model exists within `tolerance` relative rate distance —
  /// the Scaling Manager's "is there a model suitable for the current
  /// rate?" check.
  [[nodiscard]] bool has_model_for(double rate,
                                   double tolerance = 0.05) const;

  [[nodiscard]] std::size_t size() const noexcept { return models_.size(); }
  [[nodiscard]] const std::vector<BenefitModel>& models() const noexcept {
    return models_;
  }

 private:
  std::vector<BenefitModel> models_;
};

struct TransferParams {
  SteadyRateParams steady;
  /// Real-sample count at which Algorithm 2 hands over to Algorithm 1.
  /// The paper recommends at least the initial (bootstrap) set size.
  int n_num = 10;
  /// Real evaluations allowed inside the transfer loop.
  int max_transfer_evaluations = 15;
};

struct TransferResult {
  runtime::Parallelism best;
  double best_score = 0.0;
  runtime::JobMetrics best_metrics;
  /// Real evaluations spent (the iteration count of Fig. 8(a)).
  int real_evaluations = 0;
  bool converged = false;
  /// True when the loop fell back to plain Algorithm 1 (num >= N_num).
  bool switched_to_algorithm1 = false;
  /// Real samples collected at the new rate, usable to register a new
  /// benefit model in the library.
  std::vector<SamplePoint> real_samples;
};

/// Runs Algorithm 2 at a new rate.
///
/// `base` is the throughput-optimal configuration k' *at the new rate*
/// (the paper recomputes it via throughput optimisation before
/// transferring). `prior` is the closest library model. Initial real
/// samples may be supplied in `initial_real` (e.g. the measurement of the
/// base configuration); when empty, the base configuration is evaluated
/// first to seed the residual model.
[[nodiscard]] TransferResult run_transfer(
    const runtime::Evaluator& evaluate, const runtime::Parallelism& base,
    const BenefitModel& prior, const TransferParams& params,
    std::vector<SamplePoint> initial_real = {});

}  // namespace autra::core
