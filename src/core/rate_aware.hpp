// Rate-aware benefit model — the paper's stated future work ("unbind
// benefit models from input data rates", Sec. VII), implemented as an
// extension.
//
// Instead of one GP per input rate plus a residual transfer between them
// (Algorithm 2), a single GP is trained over the joint feature vector
// (k_1..k_N, rate). Samples gathered at *every* rate the job has run at
// feed one model, which can then recommend configurations at rates it has
// never seen. The trade-offs versus Algorithm 2:
//
//   + every historical sample helps at every future rate (no closest-model
//     selection, no N_num switch-over);
//   + zero real runs are needed before the first recommendation at a new
//     rate;
//   - the score surface must vary smoothly with the rate for the joint
//     kernel to interpolate well (true for the workloads here);
//   - the model grows with the whole history, not one rate's samples.
//
// `bench/extension_rate_model` compares it against Algorithm 2 and
// from-scratch Algorithm 1.
#pragma once

#include <optional>
#include <random>

#include "core/steady_rate.hpp"

namespace autra::core {

/// One training record: a configuration evaluated at some input rate.
struct RatedSample {
  runtime::Parallelism config;
  double rate = 0.0;
  double score = 0.0;
};

struct RateAwareParams {
  SteadyRateParams steady;
  /// Real evaluations allowed at the new rate.
  int max_evaluations = 15;
};

struct RateAwareResult {
  runtime::Parallelism best;
  double best_score = 0.0;
  runtime::JobMetrics best_metrics;
  int real_evaluations = 0;
  bool converged = false;
};

/// The joint (configuration, rate) benefit model.
class RateAwareModel {
 public:
  explicit RateAwareModel(gp::GpConfig gp_config = {});

  /// Adds real samples observed at `rate`. Call fit() afterwards.
  void add_samples(double rate, std::span<const SamplePoint> samples);
  void add_sample(RatedSample sample);

  /// Fits the joint GP; throws std::logic_error with no samples.
  void fit();

  [[nodiscard]] bool is_fitted() const noexcept { return gp_.is_fitted(); }
  [[nodiscard]] std::size_t num_samples() const noexcept {
    return samples_.size();
  }
  [[nodiscard]] const std::vector<RatedSample>& samples() const noexcept {
    return samples_;
  }

  /// Posterior mean score of `config` at `rate`.
  [[nodiscard]] double predict_mean(const runtime::Parallelism& config,
                                    double rate) const;

  /// EI-optimal configuration for a new rate, without any real run:
  /// maximises expected improvement over the incumbent predicted score in
  /// the search space [base, P_max]^N at that rate.
  [[nodiscard]] runtime::Parallelism recommend(const runtime::Parallelism& base,
                                           double rate,
                                           const SteadyRateParams& params,
                                           std::mt19937_64& rng) const;

 private:
  [[nodiscard]] std::vector<double> features(const runtime::Parallelism& config,
                                             double rate) const;

  gp::GpConfig gp_config_;
  gp::GpRegressor gp_;
  std::vector<RatedSample> samples_;
};

/// Optimisation loop at a new rate driven by the joint model: recommend,
/// run for real, add the sample, refit — until the measured sample meets
/// the steady-rate termination conditions or the budget runs out.
[[nodiscard]] RateAwareResult run_rate_aware(
    const runtime::Evaluator& evaluate, const runtime::Parallelism& base,
    double rate, RateAwareModel& model, const RateAwareParams& params);

}  // namespace autra::core
