// DRS baseline (Fu et al., ICDCS 2015 / TPDS 2017) — the queueing-theory
// scaling policy AuTraScale compares against for latency guarantees.
//
// DRS models the job as a Jackson open queueing network: every operator is
// an M/M/k queue whose expected sojourn time follows Erlang-C, and the
// job's expected latency is the sum along the dataflow path. Allocation is
// greedy: start from the minimal stable configuration, then repeatedly add
// one instance to the operator whose extra instance most reduces the
// predicted latency, until the prediction meets the target.
//
// Its published weakness — the one the paper's evaluation exercises — is
// that the service rates feeding the model are measured under the *current*
// configuration and interference, so predictions are wrong after the
// configuration changes. Following Sec. V-A, the policy runs with either
// the observed processing rate or the true processing rate as the service
// rate ("DRS-observed" / "DRS-true").
#pragma once

#include <vector>

#include "runtime/backend.hpp"
#include "streamsim/topology.hpp"

namespace autra::baselines {

enum class RateMetric {
  kTrueRate,      ///< Eq. 2 busy-time rate.
  kObservedRate,  ///< Wall-clock rate (includes idle/blocked time).
};

/// Which queueing approximation predicts per-operator sojourn times.
enum class QueueModel {
  /// M/M/k with exact Erlang-C (Poisson arrivals, exponential service).
  kErlangC,
  /// G/G/k via the Allen-Cunneen/Kingman approximation: the M/M/k wait
  /// scaled by (ca^2 + cs^2)/2, for squared coefficients of variation of
  /// inter-arrival and service times. The paper's related work (Sec. VI)
  /// cites Kingman's formula as the other queueing-model family used by
  /// latency-predicting auto-scalers.
  kKingman,
};

struct DrsParams {
  double target_latency_ms = 0.0;
  /// Target throughput for propagating arrival rates; <= 0 means the
  /// measured input data rate.
  double target_throughput = 0.0;
  RateMetric rate_metric = RateMetric::kTrueRate;
  QueueModel queue_model = QueueModel::kErlangC;
  /// Squared coefficients of variation for kKingman (1, 1 degenerates to
  /// Erlang-C's waiting time).
  double arrival_scv = 1.0;
  double service_scv = 1.0;
  int max_parallelism = 1;
  /// Outer measure-model-allocate iterations.
  int max_iterations = 8;
};

struct DrsResult {
  runtime::Parallelism final_config;
  runtime::JobMetrics final_metrics;
  int iterations = 0;
  bool converged = false;            ///< Allocation stopped changing.
  bool prediction_feasible = false;  ///< Model predicted target met.
  /// The model's own latency prediction for the final configuration, for
  /// comparing model error against the measured value.
  double predicted_latency_ms = 0.0;
};

/// Expected sojourn time (waiting + service) of an M/M/k queue, seconds.
/// `arrival_rate` and `service_rate` are per-second; `servers` >= 1.
/// Returns +inf when the queue is unstable (rho >= 1).
[[nodiscard]] double mmk_sojourn_time(double arrival_rate,
                                      double service_rate, int servers);

/// G/G/k sojourn time via Allen-Cunneen: the M/M/k waiting time scaled by
/// (arrival_scv + service_scv) / 2, plus the service time. Degenerates to
/// mmk_sojourn_time at scv = 1, 1. Returns +inf when unstable.
[[nodiscard]] double ggk_sojourn_time(double arrival_rate,
                                      double service_rate, int servers,
                                      double arrival_scv,
                                      double service_scv);

class DrsPolicy {
 public:
  DrsPolicy(const sim::Topology& topology, DrsParams params);

  [[nodiscard]] DrsResult run(const runtime::Evaluator& evaluate,
                              const runtime::Parallelism& initial) const;

  /// The greedy allocation step given measured metrics (exposed for
  /// testing): picks the configuration the queueing model believes meets
  /// the latency target with the fewest instances.
  [[nodiscard]] runtime::Parallelism allocate(const runtime::JobMetrics& metrics,
                                          double* predicted_latency_ms =
                                              nullptr) const;

 private:
  const sim::Topology& topology_;
  DrsParams params_;
};

}  // namespace autra::baselines
