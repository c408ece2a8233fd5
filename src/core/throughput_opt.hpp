// Throughput optimisation (paper Sec. III-C, Eq. 3).
//
// Starting from an under-provisioned configuration, each iteration measures
// the operators' true processing rates and scales every operator so its
// total true rate catches the input data rate propagated through the DAG
// with the measured selectivities — the DS2 dataflow rule. AuTraScale adds
// two things on top of plain DS2:
//
//   1. a termination condition for jobs whose throughput is capped by an
//      external factor (two consecutive identical recommendations — without
//      it DS2 loops forever on the Redis-limited Yahoo job), and
//   2. a trajectory review that returns the configuration with maximum
//      throughput and, among ties, the least total parallelism (Fig. 5(b):
//      p2 = (4,2,1,1,34) beats the larger p4).
//
// The result's configuration is the base configuration k' every subsequent
// AuTraScale stage builds on.
#pragma once

#include <vector>

#include "runtime/backend.hpp"
#include "streamsim/topology.hpp"

namespace autra::core {

struct ThroughputOptParams {
  /// Target throughput; <= 0 means "the external input data rate".
  double target_throughput = 0.0;
  /// Relative tolerance for "throughput reached the target".
  double tolerance = 0.03;
  /// Safety bound on iterations (the paper observes <= 4 in practice).
  int max_iterations = 12;
  /// Upper parallelism bound P_max (cluster slot count).
  int max_parallelism = 1;
};

struct ThroughputIteration {
  runtime::Parallelism config;
  runtime::JobMetrics metrics;
  runtime::Parallelism recommended;  ///< Eq. 3 output measured on `config`.
};

struct ThroughputOptResult {
  runtime::Parallelism best;           ///< The base configuration k'.
  double best_throughput = 0.0;
  int iterations = 0;              ///< Number of job evaluations.
  bool reached_target = false;     ///< Throughput met the target.
  bool externally_limited = false; ///< Terminated via repeated config.
  std::vector<ThroughputIteration> trajectory;
};

/// One step of Eq. 3: given measured metrics for `current`, the
/// recommended parallelism that lets each operator's total true rate match
/// the input rate `target_rate` propagated through measured selectivities.
/// Needs the topology for the DAG structure. Parallelism is clamped to
/// [1, max_parallelism].
[[nodiscard]] runtime::Parallelism scale_step(const sim::Topology& topology,
                                          const runtime::JobMetrics& metrics,
                                          double target_rate,
                                          int max_parallelism);

class ThroughputOptimizer {
 public:
  ThroughputOptimizer(const sim::Topology& topology,
                      ThroughputOptParams params);

  /// Runs the iterative optimisation from `initial` (the paper starts all
  /// workloads at parallelism 1).
  [[nodiscard]] ThroughputOptResult optimize(
      const runtime::Evaluator& evaluate,
      const runtime::Parallelism& initial) const;

 private:
  const sim::Topology& topology_;
  ThroughputOptParams params_;
};

}  // namespace autra::core
