// DS2 baseline (Kalavri et al., OSDI 2018) — the dataflow-model scaling
// policy AuTraScale compares against.
//
// DS2 measures the true processing rate of every operator instance and sets
// each operator's parallelism to ceil(target input rate / true rate per
// instance), propagating rates through the DAG — the same Eq. 3 core
// AuTraScale's throughput optimiser borrows, but with DS2's two published
// limitations kept intact:
//
//   * the linear-scaling assumption: no awareness that added instances
//     interfere with each other (its convergence loop just repeats the rule
//     until the throughput target is met or the recommendation stops
//     changing *because measurements agree*, not because of an explicit
//     external-cap termination — on an externally capped job it keeps
//     oscillating until the iteration bound);
//   * no latency objective: latency is only an incidental beneficiary.
//
// Offline mode (used in the paper's Fig. 8 comparison) performs the
// measure-scale loop from a given starting configuration and returns the
// final configuration once the throughput target is met or the iteration
// budget is exhausted.
#pragma once

#include "core/throughput_opt.hpp"
#include "runtime/backend.hpp"
#include "streamsim/topology.hpp"

namespace autra::baselines {

struct Ds2Params {
  /// Target throughput; <= 0 means "the input data rate".
  double target_throughput = 0.0;
  double tolerance = 0.03;
  int max_iterations = 12;
  int max_parallelism = 1;
};

struct Ds2Result {
  runtime::Parallelism final_config;
  runtime::JobMetrics final_metrics;
  int iterations = 0;
  bool reached_target = false;
  /// True when the iteration budget ran out without the target being met —
  /// DS2's failure mode on externally capped jobs (paper Sec. III-C).
  bool hit_iteration_bound = false;
  std::vector<core::ThroughputIteration> trajectory;
};

class Ds2Policy {
 public:
  Ds2Policy(const sim::Topology& topology, Ds2Params params);

  /// Runs the DS2 convergence loop from `initial`.
  [[nodiscard]] Ds2Result run(const runtime::Evaluator& evaluate,
                              const runtime::Parallelism& initial) const;

 private:
  const sim::Topology& topology_;
  Ds2Params params_;
};

}  // namespace autra::baselines
