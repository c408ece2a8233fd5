#include "baselines/ds2.hpp"

#include <stdexcept>

namespace autra::baselines {

Ds2Policy::Ds2Policy(const sim::Topology& topology, Ds2Params params)
    : topology_(topology), params_(params) {
  if (params_.max_iterations < 1 || params_.max_parallelism < 1) {
    throw std::invalid_argument("Ds2Policy: bad parameters");
  }
}

Ds2Result Ds2Policy::run(const runtime::Evaluator& evaluate,
                         const runtime::Parallelism& initial) const {
  if (initial.size() != topology_.num_operators()) {
    throw std::invalid_argument("Ds2Policy: initial config size mismatch");
  }
  Ds2Result result;
  runtime::Parallelism current = initial;

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    runtime::JobMetrics m = evaluate(current);
    ++result.iterations;

    const double target = params_.target_throughput > 0.0
                              ? params_.target_throughput
                              : m.input_rate;
    const runtime::Parallelism rec = core::scale_step(
        topology_, m, target, params_.max_parallelism);
    result.trajectory.push_back({current, std::move(m), rec});

    const double achieved = result.trajectory.back().metrics.throughput;
    if (achieved + target * params_.tolerance >= target) {
      result.reached_target = true;
      result.final_config = current;
      result.final_metrics = result.trajectory.back().metrics;
      return result;
    }
    if (rec == current) {
      // Measurements reproduced the same configuration; DS2 considers the
      // system converged (it has no notion of an external cap, so on a
      // capped job this is reached only when the measured true rates are
      // stable).
      result.final_config = current;
      result.final_metrics = result.trajectory.back().metrics;
      return result;
    }
    current = rec;
  }

  result.hit_iteration_bound = true;
  result.final_config = result.trajectory.back().config;
  result.final_metrics = result.trajectory.back().metrics;
  return result;
}

}  // namespace autra::baselines
