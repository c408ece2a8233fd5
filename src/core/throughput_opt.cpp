#include "core/throughput_opt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autra::core {

namespace {
constexpr double kEps = 1e-9;
}

runtime::Parallelism scale_step(const sim::Topology& topology,
                            const runtime::JobMetrics& metrics,
                            double target_rate, int max_parallelism) {
  const std::size_t n = topology.num_operators();
  if (metrics.operators.size() != n) {
    throw std::invalid_argument("scale_step: metrics/topology mismatch");
  }
  // Propagate the target input rate down the DAG using *measured*
  // selectivities (output rate / input rate), falling back to the spec'd
  // selectivity when an operator saw no traffic.
  std::vector<double> target_in(n, 0.0);
  std::vector<double> target_out(n, 0.0);
  runtime::Parallelism rec(n, 1);
  for (std::size_t i : topology.topological_order()) {
    const runtime::OperatorRates& r = metrics.operators[i];
    if (topology.op(i).kind == sim::OperatorKind::kSource) {
      target_in[i] = target_rate;
    }
    // else: accumulated from upstream below.

    double selectivity = topology.op(i).selectivity;
    if (r.total_input_rate > kEps && r.total_output_rate >= 0.0) {
      selectivity = r.total_output_rate / r.total_input_rate;
    }
    target_out[i] = target_in[i] * selectivity;
    for (std::size_t d : topology.downstream(i)) {
      // Fan-out duplicates the stream to each consumer.
      target_in[d] += target_out[i];
    }

    const double v = r.true_rate_per_instance;
    if (v <= kEps) {
      throw std::logic_error("scale_step: operator '" + topology.op(i).name +
                             "' reported a non-positive true rate");
    }
    const int k = static_cast<int>(std::ceil(target_in[i] / v - kEps));
    rec[i] = std::clamp(k, 1, max_parallelism);
  }
  return rec;
}

ThroughputOptimizer::ThroughputOptimizer(const sim::Topology& topology,
                                         ThroughputOptParams params)
    : topology_(topology), params_(params) {
  if (params_.max_iterations < 1 || params_.max_parallelism < 1) {
    throw std::invalid_argument("ThroughputOptimizer: bad parameters");
  }
  if (params_.tolerance < 0.0) {
    throw std::invalid_argument("ThroughputOptimizer: negative tolerance");
  }
}

ThroughputOptResult ThroughputOptimizer::optimize(
    const runtime::Evaluator& evaluate,
    const runtime::Parallelism& initial) const {
  if (initial.size() != topology_.num_operators()) {
    throw std::invalid_argument(
        "ThroughputOptimizer: initial configuration size mismatch");
  }
  ThroughputOptResult result;
  runtime::Parallelism current = initial;

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    runtime::JobMetrics m = evaluate(current);
    ++result.iterations;

    const double target = params_.target_throughput > 0.0
                              ? params_.target_throughput
                              : m.input_rate;
    const runtime::Parallelism rec =
        scale_step(topology_, m, target, params_.max_parallelism);
    result.trajectory.push_back({current, std::move(m), rec});

    const double achieved = result.trajectory.back().metrics.throughput;
    if (rec == current) {
      // Converged: the measurement reproduces the current configuration.
      // If the target is met this is the minimal configuration k'; if not,
      // an external factor caps the throughput — AuTraScale's extra
      // termination condition (Fig. 5(b)).
      result.reached_target = achieved + target * params_.tolerance >= target;
      result.externally_limited = !result.reached_target;
      break;
    }
    // Note: we do NOT stop merely because the target is met — from an
    // over-provisioned start Eq. 3 keeps shrinking the configuration until
    // it reaches the minimal k', which is what the benefit score needs.
    const bool seen = std::any_of(
        result.trajectory.begin(), result.trajectory.end(),
        [&](const ThroughputIteration& it) { return it.config == rec; });
    if (seen) {
      // Oscillation between measured configurations: settle via review.
      result.reached_target = achieved + target * params_.tolerance >= target;
      result.externally_limited = !result.reached_target;
      break;
    }
    current = rec;
  }

  // Trajectory review. Preferred: configurations that sustained the target
  // rate *without* slack — a configuration that only reaches it within the
  // tolerance is saturated, and a saturated base drags heavy backpressure
  // latency into the BO stage. Among qualified configurations (or, on
  // externally capped jobs where none qualify, those within the tolerance
  // band of the maximum achieved throughput), pick the least total
  // parallelism.
  double max_tput = 0.0;
  double last_target = params_.target_throughput;
  for (const ThroughputIteration& it : result.trajectory) {
    max_tput = std::max(max_tput, it.metrics.throughput);
    if (params_.target_throughput <= 0.0) {
      last_target = it.metrics.input_rate;
    }
  }
  const double strict = last_target * (1.0 - 1e-4);
  const bool any_strict = std::any_of(
      result.trajectory.begin(), result.trajectory.end(),
      [&](const ThroughputIteration& it) {
        return it.metrics.throughput >= strict;
      });
  const double band =
      any_strict ? strict : max_tput * (1.0 - params_.tolerance);
  const ThroughputIteration* chosen = nullptr;
  int chosen_total = 0;
  for (const ThroughputIteration& it : result.trajectory) {
    if (it.metrics.throughput + kEps < band) continue;
    int total = 0;
    for (int k : it.config) total += k;
    if (chosen == nullptr || total < chosen_total) {
      chosen = &it;
      chosen_total = total;
    }
  }
  if (chosen == nullptr) {
    throw std::logic_error("ThroughputOptimizer: empty trajectory");
  }
  result.best = chosen->config;
  result.best_throughput = chosen->metrics.throughput;
  return result;
}

}  // namespace autra::core
