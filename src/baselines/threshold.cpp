#include "baselines/threshold.hpp"

#include <algorithm>
#include <stdexcept>

namespace autra::baselines {

ThresholdPolicy::ThresholdPolicy(ThresholdParams params) : params_(params) {
  if (params_.scale_down_utilization < 0.0 ||
      params_.scale_up_utilization <= params_.scale_down_utilization ||
      params_.scale_up_utilization > 1.0) {
    throw std::invalid_argument("ThresholdPolicy: bad utilisation bounds");
  }
  if (params_.max_parallelism < 1 || params_.max_iterations < 1) {
    throw std::invalid_argument("ThresholdPolicy: bad bounds");
  }
}

runtime::Parallelism ThresholdPolicy::step(const runtime::JobMetrics& metrics) const {
  runtime::Parallelism next = metrics.parallelism;
  for (std::size_t i = 0; i < metrics.operators.size(); ++i) {
    const runtime::OperatorRates& r = metrics.operators[i];
    if (r.true_rate_per_instance <= 0.0) continue;
    const double util =
        r.observed_rate_per_instance / r.true_rate_per_instance;
    if (util > params_.scale_up_utilization) {
      next[i] = std::min(next[i] + 1, params_.max_parallelism);
    } else if (util < params_.scale_down_utilization) {
      next[i] = std::max(next[i] - 1, 1);
    }
  }
  return next;
}

ThresholdResult ThresholdPolicy::run(const runtime::Evaluator& evaluate,
                                     const runtime::Parallelism& initial) const {
  ThresholdResult result;
  runtime::Parallelism current = initial;
  runtime::JobMetrics metrics;

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    metrics = evaluate(current);
    ++result.iterations;
    const runtime::Parallelism next = step(metrics);
    if (next == current) {
      result.converged = true;
      break;
    }
    current = next;
  }
  result.final_config = current;
  result.final_metrics = metrics;
  return result;
}

}  // namespace autra::baselines
