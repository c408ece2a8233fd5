#include "core/scoring.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autra::core {

double benefit_score(const runtime::Parallelism& current, double latency_ms,
                     const ScoreParams& params) {
  if (params.alpha < 0.0 || params.alpha > 1.0) {
    throw std::invalid_argument("benefit_score: alpha outside [0,1]");
  }
  if (!std::isfinite(params.target_latency_ms) ||
      params.target_latency_ms <= 0.0) {
    throw std::invalid_argument(
        "benefit_score: latency target not finite and positive");
  }
  // min(1, target / NaN) is 1: a NaN latency would score as meeting the
  // target.
  if (!std::isfinite(latency_ms)) {
    throw std::invalid_argument("benefit_score: non-finite latency");
  }
  if (params.base.empty() || params.base.size() != current.size()) {
    throw std::invalid_argument(
        "benefit_score: base/current configuration size mismatch");
  }

  // A job that measured zero latency (no records completed yet) is treated
  // as meeting the target: the resource term then dominates.
  const double latency_term =
      latency_ms <= 0.0
          ? 1.0
          : std::min(1.0, params.target_latency_ms / latency_ms);

  double resource_term = 0.0;
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (current[i] < 1 || params.base[i] < 1) {
      throw std::invalid_argument("benefit_score: parallelism below 1");
    }
    resource_term += std::min(
        1.0, static_cast<double>(params.base[i]) / current[i]);
  }
  resource_term /= static_cast<double>(current.size());

  return params.alpha * latency_term + (1.0 - params.alpha) * resource_term;
}

double benefit_score(const runtime::JobMetrics& metrics,
                     const ScoreParams& params) {
  return benefit_score(metrics.parallelism, metrics.latency_ms, params);
}

double score_threshold(double alpha, double over_allocation_w) {
  if (alpha < 0.0 || alpha > 1.0) {
    throw std::invalid_argument("score_threshold: alpha outside [0,1]");
  }
  if (over_allocation_w < 0.0) {
    throw std::invalid_argument("score_threshold: negative w");
  }
  return alpha + (1.0 - alpha) / (1.0 + over_allocation_w);
}

}  // namespace autra::core
