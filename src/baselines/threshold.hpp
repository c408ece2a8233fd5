// Utilisation-threshold baseline (the "threshold-based policy" family from
// the paper's related-work section, Sec. VI): a purely reactive controller
// that scales an operator up when its instances look saturated and down
// when they look idle. Included as an ablation reference point — it has no
// model, so it oscillates on non-linear jobs and cannot target a latency.
#pragma once

#include <vector>

#include "runtime/backend.hpp"

namespace autra::baselines {

struct ThresholdParams {
  /// Utilisation (observed rate / true rate) above which an operator gains
  /// an instance.
  double scale_up_utilization = 0.85;
  /// Utilisation below which an operator loses an instance.
  double scale_down_utilization = 0.30;
  int max_parallelism = 1;
  int max_iterations = 20;
};

struct ThresholdResult {
  runtime::Parallelism final_config;
  runtime::JobMetrics final_metrics;
  int iterations = 0;
  bool converged = false;  ///< A full pass changed nothing.
};

class ThresholdPolicy {
 public:
  explicit ThresholdPolicy(ThresholdParams params);

  [[nodiscard]] ThresholdResult run(const runtime::Evaluator& evaluate,
                                    const runtime::Parallelism& initial) const;

  /// One reactive step (exposed for testing).
  [[nodiscard]] runtime::Parallelism step(const runtime::JobMetrics& metrics) const;

 private:
  ThresholdParams params_;
};

}  // namespace autra::baselines
