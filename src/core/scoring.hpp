// AuTraScale's benefit scoring function (paper Eq. 4) and the BO
// termination threshold derived from the user's over-allocation budget
// (Eqs. 8-9).
//
// The score jointly quantifies latency compliance and resource frugality:
//
//   F = alpha * min(1, l_t / l_r)
//     + (1 - alpha) * (1/N) * sum_i k'_i / k_i
//
// where l_r is the measured processing latency, l_t the target, k'_i the
// minimum parallelism of operator i that maximises throughput (the base
// configuration from the throughput-optimisation step), and k_i the current
// parallelism. Both halves are <= 1, so F <= 1, with equality exactly at
// the base configuration meeting the latency target.
//
// (The paper prints the latency term as min(1, l_i/l_t), which contradicts
// its own rule "the lower the latency, the higher the score"; we use the
// orientation the rule demands.)
#pragma once

#include "runtime/job_metrics.hpp"

namespace autra::core {

struct ScoreParams {
  /// Latency target l_t, milliseconds.
  double target_latency_ms = 0.0;
  /// Relative importance of latency vs resource frugality.
  double alpha = 0.5;
  /// Base configuration k' (per-operator minimum parallelism that
  /// maximises throughput).
  runtime::Parallelism base;
};

/// Eq. 4. Throws std::invalid_argument on bad parameters (a latency target
/// that is not finite and positive included), a non-finite latency, or
/// mismatched configuration size.
[[nodiscard]] double benefit_score(const runtime::Parallelism& current,
                                   double latency_ms,
                                   const ScoreParams& params);

/// Convenience overload reading latency from a metrics snapshot.
[[nodiscard]] double benefit_score(const runtime::JobMetrics& metrics,
                                   const ScoreParams& params);

/// Eq. 9: the score threshold implied by an over-allocation budget w:
///   F >= alpha + (1 - alpha) / (1 + w).
[[nodiscard]] double score_threshold(double alpha, double over_allocation_w);

}  // namespace autra::core
