// Dhalion-style baseline (Floratou et al., VLDB 2017) — the rule-based,
// backpressure-driven policy from the paper's related work (Sec. VI).
//
// The controller watches for symptoms, diagnoses a bottleneck, and applies
// a resolution:
//   - an operator whose input queue keeps growing (backpressure) is the
//     bottleneck; the resolution scales it up proportionally to how far
//     its processing lags its input;
//   - a resolution that produced no throughput improvement is blacklisted
//     and not tried again.
//
// Two published limitations are preserved on purpose, because the paper
// leans on them: backpressure monitoring *cannot produce a scale-down plan*
// for an over-provisioned job, and an externally capped job (the Yahoo
// benchmark's Redis) keeps showing backpressure, driving useless scale-ups
// until everything is blacklisted.
#pragma once

#include <set>
#include <vector>

#include "runtime/backend.hpp"
#include "streamsim/topology.hpp"

namespace autra::baselines {

struct DhalionParams {
  /// Queue length (records per instance) above which an operator is
  /// diagnosed as backpressured.
  double backpressure_queue_threshold = 500.0;
  int max_parallelism = 1;
  int max_iterations = 15;
};

struct DhalionResult {
  runtime::Parallelism final_config;
  runtime::JobMetrics final_metrics;
  int iterations = 0;
  bool healthy = false;  ///< No symptom at termination.
  /// Resolutions that were rolled back and blacklisted.
  std::vector<runtime::Parallelism> blacklisted;
};

class DhalionPolicy {
 public:
  DhalionPolicy(const sim::Topology& topology, DhalionParams params);

  [[nodiscard]] DhalionResult run(const runtime::Evaluator& evaluate,
                                  const runtime::Parallelism& initial) const;

  /// The symptoms one control step acts on: diagnose() plus every source
  /// while Kafka lag grows (a source that cannot keep up). Empty means
  /// the job is healthy.
  [[nodiscard]] std::vector<std::size_t> bottlenecks(
      const runtime::JobMetrics& metrics) const;

  /// Resolution of one control step: `current` with each bottleneck's
  /// culprit scaled by its observed pressure (at least +1, clamped to
  /// [1, max_parallelism]). run() and the live resilience loop both step
  /// through this.
  [[nodiscard]] runtime::Parallelism resolve(
      const runtime::JobMetrics& metrics,
      const std::vector<std::size_t>& bottlenecks,
      const runtime::Parallelism& current) const;

  /// Diagnosis step (exposed for tests): indices of backpressured
  /// operators (jammed input queues), most severe first.
  [[nodiscard]] std::vector<std::size_t> diagnose(
      const runtime::JobMetrics& metrics) const;

  /// Resolution target for a jammed operator: the backlog sits in front of
  /// the operator that is *blocked*, while the slow operator causing it
  /// sits downstream running at full utilisation. Walks downstream from
  /// `jammed` to the first operator with utilisation >= 0.8; falls back to
  /// the jammed operator itself when the whole chain is merely slow.
  [[nodiscard]] std::size_t culprit_of(const runtime::JobMetrics& metrics,
                                       std::size_t jammed) const;

 private:
  const sim::Topology& topology_;
  DhalionParams params_;
};

}  // namespace autra::baselines
