// Algorithm 1: Bayesian optimisation at a steady input data rate
// (paper Sec. III-E).
//
// Given the base configuration k' from the throughput-optimisation step,
// the algorithm searches the integer box [k'_i, P_max]^N for the
// configuration that meets the latency target with the fewest resources:
//
//   1. evaluate the bootstrap samples (Sec. III-D) and score them (Eq. 4);
//   2. fit the Matern-5/2 GP surrogate on (configuration, score) pairs;
//   3. repeat: recommend the next configuration by Expected Improvement
//      (Eqs. 5-7), run it for the policy running time, score it, update the
//      model — until a *really measured* configuration meets the latency
//      target, the throughput target, and the benefit-score threshold
//      (Eq. 9) concurrently, or the evaluation budget runs out.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "bayesopt/bayes_opt.hpp"
#include "core/scoring.hpp"
#include "runtime/backend.hpp"

namespace autra::core {

struct SteadyRateParams {
  double target_latency_ms = 0.0;
  /// Records/s the job must sustain; <= 0 means "the input data rate as
  /// measured during evaluation".
  double target_throughput = 0.0;
  double throughput_tolerance = 0.03;
  double alpha = 0.5;
  /// Termination threshold s_t on the benefit score. The paper's
  /// experiments set 0.9 (equivalently w = 1/3 more resources allowed at
  /// alpha = 0.5, Eq. 9); use score_threshold() to derive it from w.
  double score_threshold = 0.9;
  /// EI exploration parameter xi (Eq. 6).
  double xi = 0.01;
  /// Surrogate covariance kernel (the paper uses Matern 5/2). Code that
  /// starts from a name parses it with gp::parse_kernel_kind.
  gp::KernelKind gp_kernel = gp::KernelKind::kMatern52;
  /// Worker threads for the Plan stage (bootstrap fan-out, GP grid search,
  /// EI batch scoring). <= 0 uses the process default (AUTRA_THREADS or
  /// hardware_concurrency); 1 forces the serial path. Decisions are
  /// bit-identical at any value.
  int threads = 0;
  /// Number of uniform bootstrap samples M (family-2 adds N more).
  int bootstrap_m = 5;
  int max_parallelism = 1;
  /// Hard budget on real evaluations (bootstrap included).
  int max_evaluations = 40;
  std::uint64_t seed = 42;
  /// When true, the BO surrogate incorporates new samples through the
  /// O(n^2) incremental factor update between rounds instead of refitting
  /// from scratch, and the controller warm-starts Algorithm 1 from the
  /// model library instead of re-bootstrapping. Off by default: the
  /// incremental factor differs from a refit in the low bits, which would
  /// perturb committed golden decision streams.
  bool incremental = false;
  /// Observation-window cap on the surrogate when incremental is set: once
  /// full, the oldest sample is evicted (Cholesky::drop_first, an O(cap^2)
  /// rank-1 update of the factor) before the new one is appended, bounding
  /// always-on controller state. 0 = unbounded.
  int max_observations = 0;
};

/// One evaluated (or estimated, in the transfer path) sample.
struct SamplePoint {
  runtime::Parallelism config;
  double score = 0.0;
  /// Metrics are absent for estimated samples injected by Algorithm 2.
  std::optional<runtime::JobMetrics> metrics;
  [[nodiscard]] bool estimated() const noexcept { return !metrics.has_value(); }
};

struct SteadyRateResult {
  runtime::Parallelism best;
  double best_score = 0.0;
  runtime::JobMetrics best_metrics;
  /// Real evaluations spent on bootstrap samples.
  int bootstrap_evaluations = 0;
  /// Real evaluations spent in the BO loop.
  int bo_iterations = 0;
  bool converged = false;
  /// Every sample the model saw, in insertion order (estimated included).
  std::vector<SamplePoint> history;
};

/// Does this really-measured sample satisfy all three termination
/// conditions (latency, throughput, benefit score)?
[[nodiscard]] bool meets_requirements(const SamplePoint& sample,
                                      const SteadyRateParams& params);

/// Best-effort selection when the evaluation budget runs out before any
/// sample meets every requirement: prefers samples by feasibility tier
/// (latency+throughput ok > latency ok > throughput ok > neither), breaking
/// ties by benefit score. Returns nullptr when no real sample exists.
[[nodiscard]] const SamplePoint* pick_best_fallback(
    std::span<const SamplePoint> samples, const SteadyRateParams& params);

/// Runs Algorithm 1.
///
/// `base` is the throughput-optimal configuration k' that bounds the search
/// space from below. `seed_samples` pre-populates the surrogate (used by
/// Algorithm 2 to inject estimated samples and by warm restarts); bootstrap
/// evaluation is skipped when `skip_bootstrap` is set (the transfer path
/// provides estimates of the bootstrap set instead of running it).
[[nodiscard]] SteadyRateResult run_steady_rate(
    const runtime::Evaluator& evaluate, const runtime::Parallelism& base,
    const SteadyRateParams& params,
    std::span<const SamplePoint> seed_samples = {},
    bool skip_bootstrap = false);

/// A single model-driven recommendation from a sample set, without running
/// anything: fits the surrogate on `samples` and returns the EI-optimal
/// next configuration. This is the "Algorithm 1 call" on line 14 of
/// Algorithm 2 and the <1 ms "Algorithm1_use" row of Table IV.
[[nodiscard]] runtime::Parallelism recommend_next(
    std::span<const SamplePoint> samples, const runtime::Parallelism& base,
    const SteadyRateParams& params);

}  // namespace autra::core
