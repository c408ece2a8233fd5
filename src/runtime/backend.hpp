// The backend-agnostic runtime interface the policy layer is compiled
// against.
//
// StreamingBackend is a *live, continuously running* streaming job that
// can be observed and rescaled — the Monitor and Execute surfaces of the
// MAPE loop. TrialService is the Plan surface: it provides fresh-start
// evaluations of candidate configurations at a pinned input rate (each
// evaluation is one real job restart in the paper's terms).
//
// The fluid simulator (sim::ScalingSession / sim::SimTrialService) is the
// first implementation; runtime::ReplayBackend replays a recorded metric
// trace; a real Flink/Heron adapter would be a third. Policy code in
// src/core/ and src/baselines/ must include only this layer — never a
// concrete engine header.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>

#include "runtime/job_metrics.hpp"
#include "runtime/metrics.hpp"

namespace autra::runtime {

/// Thrown by StreamingBackend::reconfigure() when the Execute stage fails
/// *transiently* — the savepoint timed out, slots could not be allocated,
/// the redeploy was rejected. The job keeps running under its previous
/// configuration; callers may retry (the controller does, with capped
/// exponential backoff). Permanent errors (infeasible configuration, bad
/// arguments) keep throwing std::invalid_argument as before.
class RescaleFailed : public std::runtime_error {
 public:
  explicit RescaleFailed(const std::string& what)
      : std::runtime_error(what) {}
};

/// How a reconfiguration is applied.
enum class RescaleMode {
  /// Savepoint + full redeploy: the paper's Execute stage. Applies to any
  /// configuration change.
  kColdRestart,
  /// In-place scale-out (Flink reactive-mode style): new instances join
  /// without stopping the running ones, so the downtime shrinks to the
  /// slot-allocation time. Only valid when no operator's parallelism
  /// shrinks — state never needs to be re-partitioned away from a running
  /// instance.
  kHotScaleOut,
};

/// A long-running streaming job: observe it, rescale it, keep running.
class StreamingBackend {
 public:
  virtual ~StreamingBackend() = default;

  /// Advances the job by `sec` (simulated or wall) seconds.
  virtual void run_for(double sec) = 0;

  /// Applies `p`, preserving the source log and the wall clock. No-op if
  /// `p` equals the current config. kHotScaleOut throws
  /// std::invalid_argument when any operator shrinks.
  virtual void reconfigure(const Parallelism& p,
                           RescaleMode mode = RescaleMode::kColdRestart) = 0;

  [[nodiscard]] virtual double now() const = 0;
  [[nodiscard]] virtual const Parallelism& parallelism() const = 0;

  /// Metrics accumulated since the last reset_window()/reconfigure().
  [[nodiscard]] virtual JobMetrics window_metrics() const = 0;
  virtual void reset_window() = 0;

  /// Continuous gauge history spanning the whole session (all restarts).
  [[nodiscard]] virtual const MetricStore& history() const = 0;

  /// A reader's promise: it queries history() only over windows that end
  /// at now() and are at most `seconds` long, so older points may be
  /// dropped (MetricStore::retain). Declarations combine by max, and a
  /// backend nobody declares to keeps everything. Honouring the promise is
  /// optional; the default keeps every point.
  virtual void retain_history(double /*seconds*/) {}

  /// Number of reconfigurations applied so far.
  [[nodiscard]] virtual int restarts() const = 0;
};

/// Stop test of a loop that drives `backend` to `until_sec` by run_for().
/// The simulator's clock is a sum of ticks that can stop a rounding error
/// short of a horizon, and its engine ticks only while
/// now + kRunForToleranceSec < target, so a step shorter than that is empty.
inline constexpr double kRunForToleranceSec = 1e-12;
[[nodiscard]] inline bool before_horizon(const StreamingBackend& backend,
                                         double until_sec) {
  return backend.now() + kRunForToleranceSec < until_sec;
}

/// Runs a job with one parallelism configuration and reports the QoS
/// observed after the policy running time — the "run" of the paper's
/// recommend-run-judge loop. Policies never talk to a backend directly,
/// so the same algorithm code drives a simulator, a real cluster, or a
/// test double.
///
/// The Plan stage fans trial evaluations out across worker threads (see
/// src/exec/), so an Evaluator obtained from a TrialService must be safe
/// to invoke concurrently from multiple threads.
using Evaluator = std::function<JobMetrics(const Parallelism&)>;

/// Plan-stage evaluation provider: fresh-start trials of the job at a
/// pinned input rate, decoupled from the live session being controlled.
class TrialService {
 public:
  virtual ~TrialService() = default;

  /// Evaluator that cold-starts the job at constant `rate`, warms up for
  /// `warmup_sec`, measures for `measure_sec`. Repeated calls of the
  /// returned evaluator must decorrelate measurement noise like real
  /// reruns do.
  ///
  /// Const-thread-safety contract: the returned evaluator is invoked
  /// concurrently by the Plan stage's trial fan-out, so implementations
  /// must (a) make concurrent invocations data-race free, and (b) make the
  /// metrics returned for a configuration independent of the *order* in
  /// which concurrent evaluations are issued (e.g. derive noise seeds from
  /// the configuration itself, not from a shared call counter). Together
  /// these guarantee Plan decisions are bit-identical at any thread count.
  [[nodiscard]] virtual Evaluator evaluator_at(double rate, double warmup_sec,
                                               double measure_sec) const = 0;

  /// Upper bound on any operator's parallelism (cluster slot capacity).
  [[nodiscard]] virtual int max_parallelism() const = 0;

  /// Externally scheduled input rate at time `t` — the fallback when the
  /// measured rate is unusable (e.g. the job just restarted).
  [[nodiscard]] virtual double scheduled_rate_at(double t) const = 0;
};

}  // namespace autra::runtime
