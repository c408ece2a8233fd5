// The AuTraScale system (paper Sec. IV): a MAPE control loop around a live
// streaming job.
//
//   Monitor  — the backend writes Flink-path gauges into a MetricStore
//              (the InfluxDB stand-in);
//   Analyze  — the Metric Aggregator summarises the last policy interval;
//              the Scaling Manager decides whether action is needed and
//              whether a benefit model exists for the current rate;
//   Plan     — the Policy Controller runs throughput optimisation plus
//              Algorithm 1 (no model for this rate) or Algorithm 2
//              (transfer from the closest model), updating the model
//              library;
//   Execute  — the System Scheduler stops the job with a savepoint and
//              restarts it with the recommended configuration (modelled as
//              a downtime window by the backend's reconfigure()).
//
// The controller is compiled only against the backend-agnostic runtime
// layer: it drives any runtime::StreamingBackend (the fluid simulator, a
// trace replay, a real cluster adapter) and evaluates Plan-stage trials
// through a runtime::TrialService.
//
// Two cadence parameters from the paper: the *policy interval* (how often
// the loop runs) and the *policy running time* (how long after a restart
// metrics are ignored while the job stabilises).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "core/transfer.hpp"
#include "runtime/backend.hpp"
#include "runtime/tenant.hpp"
#include "streamsim/topology.hpp"

namespace autra::core {

/// Analyze-stage summary of one policy interval.
struct AggregatedMetrics {
  double window_start = 0.0;
  double window_end = 0.0;
  double input_rate = 0.0;   ///< Kafka production rate (mean over window).
  double throughput = 0.0;
  double latency_ms = 0.0;
  double kafka_lag = 0.0;
  /// Per-operator mean true rate per instance and total input rate.
  std::vector<double> true_rate;
  std::vector<double> input_rate_per_op;
};

/// Health verdict for one aggregation window — the Analyze stage's defence
/// against a faulted Monitor path. A window is unhealthy when core series
/// are missing or sparse (metric dropout/delay upstream) or when it
/// overlaps a restart the controller did not command (the job was
/// recovering, so its gauges describe a transient, not the steady state).
struct WindowHealth {
  int missing_series = 0;  ///< Core series absent or empty over the window.
  int sparse_series = 0;   ///< Core series below the expected point density.
  bool contaminated = false;  ///< Window overlaps an uncommanded restart.

  [[nodiscard]] bool healthy() const noexcept {
    return missing_series == 0 && sparse_series == 0 && !contaminated;
  }
};

/// Reads a window of the metric store into an AggregatedMetrics summary.
///
/// Series ids are resolved once per store and cached; each aggregate()
/// call then reads incrementally maintained window sums (one range() per
/// series, shared by its grade and its mean), never copying point vectors.
///
/// When `metric_interval_sec` is positive, the aggregator also grades
/// window health: each core series is expected to deliver one point per
/// interval, and a series delivering less than `1 - max_missing_fraction`
/// of that is flagged sparse. With the default (0), density checks are
/// off and only missing series are reported.
class MetricAggregator {
 public:
  explicit MetricAggregator(const sim::Topology& topology,
                            double metric_interval_sec = 0.0,
                            double max_missing_fraction = 0.5);
  [[nodiscard]] AggregatedMetrics aggregate(const runtime::MetricStore& db,
                                            double t0, double t1,
                                            WindowHealth* health = nullptr)
      const;

 private:
  struct ResolvedIds {
    const runtime::MetricStore* db = nullptr;
    runtime::MetricId input_rate, throughput, latency_mean, kafka_lag;
    std::vector<runtime::MetricId> true_rate;
    std::vector<runtime::MetricId> input_rate_per_op;
  };
  void bind(const runtime::MetricStore& db) const;
  /// Grades one series that holds `points` points over [t0, t1].
  void grade(std::size_t points, double t0, double t1,
             WindowHealth& health) const;

  const sim::Topology& topology_;
  double metric_interval_sec_;
  double max_missing_fraction_;
  mutable ResolvedIds ids_;
};

/// Why the Scaling Manager asked for action.
enum class ScalingTrigger {
  kNone,
  kThroughputViolation,  ///< Throughput below the input rate (lag grows).
  kLatencyViolation,     ///< Latency above target.
  kOverProvisioned,      ///< Benefit score below threshold.
  kRateChanged,          ///< Input rate moved away from the model's rate.
  kLagDrain,             ///< Post-recovery over-provisioning to drain lag.
};

[[nodiscard]] const char* to_string(ScalingTrigger trigger) noexcept;

/// Fault-tolerance knobs for the control loop. The defaults keep every
/// resilience feature inert on a healthy cluster: no density grading, and
/// the retry loop only runs when reconfigure() actually throws
/// runtime::RescaleFailed.
struct ResilienceParams {
  /// Expected gauge cadence for window-health density checks; <= 0 turns
  /// density grading off (missing series are still reported).
  double metric_interval_sec = 0.0;
  /// Fraction of a window's expected points a series may miss before the
  /// window is declared unhealthy.
  double max_missing_fraction = 0.5;
  /// Transient Execute failures (runtime::RescaleFailed) are retried this
  /// many times with exponential backoff, capped at 60 s, before the
  /// decision is abandoned for the interval.
  int max_rescale_retries = 4;
  double rescale_backoff_initial_sec = 5.0;
  /// Extra stabilisation added on top of the policy running time after a
  /// restart the controller did not command (a crash recovery): the
  /// freshly restarted job is draining lag and its windows would read as
  /// violations the Plan stage cannot fix.
  double failure_cooldown_sec = 0.0;
  /// Lag-drain trigger (EXPERIMENTS.md residual-lag finding): after a
  /// crash recovery the job restarts at its steady-state configuration,
  /// which has no headroom, so the lag accumulated during downtime can
  /// persist for the rest of the run. When this bound is positive, a
  /// detected failure restart temporarily *over*-provisions the job
  /// (every operator's parallelism times 1.5, rounded up and clamped to
  /// the cluster's slot capacity) until the Kafka lag drops below
  /// `lag_drain_bound_sec` seconds of the current input rate — then the
  /// pre-drain configuration is restored. 0 (default) keeps the feature
  /// inert.
  double lag_drain_bound_sec = 0.0;
  /// Give-up bound: the boosted configuration is restored after this many
  /// policy intervals even if the lag bound was never reached.
  int lag_drain_max_intervals = 5;
};

/// Counters describing how the loop coped with a faulty environment.
struct LoopStats {
  int windows = 0;            ///< Aggregation windows considered.
  int unhealthy_windows = 0;  ///< Windows skipped on health grounds.
  int failure_restarts = 0;   ///< Uncommanded restarts observed.
  int rescale_retries = 0;    ///< RescaleFailed caught and retried.
  int rescale_aborts = 0;     ///< Decisions abandoned after max retries.
  int lag_drains = 0;         ///< Post-recovery lag-drain boosts entered.
  /// Which tenant's loop these counters describe (invalid = single-tenant).
  runtime::TenantId tenant;

  friend bool operator==(const LoopStats&, const LoopStats&) = default;
};

struct ControllerParams {
  SteadyRateParams steady;
  TransferParams transfer;
  ThroughputOptParams throughput;
  ResilienceParams resilience;
  /// Seconds between control-loop invocations.
  double policy_interval_sec = 60.0;
  /// Seconds after a restart during which decisions are suppressed; the
  /// paper recommends an integer multiple of the policy interval.
  double policy_running_time_sec = 120.0;
  /// Tenant this controller acts for on a shared cluster; stamped into
  /// LoopStats and every ControlDecision. Invalid (default) means
  /// single-tenant.
  runtime::TenantId tenant;
};

/// Decision record for observability/tests.
struct ControlDecision {
  double time = 0.0;
  ScalingTrigger trigger = ScalingTrigger::kNone;
  /// "none", "algorithm1", "algorithm2", "lag-drain" or "lag-drain-restore".
  std::string algorithm;
  runtime::Parallelism applied;
  int evaluations = 0;
  int rescale_retries = 0;     ///< Transient Execute failures survived.
  bool execute_failed = false; ///< Gave up applying after max retries.
  /// Tenant the deciding controller acts for (invalid = single-tenant).
  runtime::TenantId tenant;

  friend bool operator==(const ControlDecision&,
                         const ControlDecision&) = default;
};

/// The full AuTraScale controller driving a live StreamingBackend.
///
/// The Plan stage's algorithms evaluate candidate configurations through
/// the TrialService (the paper likewise restarts the real job per trial);
/// the chosen configuration is then applied to the live session.
class AuTraScaleController {
 public:
  AuTraScaleController(sim::Topology topology,
                       std::shared_ptr<const runtime::TrialService> trials,
                       ControllerParams params);

  /// Runs the MAPE loop against `session` until session time reaches
  /// `until_sec`. Returns all decisions taken. Equivalent to prime() once,
  /// then per window: reset_window(), advance one policy interval,
  /// observe_window().
  std::vector<ControlDecision> run(runtime::StreamingBackend& session,
                                   double until_sec);

  /// Latches the restart watermark and the stabilisation clock against the
  /// session's current state, and declares history_window_sec() to it
  /// (StreamingBackend::retain_history). run() calls this on entry; a
  /// co-simulation harness that owns the advance loop
  /// (mt::MultiTenantHarness) calls it once before its first window.
  void prime(runtime::StreamingBackend& session);

  /// Longest history() window the loop reads, as declared in prime(). A
  /// window spans one policy interval, but it can end an engine tick late,
  /// and a point at its start can fall a rounding error short of
  /// (end - interval); one more interval is kept as slack.
  [[nodiscard]] double history_window_sec() const noexcept {
    return 2.0 * params_.policy_interval_sec;
  }

  /// One Monitor -> Analyze -> Plan -> Execute iteration over the window
  /// that began at `t0` and ends at session.now(). The caller has already
  /// reset the window and advanced the session (run() does both; a
  /// harness advances all tenants in lockstep instead). Decisions taken
  /// are appended to `decisions`.
  void observe_window(runtime::StreamingBackend& session, double t0,
                      std::vector<ControlDecision>& decisions);

  [[nodiscard]] const ModelLibrary& library() const noexcept {
    return library_;
  }
  [[nodiscard]] ModelLibrary& library() noexcept { return library_; }

  /// Replaces the model library (e.g. restored from disk via model_io).
  /// A controller restarted with its previous library answers rate changes
  /// with Algorithm 2 instead of re-paying the bootstrap at every rate.
  void set_library(ModelLibrary library) { library_ = std::move(library); }

  /// Resilience counters accumulated across run() calls.
  [[nodiscard]] const LoopStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] ScalingTrigger analyze(
      const AggregatedMetrics& m, const runtime::Parallelism& current) const;
  ControlDecision plan_and_execute(runtime::StreamingBackend& session,
                                   ScalingTrigger trigger, double rate);
  /// Enters lag-drain mode after a detected crash recovery (no-op when the
  /// feature is inert or a drain is already active).
  void maybe_start_lag_drain(runtime::StreamingBackend& session,
                             std::vector<ControlDecision>& decisions);
  /// One per-window drain check: restores the saved configuration once the
  /// lag bound (or the interval cap) is reached. Returns true while the
  /// drain owns the loop (analyze/plan are skipped).
  bool lag_drain_step(runtime::StreamingBackend& session,
                      const AggregatedMetrics& m,
                      std::vector<ControlDecision>& decisions);

  sim::Topology topology_;
  std::shared_ptr<const runtime::TrialService> trials_;
  ControllerParams params_;
  MetricAggregator aggregator_;
  LoopStats stats_;
  ModelLibrary library_;
  double model_rate_ = -1.0;   ///< Rate of the base config currently applied.
  runtime::Parallelism base_;  ///< k' for the current rate.

  // Lag-drain state (survives across run() calls).
  bool lag_draining_ = false;
  runtime::Parallelism lag_drain_saved_;  ///< Config to restore after drain.
  int lag_drain_windows_left_ = 0;

  // Loop state shared by run() and the prime()/observe_window() pair.
  double stable_since_ = 0.0;  ///< When the job last (re)stabilised.
  int known_restarts_ = 0;     ///< Restart watermark at the last window.
};

}  // namespace autra::core
