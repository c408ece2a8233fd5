// Resilience harness: one policy, one job, one fault schedule — and a
// ground-truth report of how the combination behaved.
//
// The harness wires a live ScalingSession behind a FaultInjectingBackend
// and drives it with one of five controllers: the full AuTraScale MAPE
// loop (with its resilience features enabled), the reactive baselines
// (threshold, DS2, Dhalion — each applying its published step rule every
// policy interval, *without* retrying failed rescales, which is exactly
// how the original systems behave), or a static configuration. QoS is read
// from the inner session's unfaulted metric history, so the report is
// ground truth even when the schedule corrupts the controller-visible
// Monitor path.
//
// Scope notes (documented asymmetries, not accidents):
//   - AuTraScale reads the *faulted* history through the decorator; the
//     reactive baselines read window_metrics(), the engine's own counters,
//     because the original systems sample their engines directly.
//   - AuTraScale's Plan-stage trials run in a fault-free sandbox (fresh
//     JobRunner per candidate) — trials model offline profiling runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "streamsim/job_runner.hpp"

namespace autra::fault {

struct ResilienceOptions {
  double horizon_sec = 1800.0;
  /// Cadence of every controller's decision loop.
  double policy_interval_sec = 60.0;
  double target_latency_ms = 300.0;
  /// Initial configuration; empty means every operator at parallelism 1.
  sim::Parallelism initial;
  /// Perturbs simulator noise (not the schedule — seed that separately via
  /// FaultSchedule::canned).
  std::uint64_t seed = 1;
};

/// Ground-truth outcome of one (policy, job, schedule) run.
struct ResilienceReport {
  std::string policy;
  double mean_throughput = 0.0;
  double mean_input_rate = 0.0;
  /// Seconds (1 Hz gauge samples) with throughput below 90% of the rate.
  double violation_sec = 0.0;
  double max_lag = 0.0;
  double end_lag = 0.0;
  /// Seconds from the end of the last fault window until throughput held
  /// at >= 90% of the input rate for five consecutive samples; -1 when the
  /// job never recovered within the horizon, 0 for an empty schedule.
  double recovery_sec = -1.0;
  int restarts = 0;          ///< All engine rebuilds (rescale + failure).
  int failure_restarts = 0;  ///< Crash-forced restarts among them.
  int failed_rescales = 0;   ///< Injected reconfigure() failures hit.
  int decisions = 0;         ///< Configuration changes applied.
  int unhealthy_windows = 0; ///< AuTraScale only: windows skipped.
  int rescale_retries = 0;   ///< AuTraScale only: RescaleFailed retried.
  /// AuTraScale only: Plan-stage trials (sum of ControlDecision::evaluations,
  /// the paper's restart count) and the runs among them its
  /// sim::SimTrialService simulated rather than replayed.
  int trials = 0;
  std::uint64_t trial_runs_simulated = 0;
  /// Points the decorator's faulted history holds at the end of the run:
  /// the window its reader declared, 0 when the schedule has no metric
  /// faults.
  std::size_t mirror_points = 0;
};

/// The policy names run_resilience() accepts.
[[nodiscard]] std::vector<std::string> resilience_policies();

/// Runs `policy` over `spec` with `schedule` injected. Throws
/// std::invalid_argument on an unknown policy name.
[[nodiscard]] ResilienceReport run_resilience(const std::string& policy,
                                              const sim::JobSpec& spec,
                                              const FaultSchedule& schedule,
                                              const ResilienceOptions& options = {});

}  // namespace autra::fault
