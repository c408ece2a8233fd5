#include "fault/resilience.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "baselines/dhalion.hpp"
#include "baselines/threshold.hpp"
#include "core/controller.hpp"
#include "core/throughput_opt.hpp"
#include "fault/fault_injecting_backend.hpp"
#include "runtime/metrics.hpp"

namespace autra::fault {

namespace {

/// Fills the QoS half of the report from the session's ground-truth
/// history (gauges arrive at ~1 Hz, so sample counts are seconds).
void summarize(const sim::ScalingSession& session,
               const FaultSchedule& schedule, double horizon,
               ResilienceReport& r) {
  namespace mn = runtime::metric_names;
  const runtime::MetricStore& db = session.history();
  const runtime::MetricId thr_id = db.find(mn::kThroughput);
  const runtime::MetricId rate_id = db.find(mn::kInputRate);
  const runtime::MetricId lag_id = db.find(mn::kKafkaLag);
  r.mean_throughput = db.mean(thr_id, 0.0, horizon).value_or(0.0);
  r.mean_input_rate = db.mean(rate_id, 0.0, horizon).value_or(0.0);
  if (lag_id.valid()) {
    for (double v : db.series(lag_id).values) {
      r.max_lag = std::max(r.max_lag, v);
    }
    if (const auto last = db.last(lag_id)) r.end_lag = last->value;
  }
  if (!thr_id.valid() || !rate_id.valid()) return;
  const runtime::MetricStore::SeriesView thr = db.series(thr_id);
  const runtime::MetricStore::SeriesView rate = db.series(rate_id);
  const std::size_t n = std::min(thr.values.size(), rate.values.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (thr.values[i] < 0.9 * rate.values[i]) r.violation_sec += 1.0;
  }
  if (schedule.empty()) {
    r.recovery_sec = 0.0;
    return;
  }
  const double fault_end = schedule.last_fault_end();
  int streak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (thr.times[i] < fault_end) continue;
    if (thr.values[i] >= 0.9 * rate.values[i]) {
      if (++streak >= 5) {
        r.recovery_sec = thr.times[i] - fault_end;
        return;
      }
    } else {
      streak = 0;
    }
  }
  r.recovery_sec = -1.0;
}

}  // namespace

std::vector<std::string> resilience_policies() {
  return {"autrascale", "threshold", "ds2", "dhalion", "static"};
}

ResilienceReport run_resilience(const std::string& policy,
                                const sim::JobSpec& spec,
                                const FaultSchedule& schedule,
                                const ResilienceOptions& options) {
  const std::vector<std::string> known = resilience_policies();
  if (std::find(known.begin(), known.end(), policy) == known.end()) {
    std::string msg = "run_resilience: unknown policy '" + policy +
                      "'; valid policies:";
    for (const std::string& name : known) msg += " " + name;
    throw std::invalid_argument(msg);
  }
  if (options.horizon_sec <= 0.0 || options.policy_interval_sec <= 0.0) {
    throw std::invalid_argument("run_resilience: bad options");
  }

  sim::JobSpec job = spec;
  job.engine.seed += options.seed * 6151;  // decorrelate seeded reruns
  const sim::Parallelism initial =
      options.initial.empty()
          ? sim::Parallelism(job.topology.num_operators(), 1)
          : options.initial;
  sim::ScalingSession session(job, initial);
  FaultInjectingBackend faulted(session, schedule);

  ResilienceReport report;
  report.policy = policy;
  const int max_parallelism = sim::Cluster(job.cluster).max_parallelism();
  const double interval = options.policy_interval_sec;

  if (policy != "autrascale") {
    // Static and the reactive baselines read window_metrics(), never the
    // history; the controller declares its own window in prime().
    faulted.retain_history(0.0);
  }
  if (policy == "static") {
    faulted.run_for(options.horizon_sec);
  } else if (policy == "autrascale") {
    core::ControllerParams params;
    params.steady.target_latency_ms = options.target_latency_ms;
    params.steady.target_throughput = 0.0;  // track the input rate
    params.steady.bootstrap_m = 4;
    params.steady.max_evaluations = 24;
    params.policy_interval_sec = interval;
    params.policy_running_time_sec = 2.0 * interval;
    params.resilience.metric_interval_sec = job.engine.metric_interval_sec;
    params.resilience.failure_cooldown_sec = interval;
    const auto trials = std::make_shared<sim::SimTrialService>(job);
    core::AuTraScaleController controller(job.topology, trials, params);
    for (const core::ControlDecision& d :
         controller.run(faulted, options.horizon_sec)) {
      if (!d.execute_failed) ++report.decisions;
      report.trials += d.evaluations;
    }
    report.unhealthy_windows = controller.stats().unhealthy_windows;
    report.rescale_retries = controller.stats().rescale_retries;
    report.trial_runs_simulated = trials->runs_simulated();
  } else {
    // Reactive baselines: the published step rule fires every interval
    // against the engine's own window counters, with no Execute retry — a
    // failed rescale is simply lost until the rule fires again.
    baselines::ThresholdParams tp;
    tp.max_parallelism = max_parallelism;
    const baselines::ThresholdPolicy threshold(tp);
    baselines::DhalionParams dp;
    dp.max_parallelism = max_parallelism;
    const baselines::DhalionPolicy dhalion(job.topology, dp);
    while (runtime::before_horizon(faulted, options.horizon_sec)) {
      faulted.reset_window();
      faulted.run_for(
          std::min(interval, options.horizon_sec - faulted.now()));
      const runtime::JobMetrics m = faulted.window_metrics();
      runtime::Parallelism next;
      if (policy == "threshold") {
        next = threshold.step(m);
      } else if (policy == "ds2") {
        next = core::scale_step(job.topology, m, m.input_rate,
                                max_parallelism);
      } else {
        next = dhalion.resolve(m, dhalion.bottlenecks(m), m.parallelism);
      }
      if (next == faulted.parallelism()) continue;
      try {
        faulted.reconfigure(next);
        ++report.decisions;
      } catch (const runtime::RescaleFailed&) {
      }
    }
  }

  summarize(session, schedule, options.horizon_sec, report);
  report.failed_rescales = faulted.failed_rescales();
  report.mirror_points = faulted.mirror_points();
  report.restarts = session.restarts();
  report.failure_restarts = session.failure_restarts();
  return report;
}

}  // namespace autra::fault
