// Job evaluation harness.
//
// JobRunner is the "run the job with this configuration and report QoS"
// primitive every auto-scaling policy in this repository consumes: it runs a
// fresh engine for a warm-up period (the paper's *policy running time*,
// during which metrics are ignored because the restarted job is unstable),
// then measures for a window and returns a JobMetrics snapshot.
//
// ScalingSession models a *continuously running* job that is rescaled over
// its lifetime: the Kafka log (and its lag) and the wall clock survive each
// reconfiguration, and every restart costs a downtime window, exactly like
// Flink's savepoint-stop-restart cycle in the paper's Execute stage.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "fault/fault_host.hpp"
#include "runtime/backend.hpp"
#include "streamsim/engine.hpp"

namespace autra::sim {

/// Description of one external (Redis-like) service a job depends on.
struct ExternalServiceSpec {
  std::string name;
  double max_calls_per_sec = 1e9;
  double burst_sec = 0.5;
  /// Round-trip latency each call adds to a record, milliseconds.
  double call_latency_ms = 0.0;
};

/// Everything needed to instantiate a job, independent of parallelism.
struct JobSpec {
  Topology topology;
  /// Cluster inventory handle: a private spec for the single-tenant path
  /// (`spec.cluster = paper_cluster()` still works — ClusterRef converts
  /// implicitly), or a slot lease on a mt::SharedCluster.
  ClusterRef cluster;
  std::shared_ptr<const RateSchedule> schedule;
  std::vector<ExternalServiceSpec> services;
  EngineParams engine;

  /// Convenience: the schedule's rate at t=0 (the steady input data rate
  /// v_c for constant-rate experiments).
  [[nodiscard]] double initial_rate() const;
};

/// Builds an engine for a spec (shared by JobRunner and ScalingSession).
[[nodiscard]] std::unique_ptr<Engine> make_engine(const JobSpec& spec,
                                                  const Parallelism& p,
                                                  double start_time = 0.0,
                                                  std::uint64_t seed_salt = 0);

/// Collects a JobMetrics snapshot from an engine's current window; the
/// latency percentiles only when the engine keeps their distribution.
[[nodiscard]] runtime::JobMetrics snapshot(const Engine& engine);

/// Evaluation windows of a fresh-start JobRunner measurement (aggregate
/// with defaulted members, like ResilienceParams — designated initializers
/// keep call sites self-describing).
struct RunnerParams {
  /// The paper's policy running time: metrics are ignored while the
  /// freshly started job stabilises.
  double warmup_sec = 60.0;
  /// Metric aggregation window measured after warm-up.
  double measure_sec = 60.0;
};

/// Fresh-start evaluation: one configuration, one measurement.
class JobRunner {
 public:
  explicit JobRunner(JobSpec spec, RunnerParams params = {});

  /// Runs the job from a cold start with parallelism `p` and returns the
  /// post-warm-up window metrics. `seed_salt` perturbs measurement noise so
  /// repeated evaluations differ like real reruns do. Safe to call
  /// concurrently: each call builds its own engine and shares only the
  /// immutable spec. The engine's gauges are computed (their noise drawn)
  /// but not stored: the metrics come from its counters.
  [[nodiscard]] runtime::JobMetrics measure(const Parallelism& p,
                                            std::uint64_t seed_salt = 0) const;

  [[nodiscard]] const JobSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] int max_parallelism() const;
  [[nodiscard]] std::size_t num_operators() const noexcept {
    return spec_.topology.num_operators();
  }

  /// Total evaluations performed so far (each is one job restart in the
  /// paper's terms — the cost the transfer-learning method saves).
  [[nodiscard]] int evaluations() const noexcept {
    return evaluations_.load(std::memory_order_relaxed);
  }

 private:
  JobSpec spec_;
  RunnerParams params_;
  mutable std::atomic<int> evaluations_{0};
};

/// One Plan stage's fresh-start trials: a per-configuration rerun counter
/// over a table of finished runs keyed by (configuration, rerun index).
/// Rerun k of configuration p is runner.measure(p, trial_seed_salt(p) + k),
/// a pure function of the runner's setting and that key, so a key found in
/// the table is replayed (the recorded JobMetrics, bit for bit) instead of
/// simulated again. Every call still counts as one trial. The noise a
/// configuration sees depends only on how often this ledger has measured
/// it before, never on the order calls are issued in, and run() is safe to
/// call concurrently, as the Plan stage's trial fan-out does.
class TrialLedger {
 public:
  /// Finished runs of one trial setting, shared by the ledgers of every
  /// Plan stage at that setting.
  struct Table {
    std::mutex mu;
    std::map<std::pair<Parallelism, std::uint64_t>, runtime::JobMetrics> runs;
  };
  /// Runs simulated and replayed, over every ledger that shares them.
  struct Counts {
    std::atomic<std::uint64_t> simulated{0};
    std::atomic<std::uint64_t> replayed{0};
  };

  /// A null `table` keeps no results; a null `counts` counts nothing.
  explicit TrialLedger(std::shared_ptr<const JobRunner> runner,
                       std::shared_ptr<Table> table = nullptr,
                       std::shared_ptr<Counts> counts = nullptr);

  /// The next rerun of `p` on this ledger, replayed when the table holds it.
  [[nodiscard]] runtime::JobMetrics run(const Parallelism& p);

 private:
  std::shared_ptr<const JobRunner> runner_;
  std::shared_ptr<Table> table_;
  std::shared_ptr<Counts> counts_;
  std::mutex mu_;
  std::map<Parallelism, std::uint64_t> reruns_;
};

/// Evaluator over a TrialLedger of its own on `runner`, which must outlive
/// it; it keeps no results, because no other evaluator could replay them.
[[nodiscard]] runtime::Evaluator make_runner_evaluator(const JobRunner& runner);

/// Restart-cost knobs of a long-running ScalingSession (aggregate with
/// defaulted members; see RunnerParams).
struct SessionParams {
  /// Savepoint + redeploy window of a cold restart, during which nothing
  /// is processed but Kafka keeps producing.
  double restart_downtime_sec = 15.0;
  /// The much smaller pause of an in-place (hot) scale-out.
  double hot_downtime_sec = 1.0;
};

/// A long-running job that can be rescaled in place — the fluid
/// simulator's implementation of the backend-agnostic runtime interface.
///
/// Also a fault::FaultHost: engine-level fault events registered through
/// the host_* methods go into the engine's fault timeline, which every
/// rebuild (reconfigurations and failure restarts) hands to the successor
/// engine along with the Kafka log, and a machine crash forces a
/// framework-style restart `detection_delay_sec` after the crash instant —
/// full restart downtime, Kafka lag accumulating throughout, exactly the
/// cost model of the Execute stage.
class ScalingSession final : public runtime::StreamingBackend,
                             public fault::FaultHost {
 public:
  ScalingSession(JobSpec spec, Parallelism initial,
                 SessionParams params = {});

  /// Advances the session by `sec` simulated seconds.
  void run_for(double sec) override;

  /// Advances to the absolute session time `until_sec` (at or before now()
  /// is a no-op). run_for(sec) == run_to(now() + sec); co-simulation
  /// harnesses advance every tenant through shared absolute targets so
  /// their slicing cannot perturb the float arithmetic of the engine's
  /// whole-tick run_until loop.
  void run_to(double until_sec);

  /// Applies `p`, preserving the Kafka log and the wall clock. No-op if
  /// `p` equals the current config. kHotScaleOut throws
  /// std::invalid_argument when any operator shrinks.
  void reconfigure(
      const Parallelism& p,
      runtime::RescaleMode mode = runtime::RescaleMode::kColdRestart) override;

  /// Metrics accumulated since the last reset_window()/reconfigure().
  [[nodiscard]] runtime::JobMetrics window_metrics() const override;
  void reset_window() override;

  [[nodiscard]] double now() const noexcept override { return engine_->now(); }
  [[nodiscard]] const Parallelism& parallelism() const noexcept override {
    return engine_->parallelism();
  }
  [[nodiscard]] Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const runtime::MetricStore& history() const noexcept override {
    return history_;
  }
  [[nodiscard]] int restarts() const noexcept override { return restarts_; }

  /// Restarts forced by machine crashes (a subset of restarts()).
  [[nodiscard]] int failure_restarts() const noexcept {
    return failure_restarts_;
  }

  // --- Multi-tenant coupling (driven by mt::MultiTenantHarness) ----------
  // Stored on the session — not just on the engine — so engine rebuilds
  // (rescales, crash restarts) re-apply them to the successor engine.

  /// Busy-core equivalents co-tenant jobs place on each machine. An empty
  /// or all-zero vector detaches the coupling (the single-tenant runs stay
  /// bit-identical).
  void set_external_machine_load(const std::vector<double>& load);
  /// Records-per-second co-tenant jobs push through each rack uplink.
  void set_external_uplink_load(const std::vector<double>& records_per_sec);
  /// This job's own busy-core load per machine (what it publishes).
  [[nodiscard]] std::vector<double> machine_busy_load() const {
    return engine_->machine_busy_load();
  }
  /// Cumulative records this job's shuffles pushed through each rack
  /// uplink, summed across engine rebuilds. Empty when uplinks are
  /// unconstrained.
  [[nodiscard]] std::vector<double> uplink_consumed_records() const;

  // fault::FaultHost — events go into the fault timeline, which survives
  // engine rebuilds. All may be called at any time; events entirely in the
  // past are retained but unobservable.
  void host_machine_down(std::size_t machine, double from_sec,
                         double until_sec,
                         double detection_delay_sec) override;
  void host_slow_node(std::size_t machine, double speed_factor,
                      double from_sec, double until_sec) override;
  void host_service_outage(const std::string& service, double from_sec,
                           double until_sec) override;
  void host_ingest_stall(double from_sec, double until_sec) override;
  void host_rack_down(const std::vector<std::size_t>& machines,
                      double from_sec, double until_sec,
                      double detection_delay_sec) override;
  void host_network_partition(const std::vector<std::size_t>& island,
                              double from_sec, double until_sec) override;

 private:
  /// Replaces the engine with a successor at the same wall clock: Kafka log
  /// and fault timeline carried over, seed re-salted, `downtime` seconds of
  /// suspension. Shared by reconfigure() and forced failure restarts.
  void rebuild_engine(const Parallelism& p, double downtime);

  JobSpec spec_;
  SessionParams params_;
  std::unique_ptr<Engine> engine_;
  runtime::MetricStore history_;
  int restarts_ = 0;
  int failure_restarts_ = 0;
  std::uint64_t reconfig_salt_ = 0;
  /// Co-tenant loads, re-applied to every successor engine.
  std::vector<double> external_machine_load_;
  std::vector<double> external_uplink_load_;
  /// Uplink records consumed by engines already torn down.
  std::vector<double> uplink_consumed_base_;
  /// Pending forced restarts, one per crash group (crash instant plus
  /// detection delay), earliest first. The crashed machines themselves
  /// live in the engine's fault timeline.
  std::priority_queue<double, std::vector<double>, std::greater<>>
      crash_restarts_;
};

/// The simulator's Plan-stage trial provider: every evaluator_at() call
/// returns an evaluator over a fresh TrialLedger on a fresh-start JobRunner
/// pinned at a constant rate, so it satisfies the const-thread-safety
/// contract of runtime::TrialService and draws the noise
/// make_runner_evaluator() draws for the same configurations. The service
/// keeps the ledger table of its latest (rate, warm-up, measure) setting,
/// compared bitwise: a call with the same setting shares it, so a re-plan
/// at an unchanged rate replays its runs instead of simulating them again;
/// any other setting starts a new table and drops the old one.
class SimTrialService final : public runtime::TrialService {
 public:
  explicit SimTrialService(JobSpec spec);

  [[nodiscard]] runtime::Evaluator evaluator_at(
      double rate, double warmup_sec, double measure_sec) const override;
  [[nodiscard]] int max_parallelism() const override;
  [[nodiscard]] double scheduled_rate_at(double t) const override;

  [[nodiscard]] const JobSpec& spec() const noexcept { return spec_; }

  /// Trial runs simulated and replayed by every evaluator this service
  /// returned. Their sum is the number of trials; both are exact and do
  /// not depend on the thread count while Plan stages run one at a time.
  [[nodiscard]] std::uint64_t runs_simulated() const noexcept {
    return counts_->simulated.load();
  }
  [[nodiscard]] std::uint64_t runs_replayed() const noexcept {
    return counts_->replayed.load();
  }
  /// Finished runs held for the latest setting (the service's memory).
  [[nodiscard]] std::size_t runs_held() const;

 private:
  JobSpec spec_;
  std::shared_ptr<TrialLedger::Counts> counts_ =
      std::make_shared<TrialLedger::Counts>();
  mutable std::mutex mu_;
  /// The latest setting, its runner and its table (guarded by mu_).
  mutable std::array<double, 3> setting_{};
  mutable std::shared_ptr<const JobRunner> runner_;
  mutable std::shared_ptr<TrialLedger::Table> table_;
};

/// Convenience: the trial service for `spec`, as the policy layer takes it.
[[nodiscard]] std::shared_ptr<runtime::TrialService> make_trial_service(
    JobSpec spec);

}  // namespace autra::sim
