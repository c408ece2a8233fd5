#include "streamsim/job_runner.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace autra::sim {

double JobSpec::initial_rate() const {
  if (!schedule) {
    throw std::logic_error("JobSpec: no rate schedule");
  }
  return schedule->rate_at(0.0);
}

namespace {

/// An engine for `spec` over `kafka` and `faults` with the spec's external
/// services registered; the callers own the seed arithmetic, the Kafka log
/// and the fault timeline.
std::unique_ptr<Engine> build_engine(
    const JobSpec& spec, const Parallelism& p, std::unique_ptr<KafkaLog> kafka,
    const EngineParams& params,
    std::unique_ptr<FaultTimeline> faults = nullptr) {
  auto engine =
      std::make_unique<Engine>(spec.topology, Cluster(spec.cluster), p,
                               std::move(kafka), params, std::move(faults));
  for (const ExternalServiceSpec& svc : spec.services) {
    engine->add_external_service(
        ExternalService(svc.name, svc.max_calls_per_sec, svc.burst_sec,
                        svc.call_latency_ms));
  }
  return engine;
}

/// A sink that keeps nothing. A trial is read through snapshot(), which
/// reads the engine's counters and never its gauges, so a trial engine
/// writes here instead of filling its own store. The engine still computes
/// every gauge, measurement noise included, before it calls record().
class DiscardingSink final : public runtime::MetricSink {
 public:
  runtime::MetricId resolve(std::string_view /*name*/) override {
    return runtime::MetricId(0);
  }
  void record(runtime::MetricId /*id*/, double /*time*/,
              double /*value*/) override {}
};

/// The evaluator behind make_runner_evaluator() and
/// SimTrialService::evaluator_at(): one TrialLedger, shared by the copies
/// of the std::function.
runtime::Evaluator ledger_evaluator(std::shared_ptr<TrialLedger> ledger) {
  return [ledger = std::move(ledger)](const Parallelism& p) {
    return ledger->run(p);
  };
}

}  // namespace

std::unique_ptr<Engine> make_engine(const JobSpec& spec, const Parallelism& p,
                                    double start_time,
                                    std::uint64_t seed_salt) {
  if (!spec.schedule) {
    throw std::invalid_argument("make_engine: spec has no rate schedule");
  }
  EngineParams params = spec.engine;
  params.start_time = start_time;
  params.seed += seed_salt * 7919;  // decorrelate reruns
  return build_engine(spec, p, std::make_unique<KafkaLog>(spec.schedule),
                      params);
}

runtime::JobMetrics snapshot(const Engine& engine) {
  runtime::JobMetrics m;
  m.parallelism = engine.parallelism();
  m.throughput = engine.throughput();
  m.input_rate = engine.kafka().rate_at(engine.now());
  m.latency_ms = engine.processing_latency().mean() * 1000.0;
  if (const LatencyStats* dist = engine.processing_latency_distribution()) {
    const std::vector<double> q = dist->quantiles(std::array{0.5, 0.95, 0.99});
    m.latency_percentiles =
        runtime::LatencyPercentiles{.p50_ms = q[0] * 1000.0,
                                    .p95_ms = q[1] * 1000.0,
                                    .p99_ms = q[2] * 1000.0};
  }
  m.event_latency_ms = engine.event_latency().mean() * 1000.0;
  m.kafka_lag = engine.kafka().lag();
  m.lag_growth_per_sec = engine.lag_growth_per_sec();
  m.busy_cores = engine.busy_cores();
  m.memory_mb = engine.memory_mb();
  for (std::size_t i = 0; i < engine.topology().num_operators(); ++i) {
    m.operators.push_back(engine.rates(i));
  }
  return m;
}

JobRunner::JobRunner(JobSpec spec, RunnerParams params)
    : spec_(std::move(spec)), params_(params) {
  spec_.topology.validate();
  if (params_.warmup_sec < 0.0 || params_.measure_sec <= 0.0) {
    throw std::invalid_argument("JobRunner: bad window lengths");
  }
}

int JobRunner::max_parallelism() const {
  return Cluster(spec_.cluster).max_parallelism();
}

runtime::JobMetrics JobRunner::measure(const Parallelism& p,
                                       std::uint64_t seed_salt) const {
  DiscardingSink gauges;  // Outlives the engine that writes to it.
  auto engine = make_engine(spec_, p, 0.0, seed_salt);
  engine->set_external_metrics(&gauges);
  engine->run_until(params_.warmup_sec);
  engine->reset_counters();
  engine->run_until(params_.warmup_sec + params_.measure_sec);
  runtime::JobMetrics m = snapshot(*engine);
  ++evaluations_;
  return m;
}

TrialLedger::TrialLedger(std::shared_ptr<const JobRunner> runner,
                         std::shared_ptr<Table> table,
                         std::shared_ptr<Counts> counts)
    : runner_(std::move(runner)),
      table_(std::move(table)),
      counts_(std::move(counts)) {}

runtime::JobMetrics TrialLedger::run(const Parallelism& p) {
  std::uint64_t rerun = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    rerun = reruns_[p]++;
  }
  std::pair<Parallelism, std::uint64_t> key(p, rerun);
  if (table_ != nullptr) {
    const std::lock_guard<std::mutex> lock(table_->mu);
    const auto it = table_->runs.find(key);
    if (it != table_->runs.end()) {
      if (counts_ != nullptr) ++counts_->replayed;
      return it->second;
    }
  }
  runtime::JobMetrics m =
      runner_->measure(p, runtime::trial_seed_salt(p) + rerun);
  if (table_ != nullptr) {
    const std::lock_guard<std::mutex> lock(table_->mu);
    table_->runs.try_emplace(std::move(key), m);
  }
  if (counts_ != nullptr) ++counts_->simulated;
  return m;
}

runtime::Evaluator make_runner_evaluator(const JobRunner& runner) {
  // A non-owning handle: the caller keeps `runner` alive.
  return ledger_evaluator(std::make_shared<TrialLedger>(
      std::shared_ptr<const JobRunner>(std::shared_ptr<const JobRunner>(),
                                       &runner)));
}

ScalingSession::ScalingSession(JobSpec spec, Parallelism initial,
                               SessionParams params)
    : spec_(std::move(spec)), params_(params) {
  spec_.topology.validate();
  engine_ = make_engine(spec_, initial, 0.0, 0);
  engine_->set_external_metrics(&history_);
}

void ScalingSession::run_for(double sec) { run_to(engine_->now() + sec); }

void ScalingSession::run_to(double until_sec) {
  // Machine and rack crashes force framework-style restarts: run up to the
  // moment the crash is detected, then rebuild the engine at the current
  // parallelism with the full restart downtime. A rack crash costs ONE
  // restart for the whole group (the framework notices the correlated loss
  // as one incident). The crash window usually extends past the restart,
  // so the successor engine (which carries the fault timeline) still sees
  // the machines down until they recover.
  while (!crash_restarts_.empty() && crash_restarts_.top() <= until_sec) {
    engine_->run_until(std::max(crash_restarts_.top(), engine_->now()));
    crash_restarts_.pop();
    ++failure_restarts_;
    const Parallelism p = engine_->parallelism();
    rebuild_engine(p, params_.restart_downtime_sec);
  }
  engine_->run_until(until_sec);
}

void ScalingSession::reconfigure(const Parallelism& p,
                                 runtime::RescaleMode mode) {
  if (p == engine_->parallelism()) return;
  // Checked before rebuild_engine hands the Kafka log and the fault
  // timeline on: a successor that rejected p would take both with it.
  if (p.size() != spec_.topology.num_operators() ||
      !engine_->cluster().feasible(p)) {
    throw std::invalid_argument("ScalingSession: infeasible parallelism");
  }
  if (mode == runtime::RescaleMode::kHotScaleOut) {
    const Parallelism& current = engine_->parallelism();
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p[i] < current[i]) {
        throw std::invalid_argument(
            "ScalingSession: hot scale-out cannot shrink an operator");
      }
    }
  }
  rebuild_engine(p, mode == runtime::RescaleMode::kHotScaleOut
                        ? params_.hot_downtime_sec
                        : params_.restart_downtime_sec);
}

void ScalingSession::set_external_machine_load(
    const std::vector<double>& load) {
  engine_->set_external_machine_load(load);  // validates
  external_machine_load_ = load;
}

void ScalingSession::set_external_uplink_load(
    const std::vector<double>& records_per_sec) {
  engine_->set_external_uplink_load(records_per_sec);  // validates
  external_uplink_load_ = records_per_sec;
}

std::vector<double> ScalingSession::uplink_consumed_records() const {
  std::vector<double> total = engine_->network().consumed_records();
  for (std::size_t r = 0;
       r < total.size() && r < uplink_consumed_base_.size(); ++r) {
    total[r] += uplink_consumed_base_[r];
  }
  return total;
}

void ScalingSession::rebuild_engine(const Parallelism& p, double downtime) {
  const double t = engine_->now();
  // Uplink consumption accounting survives the rebuild: fold the outgoing
  // engine's cumulative counters into the base before discarding it.
  const std::vector<double>& consumed = engine_->network().consumed_records();
  if (!consumed.empty()) {
    uplink_consumed_base_.resize(consumed.size(), 0.0);
    for (std::size_t r = 0; r < consumed.size(); ++r) {
      uplink_consumed_base_[r] += consumed[r];
    }
  }
  EngineParams params = spec_.engine;
  params.start_time = t;
  params.seed += ++reconfig_salt_ * 104729;
  auto next = build_engine(spec_, p, engine_->release_kafka(), params,
                           engine_->release_faults());
  next->set_external_metrics(&history_);
  // Co-tenant interference survives the rebuild too (empty vectors are
  // no-ops, so the single-tenant path is untouched).
  if (!external_machine_load_.empty()) {
    next->set_external_machine_load(external_machine_load_);
  }
  if (!external_uplink_load_.empty()) {
    next->set_external_uplink_load(external_uplink_load_);
  }
  next->suspend_until(t + downtime);
  engine_ = std::move(next);
  ++restarts_;
}

void ScalingSession::host_machine_down(std::size_t machine, double from_sec,
                                       double until_sec,
                                       double detection_delay_sec) {
  host_rack_down({machine}, from_sec, until_sec, detection_delay_sec);
}

void ScalingSession::host_slow_node(std::size_t machine, double speed_factor,
                                    double from_sec, double until_sec) {
  engine_->inject_slowdown(machine, speed_factor, from_sec, until_sec);
}

void ScalingSession::host_service_outage(const std::string& service,
                                         double from_sec, double until_sec) {
  engine_->inject_service_outage(service, from_sec, until_sec);
}

void ScalingSession::host_ingest_stall(double from_sec, double until_sec) {
  engine_->inject_ingest_stall(from_sec, until_sec);
}

void ScalingSession::host_rack_down(const std::vector<std::size_t>& machines,
                                    double from_sec, double until_sec,
                                    double detection_delay_sec) {
  // NaN fails these checks too: the restart instant must be comparable.
  if (!(detection_delay_sec >= 0.0)) {
    throw std::invalid_argument(
        "ScalingSession: crash detection delay must be >= 0");
  }
  // Validate everything before touching the engine so a bad group leaves
  // no partial crash behind.
  if (machines.empty() || !(until_sec > from_sec)) {
    throw std::invalid_argument("ScalingSession: bad crash group or window");
  }
  for (std::size_t m : machines) {
    if (m >= engine_->cluster().num_machines()) {
      throw std::invalid_argument("ScalingSession: bad crash machine index");
    }
  }
  for (std::size_t m : machines) {
    engine_->inject_machine_down(m, from_sec, until_sec);
  }
  crash_restarts_.push(from_sec + detection_delay_sec);
}

void ScalingSession::host_network_partition(
    const std::vector<std::size_t>& island, double from_sec,
    double until_sec) {
  engine_->inject_network_partition(island, from_sec, until_sec);
}

runtime::JobMetrics ScalingSession::window_metrics() const {
  return snapshot(*engine_);
}

void ScalingSession::reset_window() { engine_->reset_counters(); }

SimTrialService::SimTrialService(JobSpec spec) : spec_(std::move(spec)) {
  spec_.topology.validate();
  if (!spec_.schedule) {
    throw std::invalid_argument("SimTrialService: spec has no rate schedule");
  }
}

runtime::Evaluator SimTrialService::evaluator_at(double rate,
                                                 double warmup_sec,
                                                 double measure_sec) const {
  const std::array<double, 3> setting{rate, warmup_sec, measure_sec};
  const std::lock_guard<std::mutex> lock(mu_);
  // Bitwise, so a replay is only ever of the run the simulation would
  // compute again (-0.0 and 0.0 start separate tables, and that is safe).
  if (table_ == nullptr ||
      std::memcmp(setting.data(), setting_.data(), sizeof(setting)) != 0) {
    JobSpec trial_spec = spec_;
    trial_spec.schedule = std::make_shared<ConstantRate>(rate);
    auto runner = std::make_shared<const JobRunner>(
        std::move(trial_spec),
        RunnerParams{.warmup_sec = warmup_sec, .measure_sec = measure_sec});
    auto table = std::make_shared<TrialLedger::Table>();
    // Nothing below throws, so the runner, the table and the setting they
    // belong to are replaced together or not at all.
    runner_ = std::move(runner);
    table_ = std::move(table);
    setting_ = setting;
  }
  return ledger_evaluator(
      std::make_shared<TrialLedger>(runner_, table_, counts_));
}

std::size_t SimTrialService::runs_held() const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (table_ == nullptr) return 0;
  const std::lock_guard<std::mutex> table_lock(table_->mu);
  return table_->runs.size();
}

int SimTrialService::max_parallelism() const {
  return Cluster(spec_.cluster).max_parallelism();
}

double SimTrialService::scheduled_rate_at(double t) const {
  return spec_.schedule->rate_at(t);
}

std::shared_ptr<runtime::TrialService> make_trial_service(JobSpec spec) {
  return std::make_shared<SimTrialService>(std::move(spec));
}

}  // namespace autra::sim
