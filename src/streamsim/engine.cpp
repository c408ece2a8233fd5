#include "streamsim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "runtime/backend.hpp"

namespace autra::sim {

namespace {
constexpr double kEps = 1e-12;
/// Placement entries folded per capacity chunk. Fixed, so a machine change
/// recomputes one chunk per operator placed on it.
constexpr std::size_t kCapacityChunk = 1024;
}  // namespace

NetworkModel Engine::make_network() const {
  topo_.validate();
  if (!kafka_) {
    throw std::invalid_argument("Engine: null kafka log");
  }
  if (parallelism_.size() != topo_.num_operators()) {
    throw std::invalid_argument("Engine: parallelism size != operator count");
  }
  if (!cluster_.feasible(parallelism_)) {
    throw std::invalid_argument("Engine: infeasible parallelism for cluster");
  }
  if (params_.tick_sec <= 0.0 || params_.metric_interval_sec <= 0.0) {
    throw std::invalid_argument("Engine: bad timing parameters");
  }
  if (params_.load_epsilon < 0.0) {
    throw std::invalid_argument("Engine: negative load_epsilon");
  }
  if (faults_->num_machines() != cluster_.num_machines()) {
    throw std::invalid_argument(
        "Engine: fault timeline sized for another cluster");
  }
  return NetworkModel(topo_, cluster_, parallelism_);
}

void Engine::cut_partition(const std::vector<std::size_t>& island) {
  std::vector<char> on_island(cluster_.num_machines(), 0);
  for (const std::size_t m : island) on_island[m] = 1;
  network_.add_partition(on_island);
}

Engine::Engine(Topology topology, Cluster cluster, Parallelism parallelism,
               std::unique_ptr<KafkaLog> kafka, EngineParams params,
               std::unique_ptr<FaultTimeline> faults)
    : topo_(std::move(topology)),
      cluster_(std::move(cluster)),
      parallelism_(std::move(parallelism)),
      kafka_(std::move(kafka)),
      params_(params),
      interference_(params.interference),
      faults_(faults ? std::move(faults)
                     : std::make_unique<FaultTimeline>(cluster_.num_machines())),
      network_(make_network()),
      rng_(params.seed) {
  if (params_.latency_percentiles) proc_distribution_.emplace(params_.seed);
  const std::size_t num_ops = topo_.num_operators();
  const std::size_t num_machines = cluster_.num_machines();

  topo_order_ = topo_.topological_order();
  state_.resize(num_ops);
  queue_mass_.assign(num_ops, 0.0);
  queue_capacity_.assign(num_ops, 0.0);
  smoothed_busy_.assign(num_ops, 0.0);
  sb_snapshot_.assign(num_ops, 0.0);
  base_rate_.assign(num_ops, 0.0);
  service_sec_.assign(num_ops, 0.0);
  hot_share_.assign(num_ops, 0.0);
  capacity_.assign(num_ops, 0.0);
  hot_capacity_.assign(num_ops, 0.0);

  machine_bg_.assign(num_machines, 0.0);
  machine_load_.assign(num_machines, 0.0);
  machine_factor_.assign(num_machines, 0.0);
  for (std::size_t m = 0; m < num_machines; ++m) {
    machine_bg_[m] = cluster_.spec().machines[m].background_load;
  }
  hot_machine_ = cluster_.machine_of_slot(0);

  // Static placement: which machines host how many instances of each
  // operator (round-robin slot sharing makes this dense in the machine
  // prefix), its inversion, and the chunked capacity partial sums.
  placement_.resize(num_ops);
  machine_ops_.resize(num_machines);
  std::vector<double> count(num_machines, 0.0);
  for (std::size_t i = 0; i < num_ops; ++i) {
    const OperatorSpec& spec = topo_.op(i);
    const int k = parallelism_[i];
    // Parallelism and params are fixed for the engine's lifetime (a rescale
    // builds a new engine), so the coordination pow is paid once here.
    const double coord = interference_.coordination_factor(k);
    base_rate_[i] = 1e6 / (spec.total_cost_us() * coord);
    service_sec_[i] = spec.total_cost_us() * coord / 1e6;
    if (spec.key_skew > 0.0 && k > 1) {
      hot_share_[i] =
          (1.0 + spec.key_skew) / (static_cast<double>(k) + spec.key_skew);
    }
    // The buffer must hold at least one tick of flow or the per-tick
    // emit limit, not backpressure, becomes the throughput bound.
    const double buffer_sec = std::max(params_.buffer_sec, params_.tick_sec);
    queue_capacity_[i] =
        std::max(params_.min_buffer_records,
                 1e6 / spec.total_cost_us() * buffer_sec) *
        static_cast<double>(k);

    std::fill(count.begin(), count.end(), 0.0);
    for (int j = 0; j < k; ++j) {
      count[cluster_.machine_of_instance(j)] += 1.0;
    }
    OpPlacement& pl = placement_[i];
    pl.entry_of.assign(num_machines, -1);
    for (std::size_t m = 0; m < num_machines; ++m) {
      if (count[m] <= 0.0) continue;
      pl.entry_of[m] = static_cast<std::int32_t>(pl.machine.size());
      pl.machine.push_back(m);
      pl.count.push_back(count[m]);
      machine_ops_[m].emplace_back(i, count[m]);
    }
    pl.chunk_sum.assign(
        (pl.machine.size() + kCapacityChunk - 1) / kCapacityChunk, 0.0);
  }
  // A carried timeline's partitions cut this engine's own placement.
  for (const FaultTimeline::Event& e : faults_->events()) {
    if (e.kind == FaultTimeline::Kind::kPartition) cut_partition(e.island);
  }

  now_ = params_.start_time;
  window_start_ = now_;
  interval_start_ = now_;
  next_metric_time_ = now_ + params_.metric_interval_sec;
  set_external_metrics(nullptr);
  latency_floor_sec_ = compute_latency_floor_sec();
}

void Engine::set_external_metrics(runtime::MetricSink* sink) {
  namespace mn = runtime::metric_names;
  sink_ = sink != nullptr ? sink : &metrics_;
  ids_.op.clear();
  for (std::size_t i = 0; i < topo_.num_operators(); ++i) {
    const std::string& name = topo_.op(i).name;
    ids_.op.push_back({sink_->resolve(mn::true_rate(name)),
                       sink_->resolve(mn::observed_rate(name)),
                       sink_->resolve(mn::input_rate(name)),
                       sink_->resolve(mn::output_rate(name)),
                       sink_->resolve(mn::queue_size(name))});
  }
  ids_.throughput = sink_->resolve(mn::kThroughput);
  ids_.latency_mean = sink_->resolve(mn::kLatencyMean);
  ids_.event_latency_mean = sink_->resolve(mn::kEventLatencyMean);
  ids_.kafka_lag = sink_->resolve(mn::kKafkaLag);
  ids_.input_rate = sink_->resolve(mn::kInputRate);
  ids_.busy_cores = sink_->resolve(mn::kBusyCores);
  ids_.parallelism_total = sink_->resolve(mn::kParallelismTotal);
}

void Engine::set_external_machine_load(const std::vector<double>& load) {
  std::vector<double> next;
  bool all_zero = true;
  for (const double l : load) {
    if (l < 0.0) {
      throw std::invalid_argument(
          "Engine::set_external_machine_load: negative load");
    }
    if (l != 0.0) all_zero = false;
  }
  if (!all_zero) {
    if (load.size() != cluster_.num_machines()) {
      throw std::invalid_argument(
          "Engine::set_external_machine_load: bad machine count");
    }
    next = load;
  }
  if (next == external_load_) return;
  external_load_ = std::move(next);
  // The cached machine loads are stale; force a refold at the next tick.
  sb_drift_ = true;
}

void Engine::set_external_uplink_load(
    const std::vector<double>& records_per_sec) {
  network_.set_external_load(records_per_sec);
}

std::vector<double> Engine::machine_busy_load() const {
  std::vector<double> load(cluster_.num_machines(), 0.0);
  for (std::size_t m = 0; m < load.size(); ++m) {
    for (const auto& [op, cnt] : machine_ops_[m]) {
      load[m] += cnt * smoothed_busy_[op];
    }
  }
  return load;
}

void Engine::add_external_service(ExternalService service) {
  if (started_) {
    throw std::logic_error(
        "Engine::add_external_service: engine already started");
  }
  const std::string name = service.name();
  if (!services_.emplace(name, std::move(service)).second) {
    throw std::invalid_argument("Engine: duplicate external service " + name);
  }
  latency_floor_sec_ = compute_latency_floor_sec();
}

double Engine::compute_latency_floor_sec() const {
  // Every non-source operator is one network hop whose cost grows with the
  // receiver's parallelism (keyed shuffle fan-out): Obs. 2.2's
  // communication cost.
  double floor_ms = 0.0;
  for (std::size_t i = 0; i < topo_.num_operators(); ++i) {
    const OperatorSpec& spec = topo_.op(i);
    if (spec.external_service) {
      const auto it = services_.find(*spec.external_service);
      if (it != services_.end()) {
        floor_ms += it->second.call_latency_ms() *
                    spec.external_calls_per_record;
      }
    }
    if (spec.kind == OperatorKind::kSource) continue;
    floor_ms += params_.buffer_timeout_ms +
                params_.shuffle_ms_per_parallelism *
                    std::sqrt(static_cast<double>(parallelism_[i] - 1));
  }
  return floor_ms / 1000.0;
}

double Engine::congestion_delay_sec() const noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < topo_.num_operators(); ++i) {
    const double rho = std::clamp(smoothed_busy_[i], 0.0, 0.995);
    const double w = params_.congestion_burst_records * service_sec_[i] *
                     rho / (1.0 - rho);
    total += std::min(w, params_.congestion_cap_sec);
  }
  return total;
}

void Engine::push_downstream(std::size_t op, double mass, double produced,
                             double ingested) {
  for (std::size_t d : topo_.downstream(op)) {
    OperatorState& ds = state_[d];
    // Merge into the current tick's tail cohort to bound queue length.
    if (!ds.queue.empty() &&
        std::abs(ds.queue.back().ingested_time - ingested) < kEps &&
        std::abs(ds.queue.back().produced_time - produced) < 1.0) {
      const double total = ds.queue.back().mass + mass;
      ds.queue.back().produced_time =
          (ds.queue.back().produced_time * ds.queue.back().mass +
           produced * mass) /
          total;
      ds.queue.back().mass = total;
    } else {
      ds.queue.push_back({mass, produced, ingested});
    }
    queue_mass_[d] += mass;
    ds.counters.records_in += mass;
  }
}

// --- Epoch cache maintenance (DESIGN.md §11) ------------------------------

double Engine::compute_factor(std::size_t m, double load) const {
  if (faults_->machine_down(m)) return 0.0;
  const MachineSpec& ms = cluster_.spec().machines[m];
  const double slow = faults_->slowdown_factor(m);
  return (ms.speed * slow) /
         interference_.contention_divisor(load, ms.cores, slow);
}

void Engine::recompute_chunk(std::size_t op, std::size_t c) {
  OpPlacement& pl = placement_[op];
  const double base = base_rate_[op];
  const double dt = params_.tick_sec;
  const std::size_t begin = c * kCapacityChunk;
  const std::size_t end =
      std::min(begin + kCapacityChunk, pl.machine.size());
  double sum = 0.0;
  for (std::size_t e = begin; e < end; ++e) {
    sum += pl.count[e] * (base * machine_factor_[pl.machine[e]] * dt);
  }
  pl.chunk_sum[c] = sum;
}

void Engine::fold_capacity(std::size_t op) {
  const OpPlacement& pl = placement_[op];
  double capacity = 0.0;
  for (const double s : pl.chunk_sum) capacity += s;
  hot_capacity_[op] =
      base_rate_[op] * machine_factor_[hot_machine_] * params_.tick_sec;
  // Key skew: the hot instance receives a (1 + skew) multiple of the
  // uniform share and saturates first, capping the whole operator.
  if (hot_share_[op] > 0.0) {
    capacity = std::min(capacity, hot_capacity_[op] / hot_share_[op]);
  }
  capacity_[op] = capacity;
}

void Engine::full_refresh() {
  ++epoch_stats_.full_refreshes;
  // Per-machine busy load (co-tenant background load plus the previous
  // fold's smoothed busy fractions of this job's instances) and the rate
  // factor it implies.
  for (std::size_t m = 0; m < cluster_.num_machines(); ++m) {
    double load = machine_bg_[m];
    // Dynamic co-tenant load (multi-tenant coupling). The branch keeps the
    // decoupled sum bitwise identical to the pre-multi-tenant expression.
    if (!external_load_.empty()) load += external_load_[m];
    for (const auto& [op, cnt] : machine_ops_[m]) {
      load += cnt * smoothed_busy_[op];
    }
    machine_load_[m] = load;
    machine_factor_[m] = compute_factor(m, load);
  }

  std::copy(smoothed_busy_.begin(), smoothed_busy_.end(),
            sb_snapshot_.begin());

  for (std::size_t i = 0; i < topo_.num_operators(); ++i) {
    for (std::size_t c = 0; c < placement_[i].chunk_sum.size(); ++c) {
      recompute_chunk(i, c);
    }
    fold_capacity(i);
  }
}

void Engine::refresh_factor(std::size_t m) {
  ++epoch_stats_.machine_refreshes;
  // Loads depend only on busy fractions, which are bit-equal to the last
  // fold's snapshot on this path (otherwise sb_drift_ would have forced a
  // full refresh) — so the cached load feeds the factor unchanged.
  machine_factor_[m] = compute_factor(m, machine_load_[m]);
  for (const auto& [op, cnt] : machine_ops_[m]) {
    (void)cnt;
    OpPlacement& pl = placement_[op];
    pl.dirty_chunks.push_back(
        static_cast<std::uint32_t>(pl.entry_of[m]) /
        static_cast<std::uint32_t>(kCapacityChunk));
    dirty_ops_.push_back(op);
  }
}

void Engine::refresh_epoch_caches(const FaultTimeline::Delta& delta) {
  if (params_.core == EngineCore::kTickDriven) {
    // The reference core recomputes everything from live state every tick.
    full_refresh();
    return;
  }
  if (!caches_primed_ || delta.rebuilt || sb_drift_) {
    full_refresh();
    caches_primed_ = true;
    sb_drift_ = false;
    return;
  }
  if (delta.machines.empty()) return;

  dirty_ops_.clear();
  for (const std::size_t m : delta.machines) refresh_factor(m);
  std::sort(dirty_ops_.begin(), dirty_ops_.end());
  dirty_ops_.erase(std::unique(dirty_ops_.begin(), dirty_ops_.end()),
                   dirty_ops_.end());
  for (const std::size_t op : dirty_ops_) {
    OpPlacement& pl = placement_[op];
    std::sort(pl.dirty_chunks.begin(), pl.dirty_chunks.end());
    pl.dirty_chunks.erase(
        std::unique(pl.dirty_chunks.begin(), pl.dirty_chunks.end()),
        pl.dirty_chunks.end());
    for (const std::uint32_t c : pl.dirty_chunks) recompute_chunk(op, c);
    pl.dirty_chunks.clear();
    // Folding over every chunk sum (in chunk order) keeps the result
    // bit-identical to a full recompute: clean chunks are bitwise
    // unchanged by construction.
    fold_capacity(op);
  }
}

bool Engine::op_active(std::size_t i, bool suspended) const {
  // A decayed busy fraction is exactly 0.0 (the EMA underflows to zero
  // after ~2400 idle ticks); until then the operator still moves state.
  if (smoothed_busy_[i] != 0.0) return true;
  if (suspended) return false;
  if (topo_.op(i).kind == OperatorKind::kSource) {
    return !faults_->ingest_stalled() && kafka_->lag() > 0.0;
  }
  // queue_mass_ can be exactly 0.0 while sub-epsilon cohort residue sits in
  // the deque; the kernel takes nothing in that state, so skipping is
  // still exact.
  return queue_mass_[i] > 0.0;
}

void Engine::run_operator(std::size_t i, double t, double dt, bool suspended,
                          double floor, double& tick_busy_core_seconds) {
  const OperatorSpec& spec = topo_.op(i);
  OperatorState& st = state_[i];
  const int k = parallelism_[i];
  const double capacity = capacity_[i];

  // --- How much work is available and emittable -----------------------
  // An ingest stall blinds the sources: the broker keeps accepting
  // producer records (lag grows) but consumers fetch nothing.
  const double available =
      spec.kind == OperatorKind::kSource
          ? (faults_->ingest_stalled() ? 0.0 : kafka_->lag())
          : queue_mass_[i];

  const std::vector<std::size_t>& down = topo_.downstream(i);
  double emit_limit = std::numeric_limits<double>::infinity();
  if (spec.selectivity > 0.0) {
    for (std::size_t di = 0; di < down.size(); ++di) {
      // A partition-cut edge transfers nothing: the operator stalls
      // outright (emitted mass goes to every downstream edge, so one
      // dead edge blocks the emit) and backpressure builds upstream.
      // A bandwidth-limited edge caps the transfer the same way, just
      // with a finite limit instead of zero.
      const double net = network_.edge_limit(i, di);
      if (net <= 0.0) {
        emit_limit = 0.0;
        break;
      }
      const double free = queue_capacity_[down[di]] - queue_mass_[down[di]];
      emit_limit = std::min(
          emit_limit, std::min(std::max(0.0, free), net) / spec.selectivity);
    }
  }

  double processed = std::min({available, capacity, emit_limit});
  if (suspended) processed = 0.0;

  // --- External-service throttling (the Redis cap) --------------------
  if (spec.external_service && processed > kEps) {
    auto it = services_.find(*spec.external_service);
    if (it == services_.end()) {
      throw std::logic_error("Engine: operator '" + spec.name +
                             "' references unknown service '" +
                             *spec.external_service + "'");
    }
    if (faults_->service_out(*spec.external_service)) {
      processed = 0.0;  // every per-record call times out
    } else {
      const double want = processed * spec.external_calls_per_record;
      const double granted = it->second.acquire(want);
      processed = granted / spec.external_calls_per_record;
    }
  }

  // --- Move cohorts ----------------------------------------------------
  taken_.clear();
  if (spec.kind == OperatorKind::kSource) {
    kafka_->consume(processed, log_taken_);
    for (const LogCohort& c : log_taken_) {
      taken_.push_back({c.mass, c.produced_time, t + dt});
    }
    double ingested = 0.0;
    for (const QueueCohort& c : taken_) ingested += c.mass;
    st.counters.records_in += ingested;
    st.interval.records_in += ingested;
    window_consumed_ += ingested;
    interval_consumed_ += ingested;
  } else {
    double remaining = processed;
    while (remaining > kEps && !st.queue.empty()) {
      QueueCohort& head = st.queue.front();
      if (head.mass <= remaining + kEps) {
        remaining -= head.mass;
        queue_mass_[i] -= head.mass;
        taken_.push_back(head);
        st.queue.pop_front();
      } else {
        taken_.push_back({remaining, head.produced_time, head.ingested_time});
        head.mass -= remaining;
        queue_mass_[i] -= remaining;
        remaining = 0.0;
      }
    }
    queue_mass_[i] = std::max(queue_mass_[i], 0.0);
  }

  double actually_processed = 0.0;
  for (const QueueCohort& c : taken_) actually_processed += c.mass;

  // --- Emit or complete -------------------------------------------------
  const bool terminal = down.empty();
  double emitted = 0.0;
  for (const QueueCohort& c : taken_) {
    if (terminal) {
      const double done = t + dt;
      // Mean-one lognormal dispersion of the processing latency; the
      // pending time in Kafka (event latency minus processing latency)
      // is deterministic backlog and is not jittered.
      double jitter = 1.0;
      if (params_.latency_jitter_sigma > 0.0) {
        const double s = params_.latency_jitter_sigma;
        std::normal_distribution<double> n(-0.5 * s * s, s);
        jitter = std::exp(n(rng_));
      }
      const double proc = (done - c.ingested_time + floor) * jitter;
      const double pending = c.ingested_time - c.produced_time;
      proc_latency_.add(proc, c.mass);
      if (proc_distribution_) proc_distribution_->add(proc, c.mass);
      event_latency_.add(pending + proc, c.mass);
      interval_proc_latency_.add(proc, c.mass);
      interval_event_latency_.add(pending + proc, c.mass);
    } else if (spec.selectivity > 0.0) {
      push_downstream(i, c.mass * spec.selectivity, c.produced_time,
                      c.ingested_time);
      st.counters.records_out += c.mass * spec.selectivity;
      st.interval.records_out += c.mass * spec.selectivity;
      emitted += c.mass * spec.selectivity;
    }
  }
  // Charge the shuffle against the rack uplinks it crossed (every
  // downstream edge carries the full emitted mass — broadcast semantics).
  if (network_.constrained() && emitted > 0.0) {
    for (std::size_t di = 0; di < down.size(); ++di) {
      network_.consume(i, di, emitted);
    }
  }

  // --- Busy-time accounting (true vs observed rate) --------------------
  const double busy_frac =
      capacity > kEps ? std::clamp(actually_processed / capacity, 0.0, 1.0)
                      : 0.0;
  st.counters.processed += actually_processed;
  st.counters.busy_time += busy_frac * dt * static_cast<double>(k);
  st.interval.processed += actually_processed;
  st.interval.busy_time += busy_frac * dt * static_cast<double>(k);
  tick_busy_core_seconds += busy_frac * dt * static_cast<double>(k);

  const double a = params_.interference.load_smoothing;
  smoothed_busy_[i] = (1.0 - a) * smoothed_busy_[i] + a * busy_frac;
}

void Engine::tick() {
  started_ = true;
  const double dt = params_.tick_sec;
  const double t = now_;

  // One cursor advance services every fault query this tick makes, and its
  // delta tells the epoch caches exactly which machines changed.
  const FaultTimeline::Delta& delta = faults_->advance_to(t);

  kafka_->produce(t, dt);
  for (auto& [_, svc] : services_) svc.tick(dt);

  const bool suspended = t < suspended_until_;

  refresh_epoch_caches(delta);
  network_.begin_tick(dt, faults_->active_partitions());

  double tick_busy_core_seconds = 0.0;
  // Constant across operators within one tick (depends on configuration
  // and smoothed utilisation, both fixed during the tick).
  const double floor = latency_floor_sec_ + congestion_delay_sec();

  const bool tick_all = params_.core == EngineCore::kTickDriven;
  ++epoch_stats_.ticks;
  for (const std::size_t i : topo_order_) {
    // Wall time accrues whether or not the operator does work — an idle
    // instance still occupies its slot. Kept outside the kernel so both
    // cores add the identical per-tick terms in the identical order.
    const double wall = dt * static_cast<double>(parallelism_[i]);
    OperatorState& st = state_[i];
    st.counters.wall_time += wall;
    st.interval.wall_time += wall;
    if (!tick_all && !op_active(i, suspended)) continue;
    ++epoch_stats_.operators_touched;
    run_operator(i, t, dt, suspended, floor, tick_busy_core_seconds);
  }

  // Busy fractions moved -> the load-dependent caches are stale. With
  // load_epsilon == 0 any exact change forces a full refresh next tick
  // (the bit-identity contract); a positive epsilon tolerates ulp wobble
  // in converged fractions.
  if (!tick_all && !sb_drift_) {
    for (std::size_t i = 0; i < smoothed_busy_.size(); ++i) {
      if (std::abs(smoothed_busy_[i] - sb_snapshot_[i]) >
          params_.load_epsilon) {
        sb_drift_ = true;
        break;
      }
    }
  }

  window_busy_core_seconds_ += tick_busy_core_seconds;
  interval_busy_core_seconds_ += tick_busy_core_seconds;
  now_ += dt;

  if (now_ + kEps >= next_metric_time_) {
    write_metrics();
    next_metric_time_ += params_.metric_interval_sec;
  }
}

void Engine::run_until(double until_sec) {
  while (now_ + runtime::kRunForToleranceSec < until_sec) tick();
}

void Engine::suspend_until(double until_sec) {
  suspended_until_ = std::max(suspended_until_, until_sec);
}

runtime::OperatorRates Engine::rates(std::size_t op) const {
  if (op >= topo_.num_operators()) {
    throw std::out_of_range("Engine::rates: bad operator index");
  }
  return rates_from(op, state_[op].counters);
}

const OperatorCounters& Engine::counters(std::size_t op) const {
  if (op >= topo_.num_operators()) {
    throw std::out_of_range("Engine::counters: bad operator index");
  }
  return state_[op].counters;
}

runtime::OperatorRates Engine::rates_from(std::size_t op,
                                          const OperatorCounters& c) const {
  const int k = parallelism_[op];

  runtime::OperatorRates r;
  r.parallelism = k;
  r.queue_length = queue_mass_[op];

  const double window = c.wall_time / static_cast<double>(k);
  if (window > kEps) {
    r.observed_rate_per_instance = c.processed / c.wall_time;
    r.total_input_rate = c.records_in / window;
    r.total_output_rate = c.records_out / window;
  }
  if (c.busy_time > kEps && c.processed > kEps) {
    // Eq. 2: records / busy time, averaged over instances.
    r.true_rate_per_instance = c.processed / c.busy_time;
  } else {
    // Idle operator: its true rate is its potential rate, the base cost
    // and coordination factor (no contention while idle).
    r.true_rate_per_instance = base_rate_[op];
  }
  return r;
}

double Engine::throughput() const noexcept {
  const double window = now_ - window_start_;
  return window > kEps ? window_consumed_ / window : 0.0;
}

double Engine::lag_growth_per_sec() const noexcept {
  const double window = now_ - window_start_;
  return window > kEps ? (kafka_->lag() - window_start_lag_) / window : 0.0;
}

double Engine::busy_cores() const noexcept {
  const double window = now_ - window_start_;
  return window > kEps ? window_busy_core_seconds_ / window : 0.0;
}

void Engine::reset_counters() {
  for (OperatorState& st : state_) st.counters = {};
  proc_latency_.reset();
  if (proc_distribution_) proc_distribution_->reset();
  event_latency_.reset();
  window_start_ = now_;
  window_consumed_ = 0.0;
  window_busy_core_seconds_ = 0.0;
  window_start_lag_ = kafka_ ? kafka_->lag() : 0.0;
}

double Engine::memory_mb() const noexcept {
  double mb = 0.0;
  int max_k = 0;
  for (std::size_t i = 0; i < topo_.num_operators(); ++i) {
    mb += topo_.op(i).state_mb * static_cast<double>(parallelism_[i]);
    max_k = std::max(max_k, parallelism_[i]);
  }
  // Slot sharing: the job occupies max-parallelism slots.
  mb += cluster_.spec().slot_overhead_mb * static_cast<double>(max_k);
  return mb;
}

double Engine::noisy(double value) {
  if (params_.measurement_noise <= 0.0) return value;
  std::normal_distribution<double> n(0.0, params_.measurement_noise);
  return value * (1.0 + n(rng_));
}

void Engine::write_metrics() {
  const double t = now_;
  // All ids were resolved when the sink was attached: each write below is
  // an id-indexed append — no string construction, no map lookup.
  runtime::MetricSink& sink = *sink_;
  for (std::size_t i = 0; i < topo_.num_operators(); ++i) {
    const runtime::OperatorRates r = rates_from(i, state_[i].interval);
    const MetricIdSet::PerOp& id = ids_.op[i];
    sink.record(id.true_rate, t, noisy(r.true_rate_per_instance));
    sink.record(id.observed_rate, t, noisy(r.observed_rate_per_instance));
    sink.record(id.input_rate, t, noisy(r.total_input_rate));
    sink.record(id.output_rate, t, noisy(r.total_output_rate));
    sink.record(id.queue_size, t, r.queue_length);
    state_[i].interval = {};
  }
  const double interval = t - interval_start_;
  const double tput = interval > kEps ? interval_consumed_ / interval : 0.0;
  sink.record(ids_.throughput, t, noisy(tput));
  sink.record(ids_.latency_mean, t, noisy(interval_proc_latency_.mean()));
  sink.record(ids_.event_latency_mean, t,
              noisy(interval_event_latency_.mean()));
  sink.record(ids_.kafka_lag, t, kafka_->lag());
  sink.record(ids_.input_rate, t, kafka_->rate_at(t));
  sink.record(ids_.busy_cores, t,
              interval > kEps ? interval_busy_core_seconds_ / interval : 0.0);
  int total_parallelism = 0;
  for (int k : parallelism_) total_parallelism += k;
  sink.record(ids_.parallelism_total, t,
              static_cast<double>(total_parallelism));
  interval_busy_core_seconds_ = 0.0;
  interval_consumed_ = 0.0;
  interval_start_ = t;
  interval_proc_latency_.reset();
  interval_event_latency_.reset();
}

}  // namespace autra::sim
