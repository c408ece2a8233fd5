// The fluid dataflow engine.
//
// Rather than simulating hundreds of millions of individual records, the
// engine advances in small ticks and moves record *mass* through bounded
// per-operator queues, which keeps a 50-minute cluster experiment under a
// second of wall time while preserving every observable AuTraScale consumes:
//
//   - true processing rate (Eq. 2): processed records / busy time, where
//     busy time excludes idle and backpressure-blocked time;
//   - observed processing rate: processed records / wall time;
//   - per-operator input/output rates, queue lengths;
//   - end-to-end processing latency and event-time latency, tracked exactly
//     via FIFO cohorts stamped with production and ingestion times;
//   - Kafka consumer lag.
//
// Interference (CPU contention between co-located instances, coordination
// overhead growing with parallelism) is injected via InterferenceModel and
// produces the non-linear throughput scaling the paper is built around.
//
// The core is *epoch-driven* (DESIGN.md §11): hot per-operator state lives
// in SoA arrays, per-machine rate factors and per-operator capacities are
// cached across ticks and refreshed only when a FaultTimeline delta or a
// smoothed-busy drift invalidates them, and operators with no work and a
// fully decayed busy fraction are skipped outright — a quiescent subgraph
// costs zero per-tick work. The pre-refactor semantics (every operator
// every tick, every cache recomputed from live state) are retained behind
// EngineCore::kTickDriven as the property-test reference; at the default
// load_epsilon of 0 both cores are bit-identical. Shuffle traffic is
// routed through the flow-level rack/uplink NetworkModel, which also owns
// the network-partition cut masks.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "runtime/job_metrics.hpp"
#include "runtime/metrics.hpp"
#include "streamsim/cluster.hpp"
#include "streamsim/external_service.hpp"
#include "streamsim/fault_timeline.hpp"
#include "streamsim/interference.hpp"
#include "streamsim/kafka.hpp"
#include "streamsim/latency.hpp"
#include "streamsim/network.hpp"
#include "streamsim/topology.hpp"

namespace autra::sim {

/// Which per-tick core the engine runs (see file comment).
enum class EngineCore {
  /// Epoch-driven: dirty-set skipping, cached capacities. The default.
  kEventDriven,
  /// Legacy reference: every operator runs every tick and every cache is
  /// recomputed from live state every tick. Bit-identical to kEventDriven
  /// at load_epsilon == 0; kept for the bit-identity property tests and
  /// the ablation bench.
  kTickDriven,
};

struct EngineParams {
  /// Simulation tick. Smaller = finer latency resolution, slower sim.
  double tick_sec = 0.05;
  /// Input buffer per operator instance, in *seconds of base processing
  /// capacity* (credit-based flow control buffers proportionally more for
  /// faster operators). The backpressure bound per operator is
  /// k * base_rate * buffer_sec records, floored at min_buffer_records.
  double buffer_sec = 0.05;
  double min_buffer_records = 500.0;
  /// Constant per-hop latency floor (framework buffer timeout), ms.
  double buffer_timeout_ms = 5.0;
  /// Additional per-hop shuffle latency, ms, scaled by sqrt(k - 1) of the
  /// receiving operator's parallelism — the communication cost of
  /// Obs. 2.2 (sub-linear: fan-out costs amortise across channels).
  double shuffle_ms_per_parallelism = 2.5;
  /// Stochastic queueing stand-in: the fluid model drains every queue whose
  /// utilisation is below 1, but real operators queue bursts long before
  /// that. Each operator adds a congestion delay of
  ///   burst_records * effective_service_time * rho / (1 - rho)
  /// (capped) to record latency, where rho is its smoothed busy fraction.
  double congestion_burst_records = 150.0;
  double congestion_cap_sec = 0.25;
  /// Per-record latency dispersion: each completing cohort's processing
  /// latency is scaled by a mean-one lognormal with this sigma, giving the
  /// right-skewed per-record distributions real pipelines show
  /// (Fig. 8(b) plots their percentiles).
  double latency_jitter_sigma = 0.25;
  /// Whether snapshots carry per-record latency percentiles. On, the
  /// engine feeds a seeded LatencyStats reservoir next to the mean; off
  /// (the default: no policy reads them), it builds none and
  /// JobMetrics::latency_percentiles stays empty. Either way every other
  /// observable is bit-identical.
  bool latency_percentiles = false;
  /// How often gauges are written to the MetricStore.
  double metric_interval_sec = 1.0;
  /// Multiplicative Gaussian noise applied to *recorded* metrics.
  double measurement_noise = 0.02;
  /// Simulation time the engine starts at (a restarted job continues the
  /// wall clock and the rate schedule of its predecessor).
  double start_time = 0.0;
  std::uint64_t seed = 1234;
  InterferenceParams interference;
  /// Per-tick core; see EngineCore.
  EngineCore core = EngineCore::kEventDriven;
  /// Epoch quantisation of the load -> capacity feedback: machine loads
  /// (and everything downstream of them) are refolded only when some
  /// operator's smoothed busy fraction has drifted more than this from the
  /// last fold. 0 (default) refreshes on any exact change — the semantics
  /// of the legacy tick core, bit for bit. Platform-scale runs set a small
  /// positive epsilon (e.g. 1e-3) so ulp-level wobble in converged busy
  /// fractions cannot force a whole-cluster refold every tick; this is an
  /// explicit approximation and diverges from kTickDriven.
  double load_epsilon = 0.0;
};

/// Aggregated per-operator counters since the last reset_counters().
struct OperatorCounters {
  double processed = 0.0;       ///< Records processed (all instances).
  double busy_time = 0.0;       ///< Summed instance busy seconds.
  double wall_time = 0.0;       ///< Summed instance wall seconds.
  double records_in = 0.0;      ///< Records that entered the input queue.
  double records_out = 0.0;     ///< Records emitted downstream.
};

/// Lifetime counters of the epoch-driven core — what the ablation bench
/// reports as operators-touched-per-epoch. Never reset.
struct EngineEpochStats {
  std::uint64_t ticks = 0;              ///< Epochs (ticks) advanced.
  std::uint64_t operators_touched = 0;  ///< Operator kernels actually run.
  std::uint64_t full_refreshes = 0;     ///< Whole-cluster cache refolds.
  std::uint64_t machine_refreshes = 0;  ///< Machine-granular factor updates.
};

class Engine {
 public:
  /// Takes ownership of the Kafka log and of `faults`, a predecessor's
  /// fault timeline (a job restart keeps its pending faults the way it
  /// keeps its lag); null starts an empty one. The topology must validate;
  /// the parallelism must be feasible on the cluster; a carried timeline
  /// must be sized for the cluster's machines. Throws
  /// std::invalid_argument otherwise.
  Engine(Topology topology, Cluster cluster, Parallelism parallelism,
         std::unique_ptr<KafkaLog> kafka, EngineParams params = {},
         std::unique_ptr<FaultTimeline> faults = nullptr);

  // The NetworkModel (and the external metric sink) hold pointers into the
  // engine, so its address must be stable — engines live behind unique_ptr.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(Engine&&) = delete;
  Engine& operator=(Engine&&) = delete;

  /// Registers a rate-capped external service operators may reference.
  /// Must be called before the first tick; throws std::logic_error after.
  void add_external_service(ExternalService service);

  // Failure injection. Each call adds one event to the fault timeline,
  // which validates it (std::invalid_argument on bad arguments).

  /// Machine `machine` runs at `speed_factor` (< 1) during [from_sec,
  /// until_sec) — a co-tenant burst, thermal throttling, or a failing disk
  /// stalling the task manager. The degraded speed also feeds the
  /// InterferenceModel (fewer effective cycles -> more contention).
  void inject_slowdown(std::size_t machine, double speed_factor,
                       double from_sec, double until_sec) {
    faults_->add_slowdown(machine, speed_factor, from_sec, until_sec);
  }

  /// Machine `machine` is lost during [from_sec, until_sec) — its operator
  /// instances process nothing. The engine keeps the surviving instances
  /// running; forcing the framework-style restart (detection delay +
  /// downtime) is ScalingSession's job.
  void inject_machine_down(std::size_t machine, double from_sec,
                           double until_sec) {
    faults_->add_machine_down(machine, from_sec, until_sec);
  }

  /// Sources consume nothing from Kafka during [from_sec, until_sec) while
  /// producers keep appending — consumer lag builds, then catches up.
  void inject_ingest_stall(double from_sec, double until_sec) {
    faults_->add_ingest_stall(from_sec, until_sec);
  }

  /// External service `service` grants no calls during [from_sec,
  /// until_sec). Unknown names are accepted and unobservable (an outage of
  /// a service the job never calls).
  void inject_service_outage(const std::string& service, double from_sec,
                             double until_sec) {
    faults_->add_service_outage(service, from_sec, until_sec);
  }

  /// The machines in `island` are network-partitioned from the rest of the
  /// cluster during [from_sec, until_sec). Operator edges whose endpoint
  /// instances do not all live on one side stop transferring (an
  /// all-to-all shuffle with a cut channel blocks the whole exchange):
  /// upstream queues back up and backpressure propagates, while records
  /// already queued downstream keep processing. The cut masks live in the
  /// NetworkModel — a partition is a zero-capacity link, the degenerate
  /// case of the rack/uplink bandwidth mechanism.
  void inject_network_partition(const std::vector<std::size_t>& island,
                                double from_sec, double until_sec) {
    faults_->add_partition(island, from_sec, until_sec);
    cut_partition(island);
  }

  /// Advances the simulation by one tick.
  void tick();

  /// Runs until simulation time reaches `until_sec`.
  void run_until(double until_sec);

  /// Suspends all processing until `until_sec` (savepoint + restart window;
  /// Kafka keeps producing, so lag accumulates — the reconfiguration cost
  /// the paper's "policy running time" exists to amortise).
  void suspend_until(double until_sec);

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const Cluster& cluster() const noexcept { return cluster_; }
  [[nodiscard]] const Parallelism& parallelism() const noexcept {
    return parallelism_;
  }
  [[nodiscard]] const KafkaLog& kafka() const noexcept { return *kafka_; }
  [[nodiscard]] const EngineParams& params() const noexcept { return params_; }
  [[nodiscard]] const NetworkModel& network() const noexcept {
    return network_;
  }

  [[nodiscard]] runtime::MetricStore& metrics() noexcept { return metrics_; }
  [[nodiscard]] const runtime::MetricStore& metrics() const noexcept {
    return metrics_;
  }

  /// Metric sink written instead of the internal store, which receives
  /// no gauges while a sink is attached; used by ScalingSession to keep one
  /// continuous time series across restarts. The sink must outlive the
  /// engine; pass nullptr to re-attach the internal store. Series ids are
  /// resolved once here, so the per-tick write path stays string-free.
  void set_external_metrics(runtime::MetricSink* sink);

  /// Busy-core equivalents co-tenant jobs place on each machine
  /// (multi-tenant coupling; the dynamic counterpart of
  /// MachineSpec::background_load). Folded into the machine loads at the
  /// next epoch refresh. An empty or all-zero vector detaches the
  /// coupling; setting a bitwise-unchanged value is a strict no-op, so a
  /// decoupled engine stays bit-identical to one that never saw this
  /// call. Throws std::invalid_argument on a size mismatch or negative
  /// entry.
  void set_external_machine_load(const std::vector<double>& load);

  /// Records-per-second co-tenant jobs push through each rack uplink;
  /// forwarded to the NetworkModel (no-op when uplinks are unconstrained).
  void set_external_uplink_load(const std::vector<double>& records_per_sec);

  /// This job's own busy-core load per machine (what a co-simulation
  /// harness publishes to the other tenants): sum over placed instances of
  /// the operator's smoothed busy fraction.
  [[nodiscard]] std::vector<double> machine_busy_load() const;

  /// Releases the Kafka log so a successor engine (job restart) can keep
  /// the accumulated lag. The engine must not be ticked afterwards.
  [[nodiscard]] std::unique_ptr<KafkaLog> release_kafka() noexcept {
    return std::move(kafka_);
  }
  /// Releases the fault timeline, every injected event and the cursor at
  /// this engine's clock, for the same successor. The engine must not be
  /// ticked or injected into afterwards.
  [[nodiscard]] std::unique_ptr<FaultTimeline> release_faults() noexcept {
    return std::move(faults_);
  }

  /// Rates over the window since the last reset_counters() call.
  [[nodiscard]] runtime::OperatorRates rates(std::size_t op) const;

  /// Raw per-operator counters since the last reset_counters() — the mass
  /// ledger the conservation property tests audit (records in = processed
  /// + still queued, at every tick). Throws std::out_of_range.
  [[nodiscard]] const OperatorCounters& counters(std::size_t op) const;

  /// Lifetime epoch-core counters (ticks, kernels run, cache refreshes).
  [[nodiscard]] const EngineEpochStats& epoch_stats() const noexcept {
    return epoch_stats_;
  }

  /// Latency accumulated since the last reset_counters().
  [[nodiscard]] const MassWeightedMean& processing_latency() const noexcept {
    return proc_latency_;
  }
  /// The processing-latency distribution behind the percentiles; nullptr
  /// unless EngineParams::latency_percentiles is set.
  [[nodiscard]] const LatencyStats* processing_latency_distribution()
      const noexcept {
    return proc_distribution_ ? &*proc_distribution_ : nullptr;
  }
  [[nodiscard]] const MassWeightedMean& event_latency() const noexcept {
    return event_latency_;
  }

  /// Records consumed from Kafka since the last reset_counters(), per
  /// second of window — the job throughput the paper plots.
  [[nodiscard]] double throughput() const noexcept;

  /// Kafka lag change per second over the current window.
  [[nodiscard]] double lag_growth_per_sec() const noexcept;

  /// Average number of busy cores over the window (CPU usage, Fig. 8c).
  [[nodiscard]] double busy_cores() const noexcept;

  /// Clears windowed counters and latency accumulators (not queues/lag).
  void reset_counters();

  /// Static memory footprint of the current configuration in MB
  /// (instance state + per-slot framework overhead).
  [[nodiscard]] double memory_mb() const noexcept;

  /// Latency floor of the current configuration (network/buffer cost), sec.
  [[nodiscard]] double latency_floor_sec() const noexcept {
    return latency_floor_sec_;
  }

  /// Current summed per-operator congestion delay (burst queueing), sec.
  [[nodiscard]] double congestion_delay_sec() const noexcept;

 private:
  struct QueueCohort {
    double mass = 0.0;
    double produced_time = 0.0;
    double ingested_time = 0.0;
  };

  /// Cold per-operator state. The hot doubles the kernel touches every
  /// tick (queue mass, capacities, smoothed busy) live in the SoA vectors
  /// below instead.
  struct OperatorState {
    std::deque<QueueCohort> queue;
    OperatorCounters counters;   ///< Since reset_counters() (JobRunner window).
    OperatorCounters interval;   ///< Since the last metric write (time series).
  };

  /// Static placement of one operator: which machines host how many of its
  /// instances (machine-ascending), plus the chunked partial sums its
  /// cached capacity folds from. Chunks are fixed-size, so a machine
  /// change recomputes only the chunks that hold it.
  struct OpPlacement {
    std::vector<std::size_t> machine;  ///< Machines hosting >= 1 instance.
    std::vector<double> count;         ///< Instances on machine[e].
    std::vector<double> chunk_sum;     ///< Partial capacity sums per chunk.
    std::vector<std::int32_t> entry_of;  ///< machine -> entry index or -1.
    std::vector<std::uint32_t> dirty_chunks;  ///< Scratch for partial refresh.
  };

  /// Validates the constructor arguments (so bad input throws the
  /// documented std::invalid_argument before NetworkModel dereferences the
  /// placement) and builds the network model. Called from the init list;
  /// only members declared above network_ may be touched.
  [[nodiscard]] NetworkModel make_network() const;
  /// Registers the network cut of a partition island (already validated by
  /// the fault timeline).
  void cut_partition(const std::vector<std::size_t>& island);
  /// The latency floor from configuration and registered services; cached
  /// by the constructor and add_external_service (nothing else moves it).
  [[nodiscard]] double compute_latency_floor_sec() const;

  [[nodiscard]] runtime::OperatorRates rates_from(
      std::size_t op, const OperatorCounters& c) const;

  void push_downstream(std::size_t op, double mass, double produced,
                       double ingested);
  [[nodiscard]] double noisy(double value);
  void write_metrics();

  // --- Epoch-driven cache maintenance (DESIGN.md §11) -------------------
  /// (speed * slow) / contention_divisor of machine m at the current fault
  /// cursor, 0 when the machine is down. capacity(op) folds
  /// base_rate_[op] * factor over the op's placement.
  [[nodiscard]] double compute_factor(std::size_t m, double load) const;
  /// Recomputes loads (from live smoothed busy fractions), every machine
  /// factor and every capacity. The only path that moves sb_snapshot_.
  void full_refresh();
  /// Recomputes machine m's factor and marks the capacity chunks of every
  /// operator placed on it dirty (loads are untouched: they depend only on
  /// busy fractions, not on fault state).
  void refresh_factor(std::size_t m);
  /// Recomputes chunk `c` of operator `op` from entries and factors.
  void recompute_chunk(std::size_t op, std::size_t c);
  /// Folds chunk sums (in chunk order) and applies the key-skew cap.
  void fold_capacity(std::size_t op);
  /// Per-tick orchestration: full refresh, machine-granular refresh, or
  /// nothing, depending on the core and what changed.
  void refresh_epoch_caches(const FaultTimeline::Delta& delta);
  /// Whether operator i does any work this tick (exact: skipping a
  /// non-active operator is a bitwise no-op).
  [[nodiscard]] bool op_active(std::size_t i, bool suspended) const;
  /// The per-operator kernel both cores share: capacity lookup, emit
  /// limits through the network, cohort movement, busy accounting.
  void run_operator(std::size_t i, double t, double dt, bool suspended,
                    double floor, double& tick_busy_core_seconds);

  /// Every gauge the engine emits, pre-resolved against the sink at
  /// attach time — the per-tick write path performs no string work.
  struct MetricIdSet {
    struct PerOp {
      runtime::MetricId true_rate, observed_rate, input_rate, output_rate,
          queue_size;
    };
    std::vector<PerOp> op;
    runtime::MetricId throughput, latency_mean, event_latency_mean,
        kafka_lag, input_rate, busy_cores, parallelism_total;
  };

  Topology topo_;
  Cluster cluster_;
  Parallelism parallelism_;
  std::unique_ptr<KafkaLog> kafka_;
  EngineParams params_;
  InterferenceModel interference_;
  std::map<std::string, ExternalService> services_;
  /// Sorted-window cursor over all injected fault events; advanced once
  /// per tick so the per-machine queries in the refresh path are O(1).
  std::unique_ptr<FaultTimeline> faults_;
  /// Flow-level rack/uplink network; owns the partition cut masks.
  NetworkModel network_;

  std::vector<std::size_t> topo_order_;
  std::vector<OperatorState> state_;

  // SoA hot state, indexed by operator.
  std::vector<double> queue_mass_;
  std::vector<double> queue_capacity_;
  std::vector<double> smoothed_busy_;  ///< EMA busy fraction for contention.
  std::vector<double> sb_snapshot_;    ///< Busy fractions at the last fold.
  std::vector<double> base_rate_;      ///< 1e6 / (cost * coordination).
  std::vector<double> service_sec_;    ///< cost * coordination / 1e6.
  std::vector<double> hot_share_;      ///< Key-skew hot share, 0 = no skew.
  std::vector<double> capacity_;       ///< Cached records per tick.
  std::vector<double> hot_capacity_;   ///< Cached skew hot-instance cap.
  // SoA hot state, indexed by machine.
  std::vector<double> machine_bg_;     ///< Background load (static).
  std::vector<double> external_load_;  ///< Co-tenant load; empty = decoupled.
  std::vector<double> machine_load_;   ///< Busy-core load at the last fold.
  std::vector<double> machine_factor_; ///< (speed*slow)/divisor, 0 if down.

  std::vector<OpPlacement> placement_;
  /// machine -> (operator, instance count) pairs, operator-ascending.
  std::vector<std::vector<std::pair<std::size_t, double>>> machine_ops_;
  std::vector<std::size_t> dirty_ops_;  ///< Scratch for partial refresh.
  std::size_t hot_machine_ = 0;         ///< Placement of instance 0.
  /// run_operator's cohort scratch, reused so a tick does not allocate.
  std::vector<QueueCohort> taken_;
  std::vector<LogCohort> log_taken_;
  double latency_floor_sec_ = 0.0;

  bool caches_primed_ = false;
  bool sb_drift_ = false;
  EngineEpochStats epoch_stats_;

  runtime::MetricStore metrics_;
  runtime::MetricSink* sink_ = &metrics_;  ///< Where gauges are written.
  MetricIdSet ids_;                        ///< Resolved against sink_.
  MassWeightedMean proc_latency_;
  /// Engaged only with EngineParams::latency_percentiles (DESIGN.md §11).
  std::optional<LatencyStats> proc_distribution_;
  MassWeightedMean event_latency_;

  double now_ = 0.0;
  double suspended_until_ = 0.0;
  double window_start_ = 0.0;
  double next_metric_time_ = 0.0;
  double window_consumed_ = 0.0;
  double window_busy_core_seconds_ = 0.0;
  double window_start_lag_ = 0.0;
  double interval_consumed_ = 0.0;
  double interval_busy_core_seconds_ = 0.0;
  double interval_start_ = 0.0;
  MassWeightedMean interval_proc_latency_;
  MassWeightedMean interval_event_latency_;
  bool started_ = false;
  std::mt19937_64 rng_;
};

}  // namespace autra::sim
