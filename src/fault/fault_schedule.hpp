// Deterministic fault injection: the event taxonomy and the seedable
// schedule that drives it.
//
// The paper's MAPE loop assumes a healthy cluster — metrics always arrive,
// restarts always succeed, machines never die. Production does not. A
// FaultSchedule is a reproducible stream of adversity: every event carries
// an absolute simulation-time window, so the same schedule (and seed)
// produces the same run, bit for bit. Schedules are consumed by
// FaultInjectingBackend, which applies metric-path and Execute-path faults
// itself and delivers engine-level events to any backend implementing
// FaultHost (the fluid simulator's ScalingSession does).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace autra::fault {

/// The failure classes the subsystem can create (StreamShield's taxonomy
/// for Flink-at-scale, adapted to this repository's observables).
enum class FaultKind {
  kMachineDown,     ///< Task-manager loss: instances gone until recovery.
  kSlowNode,        ///< Degraded machine (co-tenant burst, failing disk).
  kServiceOutage,   ///< External (Redis-like) service unreachable.
  kIngestStall,     ///< Source cannot fetch from Kafka; lag accumulates.
  kMetricDropout,   ///< Gauges in the window are lost, never delivered.
  kMetricDelay,     ///< Gauges arrive late (stalled metrics pipeline).
  kRescaleFailure,  ///< reconfigure() fails transiently (savepoint timeout).
  kRackDown,        ///< Correlated crash: a rack's machines die together.
  kNetworkPartition,  ///< Machines split; cross-cut operator edges stall.
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// One fault, active during [at, at + duration).
struct FaultEvent {
  FaultKind kind = FaultKind::kMachineDown;
  double at = 0.0;
  double duration = 0.0;
  /// kMachineDown / kSlowNode: which machine.
  std::size_t machine = 0;
  /// kSlowNode: speed factor in (0, 1); kMetricDelay: delay seconds;
  /// kRescaleFailure: number of attempts that fail (0 = every attempt in
  /// the window).
  double magnitude = 0.0;
  /// kMachineDown / kRackDown: seconds from the crash until the framework
  /// notices and forces a restart (one restart per event, even for a rack).
  double detection_delay_sec = 0.0;
  /// kServiceOutage: which service.
  std::string service;
  /// kRackDown: the machines crashing together; kNetworkPartition: the
  /// island cut off from the rest of the cluster.
  std::vector<std::size_t> machines;

  [[nodiscard]] double end() const noexcept { return at + duration; }

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// An ordered, validated collection of fault events. Immutable once handed
/// to a backend; the builder methods return *this for chaining. An event's
/// start, duration, detection delay and magnitude must all be finite.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Builds a schedule from a hand-assembled (possibly unsorted) event
  /// vector: every event is validated exactly as the builder methods
  /// validate it, then the set is stable-sorted by start time — so an
  /// unsorted hand-built schedule behaves identically to its sorted form.
  /// Throws std::invalid_argument on any invalid event.
  explicit FaultSchedule(std::vector<FaultEvent> events);

  FaultSchedule& machine_down(std::size_t machine, double at, double duration,
                              double detection_delay_sec = 10.0);
  FaultSchedule& slow_node(std::size_t machine, double speed_factor,
                           double at, double duration);
  FaultSchedule& service_outage(std::string service, double at,
                                double duration);
  FaultSchedule& ingest_stall(double at, double duration);
  FaultSchedule& metric_dropout(double at, double duration);
  FaultSchedule& metric_delay(double at, double duration, double delay_sec);
  FaultSchedule& rescale_failure(double at, double duration,
                                 int failures = 0);
  /// Correlated crash group: every machine in `machines` is lost during
  /// the window and the framework forces ONE restart for the whole group
  /// after the shared detection delay.
  FaultSchedule& rack_down(std::vector<std::size_t> machines, double at,
                           double duration, double detection_delay_sec = 10.0);
  /// Network partition: `island` is cut off from the rest of the cluster;
  /// operator edges spanning the cut stop transferring.
  FaultSchedule& network_partition(std::vector<std::size_t> island, double at,
                                   double duration);

  /// Events sorted by start time.
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// True if any event manipulates the metric path (dropout/delay) — the
  /// decorator only mirrors the history when this holds, so an empty or
  /// metric-clean schedule keeps history() a zero-cost passthrough.
  [[nodiscard]] bool has_metric_faults() const noexcept;
  /// True if any event must be delivered to a FaultHost (engine-level).
  [[nodiscard]] bool has_host_faults() const noexcept;

  /// End of the last fault window, including machine-down detection
  /// delays (recovery-time measurements start here). 0 when empty.
  [[nodiscard]] double last_fault_end() const noexcept;

  /// The named, canned schedules used by bench_resilience, the CLI and the
  /// tests. `seed` perturbs the randomised placements deterministically;
  /// event times scale with `horizon_sec`. Throws std::invalid_argument on
  /// an unknown name (the message lists the valid ones).
  [[nodiscard]] static FaultSchedule canned(std::string_view name,
                                            std::uint64_t seed = 1,
                                            double horizon_sec = 1800.0);
  [[nodiscard]] static std::vector<std::string> canned_names();

 private:
  FaultSchedule& push(FaultEvent event);

  std::vector<FaultEvent> events_;
};

}  // namespace autra::fault
