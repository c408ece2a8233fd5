// Sorted-window fault cursor.
//
// The engine used to answer "is machine m down at t?" and "how slow is
// machine m at t?" with a linear scan over every injected event, per
// instance, per tick. That is fine for the three canned schedules but
// quadratic-ish once chaos-mode generation produces thousands of events
// per run. FaultTimeline keeps one list of kind-tagged events, sorted by
// start time, and advances one cursor as simulation time moves forward:
// events are activated when their window opens (cursor walk over the
// sorted order) and retired through one min-heap keyed on window end, so a
// tick pays O(events that changed state this tick) instead of O(all
// events), and every query against the *current* time is an array/map
// lookup.
//
// Exactness contract: the cursor answers are bit-identical to a linear
// scan over events() (the reference the property tests replay). In
// particular the slowdown factor is the product of the active factors *in
// insertion order*, and partition indices are dense in insertion order.
//
// The timeline is the job's fault record: a restarted engine takes over
// its predecessor's timeline the way it takes over the Kafka log, at the
// predecessor's clock, so the cursor keeps moving forward. Time moving
// backwards and events injected after ticking has started both mark the
// index dirty, and the next advance_to() rebuilds cursor state from
// scratch — cold paths, paid per injection rather than per tick.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace autra::sim {

class FaultTimeline {
 public:
  enum class Kind { kSlowdown, kMachineDown, kIngestStall, kServiceOutage,
                    kPartition };

  /// One injected fault, active over [from, until). Only the fields of its
  /// kind are meaningful.
  struct Event {
    Kind kind = Kind::kIngestStall;
    double from = 0.0;
    double until = 0.0;
    std::size_t machine = 0;          ///< kSlowdown, kMachineDown.
    double factor = 1.0;              ///< kSlowdown: speed multiplier.
    std::string service;              ///< kServiceOutage.
    std::vector<std::size_t> island;  ///< kPartition: the cut-off machines.
    std::size_t partition = 0;        ///< kPartition: dense index.
  };

  explicit FaultTimeline(std::size_t num_machines);

  /// Event registration. Windows are [from, until); machine indices must be
  /// < num_machines and until > from (std::invalid_argument otherwise).
  void add_slowdown(std::size_t machine, double factor, double from,
                    double until);
  void add_machine_down(std::size_t machine, double from, double until);
  void add_ingest_stall(double from, double until);
  void add_service_outage(std::string service, double from, double until);
  /// Registers a partition cutting `island` off the rest of the cluster;
  /// what that cuts is the engine's business. The island must be a
  /// non-empty set of machines that leaves a mainland. Returns the dense
  /// partition index (0, 1, ...) that active_partitions() reports.
  std::size_t add_partition(std::vector<std::size_t> island, double from,
                            double until);

  /// What changed during one advance_to() call — the epoch-driven engine
  /// core invalidates its capacity caches from this instead of re-querying
  /// every machine every tick. A rebuild (backwards time, new events)
  /// reports `rebuilt` and callers must treat every machine as changed.
  struct Delta {
    bool rebuilt = false;
    /// Machines whose down or slowdown state flipped this advance (may
    /// contain duplicates); empty after a rebuild.
    std::vector<std::size_t> machines;
  };

  /// Moves the cursor to time `t` and reports which machine-affecting
  /// state changed. Monotone advances are amortised O(1) per event state
  /// change; going backwards or advancing after new events were added
  /// rebuilds the cursor state (cold path, reported as Delta::rebuilt).
  /// The returned reference is valid until the next advance_to() call.
  const Delta& advance_to(double t);

  // Queries at the advanced-to time (call advance_to first).
  [[nodiscard]] bool machine_down(std::size_t machine) const noexcept {
    return down_count_[machine] > 0;
  }
  [[nodiscard]] double slowdown_factor(std::size_t machine) const noexcept;
  [[nodiscard]] bool ingest_stalled() const noexcept {
    return stall_count_ > 0;
  }
  [[nodiscard]] bool service_out(const std::string& service) const noexcept;
  /// Indices of partitions whose window is open, ascending.
  [[nodiscard]] const std::vector<std::size_t>& active_partitions()
      const noexcept {
    return part_active_;
  }

  /// Every registered event, in insertion order.
  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t num_machines() const noexcept {
    return num_machines_;
  }

 private:
  /// Min-heap of (window end, event index) — the retirement queue.
  using ExpiryHeap =
      std::priority_queue<std::pair<double, std::size_t>,
                          std::vector<std::pair<double, std::size_t>>,
                          std::greater<>>;

  void add(Event event);
  /// Opens (sign +1) or closes (sign -1) event `idx`'s window.
  void apply(std::size_t idx, int sign);
  void rebuild();

  std::size_t num_machines_;
  Delta delta_;  ///< Scratch filled by advance_to(); reused across calls.
  bool dirty_ = false;
  double cursor_time_ = 0.0;
  bool started_ = false;  ///< advance_to() has been called at least once.

  std::vector<Event> events_;
  std::size_t num_partitions_ = 0;
  /// Event indices sorted by `from` (stable), the activation cursor into
  /// it, and the retirement heap.
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  ExpiryHeap expiry_;

  // Active state.
  std::vector<int> down_count_;  ///< Per machine.
  /// Per machine: indices of active slowdown events, ascending (insertion
  /// order), so the factor product multiplies in scan order.
  std::vector<std::vector<std::size_t>> slow_active_;
  int stall_count_ = 0;
  std::map<std::string, int> outage_count_;
  std::vector<std::size_t> part_active_;
};

}  // namespace autra::sim
