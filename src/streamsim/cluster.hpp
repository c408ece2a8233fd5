// Cluster and slot model mirroring Flink-on-YARN: each machine (task
// manager) exposes a fixed number of slots; an operator subtask with index j
// lives in shared slot j, and slots are spread round-robin over machines.
// Slots isolate managed memory but NOT CPU — the root cause of the
// interference AuTraScale is designed to absorb.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "runtime/job_metrics.hpp"

namespace autra::sim {

/// Parallelism configuration of a job: one entry per operator, in topology
/// operator-index order (defined in the backend-neutral runtime layer).
/// Kept as a second spelling because bench/e2e/autra_e2e.cpp spells it.
using Parallelism = runtime::Parallelism;

struct MachineSpec {
  std::string name;
  int cores = 8;
  double memory_gb = 64.0;
  /// Relative CPU speed (1.0 = reference core used by OperatorSpec costs).
  double speed = 1.0;
  /// Busy-core equivalents consumed by co-tenant jobs on this machine
  /// (the paper's "stream processing jobs co-run on the same machine and
  /// interfere with each other"). Enters the contention model as standing
  /// load.
  double background_load = 0.0;
  /// Failure-correlation domain: machines sharing a rack id share a
  /// top-of-rack switch and power feed, so chaos-mode rack faults crash
  /// and recover them together. -1 (default) means "its own rack" — no
  /// correlated failure domain unless the spec opts in.
  int rack = -1;
};

struct ClusterSpec {
  std::vector<MachineSpec> machines;
  /// Slots per machine; by Flink convention defaults to the core count when
  /// zero.
  int slots_per_machine = 0;
  /// Framework memory overhead charged per occupied slot.
  double slot_overhead_mb = 64.0;
  /// Two-level (machine / top-of-rack) network model: capacity of each
  /// rack's uplink into the core, in records per second of shuffle
  /// traffic, before oversubscription. 0 (default) disables the flow-level
  /// network — uplinks are infinite and only network partitions cut edges,
  /// exactly the pre-topology behaviour.
  double rack_uplink_records_per_sec = 0.0;
  /// Oversubscription factor of the rack uplinks (>= 1): the effective
  /// uplink capacity is rack_uplink_records_per_sec / rack_oversubscription,
  /// the usual ToR-to-core taper.
  double rack_oversubscription = 1.0;
};

/// The paper's evaluation cluster: 3x Dell R730xd (20 cores, 256 GB).
/// The fourth machine hosts only Kafka/ZooKeeper in the paper and therefore
/// does not execute operator instances.
[[nodiscard]] ClusterSpec paper_cluster();

/// A homogeneous platform-scale cluster: `num_machines` identical machines
/// filled rack by rack (`machines_per_rack` under each ToR switch, the last
/// rack possibly short). The 10k-machine scaling configurations in
/// bench/ablation_tick and the README are built with this. Throws
/// std::invalid_argument on zero machines or rack size.
[[nodiscard]] ClusterSpec uniform_cluster(std::size_t num_machines,
                                          std::size_t machines_per_rack,
                                          int cores = 8,
                                          int slots_per_machine = 0);

/// Handle through which a job references cluster inventory. A JobSpec no
/// longer embeds its own ClusterSpec: it holds a ClusterRef, which either
/// wraps a private spec (the single-tenant convenience path — implicit
/// conversion keeps existing call sites compiling and behaving exactly as
/// before) or points at the shared spec owned by a mt::SharedCluster,
/// carrying the tenant's slot lease:
///
///   - slot_offset rotates the round-robin slot -> machine map, so
///     co-located tenants start placing instances on different machines;
///   - slot_limit caps the slots visible to the job (its P_max); 0 means
///     every slot.
///
/// offset 0 + limit 0 is bit-identical to building a Cluster from the
/// spec directly — the single-tenant identity contract (DESIGN.md §12).
class ClusterRef {
 public:
  /// Empty handle; spec() throws until assigned.
  ClusterRef() = default;

  /// Single-tenant convenience: the job owns a private copy of `spec`.
  /// Intentionally implicit so `spec.cluster = paper_cluster()` still
  /// reads naturally.
  ClusterRef(ClusterSpec spec)  // NOLINT(google-explicit-constructor)
      : spec_(std::make_shared<const ClusterSpec>(std::move(spec))) {}

  /// Multi-tenant lease of a slot region on a shared spec. Offset and
  /// limit are validated when a Cluster is built from the handle.
  ClusterRef(std::shared_ptr<const ClusterSpec> spec, int slot_offset,
             int slot_limit)
      : spec_(std::move(spec)), slot_offset_(slot_offset),
        slot_limit_(slot_limit) {}

  [[nodiscard]] bool empty() const noexcept { return spec_ == nullptr; }
  /// The referenced spec; throws std::logic_error on an empty handle.
  [[nodiscard]] const ClusterSpec& spec() const;
  [[nodiscard]] int slot_offset() const noexcept { return slot_offset_; }
  [[nodiscard]] int slot_limit() const noexcept { return slot_limit_; }
  /// The shared spec pointer (null for an empty handle).
  [[nodiscard]] const std::shared_ptr<const ClusterSpec>& share()
      const noexcept {
    return spec_;
  }

 private:
  std::shared_ptr<const ClusterSpec> spec_;
  int slot_offset_ = 0;
  int slot_limit_ = 0;
};

/// Placement of a concrete parallelism configuration on a cluster.
class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);
  /// Builds the leased view a ClusterRef describes: the slot -> machine
  /// map is rotated by the ref's slot offset and truncated to its slot
  /// limit. Throws std::invalid_argument on an out-of-range lease and
  /// std::logic_error on an empty ref.
  explicit Cluster(const ClusterRef& ref);

  [[nodiscard]] const ClusterSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t num_machines() const noexcept {
    return spec_.machines.size();
  }
  [[nodiscard]] int slots_per_machine(std::size_t m) const;
  [[nodiscard]] int total_slots() const noexcept { return total_slots_; }

  /// Maximum parallelism any operator may use: the total slot count
  /// (Flink slot sharing lets every slot host one subtask of each
  /// operator). This is the paper's P_max.
  [[nodiscard]] int max_parallelism() const noexcept { return total_slots_; }

  /// Machine index hosting shared slot `slot` (round-robin spread).
  [[nodiscard]] std::size_t machine_of_slot(int slot) const;

  /// True if every operator's parallelism fits within P_max and is >= 1.
  [[nodiscard]] bool feasible(const Parallelism& parallelism) const noexcept;

  /// Instances placed on each machine for a given configuration:
  /// result[m] = number of operator instances on machine m.
  [[nodiscard]] std::vector<int> instances_per_machine(
      const Parallelism& parallelism) const;

  /// Machine hosting subtask `instance` of an operator (== slot placement).
  [[nodiscard]] std::size_t machine_of_instance(int instance) const {
    return machine_of_slot(instance);
  }

  /// Rack groups, dense-indexed in order of first appearance: machines
  /// whose MachineSpec::rack matches share a group; machines with rack ==
  /// -1 each form a singleton. racks().size() == num_machines() therefore
  /// means "no correlated failure domains configured".
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& racks()
      const noexcept {
    return racks_;
  }
  /// Dense rack index of machine `m`. Throws std::out_of_range.
  [[nodiscard]] std::size_t rack_of(std::size_t m) const;

 private:
  void build(int slot_offset, int slot_limit);

  ClusterSpec spec_;
  int total_slots_ = 0;
  std::vector<std::size_t> slot_to_machine_;
  std::vector<std::vector<std::size_t>> racks_;
  std::vector<std::size_t> machine_rack_;
};

}  // namespace autra::sim
