// Multi-tenant cluster inventory and admission control (DESIGN.md §12).
//
// A SharedCluster owns the machine/rack/uplink inventory N tenant jobs
// co-run on. Each tenant receives a slot *lease* — a ClusterRef carrying a
// placement offset (rotating the round-robin slot -> machine map so
// co-located tenants start filling different machines) and a slot ceiling
// (the tenant's P_max). Slots are CPU-time-shared, exactly like Flink
// slots on one YARN cluster: leases bound what a tenant may *place*, while
// the physical contention between placed instances flows through the
// engine's InterferenceModel (co-tenant busy-core load on shared machines)
// and NetworkModel (co-tenant records through shared rack uplinks) via the
// interference boards published here every coupling slice.
//
// Above the per-job Scaling Managers sits the ClusterArbiter: every
// rescale request is submitted to it, and the verdict is admit, clip (a
// smaller grant than requested), or deny — surfaced to the controller as
// the existing runtime::RescaleFailed retry/backoff path. With the
// always-admit policy the arbiter is pure bookkeeping, which is what the
// single-tenant bit-identity contract relies on.
#pragma once

#include <memory>
#include <vector>

#include "runtime/tenant.hpp"
#include "streamsim/cluster.hpp"

namespace autra::mt {

/// Admission policy of the ClusterArbiter.
enum class ArbiterPolicy {
  /// Every request is admitted unchanged — single-tenant bookkeeping mode
  /// (the bit-identity contract) and the "no platform policy" baseline.
  kAlwaysAdmit,
  /// Per-tenant slot ceiling (quota_slots) plus the shared free pool.
  kQuota,
  /// Weighted max-min fairness: each tenant's ceiling is its weight share
  /// of the total slots, and grants never overcommit the physical pool.
  kWeightedFair,
};

struct ArbiterParams {
  ArbiterPolicy policy = ArbiterPolicy::kAlwaysAdmit;
  /// kQuota: slots any one tenant may occupy; 0 means no ceiling.
  int quota_slots = 0;
};

/// Outcome of one rescale request.
struct ArbiterVerdict {
  enum class Kind { kAdmit, kClip, kDeny };
  Kind kind = Kind::kAdmit;
  /// Slots granted: the request for kAdmit, the (smaller) ceiling for
  /// kClip, the tenant's current holding for kDeny.
  int granted_slots = 0;
};

/// Admission control above the per-job Scaling Managers. Tracks how many
/// slots each registered tenant currently occupies and decides rescale
/// requests under the configured policy. Deterministic: verdicts are a
/// pure function of the registration order, the holdings, and the request.
class ClusterArbiter {
 public:
  ClusterArbiter(ArbiterParams params, int total_slots);

  /// Registers a tenant with its fairness weight and the slots its initial
  /// configuration occupies. Throws std::invalid_argument on a duplicate
  /// id or non-positive weight.
  void register_tenant(runtime::TenantId tenant, double weight,
                       int initial_slots);

  /// Decides a request for `requested_slots` (the max over the proposed
  /// parallelism vector). Scale-downs are always admitted — shrinking
  /// frees capacity. Updates the per-tenant verdict counters. Throws
  /// std::invalid_argument for an unknown tenant or a non-positive
  /// request.
  ArbiterVerdict decide(runtime::TenantId tenant, int requested_slots);

  /// Records the slots actually occupied after an applied (or clipped)
  /// rescale — the holdings future verdicts are computed against.
  void note_applied(runtime::TenantId tenant, int slots);

  struct Counters {
    int admitted = 0;
    int clipped = 0;
    int denied = 0;
  };
  [[nodiscard]] const Counters& counters(runtime::TenantId tenant) const;
  [[nodiscard]] int held_slots(runtime::TenantId tenant) const;
  [[nodiscard]] int total_slots() const noexcept { return total_slots_; }
  [[nodiscard]] const ArbiterParams& params() const noexcept {
    return params_;
  }

 private:
  struct Entry {
    runtime::TenantId tenant;
    double weight = 1.0;
    int held = 0;
    Counters counters;
  };
  [[nodiscard]] std::size_t index_of(runtime::TenantId tenant) const;
  [[nodiscard]] Entry& entry_of(runtime::TenantId tenant);
  /// Policy ceiling for one tenant (total slots under kAlwaysAdmit).
  [[nodiscard]] int ceiling_of(const Entry& e) const;

  ArbiterParams params_;
  int total_slots_;
  std::vector<Entry> tenants_;  ///< Registration order — deterministic.
};

/// The shared inventory: one ClusterSpec, slot leases, the arbiter, and
/// the interference boards tenants publish to / read from each coupling
/// slice. Owns nothing per-engine — tenants build their own engines from
/// the leased ClusterRefs.
class SharedCluster {
 public:
  explicit SharedCluster(sim::ClusterSpec spec, ArbiterParams arbiter = {});

  [[nodiscard]] const sim::ClusterSpec& spec() const noexcept {
    return *spec_;
  }
  [[nodiscard]] int total_slots() const noexcept;
  [[nodiscard]] std::size_t num_machines() const noexcept;
  [[nodiscard]] std::size_t num_racks() const noexcept;

  /// Leases `max_slots` slots to `tenant` (0 = every slot) with the given
  /// fairness weight; `initial_slots` seeds the arbiter's holdings.
  /// Consecutive leases rotate the placement offset by the previous lease
  /// sizes, so tenants start filling different machines. Throws
  /// std::invalid_argument on a bad size or duplicate tenant.
  [[nodiscard]] sim::ClusterRef lease(runtime::TenantId tenant, int max_slots,
                                      double weight = 1.0,
                                      int initial_slots = 1);

  [[nodiscard]] ClusterArbiter& arbiter() noexcept { return arbiter_; }
  [[nodiscard]] const ClusterArbiter& arbiter() const noexcept {
    return arbiter_;
  }

  /// Interference boards: each tenant publishes its own per-machine
  /// busy-core load / per-rack uplink records-per-sec; external_*() then
  /// reads the sum over every *other* tenant — what that tenant's engine
  /// must treat as co-tenant load. Vectors must match num_machines() /
  /// num_racks() (std::invalid_argument).
  void publish_machine_load(runtime::TenantId tenant,
                            const std::vector<double>& load);
  void publish_uplink_load(runtime::TenantId tenant,
                           const std::vector<double>& records_per_sec);
  [[nodiscard]] std::vector<double> external_machine_load(
      runtime::TenantId tenant) const;
  [[nodiscard]] std::vector<double> external_uplink_load(
      runtime::TenantId tenant) const;

  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return tenants_.size();
  }

 private:
  struct Tenant {
    runtime::TenantId id;
    int lease_slots = 0;
    int slot_offset = 0;
    std::vector<double> machine_load;
    std::vector<double> uplink_load;
  };
  [[nodiscard]] const Tenant& tenant_of(runtime::TenantId tenant) const;
  [[nodiscard]] Tenant& tenant_of(runtime::TenantId tenant);

  std::shared_ptr<const sim::ClusterSpec> spec_;
  /// Geometry of the full (unleased) inventory: slot count, rack groups.
  sim::Cluster geometry_;
  ClusterArbiter arbiter_;
  std::vector<Tenant> tenants_;  ///< Lease order — deterministic.
  int next_offset_ = 0;
};

}  // namespace autra::mt
