#include "multitenant/shared_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autra::mt {

ClusterArbiter::ClusterArbiter(ArbiterParams params, int total_slots)
    : params_(params), total_slots_(total_slots) {
  if (total_slots_ <= 0) {
    throw std::invalid_argument("ClusterArbiter: no slots");
  }
  if (params_.quota_slots < 0) {
    throw std::invalid_argument("ClusterArbiter: negative quota");
  }
}

std::size_t ClusterArbiter::index_of(runtime::TenantId tenant) const {
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].tenant == tenant) return i;
  }
  throw std::invalid_argument("ClusterArbiter: unknown tenant");
}

ClusterArbiter::Entry& ClusterArbiter::entry_of(runtime::TenantId tenant) {
  return tenants_[index_of(tenant)];
}

void ClusterArbiter::register_tenant(runtime::TenantId tenant, double weight,
                                     int initial_slots) {
  if (!tenant.valid() || weight <= 0.0 || initial_slots < 0) {
    throw std::invalid_argument("ClusterArbiter: bad tenant registration");
  }
  for (const Entry& e : tenants_) {
    if (e.tenant == tenant) {
      throw std::invalid_argument("ClusterArbiter: duplicate tenant");
    }
  }
  tenants_.push_back({tenant, weight, initial_slots, {}});
}

int ClusterArbiter::ceiling_of(const Entry& e) const {
  switch (params_.policy) {
    case ArbiterPolicy::kAlwaysAdmit:
      return total_slots_;
    case ArbiterPolicy::kQuota:
      return params_.quota_slots > 0 ? params_.quota_slots : total_slots_;
    case ArbiterPolicy::kWeightedFair: {
      double weight_sum = 0.0;
      for (const Entry& t : tenants_) weight_sum += t.weight;
      const double share =
          static_cast<double>(total_slots_) * e.weight / weight_sum;
      // Every tenant keeps at least one slot — a zero ceiling would deny
      // even running at parallelism 1.
      return std::max(1, static_cast<int>(std::floor(share)));
    }
  }
  return total_slots_;
}

ArbiterVerdict ClusterArbiter::decide(runtime::TenantId tenant,
                                      int requested_slots) {
  if (requested_slots <= 0) {
    throw std::invalid_argument("ClusterArbiter: non-positive request");
  }
  Entry& e = entry_of(tenant);

  // Scale-downs always pass (they free capacity), and the always-admit
  // policy is unconditional bookkeeping — both required for the
  // single-tenant bit-identity contract.
  if (params_.policy == ArbiterPolicy::kAlwaysAdmit ||
      requested_slots <= e.held) {
    ++e.counters.admitted;
    return {ArbiterVerdict::Kind::kAdmit, requested_slots};
  }

  int held_by_others = 0;
  for (const Entry& t : tenants_) {
    if (!(t.tenant == tenant)) held_by_others += t.held;
  }
  // What this tenant could occupy: its policy ceiling, bounded by the
  // physically free slots plus what it already holds.
  const int available =
      e.held + std::max(0, total_slots_ - held_by_others - e.held);
  const int granted =
      std::min(requested_slots, std::min(ceiling_of(e), available));

  if (granted >= requested_slots) {
    ++e.counters.admitted;
    return {ArbiterVerdict::Kind::kAdmit, requested_slots};
  }
  if (granted > e.held) {
    ++e.counters.clipped;
    return {ArbiterVerdict::Kind::kClip, granted};
  }
  ++e.counters.denied;
  return {ArbiterVerdict::Kind::kDeny, e.held};
}

void ClusterArbiter::note_applied(runtime::TenantId tenant, int slots) {
  if (slots < 0 || slots > total_slots_) {
    throw std::invalid_argument("ClusterArbiter: bad applied slot count");
  }
  entry_of(tenant).held = slots;
}

const ClusterArbiter::Counters& ClusterArbiter::counters(
    runtime::TenantId tenant) const {
  return tenants_[index_of(tenant)].counters;
}

int ClusterArbiter::held_slots(runtime::TenantId tenant) const {
  return tenants_[index_of(tenant)].held;
}

SharedCluster::SharedCluster(sim::ClusterSpec spec, ArbiterParams arbiter)
    : spec_(std::make_shared<const sim::ClusterSpec>(std::move(spec))),
      geometry_(*spec_),
      arbiter_(arbiter, geometry_.total_slots()) {}

int SharedCluster::total_slots() const noexcept {
  return geometry_.total_slots();
}

std::size_t SharedCluster::num_machines() const noexcept {
  return geometry_.num_machines();
}

std::size_t SharedCluster::num_racks() const noexcept {
  return geometry_.racks().size();
}

sim::ClusterRef SharedCluster::lease(runtime::TenantId tenant, int max_slots,
                                     double weight, int initial_slots) {
  if (max_slots == 0) max_slots = total_slots();
  if (max_slots < 0 || max_slots > total_slots()) {
    throw std::invalid_argument("SharedCluster::lease: bad slot count");
  }
  for (const Tenant& t : tenants_) {
    if (t.id == tenant) {
      throw std::invalid_argument("SharedCluster::lease: duplicate tenant");
    }
  }
  arbiter_.register_tenant(tenant, weight, initial_slots);
  const int offset = next_offset_ % total_slots();
  next_offset_ += max_slots;
  tenants_.push_back({tenant, max_slots, offset, {}, {}});
  return sim::ClusterRef(spec_, offset, max_slots);
}

const SharedCluster::Tenant& SharedCluster::tenant_of(
    runtime::TenantId tenant) const {
  for (const Tenant& t : tenants_) {
    if (t.id == tenant) return t;
  }
  throw std::invalid_argument("SharedCluster: unknown tenant");
}

SharedCluster::Tenant& SharedCluster::tenant_of(runtime::TenantId tenant) {
  return const_cast<Tenant&>(
      static_cast<const SharedCluster*>(this)->tenant_of(tenant));
}

void SharedCluster::publish_machine_load(runtime::TenantId tenant,
                                         const std::vector<double>& load) {
  if (load.size() != num_machines()) {
    throw std::invalid_argument(
        "SharedCluster::publish_machine_load: bad machine count");
  }
  tenant_of(tenant).machine_load = load;
}

void SharedCluster::publish_uplink_load(
    runtime::TenantId tenant, const std::vector<double>& records_per_sec) {
  if (records_per_sec.size() != num_racks()) {
    throw std::invalid_argument(
        "SharedCluster::publish_uplink_load: bad rack count");
  }
  tenant_of(tenant).uplink_load = records_per_sec;
}

std::vector<double> SharedCluster::external_machine_load(
    runtime::TenantId tenant) const {
  static_cast<void>(tenant_of(tenant));  // validate
  std::vector<double> sum(num_machines(), 0.0);
  for (const Tenant& t : tenants_) {
    if (t.id == tenant || t.machine_load.empty()) continue;
    for (std::size_t m = 0; m < sum.size(); ++m) sum[m] += t.machine_load[m];
  }
  return sum;
}

std::vector<double> SharedCluster::external_uplink_load(
    runtime::TenantId tenant) const {
  static_cast<void>(tenant_of(tenant));  // validate
  std::vector<double> sum(num_racks(), 0.0);
  for (const Tenant& t : tenants_) {
    if (t.id == tenant || t.uplink_load.empty()) continue;
    for (std::size_t r = 0; r < sum.size(); ++r) sum[r] += t.uplink_load[r];
  }
  return sum;
}

}  // namespace autra::mt
