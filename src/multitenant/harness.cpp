#include "multitenant/harness.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/backend.hpp"

namespace autra::mt {

void TenantSession::run_for(double sec) {
  harness_->tenant_run_for(index_, sec);
}

void TenantSession::reconfigure(const runtime::Parallelism& p,
                                runtime::RescaleMode mode) {
  harness_->tenant_reconfigure(index_, p, mode);
}

MultiTenantHarness::MultiTenantHarness(std::shared_ptr<SharedCluster> cluster,
                                       HarnessParams params)
    : shared_(std::move(cluster)), params_(params) {
  if (!shared_) {
    throw std::invalid_argument("MultiTenantHarness: null shared cluster");
  }
  if (params_.coupling_interval_sec <= 0.0) {
    throw std::invalid_argument(
        "MultiTenantHarness: coupling interval must be positive");
  }
}

runtime::TenantId MultiTenantHarness::add_tenant(TenantSpec spec) {
  if (started_) {
    throw std::invalid_argument(
        "MultiTenantHarness::add_tenant: time has already started");
  }
  if (spec.name.empty()) {
    throw std::invalid_argument("MultiTenantHarness::add_tenant: empty name");
  }
  if (registry_.find(spec.name).valid()) {
    throw std::invalid_argument(
        "MultiTenantHarness::add_tenant: duplicate tenant name");
  }
  const runtime::TenantId id = registry_.intern(spec.name);

  const int lease_slots =
      spec.lease_slots > 0 ? spec.lease_slots : shared_->total_slots();
  const int initial_slots =
      spec.initial.empty()
          ? 0
          : *std::max_element(spec.initial.begin(), spec.initial.end());
  spec.job.cluster = shared_->lease(id, lease_slots, spec.weight,
                                    std::max(0, initial_slots));

  Tenant tenant;
  tenant.id = id;
  tenant.name = spec.name;
  tenant.session = std::make_unique<sim::ScalingSession>(
      spec.job, spec.initial, spec.session);
  tenant.backend =
      std::make_unique<TenantSession>(*this, tenants_.size(), *tenant.session);
  if (!spec.controller.tenant.valid()) spec.controller.tenant = id;
  tenant.policy_interval_sec = spec.controller.policy_interval_sec;
  tenant.controller = std::make_unique<core::AuTraScaleController>(
      spec.job.topology, sim::make_trial_service(spec.job), spec.controller);
  tenant.lag_id =
      metrics_.resolve(runtime::tenant_series(spec.name, "kafka_lag"));
  tenant.throughput_id =
      metrics_.resolve(runtime::tenant_series(spec.name, "throughput"));
  tenant.parallelism_id =
      metrics_.resolve(runtime::tenant_series(spec.name, "parallelism"));
  tenant.busy_id =
      metrics_.resolve(runtime::tenant_series(spec.name, "busy_cores"));
  tenants_.push_back(std::move(tenant));
  return id;
}

double MultiTenantHarness::now() const {
  return tenants_.empty() ? 0.0 : tenants_.front().session->now();
}

void MultiTenantHarness::exchange(double dt, double at) {
  // Publish: every tenant's own per-machine busy load and the per-rack
  // uplink rate over the slice just completed.
  for (Tenant& tenant : tenants_) {
    shared_->publish_machine_load(tenant.id,
                                  tenant.session->machine_busy_load());
    const std::vector<double> cumulative =
        tenant.session->uplink_consumed_records();
    std::vector<double> rate(shared_->num_racks(), 0.0);
    if (!cumulative.empty() && dt > 0.0) {
      if (tenant.prev_uplink.size() != cumulative.size()) {
        tenant.prev_uplink.assign(cumulative.size(), 0.0);
      }
      for (std::size_t r = 0; r < rate.size() && r < cumulative.size(); ++r) {
        rate[r] = std::max(0.0, (cumulative[r] - tenant.prev_uplink[r]) / dt);
      }
      tenant.prev_uplink = cumulative;
    }
    shared_->publish_uplink_load(tenant.id, rate);
  }

  // Receive: each engine sees the sum over the *other* tenants. With one
  // tenant both sums are all-zero, which the session normalises to
  // "detached" — the single-tenant bit-identity path.
  for (Tenant& tenant : tenants_) {
    tenant.session->set_external_machine_load(
        shared_->external_machine_load(tenant.id));
    tenant.session->set_external_uplink_load(
        shared_->external_uplink_load(tenant.id));
  }

  // Cluster-level per-tenant observables at this slice boundary.
  for (Tenant& tenant : tenants_) {
    const runtime::MetricStore& history = tenant.session->history();
    if (const auto lag =
            history.last(history.find(runtime::metric_names::kKafkaLag))) {
      metrics_.record(tenant.lag_id, at, lag->value);
    }
    if (const auto tput =
            history.last(history.find(runtime::metric_names::kThroughput))) {
      metrics_.record(tenant.throughput_id, at, tput->value);
    }
    const runtime::Parallelism& p = tenant.session->parallelism();
    double total = 0.0;
    for (const int v : p) total += v;
    metrics_.record(tenant.parallelism_id, at, total);
    double busy = 0.0;
    for (const double b : tenant.session->machine_busy_load()) busy += b;
    metrics_.record(tenant.busy_id, at, busy);
  }
}

void MultiTenantHarness::advance_all(double target) {
  if (tenants_.empty()) {
    throw std::logic_error("MultiTenantHarness: no tenants added");
  }
  started_ = true;
  double t = now();
  while (t + runtime::kRunForToleranceSec < target) {
    const double next = std::min(target, t + params_.coupling_interval_sec);
    // Shared absolute targets: each tenant's engine runs whole ticks up to
    // `next`, so the slicing cannot perturb its float arithmetic.
    for (Tenant& tenant : tenants_) tenant.session->run_to(next);
    exchange(next - t, next);
    t = next;
  }
}

void MultiTenantHarness::advance_to(double until_sec) {
  advance_all(until_sec);
}

void MultiTenantHarness::tenant_run_for(std::size_t index, double sec) {
  advance_all(tenants_.at(index).session->now() + sec);
}

void MultiTenantHarness::tenant_reconfigure(std::size_t index,
                                            const runtime::Parallelism& p,
                                            runtime::RescaleMode mode) {
  Tenant& tenant = tenants_.at(index);
  const int requested =
      p.empty() ? 0 : *std::max_element(p.begin(), p.end());
  const ArbiterVerdict verdict = shared_->arbiter().decide(tenant.id, requested);
  switch (verdict.kind) {
    case ArbiterVerdict::Kind::kAdmit:
      tenant.session->reconfigure(p, mode);
      break;
    case ArbiterVerdict::Kind::kClip: {
      runtime::Parallelism clipped = p;
      for (int& v : clipped) v = std::min(v, verdict.granted_slots);
      if (mode == runtime::RescaleMode::kHotScaleOut) {
        // A clip that shrinks any operator below its running parallelism
        // cannot be applied in place — surface it as a transient failure so
        // the controller's retry/backoff path handles it.
        const runtime::Parallelism& current = tenant.session->parallelism();
        for (std::size_t i = 0; i < clipped.size() && i < current.size();
             ++i) {
          if (clipped[i] < current[i]) {
            throw runtime::RescaleFailed(
                "arbiter clipped a hot scale-out below the running "
                "parallelism for tenant " +
                tenant.name);
          }
        }
      }
      tenant.session->reconfigure(clipped, mode);
      break;
    }
    case ArbiterVerdict::Kind::kDeny:
      throw runtime::RescaleFailed("cluster arbiter denied rescale for tenant " +
                                   tenant.name);
  }
  const runtime::Parallelism& applied = tenant.session->parallelism();
  shared_->arbiter().note_applied(
      tenant.id, applied.empty()
                     ? 0
                     : *std::max_element(applied.begin(), applied.end()));
}

void MultiTenantHarness::run(double until_sec) {
  if (tenants_.empty()) {
    throw std::logic_error("MultiTenantHarness::run: no tenants added");
  }
  started_ = true;
  for (Tenant& tenant : tenants_) tenant.controller->prime(*tenant.backend);
  while (now() + runtime::kRunForToleranceSec < until_sec) {
    for (Tenant& tenant : tenants_) tenant.session->reset_window();
    const double t0 = now();
    double interval = tenants_.front().policy_interval_sec;
    for (const Tenant& tenant : tenants_) {
      interval = std::min(interval, tenant.policy_interval_sec);
    }
    advance_all(std::min(until_sec, t0 + interval));
    for (Tenant& tenant : tenants_) {
      tenant.controller->observe_window(*tenant.backend, t0, tenant.decisions);
    }
  }
}

}  // namespace autra::mt
