// Multi-tenant co-simulation harness (DESIGN.md §12).
//
// MultiTenantHarness runs N (session, controller) pairs against one
// SharedCluster in lockstep. Time advances for every tenant through the
// same absolute targets, sliced at a fixed one-second coupling interval;
// at each slice boundary every tenant publishes its per-machine busy-core
// load and per-rack uplink throughput to the SharedCluster's interference
// boards, and receives the sum over the other tenants back into its
// engine — so one tenant's scale-up degrades its neighbours' machine
// factors and uplink budgets exactly through the engine's existing
// InterferenceModel / NetworkModel mechanisms.
//
// Each tenant's AuTraScaleController is driven through its public
// prime()/observe_window() pair: the harness owns the window advance (all
// tenants move together), the controller owns Monitor/Analyze/Plan/
// Execute. Execute lands in TenantSession::reconfigure, which submits the
// request to the ClusterArbiter first — a denial throws
// runtime::RescaleFailed into the controller's retry/backoff machinery, a
// clip shrinks the configuration to the granted ceiling.
//
// Single-tenant identity contract: with one tenant, a full-cluster lease
// and an always-admit arbiter, run() produces bit-identical LoopStats,
// decisions and window metrics to AuTraScaleController::run over a
// standalone ScalingSession — enforced by tests/test_multitenant.cpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "multitenant/shared_cluster.hpp"
#include "runtime/metrics.hpp"
#include "streamsim/job_runner.hpp"

namespace autra::mt {

class MultiTenantHarness;

/// StreamingBackend adapter handed to a tenant's controller: time and
/// rescaling route through the harness (lockstep advance, arbiter
/// admission); everything else delegates to the wrapped ScalingSession.
class TenantSession final : public runtime::StreamingBackend {
 public:
  TenantSession(MultiTenantHarness& harness, std::size_t index,
                sim::ScalingSession& inner)
      : harness_(&harness), index_(index), inner_(&inner) {}

  void run_for(double sec) override;
  /// Submits the request to the ClusterArbiter: a denial throws
  /// runtime::RescaleFailed, a clip applies the granted ceiling instead.
  void reconfigure(
      const runtime::Parallelism& p,
      runtime::RescaleMode mode = runtime::RescaleMode::kColdRestart) override;

  [[nodiscard]] runtime::JobMetrics window_metrics() const override {
    return inner_->window_metrics();
  }
  void reset_window() override { inner_->reset_window(); }
  [[nodiscard]] double now() const noexcept override { return inner_->now(); }
  [[nodiscard]] const runtime::Parallelism& parallelism()
      const noexcept override {
    return inner_->parallelism();
  }
  [[nodiscard]] const runtime::MetricStore& history()
      const noexcept override {
    return inner_->history();
  }
  [[nodiscard]] int restarts() const noexcept override {
    return inner_->restarts();
  }

 private:
  MultiTenantHarness* harness_;
  std::size_t index_;
  sim::ScalingSession* inner_;
};

/// One tenant's wiring, as handed to MultiTenantHarness::add_tenant. The
/// job's `cluster` field is ignored — the harness assigns the lease.
struct TenantSpec {
  std::string name;
  sim::JobSpec job;
  sim::Parallelism initial;
  sim::SessionParams session;
  core::ControllerParams controller;
  /// Slots leased to this tenant (its P_max ceiling); 0 = every slot.
  int lease_slots = 0;
  /// Weighted-fairness weight.
  double weight = 1.0;
};

class MultiTenantHarness {
 public:
  explicit MultiTenantHarness(std::shared_ptr<SharedCluster> cluster);

  /// Adds a tenant before the first advance: leases its slots, builds its
  /// session/controller pair, and resolves its per-tenant series in the
  /// cluster metric store. Names are interned into TenantIds in add
  /// order. Throws std::invalid_argument on duplicates or after time has
  /// started, std::logic_error on an infeasible initial configuration.
  runtime::TenantId add_tenant(TenantSpec spec);

  /// Lockstep co-advance of every tenant to the absolute time `until_sec`
  /// (no control decisions — the raw interference coupling).
  void advance_to(double until_sec);

  /// Drives every tenant's MAPE loop until `until_sec`: per window, all
  /// tenants reset and advance one policy interval together, then each
  /// controller observes its own window in tenant order. With one tenant
  /// this is bit-identical to AuTraScaleController::run.
  void run(double until_sec);

  [[nodiscard]] double now() const;
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return tenants_.size();
  }
  [[nodiscard]] runtime::TenantId tenant_id(std::size_t index) const {
    return tenants_.at(index).id;
  }
  [[nodiscard]] const std::string& tenant_name(std::size_t index) const {
    return tenants_.at(index).name;
  }
  [[nodiscard]] sim::ScalingSession& session(std::size_t index) {
    return *tenants_.at(index).session;
  }
  [[nodiscard]] core::AuTraScaleController& controller(std::size_t index) {
    return *tenants_.at(index).controller;
  }
  [[nodiscard]] const std::vector<core::ControlDecision>& decisions(
      std::size_t index) const {
    return tenants_.at(index).decisions;
  }
  [[nodiscard]] const runtime::TenantRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] SharedCluster& cluster() noexcept { return *shared_; }
  /// Cluster-level store with per-tenant series ("tenant.<name>.<metric>"),
  /// recorded at every coupling slice — the cross-job observables.
  [[nodiscard]] const runtime::MetricStore& metrics() const noexcept {
    return metrics_;
  }

 private:
  friend class TenantSession;

  struct Tenant {
    runtime::TenantId id;
    std::string name;
    std::unique_ptr<sim::ScalingSession> session;
    std::unique_ptr<TenantSession> backend;
    std::unique_ptr<core::AuTraScaleController> controller;
    std::vector<core::ControlDecision> decisions;
    double policy_interval_sec = 60.0;
    /// Uplink cumulative-consumption snapshot at the previous slice, for
    /// the per-slice rate published to the boards.
    std::vector<double> prev_uplink;
    runtime::MetricId lag_id, throughput_id, parallelism_id, busy_id;
  };

  /// Exchange step at one slice boundary of length `dt`: publish every
  /// tenant's loads, then push the co-tenant sums into every engine.
  void exchange(double dt, double at);
  /// Slice loop shared by advance_to and the run() window advance.
  void advance_all(double target);
  // TenantSession hooks.
  void tenant_run_for(std::size_t index, double sec);
  void tenant_reconfigure(std::size_t index, const runtime::Parallelism& p,
                          runtime::RescaleMode mode);

  std::shared_ptr<SharedCluster> shared_;
  runtime::TenantRegistry registry_;
  std::vector<Tenant> tenants_;
  runtime::MetricStore metrics_;
  bool started_ = false;
};

}  // namespace autra::mt
