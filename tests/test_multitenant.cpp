// Multi-tenant subsystem tests (DESIGN.md §12): TenantId interning, the
// ClusterArbiter's admission semantics, slot leases on a SharedCluster,
// cross-tenant interference monotonicity, thread-count determinism, and —
// the contract everything else leans on — single-tenant bit-identity: one
// tenant on a shared cluster behind an always-admit arbiter must reproduce
// a standalone ScalingSession run bit for bit.
#include "multitenant/harness.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "arrival/arrival.hpp"
#include "multitenant/shared_cluster.hpp"
#include "runtime/tenant.hpp"
#include "workloads/workloads.hpp"

namespace autra::mt {
namespace {

using runtime::TenantId;
using sim::ConstantRate;
using sim::Parallelism;

sim::JobSpec chain_spec(double rate, double noise = 0.02) {
  sim::JobSpec spec = workloads::synthetic_chain(
      3, std::make_shared<ConstantRate>(rate), 10.0);
  spec.engine.measurement_noise = noise;
  return spec;
}

core::ControllerParams small_controller_params(double target_latency_ms,
                                               double target_throughput) {
  core::ControllerParams p;
  p.steady.target_latency_ms = target_latency_ms;
  p.steady.target_throughput = target_throughput;
  p.steady.bootstrap_m = 4;
  p.steady.max_evaluations = 20;
  p.policy_interval_sec = 30.0;
  p.policy_running_time_sec = 60.0;
  return p;
}

// --- TenantId / TenantRegistry ---------------------------------------------

TEST(TenantRegistry, InternsInOrderAndRoundTrips) {
  runtime::TenantRegistry reg;
  const TenantId a = reg.intern("fraud-scoring");
  const TenantId b = reg.intern("sessionization");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(reg.intern("fraud-scoring"), a);  // idempotent
  EXPECT_EQ(reg.find("sessionization"), b);
  EXPECT_FALSE(reg.find("nope").valid());
  EXPECT_EQ(reg.name(a), "fraud-scoring");
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_FALSE(TenantId{}.valid());
  EXPECT_THROW(reg.name(TenantId{7}), std::out_of_range);
}

TEST(TenantRegistry, SeriesNamesAreNamespacedPerTenant) {
  EXPECT_EQ(runtime::tenant_series("fraud", "kafka_lag"),
            "tenant.fraud.kafka_lag");
}

// --- ClusterArbiter ---------------------------------------------------------

TEST(ClusterArbiter, AlwaysAdmitIsUnconditionalBookkeeping) {
  ClusterArbiter arb({.policy = ArbiterPolicy::kAlwaysAdmit}, 4);
  arb.register_tenant(TenantId{0}, 1.0, 1);
  // Requests beyond the physical pool are still admitted verbatim — the
  // single-tenant bit-identity contract needs the arbiter fully inert.
  const ArbiterVerdict v = arb.decide(TenantId{0}, 99);
  EXPECT_EQ(v.kind, ArbiterVerdict::Kind::kAdmit);
  EXPECT_EQ(v.granted_slots, 99);
  EXPECT_EQ(arb.counters(TenantId{0}).admitted, 1);
  EXPECT_THROW(arb.decide(TenantId{0}, 0), std::invalid_argument);
  EXPECT_THROW(arb.decide(TenantId{9}, 1), std::invalid_argument);
}

TEST(ClusterArbiter, QuotaAdmitsClipsAndDenies) {
  ClusterArbiter arb({.policy = ArbiterPolicy::kQuota, .quota_slots = 4}, 12);
  arb.register_tenant(TenantId{0}, 1.0, 1);

  EXPECT_EQ(arb.decide(TenantId{0}, 3).kind, ArbiterVerdict::Kind::kAdmit);
  arb.note_applied(TenantId{0}, 3);
  EXPECT_EQ(arb.held_slots(TenantId{0}), 3);

  const ArbiterVerdict clip = arb.decide(TenantId{0}, 6);
  EXPECT_EQ(clip.kind, ArbiterVerdict::Kind::kClip);
  EXPECT_EQ(clip.granted_slots, 4);  // the quota ceiling
  arb.note_applied(TenantId{0}, 4);

  const ArbiterVerdict deny = arb.decide(TenantId{0}, 6);
  EXPECT_EQ(deny.kind, ArbiterVerdict::Kind::kDeny);
  EXPECT_EQ(deny.granted_slots, 4);  // keeps what it holds

  // Scale-downs always pass: they free capacity.
  EXPECT_EQ(arb.decide(TenantId{0}, 2).kind, ArbiterVerdict::Kind::kAdmit);

  const ClusterArbiter::Counters& c = arb.counters(TenantId{0});
  EXPECT_EQ(c.admitted, 2);
  EXPECT_EQ(c.clipped, 1);
  EXPECT_EQ(c.denied, 1);
}

TEST(ClusterArbiter, WeightedFairCeilingIsTheWeightShare) {
  ClusterArbiter arb({.policy = ArbiterPolicy::kWeightedFair}, 12);
  arb.register_tenant(TenantId{0}, 2.0, 1);
  arb.register_tenant(TenantId{1}, 1.0, 1);
  // Ceilings: floor(12 * 2/3) = 8 and floor(12 * 1/3) = 4.
  EXPECT_EQ(arb.decide(TenantId{0}, 8).kind, ArbiterVerdict::Kind::kAdmit);
  const ArbiterVerdict clip = arb.decide(TenantId{1}, 6);
  EXPECT_EQ(clip.kind, ArbiterVerdict::Kind::kClip);
  EXPECT_EQ(clip.granted_slots, 4);
}

TEST(ClusterArbiter, PhysicalPoolBoundsEveryGrant) {
  ClusterArbiter arb({.policy = ArbiterPolicy::kQuota, .quota_slots = 0}, 4);
  arb.register_tenant(TenantId{0}, 1.0, 3);
  arb.register_tenant(TenantId{1}, 1.0, 1);
  arb.note_applied(TenantId{0}, 3);
  arb.note_applied(TenantId{1}, 1);
  // Tenant 1 wants 3 but only its own slot is left: nothing to grant
  // beyond the current holding, so the request is denied.
  const ArbiterVerdict v = arb.decide(TenantId{1}, 3);
  EXPECT_EQ(v.kind, ArbiterVerdict::Kind::kDeny);
  EXPECT_EQ(v.granted_slots, 1);
}

// --- SharedCluster leases ---------------------------------------------------

TEST(SharedCluster, LeasesRotateOffsetsAndValidate) {
  SharedCluster shared(sim::uniform_cluster(4, 2, 4, 2));  // 8 slots
  EXPECT_EQ(shared.total_slots(), 8);
  EXPECT_EQ(shared.num_machines(), 4u);
  EXPECT_EQ(shared.num_racks(), 2u);

  const sim::ClusterRef a = shared.lease(TenantId{0}, 3);
  const sim::ClusterRef b = shared.lease(TenantId{1}, 3);
  EXPECT_EQ(a.slot_offset(), 0);
  EXPECT_EQ(b.slot_offset(), 3);  // starts after tenant 0's region
  EXPECT_THROW(static_cast<void>(shared.lease(TenantId{1}, 2)),
               std::invalid_argument);  // duplicate
  EXPECT_THROW(static_cast<void>(shared.lease(TenantId{2}, 9)),
               std::invalid_argument);  // beyond the pool

  // The leased view truncates to the lease and rotates placement: tenant
  // 1's first instance does not land on tenant 0's first machine.
  const sim::Cluster ca(a);
  const sim::Cluster cb(b);
  EXPECT_EQ(ca.total_slots(), 3);
  EXPECT_EQ(cb.total_slots(), 3);
  EXPECT_NE(ca.machine_of_slot(0), cb.machine_of_slot(0));
}

TEST(SharedCluster, InterferenceBoardsSumOverOtherTenants) {
  SharedCluster shared(sim::uniform_cluster(2, 2, 4));
  static_cast<void>(shared.lease(TenantId{0}, 0));
  static_cast<void>(shared.lease(TenantId{1}, 0));
  shared.publish_machine_load(TenantId{0}, {1.5, 0.5});
  shared.publish_machine_load(TenantId{1}, {0.25, 0.75});
  EXPECT_EQ(shared.external_machine_load(TenantId{0}),
            (std::vector<double>{0.25, 0.75}));
  EXPECT_EQ(shared.external_machine_load(TenantId{1}),
            (std::vector<double>{1.5, 0.5}));
  EXPECT_THROW(shared.publish_machine_load(TenantId{0}, {1.0}),
               std::invalid_argument);
}

// --- Single-tenant bit-identity --------------------------------------------

/// One job run standalone and as the sole tenant of an always-admit
/// SharedCluster on the same physical cluster.
struct SoloRun {
  sim::ClusterSpec cluster;
  sim::JobSpec job;
  Parallelism initial;
  sim::SessionParams session;
  core::ControllerParams controller;
  double horizon_sec = 0.0;
};

void expect_solo_tenant_matches_standalone(const SoloRun& run) {
  core::ControllerParams params = run.controller;
  params.tenant = TenantId{0};  // the id the harness will stamp

  // Standalone reference run.
  sim::JobSpec ref_spec = run.job;
  ref_spec.cluster = run.cluster;
  sim::ScalingSession ref_session(ref_spec, run.initial, run.session);
  core::AuTraScaleController ref_controller(
      ref_spec.topology, sim::make_trial_service(ref_spec), params);
  const std::vector<core::ControlDecision> ref_decisions =
      ref_controller.run(ref_session, run.horizon_sec);

  // The same job as the sole tenant of a SharedCluster, always-admit.
  auto shared = std::make_shared<SharedCluster>(run.cluster);
  MultiTenantHarness harness(shared);
  static_cast<void>(harness.add_tenant({
      .name = "solo",
      .job = run.job,
      .initial = run.initial,
      .session = run.session,
      .controller = params,
  }));
  harness.run(run.horizon_sec);

  ASSERT_FALSE(ref_decisions.empty());
  EXPECT_EQ(ref_decisions, harness.decisions(0));
  EXPECT_EQ(ref_controller.stats(), harness.controller(0).stats());

  sim::ScalingSession& mt_session = harness.session(0);
  EXPECT_EQ(ref_session.now(), mt_session.now());
  EXPECT_EQ(ref_session.restarts(), mt_session.restarts());
  EXPECT_EQ(ref_session.parallelism(), mt_session.parallelism());

  const runtime::JobMetrics a = ref_session.window_metrics();
  const runtime::JobMetrics b = mt_session.window_metrics();
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.kafka_lag, b.kafka_lag);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.event_latency_ms, b.event_latency_ms);
  EXPECT_EQ(a.busy_cores, b.busy_cores);
  EXPECT_EQ(a.input_rate, b.input_rate);
}

TEST(SingleTenant, BitIdenticalToStandaloneScalingSession) {
  {
    SCOPED_TRACE("chain3 at a constant rate");
    expect_solo_tenant_matches_standalone({
        .cluster = sim::uniform_cluster(3, 3),  // 24 slots
        .job = chain_spec(220000.0),
        .initial = {1, 1, 1},
        .session = {.restart_downtime_sec = 10.0},
        .controller = small_controller_params(400.0, 220000.0),
        .horizon_sec = 240.0,
    });
  }
  {
    // 0.2 s ticks sum to 599.99999999999943 here, a rounding error short
    // of the horizon that no run_for() step can close: both loops must
    // stop on their step's own test instead of spinning.
    SCOPED_TRACE("chain8 under a diurnal rate, clock ends short of 600 s");
    sim::JobSpec job = workloads::synthetic_chain(
        8, arrival::make_arrival("diurnal", 200e3, 1, 600.0), 10.0);
    job.engine.tick_sec = 0.2;
    core::ControllerParams params = small_controller_params(60.0, 0.0);
    params.steady.max_evaluations = 24;
    params.policy_interval_sec = 60.0;
    params.policy_running_time_sec = 120.0;
    expect_solo_tenant_matches_standalone({
        .cluster = sim::paper_cluster(),
        .job = job,
        .initial = Parallelism(8, 1),
        .session = {},
        .controller = params,
        .horizon_sec = 600.0,
    });
  }
}

// --- Contention and admission under pressure --------------------------------

TEST(MultiTenant, ControllersFightingOverLastSlotsReachStableAllocation) {
  // 4 physical slots, two under-provisioned tenants that each want 3: the
  // weighted-fair arbiter caps both at floor(4/2) = 2 and the allocation
  // settles without ever overcommitting the pool.
  auto shared = std::make_shared<SharedCluster>(
      sim::uniform_cluster(2, 2, 2),
      ArbiterParams{.policy = ArbiterPolicy::kWeightedFair});
  MultiTenantHarness harness(shared);
  for (const char* name : {"alpha", "beta"}) {
    static_cast<void>(harness.add_tenant({
        .name = name,
        .job = chain_spec(220000.0),
        .initial = {1, 1, 1},
        .session = {.restart_downtime_sec = 10.0},
        .controller = small_controller_params(400.0, 220000.0),
    }));
  }
  harness.run(300.0);

  const ClusterArbiter& arb = shared->arbiter();
  int held_total = 0;
  int curbed = 0;
  for (std::size_t i = 0; i < harness.tenant_count(); ++i) {
    const TenantId id = harness.tenant_id(i);
    const Parallelism& p = harness.session(i).parallelism();
    const int max_p = *std::max_element(p.begin(), p.end());
    EXPECT_LE(max_p, 2) << "tenant " << i << " exceeded its fair share";
    EXPECT_EQ(arb.held_slots(id), max_p);
    held_total += arb.held_slots(id);
    curbed += arb.counters(id).clipped + arb.counters(id).denied;
  }
  EXPECT_LE(held_total, shared->total_slots());
  EXPECT_GE(curbed, 1) << "contention never forced a clip or deny";
}

TEST(MultiTenant, DenialSurfacesAsRescaleFailedAndTheLoopRetries) {
  // quota_slots = 1 pins every tenant at parallelism 1, so each scale-up
  // attempt is denied outright (nothing between 1 and the ceiling) and the
  // controller must absorb the RescaleFailed through retry/backoff.
  auto shared = std::make_shared<SharedCluster>(
      sim::uniform_cluster(2, 2, 2),
      ArbiterParams{.policy = ArbiterPolicy::kQuota, .quota_slots = 1});
  MultiTenantHarness harness(shared);
  for (const char* name : {"alpha", "beta"}) {
    static_cast<void>(harness.add_tenant({
        .name = name,
        .job = chain_spec(220000.0),
        .initial = {1, 1, 1},
        .session = {.restart_downtime_sec = 10.0},
        .controller = small_controller_params(400.0, 220000.0),
    }));
  }
  harness.run(240.0);

  int retries = 0;
  int aborts = 0;
  int denials = 0;
  for (std::size_t i = 0; i < harness.tenant_count(); ++i) {
    const core::LoopStats& stats = harness.controller(i).stats();
    retries += stats.rescale_retries;
    aborts += stats.rescale_aborts;
    denials += shared->arbiter().counters(harness.tenant_id(i)).denied;
    EXPECT_EQ(*std::max_element(harness.session(i).parallelism().begin(),
                                harness.session(i).parallelism().end()),
              1);
  }
  EXPECT_GE(denials, 1);
  EXPECT_GE(retries, 1) << "denials never reached the retry path";
  EXPECT_GE(aborts, 1) << "permanent denial should exhaust the retries";
}

// --- Interference monotonicity ----------------------------------------------

TEST(MultiTenant, AddingATenantNeverRaisesAnothersThroughput) {
  // Noise off so the comparison is pure physics. Both tenants nearly fill
  // the 2x4-core cluster; the co-tenant's busy cores and uplink records
  // must never make the first tenant faster.
  const sim::ClusterSpec cluster = [] {
    sim::ClusterSpec c = sim::uniform_cluster(2, 2, 4);
    c.rack_uplink_records_per_sec = 250000.0;
    return c;
  }();
  const auto measured_alone = [&](bool with_cotenant) {
    auto shared = std::make_shared<SharedCluster>(cluster);
    MultiTenantHarness harness(shared);
    static_cast<void>(harness.add_tenant({
        .name = "primary",
        .job = chain_spec(150000.0, /*noise=*/0.0),
        .initial = {2, 2, 2},
        .session = {},
        .controller = small_controller_params(1e6, 0.0),
    }));
    if (with_cotenant) {
      static_cast<void>(harness.add_tenant({
          .name = "neighbour",
          .job = chain_spec(150000.0, /*noise=*/0.0),
          .initial = {2, 2, 2},
          .session = {},
          .controller = small_controller_params(1e6, 0.0),
      }));
    }
    harness.advance_to(60.0);
    harness.session(0).reset_window();
    harness.advance_to(120.0);
    return harness.session(0).window_metrics().throughput;
  };

  const double alone = measured_alone(false);
  const double crowded = measured_alone(true);
  EXPECT_GT(alone, 0.0);
  EXPECT_LE(crowded, alone + 1e-9);
  EXPECT_LT(crowded, alone) << "a saturating co-tenant must cost throughput";
}

// --- Determinism ------------------------------------------------------------

std::vector<core::ControlDecision> contended_run(int threads) {
  auto shared = std::make_shared<SharedCluster>(
      sim::uniform_cluster(2, 2, 4),
      ArbiterParams{.policy = ArbiterPolicy::kWeightedFair});
  MultiTenantHarness harness(shared);
  for (const char* name : {"alpha", "beta"}) {
    core::ControllerParams params = small_controller_params(400.0, 220000.0);
    params.steady.threads = threads;
    static_cast<void>(harness.add_tenant({
        .name = name,
        .job = chain_spec(220000.0),
        .initial = {1, 1, 1},
        .session = {.restart_downtime_sec = 10.0},
        .controller = params,
    }));
  }
  harness.run(240.0);
  std::vector<core::ControlDecision> all = harness.decisions(0);
  const std::vector<core::ControlDecision>& beta = harness.decisions(1);
  all.insert(all.end(), beta.begin(), beta.end());
  return all;
}

TEST(MultiTenant, DecisionsBitIdenticalAcrossThreadCounts) {
  const std::vector<core::ControlDecision> serial = contended_run(1);
  ASSERT_FALSE(serial.empty());
  for (const int threads : {2, 8}) {
    EXPECT_EQ(serial, contended_run(threads)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace autra::mt
