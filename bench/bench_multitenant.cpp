// Multi-tenant QoS under contention (DESIGN.md §12): N identical tenants
// co-run on one 8-slot uniform_cluster behind a weighted-fair
// ClusterArbiter, each driven by its own AuTraScale controller. Reported
// per tenant: mean throughput, p95 Kafka lag, SLO-violation fraction
// (coupling slices with more than 5 s of input backlogged), and the
// arbiter/retry counters.
//
// Every tenant needs parallelism 3 to keep up, so the fair share
// floor(8/N) stops covering demand at N >= 4: scale-ups get clipped, then
// denied once the tenant holds its full share — the denials surfacing as
// runtime::RescaleFailed through the controller's retry/backoff path.
// The run is fully deterministic (seeded engines, lockstep coupling).
//
// --smoke runs tenants {1, 4} over a shorter horizon for CI; --json PATH
// writes the table as a bench::JsonReport artifact. --arrival NAME
// [--arrival-seed S] drives every tenant with a generative arrival
// process (src/arrival/, same 180k mean) instead of the constant rate;
// the committed BENCH_multitenant.json baseline is for the default
// (constant).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "arrival/arrival.hpp"
#include "bench_util.hpp"
#include "core/controller.hpp"
#include "multitenant/harness.hpp"
#include "multitenant/shared_cluster.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

constexpr double kRate = 180e3;         // needs parallelism 3 per operator
constexpr double kSloLagSec = 5.0;      // SLO: lag under 5 s of input
constexpr double kWarmupSec = 120.0;    // slices ignored by the QoS stats

core::ControllerParams controller_params() {
  core::ControllerParams p;
  p.steady.target_latency_ms = 400.0;
  p.steady.target_throughput = kRate;
  p.steady.bootstrap_m = 4;
  p.steady.max_evaluations = 20;
  p.policy_interval_sec = 30.0;
  p.policy_running_time_sec = 60.0;
  return p;
}

sim::JobSpec tenant_job(const std::string& arrival,
                        std::uint64_t arrival_seed, double horizon_sec) {
  return workloads::synthetic_chain(
      3, arrival::make_arrival(arrival, kRate, arrival_seed, horizon_sec),
      10.0);
}

struct TenantRow {
  std::string name;
  double throughput = 0.0;
  double lag_p95 = 0.0;
  double slo_violation = 0.0;  ///< Fraction of post-warm-up slices.
  int parallelism = 0;
  mt::ClusterArbiter::Counters verdicts;
  int retries = 0;
  int aborts = 0;
};

/// Nearest-rank p95 over the series values in [t0, inf).
double p95_since(const runtime::MetricStore& store, runtime::MetricId id,
                 double t0) {
  const runtime::MetricStore::SeriesView view = store.series(id);
  std::vector<double> sample;
  for (std::size_t i = 0; i < view.times.size(); ++i) {
    if (view.times[i] >= t0) sample.push_back(view.values[i]);
  }
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t rank = static_cast<std::size_t>(
      0.95 * static_cast<double>(sample.size()));
  return sample[std::min(rank, sample.size() - 1)];
}

std::vector<TenantRow> run_fleet(int tenants, double horizon_sec,
                                 const std::string& arrival,
                                 std::uint64_t arrival_seed) {
  auto shared = std::make_shared<mt::SharedCluster>(
      // 4 machines x 2 slots = 8 slots over 2 racks; 8 cores per machine
      // so capacity is slot-bound, not core-bound.
      sim::uniform_cluster(4, 2, 8, 2),
      mt::ArbiterParams{.policy = mt::ArbiterPolicy::kWeightedFair});
  // Overlapping leases (3/4 of the pool each) keep the rotation placing
  // tenants on different machines while the arbiter, not the lease, is
  // what bounds concurrent slot use. A sole tenant gets the whole pool.
  const int lease =
      tenants == 1 ? 0 : std::max(3, shared->total_slots() * 3 / 4);

  // Start at the fair share capped at 2 so the initial leases never
  // overcommit the pool (8 tenants start at 1) while the cold-start
  // backlog stays small enough to drain inside the warm-up.
  const int initial = std::min(2, shared->total_slots() / tenants);

  mt::MultiTenantHarness harness(shared);
  for (int i = 0; i < tenants; ++i) {
    static_cast<void>(harness.add_tenant({
        .name = "tenant" + std::to_string(i),
        .job = tenant_job(arrival, arrival_seed, horizon_sec),
        .initial = {initial, initial, initial},
        .session = {.restart_downtime_sec = 10.0},
        .controller = controller_params(),
        .lease_slots = lease,
    }));
  }
  harness.run(horizon_sec);

  std::vector<TenantRow> rows;
  for (std::size_t i = 0; i < harness.tenant_count(); ++i) {
    TenantRow row;
    row.name = harness.tenant_name(i);
    const runtime::MetricStore& metrics = harness.metrics();
    const runtime::MetricId lag_id = metrics.find(
        runtime::tenant_series(row.name, "kafka_lag"));
    const runtime::MetricId thr_id = metrics.find(
        runtime::tenant_series(row.name, "throughput"));
    row.throughput =
        metrics.mean(thr_id, kWarmupSec, horizon_sec).value_or(0.0);
    row.lag_p95 = p95_since(metrics, lag_id, kWarmupSec);

    const runtime::MetricStore::SeriesView lag = metrics.series(lag_id);
    int considered = 0;
    int violated = 0;
    for (std::size_t k = 0; k < lag.times.size(); ++k) {
      if (lag.times[k] < kWarmupSec) continue;
      ++considered;
      if (lag.values[k] > kSloLagSec * kRate) ++violated;
    }
    row.slo_violation =
        considered > 0 ? static_cast<double>(violated) / considered : 0.0;

    const runtime::Parallelism& p = harness.session(i).parallelism();
    row.parallelism = *std::max_element(p.begin(), p.end());
    row.verdicts = shared->arbiter().counters(harness.tenant_id(i));
    row.retries = harness.controller(i).stats().rescale_retries;
    row.aborts = harness.controller(i).stats().rescale_aborts;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::string arrival = "constant";
  std::uint64_t arrival_seed = 7;
  if (!bench::Args()
           .flag("--smoke", smoke)
           .text("--json", "PATH", json_path)
           .text("--arrival", "constant|mmpp|hawkes|diurnal|trace:<path>",
                 arrival)
           .number("--arrival-seed", "S", arrival_seed)
           .parse(argc, argv)) {
    return 2;
  }

  const double horizon = smoke ? 360.0 : 900.0;
  const std::vector<int> fleet_sizes =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  bench::header(
      "multi-tenant QoS — synthetic chains @180k on an 8-slot shared "
      "cluster, weighted-fair arbiter");
  if (arrival != "constant") {
    std::printf("arrival=%s arrival-seed=%llu (mean 180k/s)\n",
                arrival.c_str(),
                static_cast<unsigned long long>(arrival_seed));
  }
  bench::JsonReport report("bench_multitenant");

  for (const int tenants : fleet_sizes) {
    std::printf("\n--- %d tenant%s, horizon %.0fs ---\n", tenants,
                tenants == 1 ? "" : "s", horizon);
    std::printf("%-9s %9s %10s %7s %4s %5s %5s %5s %5s %5s\n", "tenant",
                "thr [/s]", "lagp95[k]", "slo%", "par", "admit", "clip",
                "deny", "retry", "abort");
    const std::vector<TenantRow> rows =
        run_fleet(tenants, horizon, arrival, arrival_seed);
    for (const TenantRow& r : rows) {
      std::printf("%-9s %9.0f %10.1f %6.1f%% %4d %5d %5d %5d %5d %5d\n",
                  r.name.c_str(), r.throughput, r.lag_p95 / 1e3,
                  100.0 * r.slo_violation, r.parallelism,
                  r.verdicts.admitted, r.verdicts.clipped, r.verdicts.denied,
                  r.retries, r.aborts);
      report.row()
          .num("tenants", tenants)
          .str("tenant", r.name)
          .num("throughput", r.throughput)
          .num("lag_p95", r.lag_p95)
          .num("slo_violation", r.slo_violation)
          .num("parallelism", r.parallelism)
          .num("admitted", r.verdicts.admitted)
          .num("clipped", r.verdicts.clipped)
          .num("denied", r.verdicts.denied)
          .num("retries", r.retries)
          .num("aborts", r.aborts);
    }
  }

  std::printf(
      "\nShape check: a sole tenant scales to parallelism 3 and meets the "
      "SLO. Up to 2 tenants the fair share still covers demand. From 4 "
      "tenants the share floor(8/N) caps everyone below what the rate "
      "needs: scale-ups are clipped to the share, follow-up requests are "
      "denied (RescaleFailed -> controller retry/backoff), and p95 lag "
      "plus SLO-violation fraction climb with N while the pool is never "
      "overcommitted.\n");

  if (!json_path.empty()) {
    if (!report.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
