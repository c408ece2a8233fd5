// Ablation: fluid-engine tick size (DESIGN.md §4.1).
//
// The discrete-time fluid engine trades latency resolution for speed via
// its tick. This ablation verifies that the observables the algorithms
// consume (throughput, true rates, latency) are stable across tick sizes,
// and reports the simulation wall-time cost of finer ticks.
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

/// One run of the engine-core scaling grid: a 3-operator chain with one
/// instance per machine on a uniform rack cluster, a spread of scheduled
/// near-unity slowdowns, and the chosen per-tick core.
struct ScaleResult {
  double wall_ms = 0.0;
  double ns_per_tick = 0.0;
  double touched_per_epoch = 0.0;
  double throughput = 0.0;
};

ScaleResult run_scale(std::size_t machines, int events, double rate,
                      sim::EngineCore core) {
  sim::Topology t;
  t.add_operator({.name = "src", .kind = sim::OperatorKind::kSource,
                  .process_us = 2.0});
  t.add_operator({.name = "mid", .kind = sim::OperatorKind::kStateless,
                  .selectivity = 1.0, .process_us = 5.0});
  t.add_operator({.name = "sink", .kind = sim::OperatorKind::kSink,
                  .selectivity = 0.0, .process_us = 2.0});
  t.connect(0, 1);
  t.connect(1, 2);

  sim::EngineParams params;
  params.measurement_noise = 0.0;
  params.core = core;
  // The event core's platform-scale mode: converged busy fractions whose
  // wobble stays under the epsilon no longer force whole-cluster refolds.
  // The bit-identity property tests pin load_epsilon = 0; the bench runs
  // the documented approximation.
  params.load_epsilon = core == sim::EngineCore::kEventDriven ? 1e-3 : 0.0;

  const int k = static_cast<int>(machines);
  auto engine = std::make_unique<sim::Engine>(
      std::move(t), sim::Cluster(sim::uniform_cluster(machines, 40)),
      sim::Parallelism{k, k, k},
      std::make_unique<sim::KafkaLog>(
          std::make_shared<sim::ConstantRate>(rate)),
      params);

  // Deterministic chaos-schedule stand-in: near-unity slowdowns spread
  // over machines and time (Weyl sequence — no RNG in a bench baseline),
  // each activating and retiring a timeline entry mid-run.
  const double horizon = 60.0;
  for (int i = 0; i < events; ++i) {
    const std::size_t m =
        (static_cast<std::size_t>(i) * 2654435761ull) % machines;
    const double from =
        0.9 * horizon * static_cast<double>(i) / static_cast<double>(events);
    engine->inject_slowdown(m, 0.9, from, from + 2.0);
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine->run_until(horizon);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  const sim::EngineEpochStats& es = engine->epoch_stats();
  ScaleResult r;
  r.wall_ms = wall_ms;
  r.ns_per_tick =
      es.ticks > 0 ? wall_ms * 1e6 / static_cast<double>(es.ticks) : 0.0;
  r.touched_per_epoch =
      es.ticks > 0 ? static_cast<double>(es.operators_touched) /
                         static_cast<double>(es.ticks)
                   : 0.0;
  r.throughput = engine->throughput();
  return r;
}

void run_tick_ablation() {
  bench::header("tick-size ablation — WordCount @300k, parallelism 3");
  std::printf("%10s %12s %14s %16s %14s\n", "tick [ms]", "thr [k/s]",
              "latency [ms]", "true rate count", "sim wall [ms]");

  for (const double tick : {0.025, 0.05, 0.1, 0.2}) {
    sim::JobSpec spec = workloads::word_count(
        std::make_shared<sim::ConstantRate>(300e3));
    spec.engine.tick_sec = tick;
    spec.engine.measurement_noise = 0.0;
    sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 60.0, .measure_sec = 120.0});

    const auto t0 = std::chrono::steady_clock::now();
    const runtime::JobMetrics m = runner.measure(sim::Parallelism(4, 3));
    const auto wall = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    std::printf("%10.0f %12.1f %14.1f %16.1f %14.1f\n", tick * 1000.0,
                m.throughput / 1e3, m.latency_ms,
                m.operators[2].true_rate_per_instance / 1e3, wall);
  }

  std::printf("\nShape check: throughput and true rates are tick-invariant; "
              "latency shifts by at most ~1 tick; wall time scales inversely "
              "with the tick.\n");
}

void run_schedule_ablation() {
  bench::header("schedule-size ablation — tick cost vs fault-event count");
  std::printf("%10s %12s %14s\n", "events", "thr [k/s]", "sim wall [ms]");

  for (const int events : {0, 100, 1000}) {
    sim::JobSpec spec = workloads::word_count(
        std::make_shared<sim::ConstantRate>(300e3));
    spec.engine.measurement_noise = 0.0;
    auto engine = sim::make_engine(spec, sim::Parallelism(4, 3), 0.0, 0);
    // Near-unity slowdowns spread across the run: each tick activates and
    // retires timeline entries without materially changing the dynamics.
    // The sorted-window cursors keep the per-tick fault lookup O(active),
    // so wall time must stay flat as the scheduled count grows.
    const double span = 120.0;
    for (int i = 0; i < events; ++i) {
      const double from = span * static_cast<double>(i) / events;
      engine->inject_slowdown(static_cast<std::size_t>(i % 3), 0.999, from,
                              from + 0.5 * span / events);
    }

    const auto t0 = std::chrono::steady_clock::now();
    engine->run_until(span);
    const auto wall = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::printf("%10d %12.1f %14.1f\n", events, engine->throughput() / 1e3,
                wall);
  }

  std::printf("\nShape check: wall time is flat in the scheduled event "
              "count (cursor lookups, not linear scans) and throughput is "
              "unaffected by the near-unity slowdowns.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autra;

  bool smoke = false;
  std::string json_path;
  if (!bench::Args()
           .flag("--smoke", smoke)
           .text("--json", "PATH", json_path)
           .parse(argc, argv)) {
    return 2;
  }

  // Smoke mode for CI: only the JSON-reported engine-core grid, minus the
  // 10k-machine column and the quiescent row. Every emitted row keys into
  // the committed BENCH_ablation_tick.json (bench_compare --subset), and
  // the deterministic metrics (operators_touched_per_epoch, throughput)
  // are value-identical to the baseline; the wall-clock metrics carry
  // timing noise and are skipped by the CI gate.
  if (!smoke) {
    run_tick_ablation();
    run_schedule_ablation();
  }

  bench::header(
      "engine-core scaling — machines x chaos events (DESIGN.md §11)");
  std::printf("%9s %8s %7s %12s %12s %14s %9s\n", "machines", "events",
              "core", "wall [ms]", "ns/tick", "touched/epoch", "speedup");

  const std::vector<std::size_t> machine_grid =
      smoke ? std::vector<std::size_t>{100, 1000}
            : std::vector<std::size_t>{100, 1000, 10000};

  bench::JsonReport report("ablation_tick");
  for (const std::size_t machines : machine_grid) {
    for (const int events : {0, 1000}) {
      const ScaleResult tick =
          run_scale(machines, events, 1e5, sim::EngineCore::kTickDriven);
      const ScaleResult event =
          run_scale(machines, events, 1e5, sim::EngineCore::kEventDriven);
      const double speedup =
          event.wall_ms > 0.0 ? tick.wall_ms / event.wall_ms : 0.0;
      std::printf("%9zu %8d %7s %12.1f %12.0f %14.2f %9s\n", machines,
                  events, "tick", tick.wall_ms, tick.ns_per_tick,
                  tick.touched_per_epoch, "");
      std::printf("%9zu %8d %7s %12.1f %12.0f %14.2f %8.1fx\n", machines,
                  events, "event", event.wall_ms, event.ns_per_tick,
                  event.touched_per_epoch, speedup);
      for (const auto* r : {&tick, &event}) {
        report.row()
            .num("machines", static_cast<double>(machines))
            .num("events", events)
            .str("core", r == &tick ? "tick" : "event")
            .num("wall_ms", r->wall_ms)
            .num("ns_per_tick", r->ns_per_tick)
            .num("operators_touched_per_epoch", r->touched_per_epoch)
            .num("throughput", r->throughput)
            .num("speedup_vs_tick", r == &tick ? 1.0 : speedup);
      }
    }
  }
  // The quiescent floor: no input, no faults — the event core must touch
  // zero operators per epoch once the busy EMAs have decayed to zero.
  // (Full run only: smoke stays off the 10k-machine column.)
  if (!smoke) {
    const ScaleResult quiet =
        run_scale(10000, 0, 0.0, sim::EngineCore::kEventDriven);
    std::printf("%9d %8d %7s %12.1f %12.0f %14.2f %9s  (quiescent, rate 0)\n",
                10000, 0, "event", quiet.wall_ms, quiet.ns_per_tick,
                quiet.touched_per_epoch, "");
    report.row()
        .num("machines", 10000)
        .num("events", 0)
        .str("core", "event-quiescent")
        .num("wall_ms", quiet.wall_ms)
        .num("ns_per_tick", quiet.ns_per_tick)
        .num("operators_touched_per_epoch", quiet.touched_per_epoch)
        .num("throughput", quiet.throughput)
        .num("speedup_vs_tick", 0.0);

    std::printf(
        "\nShape check: the tick core's wall time grows with the machine "
        "count (every epoch refolds every machine); the event core's is flat "
        "(dirty-set refreshes only), giving >= 10x at 10k machines x 1k "
        "events. The quiescent row touches ~0 operators per epoch.\n");
  }

  if (!json_path.empty()) {
    if (!report.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
