// Tests of the epoch-driven engine core (DESIGN.md §11): quiescent
// skipping, dirty-set bookkeeping against fault-timeline deltas, epoch
// cache accounting, and the bit-identity contract against the legacy
// tick-driven reference — at the engine level, under rack-uplink
// contention, and through ScalingSession rescales.
#include "streamsim/engine.hpp"

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injecting_backend.hpp"
#include "fault/fault_schedule.hpp"
#include "streamsim/job_runner.hpp"
#include "workloads/workloads.hpp"

namespace autra {
namespace {

sim::Topology simple_chain() {
  sim::Topology t;
  t.add_operator({.name = "src",
                  .kind = sim::OperatorKind::kSource,
                  .process_us = 2.0});
  t.add_operator({.name = "mid",
                  .kind = sim::OperatorKind::kStateless,
                  .selectivity = 1.0,
                  .process_us = 5.0});
  t.add_operator({.name = "sink",
                  .kind = sim::OperatorKind::kSink,
                  .selectivity = 0.0,
                  .process_us = 2.0});
  t.connect(0, 1);
  t.connect(1, 2);
  return t;
}

sim::EngineParams quiet(sim::EngineCore core) {
  sim::EngineParams p;
  p.measurement_noise = 0.0;
  p.core = core;
  return p;
}

std::unique_ptr<sim::Engine> paper_engine(double rate,
                                          sim::EngineParams params) {
  return std::make_unique<sim::Engine>(
      simple_chain(), sim::Cluster(sim::paper_cluster()),
      sim::Parallelism{2, 2, 2},
      std::make_unique<sim::KafkaLog>(
          std::make_shared<sim::ConstantRate>(rate)),
      params);
}

/// The bit-identity contract: every windowed counter, the Kafka ledger and
/// every derived observable must match EXACTLY (==, not NEAR).
void expect_bit_identical(const sim::Engine& a, const sim::Engine& b,
                          const std::string& ctx) {
  ASSERT_EQ(a.topology().num_operators(), b.topology().num_operators());
  for (std::size_t i = 0; i < a.topology().num_operators(); ++i) {
    const sim::OperatorCounters& ca = a.counters(i);
    const sim::OperatorCounters& cb = b.counters(i);
    ASSERT_EQ(ca.processed, cb.processed) << ctx << " op=" << i;
    ASSERT_EQ(ca.busy_time, cb.busy_time) << ctx << " op=" << i;
    ASSERT_EQ(ca.wall_time, cb.wall_time) << ctx << " op=" << i;
    ASSERT_EQ(ca.records_in, cb.records_in) << ctx << " op=" << i;
    ASSERT_EQ(ca.records_out, cb.records_out) << ctx << " op=" << i;
  }
  ASSERT_EQ(a.kafka().lag(), b.kafka().lag()) << ctx;
  ASSERT_EQ(a.kafka().total_produced(), b.kafka().total_produced()) << ctx;
  ASSERT_EQ(a.kafka().total_consumed(), b.kafka().total_consumed()) << ctx;
  ASSERT_EQ(a.throughput(), b.throughput()) << ctx;
  ASSERT_EQ(a.busy_cores(), b.busy_cores()) << ctx;
  ASSERT_EQ(a.congestion_delay_sec(), b.congestion_delay_sec()) << ctx;
  ASSERT_EQ(a.processing_latency().mean(), b.processing_latency().mean())
      << ctx;
  ASSERT_EQ(a.event_latency().total_mass(), b.event_latency().total_mass())
      << ctx;
}

TEST(EventEngine, QuiescentDagCostsZeroPerTickWork) {
  // No input, no faults: after the constructor's one priming refresh the
  // event core must never touch an operator or a cache again.
  auto e = paper_engine(0.0, quiet(sim::EngineCore::kEventDriven));
  e->run_until(30.0);
  const sim::EngineEpochStats& es = e->epoch_stats();
  EXPECT_EQ(es.ticks, 600u);
  EXPECT_EQ(es.operators_touched, 0u);
  EXPECT_EQ(es.full_refreshes, 1u);
  EXPECT_EQ(es.machine_refreshes, 0u);
  EXPECT_DOUBLE_EQ(e->throughput(), 0.0);
}

TEST(EventEngine, DirtySetRefreshesOnlyDeltaMachines) {
  // Fault-timeline deltas on a quiescent DAG take the machine-granular
  // path: one factor refresh per activation and retirement, never a
  // whole-cluster refold, and still zero operator kernels.
  auto e = paper_engine(0.0, quiet(sim::EngineCore::kEventDriven));
  e->inject_slowdown(1, 0.5, 10.0, 20.0);
  e->inject_machine_down(2, 12.0, 18.0);
  e->run_until(30.0);
  const sim::EngineEpochStats& es = e->epoch_stats();
  EXPECT_EQ(es.operators_touched, 0u);
  EXPECT_EQ(es.full_refreshes, 1u);
  EXPECT_EQ(es.machine_refreshes, 4u);  // 2 events x (activation, retirement)
}

TEST(EventEngine, TickCoreRunsEveryOperatorEveryTick) {
  // The legacy reference by construction does the full per-tick work even
  // when nothing can possibly happen.
  auto e = paper_engine(0.0, quiet(sim::EngineCore::kTickDriven));
  e->run_until(30.0);
  const sim::EngineEpochStats& es = e->epoch_stats();
  EXPECT_EQ(es.ticks, 600u);
  EXPECT_EQ(es.operators_touched, 3u * 600u);
  EXPECT_EQ(es.full_refreshes, 600u);
}

TEST(EventEngine, EventVsTickBitIdenticalOnTargetedFaults) {
  struct Scenario {
    const char* name;
    std::function<void(sim::Engine&)> inject;
  };
  const std::vector<Scenario> scenarios = {
      {"fault-free", [](sim::Engine&) {}},
      {"slow-node",
       [](sim::Engine& e) { e.inject_slowdown(0, 0.4, 20.0, 40.0); }},
      {"machine-down",
       [](sim::Engine& e) { e.inject_machine_down(1, 25.0, 45.0); }},
      {"partition",
       [](sim::Engine& e) { e.inject_network_partition({0}, 30.0, 50.0); }},
      {"ingest-stall",
       [](sim::Engine& e) { e.inject_ingest_stall(20.0, 35.0); }},
      {"pile-up",
       [](sim::Engine& e) {
         e.inject_slowdown(2, 0.3, 10.0, 30.0);
         e.inject_machine_down(0, 35.0, 55.0);
         e.inject_network_partition({2}, 60.0, 75.0);
       }},
  };
  for (const Scenario& s : scenarios) {
    auto event = paper_engine(150e3, quiet(sim::EngineCore::kEventDriven));
    auto tick = paper_engine(150e3, quiet(sim::EngineCore::kTickDriven));
    s.inject(*event);
    s.inject(*tick);
    for (double t = 10.0; t <= 90.0; t += 10.0) {
      event->run_until(t);
      tick->run_until(t);
      expect_bit_identical(*event, *tick,
                           std::string(s.name) + " t=" + std::to_string(t));
    }
  }
}

TEST(EventEngine, BitIdenticalUnderRackUplinkContention) {
  // The flow-level network runs in both cores; contended budgets must not
  // open a gap between them.
  const auto build = [](sim::EngineCore core) {
    sim::ClusterSpec spec = sim::uniform_cluster(4, 2);
    spec.rack_uplink_records_per_sec = 20000.0;
    auto e = std::make_unique<sim::Engine>(
        simple_chain(), sim::Cluster(std::move(spec)),
        sim::Parallelism{4, 4, 4},
        std::make_unique<sim::KafkaLog>(
            std::make_shared<sim::ConstantRate>(100e3)),
        quiet(core));
    e->inject_slowdown(3, 0.5, 15.0, 30.0);
    e->inject_network_partition({0, 1}, 40.0, 50.0);
    return e;
  };
  auto event = build(sim::EngineCore::kEventDriven);
  auto tick = build(sim::EngineCore::kTickDriven);
  for (double t = 10.0; t <= 60.0; t += 10.0) {
    event->run_until(t);
    tick->run_until(t);
    expect_bit_identical(*event, *tick, "uplink t=" + std::to_string(t));
  }
  // The cap actually bound: both cores pinned below the offered rate.
  EXPECT_LT(event->kafka().total_consumed(),
            0.9 * event->kafka().total_produced());
}

TEST(EventEngine, LoadEpsilonSkipsConvergedRefolds) {
  // The documented platform-scale approximation: once the busy EMAs have
  // converged to within the epsilon, steady traffic no longer forces
  // whole-cluster refolds — but the observables stay on the input rate.
  sim::EngineParams p = quiet(sim::EngineCore::kEventDriven);
  p.load_epsilon = 1e-3;
  auto e = paper_engine(50e3, p);
  e->run_until(60.0);
  const sim::EngineEpochStats& es = e->epoch_stats();
  EXPECT_GT(es.full_refreshes, 0u);
  EXPECT_LT(es.full_refreshes, es.ticks / 2);
  e->reset_counters();
  e->run_until(90.0);
  EXPECT_NEAR(e->throughput(), 50e3, 1000.0);
}

TEST(EventEngine, SessionRescaleKeepsCoresBitIdentical) {
  // Rescales rebuild the engine (and re-prime its caches) with faults
  // still pending in the schedule; the whole session history must remain
  // bitwise core-independent through them.
  const auto run_core = [](sim::EngineCore core) {
    sim::JobSpec spec = workloads::synthetic_chain(
        3, std::make_shared<sim::ConstantRate>(120e3), 10.0);
    spec.engine.measurement_noise = 0.0;
    spec.engine.core = core;
    fault::FaultSchedule sched;
    sched.slow_node(0, 0.4, 30.0, 30.0);
    sched.network_partition({1}, 100.0, 20.0);

    sim::ScalingSession session(spec, {1, 1, 1});
    fault::FaultInjectingBackend faulted(session, sched);
    faulted.run_for(40.0);
    faulted.reconfigure({2, 2, 2});
    faulted.run_for(40.0);
    faulted.reconfigure({3, 2, 2});
    faulted.run_for(60.0);

    struct Outcome {
      double now = 0.0;
      runtime::JobMetrics metrics;
      std::vector<double> values;
      std::vector<double> times;
    };
    Outcome o;
    o.now = faulted.now();
    o.metrics = faulted.window_metrics();
    const runtime::MetricStore& db = session.history();
    const auto view = db.series(db.find(runtime::metric_names::kThroughput));
    o.values.assign(view.values.begin(), view.values.end());
    o.times.assign(view.times.begin(), view.times.end());
    return o;
  };
  const auto event = run_core(sim::EngineCore::kEventDriven);
  const auto tick = run_core(sim::EngineCore::kTickDriven);

  EXPECT_EQ(event.now, tick.now);
  EXPECT_EQ(event.metrics.throughput, tick.metrics.throughput);
  EXPECT_EQ(event.metrics.kafka_lag, tick.metrics.kafka_lag);
  EXPECT_EQ(event.metrics.latency_ms, tick.metrics.latency_ms);
  ASSERT_EQ(event.values.size(), tick.values.size());
  for (std::size_t i = 0; i < event.values.size(); ++i) {
    ASSERT_EQ(event.values[i], tick.values[i]) << "i=" << i;
    ASSERT_EQ(event.times[i], tick.times[i]) << "i=" << i;
  }
}

TEST(EventEngine, RejectsNegativeLoadEpsilon) {
  sim::EngineParams p = quiet(sim::EngineCore::kEventDriven);
  p.load_epsilon = -1e-6;
  EXPECT_THROW((void)paper_engine(10e3, p), std::invalid_argument);
}

}  // namespace
}  // namespace autra
