// Integration-grade tests of the fluid engine: conservation, backpressure,
// true-vs-observed rates, suspension, and the latency model.
#include "streamsim/engine.hpp"

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "streamsim/fault_timeline.hpp"
#include "streamsim/job_runner.hpp"

namespace autra::sim {
namespace {

Topology simple_chain(double src_us = 2.0, double mid_us = 5.0,
                      double sink_us = 2.0, double selectivity = 1.0) {
  Topology t;
  t.add_operator({.name = "src",
                  .kind = OperatorKind::kSource,
                  .process_us = src_us});
  t.add_operator({.name = "mid",
                  .kind = OperatorKind::kStateless,
                  .selectivity = selectivity,
                  .process_us = mid_us});
  t.add_operator({.name = "sink",
                  .kind = OperatorKind::kSink,
                  .selectivity = 0.0,
                  .process_us = sink_us});
  t.connect(0, 1);
  t.connect(1, 2);
  return t;
}

EngineParams quiet_params() {
  EngineParams p;
  p.measurement_noise = 0.0;
  return p;
}

std::unique_ptr<Engine> make_engine_with(Topology t, Parallelism p,
                                         double rate,
                                         EngineParams params = quiet_params()) {
  return std::make_unique<Engine>(
      std::move(t), Cluster(paper_cluster()), std::move(p),
      std::make_unique<KafkaLog>(std::make_shared<ConstantRate>(rate)),
      params);
}

TEST(Engine, ConstructorValidation) {
  EXPECT_THROW(Engine(simple_chain(), Cluster(paper_cluster()), {1, 1},
                      std::make_unique<KafkaLog>(
                          std::make_shared<ConstantRate>(10.0)),
                      quiet_params()),
               std::invalid_argument);  // parallelism size mismatch
  EXPECT_THROW(Engine(simple_chain(), Cluster(paper_cluster()), {1, 1, 100},
                      std::make_unique<KafkaLog>(
                          std::make_shared<ConstantRate>(10.0)),
                      quiet_params()),
               std::invalid_argument);  // infeasible parallelism
  EXPECT_THROW(Engine(simple_chain(), Cluster(paper_cluster()), {1, 1, 1},
                      nullptr, quiet_params()),
               std::invalid_argument);  // null kafka
  EngineParams bad = quiet_params();
  bad.tick_sec = 0.0;
  EXPECT_THROW(Engine(simple_chain(), Cluster(paper_cluster()), {1, 1, 1},
                      std::make_unique<KafkaLog>(
                          std::make_shared<ConstantRate>(10.0)),
                      bad),
               std::invalid_argument);
  // A carried fault timeline must be sized for this cluster (paper_cluster
  // has 3 machines).
  EXPECT_THROW(Engine(simple_chain(), Cluster(paper_cluster()), {1, 1, 1},
                      std::make_unique<KafkaLog>(
                          std::make_shared<ConstantRate>(10.0)),
                      quiet_params(), std::make_unique<FaultTimeline>(4)),
               std::invalid_argument);
}

TEST(Engine, ThroughputMatchesRateWhenProvisioned) {
  // 5 us bottleneck -> 200k records/s per instance >> 50k input.
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 50000.0);
  e->run_until(30.0);
  e->reset_counters();
  e->run_until(60.0);
  EXPECT_NEAR(e->throughput(), 50000.0, 500.0);
  EXPECT_NEAR(e->kafka().lag(), 0.0, 5000.0);
}

TEST(Engine, UnderProvisionedAccumulatesLag) {
  // Bottleneck 50 us -> ~20k records/s max, input 50k.
  auto e = make_engine_with(simple_chain(2.0, 50.0, 2.0), {1, 1, 1}, 50000.0);
  e->run_until(30.0);
  e->reset_counters();
  const double lag_before = e->kafka().lag();
  e->run_until(60.0);
  EXPECT_LT(e->throughput(), 25000.0);
  EXPECT_GT(e->kafka().lag(), lag_before);
}

TEST(Engine, RecordConservationThroughSelectivity) {
  auto e = make_engine_with(simple_chain(2.0, 5.0, 2.0, 2.0), {1, 1, 1},
                            20000.0);
  e->run_until(30.0);
  e->reset_counters();
  e->run_until(90.0);
  const runtime::OperatorRates mid = e->rates(1);
  const runtime::OperatorRates sink = e->rates(2);
  // mid doubles the stream: sink input == 2x mid input.
  EXPECT_NEAR(mid.total_output_rate, 2.0 * mid.total_input_rate,
              0.05 * mid.total_output_rate);
  EXPECT_NEAR(sink.total_input_rate, mid.total_output_rate,
              0.05 * mid.total_output_rate);
}

TEST(Engine, TrueRateMatchesCostModelWhenUncontended) {
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 50000.0);
  e->run_until(30.0);
  e->reset_counters();
  e->run_until(60.0);
  // mid: 5 us/record -> 200k records/s true rate; busy fraction 25%.
  const runtime::OperatorRates mid = e->rates(1);
  EXPECT_NEAR(mid.true_rate_per_instance, 200000.0, 8000.0);
  EXPECT_NEAR(mid.observed_rate_per_instance, 50000.0, 2000.0);
  EXPECT_LT(mid.observed_rate_per_instance, mid.true_rate_per_instance);
}

TEST(Engine, IdleOperatorReportsPotentialTrueRate) {
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 0.0);
  e->run_until(10.0);
  const runtime::OperatorRates mid = e->rates(1);
  EXPECT_NEAR(mid.true_rate_per_instance, 200000.0, 1000.0);
  EXPECT_DOUBLE_EQ(mid.observed_rate_per_instance, 0.0);
}

TEST(Engine, RatesIndexValidation) {
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 100.0);
  EXPECT_THROW(e->rates(3), std::out_of_range);
}

TEST(Engine, SuspensionStopsProcessingButKafkaGrows) {
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 10000.0);
  e->suspend_until(10.0);
  e->run_until(10.0);
  EXPECT_NEAR(e->throughput(), 0.0, 1.0);
  EXPECT_NEAR(e->kafka().lag(), 100000.0, 2000.0);
  // After resuming, the backlog is drained (capacity is 5x the rate).
  e->run_until(40.0);
  EXPECT_LT(e->kafka().lag(), 10000.0);
}

TEST(Engine, LatencyFloorGrowsWithParallelism) {
  auto e1 = make_engine_with(simple_chain(), {1, 1, 1}, 100.0);
  auto e2 = make_engine_with(simple_chain(), {1, 8, 8}, 100.0);
  EXPECT_GT(e2->latency_floor_sec(), e1->latency_floor_sec());
}

TEST(Engine, CongestionDelayGrowsWithUtilisation) {
  // Same job at low vs near-saturation input.
  auto quiet = make_engine_with(simple_chain(2.0, 10.0, 2.0), {1, 1, 1},
                                5000.0);
  auto busy = make_engine_with(simple_chain(2.0, 10.0, 2.0), {1, 1, 1},
                               90000.0);  // mid capacity ~100k
  quiet->run_until(30.0);
  busy->run_until(30.0);
  EXPECT_GT(busy->congestion_delay_sec(), quiet->congestion_delay_sec());
}

TEST(Engine, LatencyReflectsBacklogWhenSaturated) {
  auto ok = make_engine_with(simple_chain(2.0, 10.0, 2.0), {1, 1, 1}, 50000.0);
  auto bad = make_engine_with(simple_chain(2.0, 50.0, 2.0), {1, 1, 1}, 50000.0);
  for (auto* e : {ok.get(), bad.get()}) {
    e->run_until(30.0);
    e->reset_counters();
    e->run_until(60.0);
  }
  EXPECT_GT(bad->processing_latency().mean(),
            2.0 * ok->processing_latency().mean());
  // Event latency dominates processing latency once Kafka backlog exists.
  EXPECT_GT(bad->event_latency().mean(), bad->processing_latency().mean());
}

TEST(Engine, ExternalServiceCapsThroughput) {
  Topology t = simple_chain();
  t.op(2).external_service = "redis";
  t.op(2).external_calls_per_record = 1.0;
  auto e = std::make_unique<Engine>(
      std::move(t), Cluster(paper_cluster()), Parallelism{4, 4, 4},
      std::make_unique<KafkaLog>(std::make_shared<ConstantRate>(50000.0)),
      quiet_params());
  e->add_external_service(ExternalService("redis", 10000.0));
  e->run_until(30.0);
  e->reset_counters();
  e->run_until(90.0);
  EXPECT_NEAR(e->throughput(), 10000.0, 1500.0);
}

TEST(Engine, UnknownExternalServiceThrowsOnTick) {
  Topology t = simple_chain();
  t.op(1).external_service = "ghost";
  auto e = std::make_unique<Engine>(
      std::move(t), Cluster(paper_cluster()), Parallelism{1, 1, 1},
      std::make_unique<KafkaLog>(std::make_shared<ConstantRate>(100.0)),
      quiet_params());
  EXPECT_THROW(e->run_until(1.0), std::logic_error);
}

TEST(Engine, DuplicateServiceRejected) {
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 100.0);
  e->add_external_service(ExternalService("redis", 100.0));
  EXPECT_THROW(e->add_external_service(ExternalService("redis", 100.0)),
               std::invalid_argument);
  e->tick();
  EXPECT_THROW(e->add_external_service(ExternalService("other", 100.0)),
               std::logic_error);  // too late after start
}

TEST(Engine, ResetCountersClearsWindow) {
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 10000.0);
  e->run_until(10.0);
  EXPECT_GT(e->throughput(), 0.0);
  e->reset_counters();
  EXPECT_DOUBLE_EQ(e->throughput(), 0.0);
  EXPECT_TRUE(e->processing_latency().empty());
}

TEST(Engine, MemoryAccountsStateAndSlots) {
  Topology t = simple_chain();
  t.op(0).state_mb = 10.0;
  t.op(1).state_mb = 20.0;
  t.op(2).state_mb = 30.0;
  ClusterSpec cs = paper_cluster();
  cs.slot_overhead_mb = 100.0;
  auto e = std::make_unique<Engine>(
      std::move(t), Cluster(cs), Parallelism{1, 2, 1},
      std::make_unique<KafkaLog>(std::make_shared<ConstantRate>(100.0)),
      quiet_params());
  // 10*1 + 20*2 + 30*1 + 100*max(k)=2 slots -> 280 MB.
  EXPECT_DOUBLE_EQ(e->memory_mb(), 280.0);
}

TEST(Engine, MetricsWrittenAtInterval) {
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 10000.0);
  e->run_until(5.0);
  const runtime::MetricId thr =
      e->metrics().find(runtime::metric_names::kThroughput);
  ASSERT_TRUE(thr.valid());
  const auto [first, last] = e->metrics().range(thr, 0.0, 5.0);
  EXPECT_GE(last - first, 4u);
  EXPECT_TRUE(e->metrics().has_series(runtime::metric_names::true_rate("mid")));
}

TEST(Engine, ExternalMetricsMirrored) {
  // An attached sink gets every gauge the engine's own store would have
  // got, bit for bit and with the same noise draws; the store gets none.
  EngineParams params = quiet_params();
  params.measurement_noise = 0.05;
  runtime::MetricStore external;
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 10000.0, params);
  e->set_external_metrics(&external);
  e->run_until(3.0);
  EXPECT_TRUE(external.has_series(runtime::metric_names::kThroughput));
  EXPECT_TRUE(e->metrics().series_names().empty());
  // Detaching re-attaches the engine's own store.
  runtime::MetricStore detached_sink;
  auto detached = make_engine_with(simple_chain(), {1, 1, 1}, 10000.0, params);
  detached->set_external_metrics(&detached_sink);
  detached->set_external_metrics(nullptr);
  detached->run_until(3.0);
  EXPECT_TRUE(detached_sink.series_names().empty());
  EXPECT_TRUE(
      detached->metrics().has_series(runtime::metric_names::kThroughput));

  auto own = make_engine_with(simple_chain(), {1, 1, 1}, 10000.0, params);
  own->run_until(3.0);
  const std::vector<std::string> names = own->metrics().series_names();
  EXPECT_EQ(names, external.series_names());
  for (const std::string& name : names) {
    const auto a = own->metrics().series(own->metrics().find(name));
    const auto b = external.series(external.find(name));
    EXPECT_TRUE(std::ranges::equal(a.times, b.times)) << name;
    EXPECT_TRUE(std::ranges::equal(a.values, b.values)) << name;
  }
}

TEST(Engine, StartTimeOffsetsClock) {
  EngineParams p = quiet_params();
  p.start_time = 100.0;
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 1000.0, p);
  EXPECT_DOUBLE_EQ(e->now(), 100.0);
  e->run_until(101.0);
  EXPECT_NEAR(e->now(), 101.0, 0.051);
}

TEST(Engine, KeySkewReducesEffectiveCapacity) {
  // mid at 50 us needs 3 instances for 50k/s; with heavy skew the hot
  // instance caps the operator well below 3x the per-instance rate.
  Topology uniform = simple_chain(2.0, 50.0, 2.0);
  Topology skewed = simple_chain(2.0, 50.0, 2.0);
  skewed.op(1).key_skew = 2.0;  // hot instance gets 3x the uniform share
  auto e_uniform = make_engine_with(std::move(uniform), {1, 4, 1}, 70000.0);
  auto e_skewed = make_engine_with(std::move(skewed), {1, 4, 1}, 70000.0);
  for (auto* e : {e_uniform.get(), e_skewed.get()}) {
    e->run_until(30.0);
    e->reset_counters();
    e->run_until(60.0);
  }
  EXPECT_GT(e_uniform->throughput(), e_skewed->throughput() * 1.3);
}

TEST(Engine, ZeroSkewMatchesDefault) {
  Topology t = simple_chain(2.0, 20.0, 2.0);
  t.op(1).key_skew = 0.0;
  auto e = make_engine_with(std::move(t), {1, 2, 1}, 50000.0);
  e->run_until(30.0);
  e->reset_counters();
  e->run_until(60.0);
  EXPECT_NEAR(e->throughput(), 50000.0, 1000.0);
}

TEST(Engine, NegativeSkewRejectedByValidation) {
  Topology t = simple_chain();
  t.op(1).key_skew = -0.5;
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Engine, SlowdownInjectionValidation) {
  auto e = make_engine_with(simple_chain(), {1, 1, 1}, 100.0);
  EXPECT_THROW(e->inject_slowdown(9, 0.5, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(e->inject_slowdown(0, 0.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(e->inject_slowdown(0, 0.5, 5.0, 1.0), std::invalid_argument);
}

TEST(Engine, SlowdownWindowThrottlesThroughput) {
  // mid runs at ~40k/s capacity on machine 1 (slot 1); input 30k. A 4x
  // slowdown of its machine during [30, 60) drops capacity below the rate.
  Topology t = simple_chain(2.0, 25.0, 2.0);
  auto e = make_engine_with(std::move(t), {1, 1, 1}, 30000.0);
  // Every subtask 0 shares slot 0, which lives on machine 0.
  e->inject_slowdown(0, 0.25, 30.0, 60.0);

  // Before the event: full throughput.
  e->run_until(25.0);
  e->reset_counters();
  e->run_until(30.0);
  const double before = e->throughput();

  // During the event: the affected machine hosts one of the subtasks; if
  // that subtask is the bottleneck, throughput collapses to ~10k.
  e->reset_counters();
  e->run_until(60.0);
  const double during = e->throughput();

  // After: backlog drains, throughput recovers above the input rate.
  e->reset_counters();
  e->run_until(120.0);
  const double after = e->throughput();

  EXPECT_NEAR(before, 30000.0, 1500.0);
  EXPECT_LT(during, before * 0.75);
  EXPECT_GT(after, during);
}

TEST(Engine, BackgroundLoadReducesThroughputAtSaturation) {
  ClusterSpec busy = paper_cluster();
  for (MachineSpec& m : busy.machines) m.background_load = 15.0;
  const auto throughput_on = [&](const ClusterSpec& cs) {
    Engine e(simple_chain(2.0, 20.0, 2.0), Cluster(cs), {4, 4, 4},
             std::make_unique<KafkaLog>(std::make_shared<ConstantRate>(1e6)),
             quiet_params());
    e.run_until(20.0);
    e.reset_counters();
    e.run_until(40.0);
    return e.throughput();
  };
  const double quiet_cluster = throughput_on(paper_cluster());
  const double noisy_cluster = throughput_on(busy);
  EXPECT_LT(noisy_cluster, quiet_cluster * 0.85);
}

TEST(Engine, NegativeBackgroundLoadRejected) {
  ClusterSpec bad = paper_cluster();
  bad.machines[0].background_load = -1.0;
  EXPECT_THROW((void)Cluster{bad}, std::invalid_argument);
}

TEST(Engine, ExternalServiceCallLatencyRaisesFloor) {
  Topology with_latency = simple_chain();
  with_latency.op(1).external_service = "redis";
  with_latency.op(1).external_calls_per_record = 2.0;
  auto e = std::make_unique<Engine>(
      std::move(with_latency), Cluster(paper_cluster()), Parallelism{1, 1, 1},
      std::make_unique<KafkaLog>(std::make_shared<ConstantRate>(1000.0)),
      quiet_params());
  e->add_external_service(ExternalService("redis", 1e6, 0.5, 5.0));
  auto plain = make_engine_with(simple_chain(), {1, 1, 1}, 1000.0);
  // 2 calls/record x 5 ms = +10 ms on the latency floor.
  EXPECT_NEAR(e->latency_floor_sec() - plain->latency_floor_sec(), 0.010,
              1e-9);
}

TEST(Engine, HeterogeneousMachineSpeedScalesCapacity) {
  // A cluster whose single machine runs at half speed halves every rate.
  ClusterSpec slow_spec;
  slow_spec.machines.push_back(
      {.name = "slow", .cores = 8, .memory_gb = 64.0, .speed = 0.5});
  ClusterSpec fast_spec;
  fast_spec.machines.push_back(
      {.name = "fast", .cores = 8, .memory_gb = 64.0, .speed = 1.0});
  const auto throughput_on = [&](const ClusterSpec& cs) {
    Engine e(simple_chain(2.0, 20.0, 2.0), Cluster(cs), {1, 1, 1},
             std::make_unique<KafkaLog>(
                 std::make_shared<ConstantRate>(1e6)),  // saturating
             quiet_params());
    e.run_until(20.0);
    e.reset_counters();
    e.run_until(40.0);
    return e.throughput();
  };
  const double slow = throughput_on(slow_spec);
  const double fast = throughput_on(fast_spec);
  EXPECT_NEAR(slow, fast / 2.0, 0.05 * fast);
}

TEST(Engine, BusyCoresBoundedByClusterAndPositiveUnderLoad) {
  auto e = make_engine_with(simple_chain(2.0, 20.0, 2.0), {2, 2, 2}, 80000.0);
  e->run_until(20.0);
  e->reset_counters();
  e->run_until(40.0);
  EXPECT_GT(e->busy_cores(), 0.5);
  EXPECT_LT(e->busy_cores(), 60.0);
}

// --- FaultTimeline: sorted-window cursor == linear scan --------------------

// The linear scans over events() the cursor replaced: the reference
// semantics the cursor must reproduce bit for bit.
bool open_at(const FaultTimeline::Event& e, FaultTimeline::Kind kind,
             double t) {
  return e.kind == kind && t >= e.from && t < e.until;
}

bool machine_down_linear(const FaultTimeline& tl, std::size_t machine,
                         double t) {
  return std::ranges::any_of(tl.events(), [&](const auto& e) {
    return open_at(e, FaultTimeline::Kind::kMachineDown, t) &&
           e.machine == machine;
  });
}

double slowdown_factor_linear(const FaultTimeline& tl, std::size_t machine,
                              double t) {
  double factor = 1.0;
  for (const FaultTimeline::Event& e : tl.events()) {
    if (open_at(e, FaultTimeline::Kind::kSlowdown, t) && e.machine == machine) {
      factor *= e.factor;
    }
  }
  return factor;
}

bool ingest_stalled_linear(const FaultTimeline& tl, double t) {
  return std::ranges::any_of(tl.events(), [&](const auto& e) {
    return open_at(e, FaultTimeline::Kind::kIngestStall, t);
  });
}

bool service_out_linear(const FaultTimeline& tl, const std::string& service,
                        double t) {
  return std::ranges::any_of(tl.events(), [&](const auto& e) {
    return open_at(e, FaultTimeline::Kind::kServiceOutage, t) &&
           e.service == service;
  });
}

std::vector<std::size_t> active_partitions_linear(const FaultTimeline& tl,
                                                  double t) {
  std::vector<std::size_t> active;
  for (const FaultTimeline::Event& e : tl.events()) {
    if (open_at(e, FaultTimeline::Kind::kPartition, t)) {
      active.push_back(e.partition);
    }
  }
  return active;
}

TEST(FaultTimeline, CursorMatchesLinearScanOnRandomizedEvents) {
  // ~1k events across every class, then a forward walk with randomized
  // step sizes: at each stop the cursor answers must be *bit-identical*
  // to the linear reference scans they replaced (slowdown products
  // included — same factors multiplied in the same order).
  std::mt19937_64 rng(20260806);
  const std::size_t machines = 8;
  const double horizon = 1000.0;
  FaultTimeline tl(machines);
  const std::vector<std::string> services = {"redis", "s3", "dynamo"};
  std::uniform_real_distribution<double> when(0.0, horizon);
  std::uniform_real_distribution<double> span(0.1, 80.0);
  std::uniform_real_distribution<double> factor(0.05, 0.95);
  std::uniform_int_distribution<std::size_t> which(0, machines - 1);
  std::uniform_int_distribution<int> kind(0, 4);
  std::uniform_int_distribution<std::size_t> svc(0, services.size() - 1);
  std::size_t partitions = 0;
  for (int i = 0; i < 1000; ++i) {
    const double from = when(rng);
    const double until = from + span(rng);
    switch (kind(rng)) {
      case 0: tl.add_slowdown(which(rng), factor(rng), from, until); break;
      case 1: tl.add_machine_down(which(rng), from, until); break;
      case 2: tl.add_ingest_stall(from, until); break;
      case 3: tl.add_service_outage(services[svc(rng)], from, until); break;
      default:
        // Partition indices are dense in insertion order.
        EXPECT_EQ(tl.add_partition({which(rng)}, from, until), partitions++);
        break;
    }
  }
  ASSERT_EQ(tl.events().size(), 1000u);
  ASSERT_GT(partitions, 0u);

  const auto check_all = [&](double t) {
    for (std::size_t m = 0; m < machines; ++m) {
      EXPECT_EQ(tl.machine_down(m), machine_down_linear(tl, m, t)) << t;
      // Exact equality: the cursor multiplies the same factors in the
      // same order the linear scan does.
      EXPECT_EQ(tl.slowdown_factor(m), slowdown_factor_linear(tl, m, t)) << t;
    }
    EXPECT_EQ(tl.ingest_stalled(), ingest_stalled_linear(tl, t)) << t;
    for (const std::string& s : services) {
      EXPECT_EQ(tl.service_out(s), service_out_linear(tl, s, t)) << t;
    }
    EXPECT_EQ(tl.active_partitions(), active_partitions_linear(tl, t)) << t;
  };

  std::uniform_real_distribution<double> step(0.0, 2.5);
  double t = 0.0;
  while (t < 1.2 * horizon) {
    tl.advance_to(t);
    check_all(t);
    t += step(rng);
  }

  // Backward jump triggers the cold rebuild path, and events injected
  // after ticking started dirty the index — both must land back on the
  // linear answers.
  tl.advance_to(horizon / 2.0);
  check_all(horizon / 2.0);
  tl.add_slowdown(0, 0.5, horizon / 2.0 - 10.0, horizon / 2.0 + 10.0);
  tl.add_machine_down(1, horizon / 2.0 - 5.0, horizon / 2.0 + 5.0);
  tl.advance_to(horizon / 2.0 + 1.0);
  check_all(horizon / 2.0 + 1.0);
}

TEST(FaultTimeline, RejectsBadEvents) {
  FaultTimeline tl(3);
  EXPECT_THROW(tl.add_slowdown(3, 0.5, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(tl.add_slowdown(0, 0.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(tl.add_machine_down(0, 2.0, 2.0), std::invalid_argument);
  EXPECT_THROW(tl.add_ingest_stall(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(tl.add_service_outage("", 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(tl.add_partition({}, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(tl.add_partition({1, 1}, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(tl.add_partition({0, 3}, 0.0, 1.0), std::invalid_argument);
  // An island of every machine leaves no mainland to cut it from.
  EXPECT_THROW(tl.add_partition({0, 1, 2}, 0.0, 1.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(tl.add_machine_down(0, nan, 1.0), std::invalid_argument);
  EXPECT_THROW(tl.add_ingest_stall(0.0, nan), std::invalid_argument);
  EXPECT_THROW(tl.add_slowdown(0, nan, 0.0, 1.0), std::invalid_argument);
  EXPECT_TRUE(tl.events().empty());
}

TEST(FaultTimeline, NetworkPartitionBlocksCrossCutEdges) {
  // Source spans machines 0 and 1 (p=2); the rest of the chain sits on
  // machine 0. Cutting machine 1 off blocks the source's whole exchange:
  // consumption stops, lag builds, and the engine recovers once healed.
  auto e = make_engine_with(simple_chain(), {2, 1, 1}, 50000.0);
  e->inject_network_partition({1}, 60.0, 180.0);
  EXPECT_THROW(e->inject_network_partition({0, 1, 99}, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(e->inject_network_partition({}, 0.0, 1.0),
               std::invalid_argument);

  e->run_until(55.0);
  e->reset_counters();
  e->run_until(59.0);
  const double before = e->throughput();
  EXPECT_NEAR(before, 50000.0, 2500.0);

  e->reset_counters();
  e->run_until(175.0);  // inside [60, 180)
  EXPECT_LT(e->throughput(), 0.1 * before);
  EXPECT_GT(e->kafka().lag(), 1e6);

  e->reset_counters();
  e->run_until(400.0);
  EXPECT_GT(e->throughput(), before);  // healed and draining the backlog
}

TEST(FaultTimeline, CarriedPartitionsCutTheNewEnginesOwnPlacement) {
  // A timeline handed to a new engine brings its partitions' islands, and
  // the engine cuts them against its own placement exactly as if they had
  // been injected into it. p = {2, 2, 1} places nothing on machine 2, so
  // the island {2} cuts no edge while {1} cuts the source's exchange.
  const auto throughput = [](const std::vector<std::size_t>& island,
                             bool carried) {
    auto faults = std::make_unique<FaultTimeline>(3);
    if (carried) faults->add_partition(island, 10.0, 40.0);
    Engine e(simple_chain(), Cluster(paper_cluster()), {2, 2, 1},
             std::make_unique<KafkaLog>(std::make_shared<ConstantRate>(5e4)),
             quiet_params(), std::move(faults));
    if (!carried) e.inject_network_partition(island, 10.0, 40.0);
    e.run_until(10.0);
    e.reset_counters();
    e.run_until(40.0);
    return e.throughput();
  };
  EXPECT_EQ(throughput({2}, true), throughput({2}, false));
  EXPECT_EQ(throughput({1}, true), throughput({1}, false));
  EXPECT_LT(throughput({1}, true), 0.5 * throughput({2}, true));

  // The same through ScalingSession::reconfigure, which hands the timeline
  // to the engine it builds. Delivered at p = {1, 1, 1}, where neither
  // island cuts an edge, the partition is cut against p = {2, 2, 1}.
  const auto rescaled = [](const std::vector<std::size_t>& island) {
    const JobSpec spec{.topology = simple_chain(),
                       .cluster = paper_cluster(),
                       .schedule = std::make_shared<ConstantRate>(5e4),
                       .engine = quiet_params()};
    ScalingSession session(spec, {1, 1, 1});
    if (!island.empty()) session.host_network_partition(island, 60.0, 180.0);
    session.run_for(30.0);
    session.reconfigure({2, 2, 1});
    session.reset_window();
    session.run_to(170.0);
    return session.window_metrics();
  };
  const runtime::JobMetrics healthy = rescaled({});
  const runtime::JobMetrics uncut = rescaled({2});
  EXPECT_GT(rescaled({1}).kafka_lag, 1e5);
  EXPECT_EQ(uncut.throughput, healthy.throughput);
  EXPECT_EQ(uncut.kafka_lag, healthy.kafka_lag);
}

}  // namespace
}  // namespace autra::sim
