// Engine tests on non-chain topologies: fan-out (diamond) duplication,
// multiple sources, joins, and degenerate jobs.
#include "streamsim/engine.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace autra::sim {
namespace {

EngineParams quiet() {
  EngineParams p;
  p.measurement_noise = 0.0;
  return p;
}

std::unique_ptr<Engine> engine_for(Topology t, Parallelism p, double rate) {
  return std::make_unique<Engine>(
      std::move(t), Cluster(paper_cluster()), std::move(p),
      std::make_unique<KafkaLog>(std::make_shared<ConstantRate>(rate)),
      quiet());
}

// source -> {left, right} -> join(sink): the stream is duplicated to both
// branches, and the join consumes both.
Topology diamond() {
  Topology t;
  t.add_operator({.name = "src",
                  .kind = OperatorKind::kSource,
                  .process_us = 2.0});
  t.add_operator({.name = "left", .process_us = 4.0});
  t.add_operator({.name = "right", .process_us = 6.0});
  t.add_operator({.name = "join",
                  .kind = OperatorKind::kSink,
                  .selectivity = 0.0,
                  .process_us = 3.0});
  t.connect(0, 1);
  t.connect(0, 2);
  t.connect(1, 3);
  t.connect(2, 3);
  return t;
}

TEST(EngineDiamond, FanOutDuplicatesStream) {
  auto e = engine_for(diamond(), {1, 1, 1, 1}, 20000.0);
  e->run_until(30.0);
  e->reset_counters();
  e->run_until(90.0);
  const runtime::OperatorRates left = e->rates(1);
  const runtime::OperatorRates right = e->rates(2);
  const runtime::OperatorRates join = e->rates(3);
  // Both branches see the full stream.
  EXPECT_NEAR(left.total_input_rate, 20000.0, 600.0);
  EXPECT_NEAR(right.total_input_rate, 20000.0, 600.0);
  // The join receives both branches' outputs.
  EXPECT_NEAR(join.total_input_rate, 40000.0, 1200.0);
}

TEST(EngineDiamond, ThroughputLimitedBySlowestBranch) {
  // right at 50 us -> 20k records/s; the duplicated stream cannot exceed
  // the slowest branch because of backpressure through the shared source.
  Topology t = diamond();
  t.op(2).process_us = 50.0;
  auto e = engine_for(std::move(t), {1, 1, 1, 1}, 60000.0);
  e->run_until(60.0);
  e->reset_counters();
  e->run_until(120.0);
  EXPECT_LT(e->throughput(), 25000.0);
  EXPECT_GT(e->kafka().lag(), 1e5);
}

TEST(EngineDiamond, LatencyCountedOncePerJoinedRecord) {
  auto e = engine_for(diamond(), {1, 1, 1, 1}, 10000.0);
  e->run_until(30.0);
  e->reset_counters();
  e->run_until(60.0);
  // 10k/s in, 2x duplication -> 20k/s completing at the join.
  EXPECT_NEAR(e->processing_latency().total_mass(), 20000.0 * 30.0,
              20000.0 * 30.0 * 0.05);
  EXPECT_GT(e->processing_latency().mean(), 0.0);
}

// Two sources consuming the same Kafka log (partitioned consumption):
// combined they sustain a rate neither could alone.
TEST(EngineMultiSource, CombinedConsumption) {
  Topology t;
  t.add_operator({.name = "src-a",
                  .kind = OperatorKind::kSource,
                  .process_us = 50.0});  // 20k/s
  t.add_operator({.name = "src-b",
                  .kind = OperatorKind::kSource,
                  .process_us = 50.0});
  t.add_operator({.name = "sink",
                  .kind = OperatorKind::kSink,
                  .selectivity = 0.0,
                  .process_us = 2.0});
  t.connect(0, 2);
  t.connect(1, 2);
  auto e = engine_for(std::move(t), {1, 1, 1}, 30000.0);
  e->run_until(30.0);
  e->reset_counters();
  e->run_until(90.0);
  // One 20k/s source would lag behind 30k; two keep up.
  EXPECT_NEAR(e->throughput(), 30000.0, 1000.0);
  EXPECT_LT(e->kafka().lag(), 5e4);
}

TEST(EngineDegenerate, SourceOnlyJobCompletesRecords) {
  // A single source with no downstream is terminal: every consumed record
  // completes immediately.
  Topology t;
  t.add_operator({.name = "src",
                  .kind = OperatorKind::kSource,
                  .selectivity = 0.0,
                  .process_us = 2.0});
  auto e = engine_for(std::move(t), {1}, 10000.0);
  e->run_until(10.0);
  EXPECT_NEAR(e->throughput(), 10000.0, 500.0);
  EXPECT_GT(e->processing_latency().total_mass(), 0.0);
}

TEST(EngineDegenerate, ZeroRateJobStaysIdle) {
  Topology t = diamond();
  auto e = engine_for(std::move(t), {2, 2, 2, 2}, 0.0);
  e->run_until(20.0);
  EXPECT_DOUBLE_EQ(e->throughput(), 0.0);
  EXPECT_DOUBLE_EQ(e->kafka().lag(), 0.0);
  EXPECT_TRUE(e->processing_latency().empty());
  EXPECT_LT(e->busy_cores(), 0.01);
}

TEST(EngineDegenerate, ExtremeRateSaturatesEverything) {
  auto e = engine_for(diamond(), {1, 1, 1, 1}, 1e7);
  e->run_until(30.0);
  e->reset_counters();
  e->run_until(60.0);
  // Fully saturated: busy cores near the bottleneck count, finite rates.
  EXPECT_GT(e->busy_cores(), 1.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(e->rates(i).true_rate_per_instance));
  }
  EXPECT_GT(e->kafka().lag(), 1e7);
}

}  // namespace
}  // namespace autra::sim
