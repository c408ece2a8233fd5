// Tests for operator chaining.
#include "streamsim/chaining.hpp"

#include "streamsim/engine.hpp"
#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

namespace autra::sim {
namespace {

// source -> map1 -> map2 -> keyed -> map3 -> sink
Topology mixed_chain() {
  Topology t;
  t.add_operator({.name = "src",
                  .kind = OperatorKind::kSource,
                  .process_us = 1.0});
  t.add_operator({.name = "map1", .selectivity = 2.0, .process_us = 2.0});
  t.add_operator({.name = "map2", .process_us = 3.0});
  t.add_operator({.name = "keyed",
                  .kind = OperatorKind::kKeyedAggregate,
                  .process_us = 4.0});
  t.add_operator({.name = "map3", .process_us = 5.0});
  t.add_operator({.name = "sink",
                  .kind = OperatorKind::kSink,
                  .selectivity = 0.0,
                  .process_us = 6.0});
  for (std::size_t i = 0; i + 1 < 6; ++i) t.connect(i, i + 1);
  return t;
}

TEST(Chaining, ChainableRules) {
  const Topology t = mixed_chain();
  EXPECT_FALSE(chainable(t, 0));  // sources head chains
  EXPECT_TRUE(chainable(t, 1));
  EXPECT_TRUE(chainable(t, 2));
  EXPECT_FALSE(chainable(t, 3));  // keyed needs a shuffle
  EXPECT_TRUE(chainable(t, 4));
  EXPECT_TRUE(chainable(t, 5));   // sink can end a chain
  EXPECT_THROW((void)chainable(t, 9), std::out_of_range);
}

TEST(Chaining, ExternalServiceBreaksChain) {
  Topology t = mixed_chain();
  t.op(2).external_service = "redis";
  EXPECT_FALSE(chainable(t, 2));
  // And nothing may fuse onto it from below either.
  EXPECT_FALSE(chainable(t, 3));  // (already unfusable: keyed)
}

TEST(Chaining, SkewBreaksChain) {
  Topology t = mixed_chain();
  t.op(1).key_skew = 1.0;
  EXPECT_FALSE(chainable(t, 1));
  EXPECT_FALSE(chainable(t, 2));  // upstream has skew
}

TEST(Chaining, GroupsAndMapping) {
  const ChainingResult r = chain_operators(mixed_chain());
  // Groups: {src,map1,map2} and {keyed,map3,sink} — the keyed operator
  // heads a chain (shuffle in front of it) but forwards locally after.
  ASSERT_EQ(r.topology.num_operators(), 2u);
  EXPECT_EQ(r.group_of, (std::vector<std::size_t>{0, 0, 0, 1, 1, 1}));
  EXPECT_EQ(r.topology.op(0).name, "src+map1+map2");
  EXPECT_EQ(r.topology.op(1).name, "keyed+map3+sink");
  EXPECT_EQ(r.topology.op(0).kind, OperatorKind::kSource);
  EXPECT_EQ(r.topology.op(1).kind, OperatorKind::kSink);
}

TEST(Chaining, CostsWeightedBySelectivity) {
  const ChainingResult r = chain_operators(mixed_chain());
  // Group 0: src 1 us + map1 2 us (selectivity 1 upstream of it) +
  // map2 3 us weighted by map1's 2x expansion -> 1 + 2 + 6 = 9 us.
  EXPECT_DOUBLE_EQ(r.topology.op(0).process_us, 9.0);
  EXPECT_DOUBLE_EQ(r.topology.op(0).selectivity, 2.0);
  // Group 1: keyed 4 + map3 5 + sink 6 (selectivity 1 within the group).
  EXPECT_DOUBLE_EQ(r.topology.op(1).process_us, 15.0);
  EXPECT_DOUBLE_EQ(r.topology.op(1).selectivity, 0.0);
}

TEST(Chaining, DiamondCollapsesWithoutDuplicateEdges) {
  Topology t;
  t.add_operator({.name = "src",
                  .kind = OperatorKind::kSource,
                  .process_us = 1.0});
  t.add_operator({.name = "l", .process_us = 1.0});
  t.add_operator({.name = "r", .process_us = 1.0});
  t.add_operator({.name = "join",
                  .kind = OperatorKind::kSink,
                  .selectivity = 0.0,
                  .process_us = 1.0});
  t.connect(0, 1);
  t.connect(0, 2);
  t.connect(1, 3);
  t.connect(2, 3);
  // Branch heads have a fan-out upstream, and the join has two upstreams:
  // nothing fuses, the diamond survives intact.
  const ChainingResult r = chain_operators(t);
  EXPECT_EQ(r.topology.num_operators(), 4u);
}

TEST(Chaining, ChainedJobSameThroughputLowerLatency) {
  // WordCount fused: {source+flatmap}, {count}, {sink}. Same record work,
  // one hop fewer -> equal throughput, strictly lower latency floor.
  const sim::JobSpec plain =
      autra::workloads::word_count(std::make_shared<ConstantRate>(250000.0));
  const ChainingResult chained = chain_operators(plain.topology);
  ASSERT_LT(chained.topology.num_operators(),
            plain.topology.num_operators());

  EngineParams params;
  params.measurement_noise = 0.0;
  auto run = [&](const Topology& topo, const Parallelism& p) {
    Engine e(topo, Cluster(paper_cluster()), p,
             std::make_unique<KafkaLog>(
                 std::make_shared<ConstantRate>(250000.0)),
             params);
    e.run_until(30.0);
    e.reset_counters();
    e.run_until(90.0);
    return std::pair<double, double>{e.throughput(),
                                     e.processing_latency().mean()};
  };
  const auto [plain_thr, plain_lat] =
      run(plain.topology, Parallelism{1, 1, 3, 2});
  // The fused {count+sink} group carries both operators' cost, so it needs
  // one more instance than Count alone did.
  const auto [chained_thr, chained_lat] =
      run(chained.topology, Parallelism(chained.topology.num_operators(), 4));
  EXPECT_NEAR(plain_thr, chained_thr, 0.02 * plain_thr);
  EXPECT_LT(chained_lat, plain_lat);
}

}  // namespace
}  // namespace autra::sim
