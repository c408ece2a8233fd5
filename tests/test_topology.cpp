// Unit tests for the job-graph model.
#include "streamsim/topology.hpp"

#include <gtest/gtest.h>

namespace autra::sim {
namespace {

Topology linear_chain() {
  Topology t;
  t.add_operator({.name = "src", .kind = OperatorKind::kSource});
  t.add_operator({.name = "map", .kind = OperatorKind::kStateless});
  t.add_operator(
      {.name = "sink", .kind = OperatorKind::kSink, .selectivity = 0.0});
  t.connect(0, 1);
  t.connect(1, 2);
  return t;
}

TEST(Topology, AddReturnsDenseIndices) {
  Topology t;
  EXPECT_EQ(t.add_operator({.name = "a", .kind = OperatorKind::kSource}), 0u);
  EXPECT_EQ(t.add_operator({.name = "b"}), 1u);
  EXPECT_EQ(t.num_operators(), 2u);
  EXPECT_EQ(t.op(0).name, "a");
}

TEST(Topology, ConnectValidation) {
  Topology t = linear_chain();
  EXPECT_THROW(t.connect(0, 9), std::invalid_argument);
  EXPECT_THROW(t.connect(9, 0), std::invalid_argument);
  EXPECT_THROW(t.connect(1, 1), std::invalid_argument);
  EXPECT_THROW(t.connect(0, 1), std::invalid_argument);  // duplicate
}

TEST(Topology, UpDownStream) {
  const Topology t = linear_chain();
  EXPECT_EQ(t.downstream(0), std::vector<std::size_t>{1});
  EXPECT_EQ(t.upstream(1), std::vector<std::size_t>{0});
  EXPECT_TRUE(t.downstream(2).empty());
  EXPECT_TRUE(t.upstream(0).empty());
}

TEST(Topology, SourcesAndSinks) {
  const Topology t = linear_chain();
  EXPECT_EQ(t.sources(), std::vector<std::size_t>{0});
  // The sink is the one operator without downstream edges.
  for (std::size_t i = 0; i < t.num_operators(); ++i) {
    EXPECT_EQ(t.downstream(i).empty(), i == 2) << i;
  }
}

TEST(Topology, TopologicalOrderOfDiamond) {
  Topology t;
  t.add_operator({.name = "src", .kind = OperatorKind::kSource});
  t.add_operator({.name = "l"});
  t.add_operator({.name = "r"});
  t.add_operator({.name = "join", .selectivity = 0.0});
  t.connect(0, 1);
  t.connect(0, 2);
  t.connect(1, 3);
  t.connect(2, 3);
  const auto order = t.topological_order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0u);
  EXPECT_EQ(order.back(), 3u);
}

TEST(Topology, ValidatePassesForChain) {
  EXPECT_NO_THROW(linear_chain().validate());
}

TEST(Topology, ValidateRejectsEmpty) {
  Topology t;
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Topology, ValidateRejectsRootThatIsNotASource) {
  Topology t;
  t.add_operator({.name = "map", .kind = OperatorKind::kStateless});
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Topology, ValidateRejectsSourceWithUpstream) {
  Topology t;
  t.add_operator({.name = "a", .kind = OperatorKind::kSource});
  t.add_operator({.name = "b", .kind = OperatorKind::kSource});
  t.connect(0, 1);
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Topology, ValidateRejectsNegativeSelectivity) {
  Topology t;
  t.add_operator({.name = "a", .kind = OperatorKind::kSource});
  t.add_operator({.name = "b", .selectivity = -1.0});
  t.connect(0, 1);
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Topology, ValidateRejectsZeroCost) {
  Topology t;
  t.add_operator({.name = "a", .kind = OperatorKind::kSource});
  t.add_operator({.name = "b",
                  .deserialize_us = 0.0,
                  .process_us = 0.0,
                  .serialize_us = 0.0});
  t.connect(0, 1);
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Topology, ValidateRejectsCycleBehindSource) {
  Topology t;
  t.add_operator({.name = "src", .kind = OperatorKind::kSource});
  t.add_operator({.name = "a"});
  t.add_operator({.name = "b"});
  t.connect(0, 1);
  t.connect(1, 2);
  t.connect(2, 1);  // a <-> b cycle reachable from the source
  EXPECT_THROW((void)t.topological_order(), std::logic_error);
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Topology, TotalCost) {
  OperatorSpec op{.deserialize_us = 1.0, .process_us = 2.0,
                  .serialize_us = 0.5};
  EXPECT_DOUBLE_EQ(op.total_cost_us(), 3.5);
}

TEST(Topology, KindNames) {
  EXPECT_STREQ(to_string(OperatorKind::kSource), "source");
  EXPECT_STREQ(to_string(OperatorKind::kSink), "sink");
  EXPECT_STREQ(to_string(OperatorKind::kSlidingWindow), "sliding-window");
  EXPECT_STREQ(to_string(OperatorKind::kSessionWindow), "session-window");
  EXPECT_STREQ(to_string(OperatorKind::kKeyedAggregate), "keyed-aggregate");
  EXPECT_STREQ(to_string(OperatorKind::kStateless), "stateless");
}

}  // namespace
}  // namespace autra::sim
