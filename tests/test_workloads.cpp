// Tests for the paper's workload definitions.
#include "workloads/workloads.hpp"

#include "streamsim/chaining.hpp"

#include <gtest/gtest.h>

namespace autra::workloads {
namespace {

using sim::ConstantRate;
using sim::OperatorKind;

TEST(WordCount, TopologyShape) {
  const sim::JobSpec spec =
      word_count(std::make_shared<ConstantRate>(100.0));
  ASSERT_EQ(spec.topology.num_operators(), 4u);
  EXPECT_NO_THROW(spec.topology.validate());
  EXPECT_EQ(spec.topology.op(0).kind, OperatorKind::kSource);
  EXPECT_EQ(spec.topology.op(2).kind, OperatorKind::kKeyedAggregate);
  EXPECT_EQ(spec.topology.op(3).kind, OperatorKind::kSink);
  // FlatMap expands lines into words.
  EXPECT_GT(spec.topology.op(1).selectivity, 1.0);
  EXPECT_TRUE(spec.services.empty());
}

TEST(WordCount, CountIsTheBottleneck) {
  const sim::JobSpec spec =
      word_count(std::make_shared<ConstantRate>(100.0));
  // Effective per-word load on Count (cost * selectivity upstream) must
  // exceed every other operator's per-record cost, so Count requires the
  // highest parallelism — the structure behind Fig. 5(a)'s (3,4,12,10).
  const double count_load = spec.topology.op(2).total_cost_us() *
                            spec.topology.op(1).selectivity;
  for (std::size_t i : {0u, 1u, 3u}) {
    EXPECT_GT(count_load, spec.topology.op(i).total_cost_us()) << i;
  }
}

TEST(Yahoo, TopologyShapeAndRedis) {
  const sim::JobSpec spec =
      yahoo_streaming(std::make_shared<ConstantRate>(100.0));
  ASSERT_EQ(spec.topology.num_operators(), 5u);
  EXPECT_NO_THROW(spec.topology.validate());
  ASSERT_EQ(spec.services.size(), 1u);
  EXPECT_EQ(spec.services[0].name, kYahooRedisService);
  EXPECT_DOUBLE_EQ(spec.services[0].max_calls_per_sec,
                   kYahooRedisCallsPerSec);
  const auto& sink = spec.topology.op(4);
  ASSERT_TRUE(sink.external_service.has_value());
  EXPECT_EQ(*sink.external_service, kYahooRedisService);
}

TEST(Yahoo, SourceAndSinkDominateCosts) {
  // The paper's Yahoo parallelism vectors look like (k, 1, 1, 1, K):
  // expensive JSON source and Redis-bound window sink, cheap middle.
  const sim::JobSpec spec =
      yahoo_streaming(std::make_shared<ConstantRate>(100.0));
  const double src = spec.topology.op(0).total_cost_us();
  const double sink = spec.topology.op(4).total_cost_us();
  for (std::size_t mid : {1u, 2u, 3u}) {
    EXPECT_GT(src, spec.topology.op(mid).total_cost_us());
    EXPECT_GT(sink, spec.topology.op(mid).total_cost_us());
  }
}

TEST(NexmarkQ5, TwoOperatorSlidingWindow) {
  const sim::JobSpec spec = nexmark_q5(std::make_shared<ConstantRate>(100.0));
  ASSERT_EQ(spec.topology.num_operators(), 2u);
  EXPECT_NO_THROW(spec.topology.validate());
  EXPECT_EQ(spec.topology.op(1).kind, OperatorKind::kSlidingWindow);
  // Q5's window is much heavier than Q11's (paper: (1,18) at 30k vs
  // (1,11) at 100k).
  const sim::JobSpec q11 = nexmark_q11(std::make_shared<ConstantRate>(100.0));
  EXPECT_GT(spec.topology.op(1).total_cost_us(),
            3.0 * q11.topology.op(1).total_cost_us());
}

TEST(NexmarkQ11, TwoOperatorSessionWindow) {
  const sim::JobSpec spec =
      nexmark_q11(std::make_shared<ConstantRate>(100.0));
  ASSERT_EQ(spec.topology.num_operators(), 2u);
  EXPECT_EQ(spec.topology.op(1).kind, OperatorKind::kSessionWindow);
}

TEST(NexmarkQ1, FullyChainableStatelessPipeline) {
  const sim::JobSpec spec = nexmark_q1(std::make_shared<ConstantRate>(100.0));
  ASSERT_EQ(spec.topology.num_operators(), 3u);
  EXPECT_NO_THROW(spec.topology.validate());
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_TRUE(sim::chainable(spec.topology, i)) << i;
  }
  // Cheap: a single pipeline sustains well over 100k rec/s.
  sim::JobSpec run = nexmark_q1(std::make_shared<ConstantRate>(150000.0));
  run.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(run),
      {.warmup_sec = 20.0, .measure_sec = 30.0});
  EXPECT_NEAR(runner.measure(sim::Parallelism(3, 1)).throughput, 150000.0,
              3000.0);
}

TEST(NexmarkQ8, SplitStreamDiamond) {
  const sim::JobSpec spec = nexmark_q8(std::make_shared<ConstantRate>(100.0));
  ASSERT_EQ(spec.topology.num_operators(), 4u);
  EXPECT_NO_THROW(spec.topology.validate());
  EXPECT_EQ(spec.topology.sources().size(), 1u);
  EXPECT_EQ(spec.topology.upstream(3).size(), 2u);
  EXPECT_EQ(spec.topology.op(3).kind, OperatorKind::kSlidingWindow);
}

TEST(NexmarkQ8, JoinReceivesBothStreams) {
  sim::JobSpec spec = nexmark_q8(std::make_shared<ConstantRate>(20000.0));
  spec.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 30.0, .measure_sec = 30.0});
  const runtime::JobMetrics m = runner.measure({1, 1, 1, 3});
  // The filters pass 0.2x and 0.8x of the stream; the join sees their sum.
  EXPECT_NEAR(m.operators[3].total_input_rate, 20000.0, 1000.0);
  EXPECT_NEAR(m.throughput, 20000.0, 1000.0);
}

TEST(SyntheticChain, SizesAndValidation) {
  const sim::JobSpec spec =
      synthetic_chain(6, std::make_shared<ConstantRate>(10.0));
  ASSERT_EQ(spec.topology.num_operators(), 6u);
  EXPECT_NO_THROW(spec.topology.validate());
  EXPECT_EQ(spec.topology.op(0).kind, OperatorKind::kSource);
  EXPECT_EQ(spec.topology.op(5).kind, OperatorKind::kSink);
  EXPECT_THROW(synthetic_chain(1, std::make_shared<ConstantRate>(10.0)),
               std::invalid_argument);
}

TEST(Workloads, NullScheduleThrows) {
  EXPECT_THROW(word_count(nullptr), std::invalid_argument);
  EXPECT_THROW(yahoo_streaming(nullptr), std::invalid_argument);
  EXPECT_THROW(nexmark_q5(nullptr), std::invalid_argument);
  EXPECT_THROW(nexmark_q11(nullptr), std::invalid_argument);
  EXPECT_THROW(nexmark_q1(nullptr), std::invalid_argument);
  EXPECT_THROW(nexmark_q8(nullptr), std::invalid_argument);
  EXPECT_THROW(synthetic_chain(4, nullptr), std::invalid_argument);
}

TEST(Workloads, AllUsePaperCluster) {
  for (const sim::JobSpec& spec :
       {word_count(std::make_shared<ConstantRate>(1.0)),
        yahoo_streaming(std::make_shared<ConstantRate>(1.0)),
        nexmark_q5(std::make_shared<ConstantRate>(1.0)),
        nexmark_q11(std::make_shared<ConstantRate>(1.0))}) {
    EXPECT_EQ(spec.cluster.spec().machines.size(), 3u);
    EXPECT_DOUBLE_EQ(spec.initial_rate(), 1.0);
  }
}

// Behavioural check: the Redis cap binds Yahoo's throughput below the
// input rate at high parallelism (the Fig. 5(b) phenomenon).
TEST(Yahoo, RedisCapsThroughput) {
  sim::JobSpec spec = yahoo_streaming(std::make_shared<ConstantRate>(60000.0));
  spec.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 40.0, .measure_sec = 40.0});
  const runtime::JobMetrics m = runner.measure(sim::Parallelism(5, 40));
  EXPECT_LT(m.throughput, 45000.0);
  EXPECT_NEAR(m.throughput, kYahooRedisCallsPerSec, 4000.0);
}

}  // namespace
}  // namespace autra::workloads
