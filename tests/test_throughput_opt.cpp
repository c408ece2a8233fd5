// Tests for Eq. 3 scaling and the throughput optimiser, including the two
// AuTraScale additions over DS2 (repeated-config termination and trajectory
// review).
#include "core/throughput_opt.hpp"

#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

namespace autra::core {
namespace {

using sim::ConstantRate;
using runtime::JobMetrics;
using runtime::OperatorRates;
using sim::Parallelism;

// Hand-crafted metrics for a 3-op chain with selectivity 2.0 at the middle
// operator.
JobMetrics crafted_metrics(double true_src, double true_mid,
                           double true_sink) {
  JobMetrics m;
  m.parallelism = {1, 1, 1};
  m.input_rate = 1000.0;
  OperatorRates src;
  src.true_rate_per_instance = true_src;
  src.total_input_rate = 1000.0;
  src.total_output_rate = 1000.0;
  OperatorRates mid;
  mid.true_rate_per_instance = true_mid;
  mid.total_input_rate = 1000.0;
  mid.total_output_rate = 2000.0;
  OperatorRates sink;
  sink.true_rate_per_instance = true_sink;
  sink.total_input_rate = 2000.0;
  sink.total_output_rate = 0.0;
  m.operators = {src, mid, sink};
  return m;
}

sim::Topology chain_topology() {
  sim::Topology t;
  t.add_operator({.name = "src", .kind = sim::OperatorKind::kSource});
  t.add_operator({.name = "mid", .selectivity = 2.0});
  t.add_operator({.name = "sink",
                  .kind = sim::OperatorKind::kSink,
                  .selectivity = 0.0});
  t.connect(0, 1);
  t.connect(1, 2);
  return t;
}

TEST(ScaleStep, ExactEquation3) {
  const sim::Topology t = chain_topology();
  // src true 500/s -> k=ceil(1000/500)=2; mid 400 -> ceil(1000/400)=3;
  // sink sees 2000 (selectivity 2), true 800 -> ceil(2000/800)=3.
  const Parallelism rec =
      scale_step(t, crafted_metrics(500.0, 400.0, 800.0), 1000.0, 60);
  EXPECT_EQ(rec, (Parallelism{2, 3, 3}));
}

TEST(ScaleStep, ClampsToMaxParallelism) {
  const sim::Topology t = chain_topology();
  const Parallelism rec =
      scale_step(t, crafted_metrics(10.0, 10.0, 10.0), 1000.0, 8);
  EXPECT_EQ(rec, (Parallelism{8, 8, 8}));
}

TEST(ScaleStep, UsesMeasuredSelectivity) {
  const sim::Topology t = chain_topology();
  JobMetrics m = crafted_metrics(500.0, 500.0, 500.0);
  // Measured mid selectivity = 3x (differs from spec'd 2x) -> sink target
  // input = 3000 -> k = 6.
  m.operators[1].total_output_rate = 3000.0 * m.operators[1].total_input_rate /
                                     1000.0 / 3.0 * 3.0;  // 3000
  m.operators[1].total_output_rate = 3000.0;
  const Parallelism rec = scale_step(t, m, 1000.0, 60);
  EXPECT_EQ(rec[2], 6);
}

TEST(ScaleStep, ZeroTrueRateThrows) {
  const sim::Topology t = chain_topology();
  EXPECT_THROW(scale_step(t, crafted_metrics(500.0, 0.0, 500.0), 1000.0, 60),
               std::logic_error);
}

TEST(ScaleStep, MetricsSizeMismatchThrows) {
  const sim::Topology t = chain_topology();
  JobMetrics m;
  EXPECT_THROW(scale_step(t, m, 1000.0, 60), std::invalid_argument);
}

TEST(ThroughputOptimizer, Validation) {
  const sim::Topology t = chain_topology();
  EXPECT_THROW(ThroughputOptimizer(t, {.max_iterations = 0,
                                       .max_parallelism = 4}),
               std::invalid_argument);
  EXPECT_THROW(ThroughputOptimizer(t, {.tolerance = -1.0,
                                       .max_parallelism = 4}),
               std::invalid_argument);
  const ThroughputOptimizer opt(t, {.max_parallelism = 4});
  const runtime::Evaluator never = [](const Parallelism&) -> JobMetrics {
    ADD_FAILURE() << "should not evaluate";
    return {};
  };
  EXPECT_THROW((void)opt.optimize(never, {1, 1}), std::invalid_argument);
}

TEST(ThroughputOptimizer, WordCountReachesTargetInFewIterations) {
  auto spec = autra::workloads::word_count(
      std::make_shared<ConstantRate>(350000.0));
  spec.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 40.0, .measure_sec = 40.0});
  const runtime::Evaluator eval = make_runner_evaluator(runner);
  const ThroughputOptimizer opt(
      runner.spec().topology, {.max_parallelism = runner.max_parallelism()});
  const ThroughputOptResult r = opt.optimize(eval, Parallelism(4, 1));
  EXPECT_TRUE(r.reached_target);
  EXPECT_LE(r.iterations, 4);  // The paper observes <= 4.
  EXPECT_NEAR(r.best_throughput, 350000.0, 12000.0);
  // Count (index 2) needs the most instances; source the fewest.
  EXPECT_GE(r.best[2], r.best[0]);
  EXPECT_GE(r.best[2], r.best[1]);
}

TEST(ThroughputOptimizer, YahooTerminatesViaRepeatedConfig) {
  // The Redis cap keeps throughput below the 60k input rate forever; plain
  // DS2 would loop, AuTraScale's repeated-config condition stops it.
  auto spec = autra::workloads::yahoo_streaming(
      std::make_shared<ConstantRate>(60000.0));
  spec.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 40.0, .measure_sec = 40.0});
  const runtime::Evaluator eval = make_runner_evaluator(runner);
  const ThroughputOptimizer opt(
      runner.spec().topology, {.max_parallelism = runner.max_parallelism()});
  const ThroughputOptResult r = opt.optimize(eval, Parallelism(5, 1));
  EXPECT_FALSE(r.reached_target);
  EXPECT_TRUE(r.externally_limited);
  EXPECT_NEAR(r.best_throughput, autra::workloads::kYahooRedisCallsPerSec,
              4000.0);
}

TEST(ThroughputOptimizer, ReviewPicksLeastResourcesInBand) {
  // Scripted evaluator: throughput saturates at 100 from the second config
  // on, but recommendations keep growing until they repeat.
  const sim::Topology t = chain_topology();
  int call = 0;
  const runtime::Evaluator scripted = [&](const Parallelism& p) {
    JobMetrics m = crafted_metrics(500.0, 500.0, 500.0);
    m.parallelism = p;
    m.input_rate = 1000.0;
    // First config: low throughput; later ones: all 100.
    m.throughput = call == 0 ? 40.0 : 100.0;
    // True rates shrink so Eq. 3 recommends ever larger configs, then
    // stabilise so the recommendation repeats.
    const double shrink = call >= 2 ? 25.0 : 100.0 / (call + 1);
    for (auto& op : m.operators) op.true_rate_per_instance = shrink;
    ++call;
    return m;
  };
  const ThroughputOptimizer opt(t, {.target_throughput = 1000.0,
                                    .max_parallelism = 60});
  const ThroughputOptResult r = opt.optimize(scripted, {1, 1, 1});
  EXPECT_TRUE(r.externally_limited);
  // Every config from the 2nd on had throughput 100; the review must pick
  // the smallest total parallelism among them, not the last.
  int best_total = 0;
  for (int k : r.best) best_total += k;
  for (std::size_t i = 1; i < r.trajectory.size(); ++i) {
    int total = 0;
    for (int k : r.trajectory[i].config) total += k;
    EXPECT_LE(best_total, total);
  }
}

TEST(ThroughputOptimizer, BaseConfigMinimisesEventTimeLatency) {
  // Paper Sec. III-C: throughput optimisation is also the optimal solution
  // for reducing pending time, i.e. event-time latency. The base
  // configuration's event latency must be far below any under-provisioned
  // configuration's (whose records wait in Kafka).
  auto spec = autra::workloads::word_count(
      std::make_shared<ConstantRate>(350000.0));
  spec.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 40.0, .measure_sec = 40.0});
  const runtime::Evaluator eval = make_runner_evaluator(runner);
  const ThroughputOptimizer opt(
      runner.spec().topology, {.max_parallelism = runner.max_parallelism()});
  const ThroughputOptResult r = opt.optimize(eval, Parallelism(4, 1));

  const JobMetrics at_base = runner.measure(r.best);
  const JobMetrics starved = runner.measure(Parallelism(4, 1));
  EXPECT_LT(at_base.event_latency_ms * 20.0, starved.event_latency_ms);
  EXPECT_LT(at_base.event_latency_ms, 200.0);
}

TEST(ThroughputOptimizer, OverProvisionedStartScalesDownToMinimal) {
  // k' is the MINIMAL configuration that sustains the rate: from an
  // over-provisioned start Eq. 3 must shrink the configuration, not stop
  // just because the target is already met (a scale-down scenario).
  auto spec = autra::workloads::word_count(
      std::make_shared<ConstantRate>(100000.0));
  spec.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 30.0, .measure_sec = 30.0});
  const runtime::Evaluator eval = make_runner_evaluator(runner);
  const ThroughputOptimizer opt(
      runner.spec().topology, {.max_parallelism = runner.max_parallelism()});
  const ThroughputOptResult r = opt.optimize(eval, Parallelism(4, 8));
  EXPECT_TRUE(r.reached_target);
  int total = 0;
  for (int k : r.best) total += k;
  EXPECT_LE(total, 8);  // 100k needs ~1 instance per op (count may need 2)
  EXPECT_NEAR(r.best_throughput, 100000.0, 4000.0);
}

}  // namespace
}  // namespace autra::core
