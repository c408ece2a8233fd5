// Tests for the DS2, DRS, and threshold baselines.
#include "baselines/drs.hpp"
#include "baselines/ds2.hpp"
#include "baselines/threshold.hpp"

#include "workloads/workloads.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace autra::baselines {
namespace {

using runtime::Evaluator;
using sim::ConstantRate;
using runtime::JobMetrics;
using sim::Parallelism;

TEST(MmkSojourn, MM1MatchesClosedForm) {
  // M/M/1: W = 1 / (mu - lambda).
  EXPECT_NEAR(mmk_sojourn_time(50.0, 100.0, 1), 1.0 / 50.0, 1e-9);
  EXPECT_NEAR(mmk_sojourn_time(90.0, 100.0, 1), 1.0 / 10.0, 1e-9);
}

TEST(MmkSojourn, IdleQueueIsServiceTime) {
  EXPECT_DOUBLE_EQ(mmk_sojourn_time(0.0, 100.0, 4), 0.01);
}

TEST(MmkSojourn, UnstableIsInfinite) {
  EXPECT_TRUE(std::isinf(mmk_sojourn_time(100.0, 100.0, 1)));
  EXPECT_TRUE(std::isinf(mmk_sojourn_time(500.0, 100.0, 3)));
}

TEST(MmkSojourn, MoreServersReduceWait) {
  const double w2 = mmk_sojourn_time(150.0, 100.0, 2);
  const double w4 = mmk_sojourn_time(150.0, 100.0, 4);
  EXPECT_LT(w4, w2);
  EXPECT_TRUE(std::isfinite(w2));
}

TEST(MmkSojourn, Validation) {
  EXPECT_THROW(mmk_sojourn_time(1.0, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(mmk_sojourn_time(1.0, 1.0, 0), std::invalid_argument);
}

sim::Topology chain() {
  sim::Topology t;
  t.add_operator({.name = "src", .kind = sim::OperatorKind::kSource});
  t.add_operator({.name = "mid"});
  t.add_operator({.name = "sink",
                  .kind = sim::OperatorKind::kSink,
                  .selectivity = 0.0});
  t.connect(0, 1);
  t.connect(1, 2);
  return t;
}

JobMetrics metrics_with_rates(const Parallelism& p, double true_rate,
                              double observed_rate, double throughput) {
  JobMetrics m;
  m.parallelism = p;
  m.input_rate = 1000.0;
  m.throughput = throughput;
  for (int i = 0; i < 3; ++i) {
    runtime::OperatorRates r;
    r.true_rate_per_instance = true_rate;
    r.observed_rate_per_instance = observed_rate;
    r.total_input_rate = 1000.0;
    r.total_output_rate = i == 2 ? 0.0 : 1000.0;
    r.parallelism = p[static_cast<std::size_t>(i)];
    m.operators.push_back(r);
  }
  return m;
}

TEST(Ds2, Validation) {
  const sim::Topology t = chain();
  EXPECT_THROW(Ds2Policy(t, {.max_iterations = 0, .max_parallelism = 4}),
               std::invalid_argument);
  const Ds2Policy policy(t, {.max_parallelism = 4});
  const Evaluator never = [](const Parallelism&) -> JobMetrics { return {}; };
  EXPECT_THROW((void)policy.run(never, {1, 1}), std::invalid_argument);
}

TEST(Ds2, StopsWhenTargetReached) {
  const sim::Topology t = chain();
  int calls = 0;
  const Evaluator eval = [&](const Parallelism& p) {
    ++calls;
    return metrics_with_rates(p, 600.0, 500.0, calls == 1 ? 400.0 : 1000.0);
  };
  const Ds2Policy policy(t, {.target_throughput = 1000.0,
                             .max_parallelism = 10});
  const Ds2Result r = policy.run(eval, {1, 1, 1});
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.iterations, 2);
  EXPECT_EQ(r.final_config, (Parallelism{2, 2, 2}));
}

TEST(Ds2, HitsIterationBoundOnCappedJob) {
  // Throughput never reaches the target and the measured true rates keep
  // drifting, so recommendations keep changing: DS2's infinite loop,
  // stopped only by the iteration bound.
  const sim::Topology t = chain();
  int calls = 0;
  const Evaluator eval = [&](const Parallelism& p) {
    ++calls;
    // Drifting true rate -> ceil() changes every time.
    return metrics_with_rates(p, 600.0 / calls, 500.0, 400.0);
  };
  const Ds2Policy policy(t, {.target_throughput = 1000.0,
                             .max_iterations = 6,
                             .max_parallelism = 60});
  const Ds2Result r = policy.run(eval, {1, 1, 1});
  EXPECT_FALSE(r.reached_target);
  EXPECT_TRUE(r.hit_iteration_bound);
  EXPECT_EQ(r.iterations, 6);
}

TEST(Ds2, WordCountConverges) {
  auto spec = autra::workloads::word_count(
      std::make_shared<ConstantRate>(350000.0));
  spec.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 40.0, .measure_sec = 40.0});
  const Evaluator eval = sim::make_runner_evaluator(runner);
  const Ds2Policy policy(runner.spec().topology,
                         {.target_throughput = 350000.0,
                          .max_parallelism = runner.max_parallelism()});
  const Ds2Result r = policy.run(eval, Parallelism(4, 1));
  EXPECT_TRUE(r.reached_target);
  EXPECT_LE(r.iterations, 4);
}

TEST(GgkSojourn, DegeneratesToErlangAtUnitScv) {
  EXPECT_NEAR(ggk_sojourn_time(90.0, 100.0, 1, 1.0, 1.0),
              mmk_sojourn_time(90.0, 100.0, 1), 1e-12);
  EXPECT_NEAR(ggk_sojourn_time(150.0, 100.0, 3, 1.0, 1.0),
              mmk_sojourn_time(150.0, 100.0, 3), 1e-12);
}

TEST(GgkSojourn, VariabilityScalesWaitingOnly) {
  // Doubling the summed scv doubles the waiting component, never the
  // service time.
  const double base = mmk_sojourn_time(90.0, 100.0, 1);
  const double service = 1.0 / 100.0;
  const double bursty = ggk_sojourn_time(90.0, 100.0, 1, 2.0, 2.0);
  EXPECT_NEAR(bursty - service, 2.0 * (base - service), 1e-12);
  // Deterministic arrivals/service (scv 0) eliminate waiting entirely.
  EXPECT_NEAR(ggk_sojourn_time(90.0, 100.0, 1, 0.0, 0.0), service, 1e-12);
}

TEST(GgkSojourn, Validation) {
  EXPECT_TRUE(std::isinf(ggk_sojourn_time(200.0, 100.0, 1, 1.0, 1.0)));
  EXPECT_THROW(ggk_sojourn_time(1.0, 2.0, 1, -1.0, 1.0),
               std::invalid_argument);
}

TEST(Drs, KingmanModelAllocatesMoreUnderBurstiness) {
  // With bursty arrivals (scv 4) the Kingman variant predicts longer
  // waits, so it must allocate at least as many instances as Erlang-C for
  // the same target.
  const sim::Topology t = chain();
  const JobMetrics m = metrics_with_rates({1, 1, 1}, 600.0, 500.0, 1000.0);
  const DrsPolicy erlang(t, {.target_latency_ms = 8.0,
                             .target_throughput = 1000.0,
                             .max_parallelism = 30});
  const DrsPolicy kingman(t, {.target_latency_ms = 8.0,
                              .target_throughput = 1000.0,
                              .queue_model = QueueModel::kKingman,
                              .arrival_scv = 4.0,
                              .service_scv = 1.0,
                              .max_parallelism = 30});
  int total_erlang = 0, total_kingman = 0;
  for (int k : erlang.allocate(m)) total_erlang += k;
  for (int k : kingman.allocate(m)) total_kingman += k;
  EXPECT_GE(total_kingman, total_erlang);
}

TEST(Drs, Validation) {
  const sim::Topology t = chain();
  EXPECT_THROW(DrsPolicy(t, {.target_latency_ms = 0.0, .max_parallelism = 4}),
               std::invalid_argument);
  EXPECT_THROW(DrsPolicy(t, {.target_latency_ms = 10.0,
                             .max_parallelism = 0}),
               std::invalid_argument);
}

TEST(Drs, AllocateMeetsModelTarget) {
  const sim::Topology t = chain();
  const DrsPolicy policy(t, {.target_latency_ms = 50.0,
                             .target_throughput = 1000.0,
                             .max_parallelism = 20});
  double predicted = 0.0;
  const Parallelism config =
      policy.allocate(metrics_with_rates({1, 1, 1}, 600.0, 500.0, 400.0),
                      &predicted);
  // Stability requires at least ceil(1000/600)=2 everywhere.
  for (int k : config) EXPECT_GE(k, 2);
  EXPECT_LE(predicted, 50.0);
}

TEST(Drs, ObservedRateOverProvisionsVsTrueRate) {
  const sim::Topology t = chain();
  // Observed rates are much lower than true rates (idle time counted), so
  // the observed-rate variant must allocate at least as many instances.
  const JobMetrics m = metrics_with_rates({1, 1, 1}, 800.0, 350.0, 1000.0);
  const DrsPolicy true_policy(t, {.target_latency_ms = 50.0,
                                  .target_throughput = 1000.0,
                                  .rate_metric = RateMetric::kTrueRate,
                                  .max_parallelism = 30});
  const DrsPolicy obs_policy(t, {.target_latency_ms = 50.0,
                                 .target_throughput = 1000.0,
                                 .rate_metric = RateMetric::kObservedRate,
                                 .max_parallelism = 30});
  const Parallelism with_true = true_policy.allocate(m);
  const Parallelism with_obs = obs_policy.allocate(m);
  int total_true = 0, total_obs = 0;
  for (int k : with_true) total_true += k;
  for (int k : with_obs) total_obs += k;
  EXPECT_GT(total_obs, total_true);
}

TEST(Drs, TightTargetGreedyAddsInstances) {
  const sim::Topology t = chain();
  const DrsPolicy loose(t, {.target_latency_ms = 1000.0,
                            .target_throughput = 1000.0,
                            .max_parallelism = 30});
  const DrsPolicy tight(t, {.target_latency_ms = 4.0,
                            .target_throughput = 1000.0,
                            .max_parallelism = 30});
  const JobMetrics m = metrics_with_rates({1, 1, 1}, 600.0, 500.0, 1000.0);
  int total_loose = 0, total_tight = 0;
  for (int k : loose.allocate(m)) total_loose += k;
  for (int k : tight.allocate(m)) total_tight += k;
  EXPECT_GE(total_tight, total_loose);
}

TEST(Drs, RunConvergesOnStationaryMetrics) {
  const sim::Topology t = chain();
  const Evaluator eval = [&](const Parallelism& p) {
    return metrics_with_rates(p, 600.0, 500.0, 1000.0);
  };
  const DrsPolicy policy(t, {.target_latency_ms = 50.0,
                             .target_throughput = 1000.0,
                             .max_parallelism = 20});
  const DrsResult r = policy.run(eval, {1, 1, 1});
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.prediction_feasible);
  EXPECT_LE(r.iterations, 3);
}

TEST(Drs, ModelErrorVisibleOnRealJob) {
  // On the simulated WordCount the queueing model's latency prediction is
  // far below the measured latency (no interference/congestion awareness) —
  // the paper's core criticism of DRS.
  auto spec = autra::workloads::word_count(
      std::make_shared<ConstantRate>(350000.0));
  spec.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 40.0, .measure_sec = 40.0});
  const Evaluator eval = sim::make_runner_evaluator(runner);
  const DrsPolicy policy(runner.spec().topology,
                         {.target_latency_ms = 30.0,
                          .target_throughput = 350000.0,
                          .max_parallelism = runner.max_parallelism()});
  const DrsResult r = policy.run(eval, Parallelism(4, 1));
  EXPECT_LT(r.predicted_latency_ms, r.final_metrics.latency_ms);
}

TEST(Threshold, Validation) {
  EXPECT_THROW(ThresholdPolicy({.scale_up_utilization = 0.2,
                                .scale_down_utilization = 0.5,
                                .max_parallelism = 4}),
               std::invalid_argument);
  EXPECT_THROW(ThresholdPolicy({.max_parallelism = 0}),
               std::invalid_argument);
}

TEST(Threshold, StepDirections) {
  const ThresholdPolicy policy({.max_parallelism = 10});
  // Saturated (util ~1) -> scale up.
  const Parallelism up =
      policy.step(metrics_with_rates({2, 2, 2}, 500.0, 480.0, 1000.0));
  EXPECT_EQ(up, (Parallelism{3, 3, 3}));
  // Nearly idle (util 0.1) -> scale down, floored at 1.
  const Parallelism down =
      policy.step(metrics_with_rates({2, 1, 2}, 500.0, 50.0, 1000.0));
  EXPECT_EQ(down, (Parallelism{1, 1, 1}));
  // Moderate utilisation (0.6) -> unchanged.
  const Parallelism hold =
      policy.step(metrics_with_rates({2, 2, 2}, 500.0, 300.0, 1000.0));
  EXPECT_EQ(hold, (Parallelism{2, 2, 2}));
}

TEST(Threshold, IterationBoundStopsOscillation) {
  // Utilisation flips between saturated and idle on every config change:
  // the policy oscillates and must be stopped by its iteration bound.
  int calls = 0;
  const Evaluator eval = [&](const Parallelism& p) {
    ++calls;
    const double obs = calls % 2 == 1 ? 480.0 : 50.0;
    return metrics_with_rates(p, 500.0, obs, 1000.0);
  };
  const ThresholdPolicy policy(
      {.max_parallelism = 10, .max_iterations = 6});
  const ThresholdResult r = policy.run(eval, {2, 2, 2});
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 6);
}

TEST(Threshold, RunStopsWhenStable) {
  int calls = 0;
  const Evaluator eval = [&](const Parallelism& p) {
    ++calls;
    // Utilisation falls into the dead band from the second call on.
    const double obs = calls == 1 ? 480.0 : 300.0;
    return metrics_with_rates(p, 500.0, obs, 1000.0);
  };
  const ThresholdPolicy policy({.max_parallelism = 10});
  const ThresholdResult r = policy.run(eval, {1, 1, 1});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.final_config, (Parallelism{2, 2, 2}));
}

}  // namespace
}  // namespace autra::baselines
