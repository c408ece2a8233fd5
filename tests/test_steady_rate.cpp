// Tests for Algorithm 1 (BO at a steady rate).
#include "core/steady_rate.hpp"

#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

namespace autra::core {
namespace {

using sim::ConstantRate;
using runtime::JobMetrics;
using sim::Parallelism;

SamplePoint real_sample(Parallelism config, double score, double latency_ms,
                        double throughput, double input_rate = 1000.0) {
  SamplePoint s;
  s.config = std::move(config);
  s.score = score;
  JobMetrics m;
  m.parallelism = s.config;
  m.latency_ms = latency_ms;
  m.throughput = throughput;
  m.input_rate = input_rate;
  s.metrics = std::move(m);
  return s;
}

SteadyRateParams base_params() {
  SteadyRateParams p;
  p.target_latency_ms = 100.0;
  p.target_throughput = 1000.0;
  p.max_parallelism = 10;
  p.seed = 5;
  return p;
}

TEST(MeetsRequirements, AllThreeConditions) {
  const SteadyRateParams p = base_params();
  EXPECT_TRUE(meets_requirements(
      real_sample({1, 1}, 0.95, 50.0, 1000.0), p));
  // Latency violated.
  EXPECT_FALSE(meets_requirements(
      real_sample({1, 1}, 0.95, 150.0, 1000.0), p));
  // Throughput violated.
  EXPECT_FALSE(meets_requirements(
      real_sample({1, 1}, 0.95, 50.0, 500.0), p));
  // Score below threshold.
  EXPECT_FALSE(meets_requirements(
      real_sample({1, 1}, 0.5, 50.0, 1000.0), p));
  // Estimated samples never satisfy termination.
  SamplePoint est;
  est.config = {1, 1};
  est.score = 1.0;
  EXPECT_FALSE(meets_requirements(est, p));
}

TEST(MeetsRequirements, ThroughputDefaultsToInputRate) {
  SteadyRateParams p = base_params();
  p.target_throughput = 0.0;
  EXPECT_TRUE(meets_requirements(
      real_sample({1, 1}, 0.95, 50.0, 2000.0, 2000.0), p));
  EXPECT_FALSE(meets_requirements(
      real_sample({1, 1}, 0.95, 50.0, 1000.0, 2000.0), p));
}

TEST(PickBestFallback, PrefersFeasibilityTiersThenScore) {
  const SteadyRateParams p = base_params();
  std::vector<SamplePoint> samples;
  samples.push_back(real_sample({1, 1}, 0.99, 500.0, 100.0));  // neither
  samples.push_back(real_sample({2, 2}, 0.40, 500.0, 1000.0)); // thr only
  samples.push_back(real_sample({3, 3}, 0.30, 50.0, 100.0));   // lat only
  samples.push_back(real_sample({4, 4}, 0.20, 50.0, 1000.0));  // both
  samples.push_back(real_sample({5, 5}, 0.10, 50.0, 1000.0));  // both, worse
  const SamplePoint* best = pick_best_fallback(samples, p);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->config, (Parallelism{4, 4}));

  // Estimated samples are ignored entirely.
  std::vector<SamplePoint> estimated(1);
  estimated[0].config = {9, 9};
  estimated[0].score = 1.0;
  EXPECT_EQ(pick_best_fallback(estimated, p), nullptr);
  EXPECT_EQ(pick_best_fallback({}, p), nullptr);
}

TEST(RunSteadyRate, Validation) {
  const runtime::Evaluator never = [](const Parallelism&) -> JobMetrics {
    return {};
  };
  EXPECT_THROW((void)run_steady_rate(never, {}, base_params()),
               std::invalid_argument);
  SteadyRateParams p = base_params();
  p.target_latency_ms = 0.0;
  EXPECT_THROW((void)run_steady_rate(never, {1, 1}, p),
               std::invalid_argument);
  p = base_params();
  p.max_parallelism = 2;
  EXPECT_THROW((void)run_steady_rate(never, {3, 3}, p),
               std::invalid_argument);
  p = base_params();
  p.max_evaluations = 0;
  EXPECT_THROW((void)run_steady_rate(never, {1, 1}, p),
               std::invalid_argument);
  EXPECT_THROW(recommend_next({}, {1, 1}, base_params()),
               std::invalid_argument);
}

TEST(RunSteadyRate, TerminatesOnBootstrapWhenBaseMeetsQos) {
  // Scripted: every config meets QoS; base scores 1.0 -> terminate with
  // zero BO iterations.
  const runtime::Evaluator eval = [](const Parallelism& p) {
    JobMetrics m;
    m.parallelism = p;
    m.latency_ms = 20.0;
    m.throughput = 1000.0;
    m.input_rate = 1000.0;
    return m;
  };
  const SteadyRateResult r = run_steady_rate(eval, {2, 2}, base_params());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.bo_iterations, 0);
  EXPECT_GT(r.bootstrap_evaluations, 0);
  EXPECT_EQ(r.best, (Parallelism{2, 2}));
  EXPECT_DOUBLE_EQ(r.best_score, 1.0);
}

TEST(RunSteadyRate, FindsLatencyCompliantConfigAboveBase) {
  // Scripted physics: latency = 240 / total_parallelism ms; throughput
  // always fine. Base (1,1) violates 100 ms; (1,2)/(2,1) give 80 ms with
  // score 0.875 < 0.9; need total >= 3 but score >= 0.9 requires staying
  // close to base: (1,2): score = 0.5 + 0.5*(1 + 0.5)/2 = 0.875. Hmm —
  // with threshold 0.85 the optimum (1,2) or (2,1) qualifies.
  const runtime::Evaluator eval = [](const Parallelism& p) {
    JobMetrics m;
    m.parallelism = p;
    const int total = p[0] + p[1];
    m.latency_ms = 240.0 / total;
    m.throughput = 1000.0;
    m.input_rate = 1000.0;
    return m;
  };
  SteadyRateParams params = base_params();
  params.score_threshold = 0.85;
  const SteadyRateResult r = run_steady_rate(eval, {1, 1}, params);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.best[0] + r.best[1], 3);
  EXPECT_LE(r.best_metrics.latency_ms, 100.0);
}

TEST(RunSteadyRate, SeedSamplesCountTowardModel) {
  int evals = 0;
  const runtime::Evaluator eval = [&](const Parallelism& p) {
    ++evals;
    JobMetrics m;
    m.parallelism = p;
    m.latency_ms = 20.0;
    m.throughput = 1000.0;
    m.input_rate = 1000.0;
    return m;
  };
  // Seed with a sample that already meets everything: no evaluation needed.
  std::vector<SamplePoint> seeds{real_sample({1, 1}, 0.95, 20.0, 1000.0)};
  const SteadyRateResult r = run_steady_rate(eval, {1, 1}, base_params(),
                                             seeds, /*skip_bootstrap=*/true);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(evals, 0);
  EXPECT_EQ(r.best, (Parallelism{1, 1}));
}

TEST(RunSteadyRate, BudgetExhaustionReturnsBestLatencyCompliant) {
  // Nothing ever reaches the score threshold; the best latency-compliant
  // sample must be returned.
  const runtime::Evaluator eval = [](const Parallelism& p) {
    JobMetrics m;
    m.parallelism = p;
    m.latency_ms = p[0] >= 3 ? 50.0 : 500.0;  // compliant only when p0 >= 3
    m.throughput = 100.0;                     // never meets 1000 target
    m.input_rate = 1000.0;
    return m;
  };
  SteadyRateParams params = base_params();
  params.max_evaluations = 12;
  const SteadyRateResult r = run_steady_rate(eval, {1, 1}, params);
  EXPECT_FALSE(r.converged);
  EXPECT_LE(r.best_metrics.latency_ms, 100.0);
}

TEST(RunSteadyRate, HistoryRecordsEverySample) {
  int evals = 0;
  const runtime::Evaluator eval = [&](const Parallelism& p) {
    ++evals;
    JobMetrics m;
    m.parallelism = p;
    m.latency_ms = 500.0;
    m.throughput = 100.0;
    m.input_rate = 1000.0;
    return m;
  };
  SteadyRateParams params = base_params();
  params.max_evaluations = 10;
  const SteadyRateResult r = run_steady_rate(eval, {1, 1}, params);
  EXPECT_EQ(static_cast<int>(r.history.size()), evals);
  EXPECT_EQ(r.bootstrap_evaluations + r.bo_iterations, evals);
}

TEST(RecommendNext, StaysInsideSpace) {
  std::vector<SamplePoint> samples;
  samples.push_back(real_sample({1, 1}, 0.5, 200.0, 1000.0));
  samples.push_back(real_sample({5, 5}, 0.7, 80.0, 1000.0));
  samples.push_back(real_sample({10, 10}, 0.4, 60.0, 1000.0));
  const Parallelism next = recommend_next(samples, {1, 1}, base_params());
  ASSERT_EQ(next.size(), 2u);
  for (int k : next) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, 10);
  }
}

TEST(RunSteadyRate, WordCountEndToEnd) {
  auto spec = autra::workloads::word_count(
      std::make_shared<ConstantRate>(350000.0));
  spec.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 40.0, .measure_sec = 40.0});
  const runtime::Evaluator eval = make_runner_evaluator(runner);
  SteadyRateParams params;
  params.target_latency_ms = 180.0;
  params.target_throughput = 350000.0;
  params.bootstrap_m = 6;
  params.max_parallelism = runner.max_parallelism();
  params.seed = 3;
  const SteadyRateResult r = run_steady_rate(eval, {1, 1, 3, 2}, params);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.best_metrics.latency_ms, 180.0);
  EXPECT_GE(r.best_metrics.throughput, 0.97 * 350000.0);
  EXPECT_GE(r.best_score, 0.9);
}

}  // namespace
}  // namespace autra::core
