// Tests for the extension modules: the Dhalion-style baseline and the
// rate-aware benefit model (the paper's future-work item).
#include "baselines/dhalion.hpp"
#include "core/rate_aware.hpp"

#include "core/throughput_opt.hpp"
#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

namespace autra {
namespace {

using runtime::Evaluator;
using sim::ConstantRate;
using runtime::JobMetrics;
using sim::Parallelism;

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

JobMetrics metrics_with_queue(const Parallelism& p, double queue_mid,
                              double throughput, double lag_growth = 0.0) {
  JobMetrics m;
  m.parallelism = p;
  m.input_rate = 1000.0;
  m.throughput = throughput;
  m.lag_growth_per_sec = lag_growth;
  for (int i = 0; i < 3; ++i) {
    runtime::OperatorRates r;
    r.true_rate_per_instance = 600.0;
    r.observed_rate_per_instance = 400.0;
    r.total_input_rate = 1000.0;
    r.total_output_rate = i == 2 ? 0.0 : 1000.0;
    r.parallelism = p[static_cast<std::size_t>(i)];
    r.queue_length = i == 1 ? queue_mid : 0.0;
    m.operators.push_back(r);
  }
  return m;
}

TEST(Dhalion, Validation) {
  const sim::Topology t = chain();
  EXPECT_THROW(baselines::DhalionPolicy(t, {.max_parallelism = 0}),
               std::invalid_argument);
  EXPECT_THROW(baselines::DhalionPolicy(
                   t, {.backpressure_queue_threshold = 0.0,
                       .max_parallelism = 4}),
               std::invalid_argument);
}

TEST(Dhalion, DiagnoseFindsBackpressuredOperator) {
  const sim::Topology t = chain();
  const baselines::DhalionPolicy policy(t, {.max_parallelism = 10});
  const auto sick = policy.diagnose(metrics_with_queue({1, 1, 1}, 5000.0,
                                                       400.0));
  ASSERT_EQ(sick.size(), 1u);
  EXPECT_EQ(sick[0], 1u);
  EXPECT_TRUE(
      policy.diagnose(metrics_with_queue({1, 1, 1}, 10.0, 1000.0)).empty());
}

TEST(Dhalion, CulpritWalksDownstreamToSaturatedOperator) {
  // Jam at mid (index 1) while mid itself is idle-blocked (low utilisation)
  // and the sink runs saturated: the culprit is the sink.
  const sim::Topology t = chain();
  const baselines::DhalionPolicy policy(t, {.max_parallelism = 10});
  JobMetrics m = metrics_with_queue({1, 1, 1}, 5000.0, 400.0);
  m.operators[1].observed_rate_per_instance = 100.0;  // util 0.17: blocked
  m.operators[2].observed_rate_per_instance = 590.0;  // util 0.98: busy
  EXPECT_EQ(policy.culprit_of(m, 1), 2u);
}

TEST(Dhalion, CulpritIsSelfWhenNothingSaturatedDownstream) {
  const sim::Topology t = chain();
  const baselines::DhalionPolicy policy(t, {.max_parallelism = 10});
  const JobMetrics m = metrics_with_queue({1, 1, 1}, 5000.0, 400.0);
  // All utilisations 400/600 = 0.67 < 0.8: the jam itself is the target.
  EXPECT_EQ(policy.culprit_of(m, 1), 1u);
}

TEST(Dhalion, EndToEndOnWordCountReachesInputRate) {
  auto spec = autra::workloads::word_count(
      std::make_shared<ConstantRate>(350000.0));
  spec.engine.measurement_noise = 0.0;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
  const Evaluator eval = sim::make_runner_evaluator(runner);
  const baselines::DhalionPolicy policy(runner.spec().topology,
                                        {.max_parallelism = 60});
  const auto r = policy.run(eval, Parallelism(4, 1));
  EXPECT_TRUE(r.healthy);
  EXPECT_LE(r.iterations, 6);
  EXPECT_GE(r.final_metrics.throughput, 0.97 * 350000.0);
}

TEST(Dhalion, RunStepsThroughBottlenecksAndResolve) {
  // The live resilience loop steps with bottlenecks()/resolve(); run() must
  // take exactly the same step from every configuration it evaluates.
  auto spec = autra::workloads::word_count(
      std::make_shared<ConstantRate>(350000.0));
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
  const Evaluator inner = sim::make_runner_evaluator(runner);
  std::vector<Parallelism> configs;
  std::vector<JobMetrics> seen;
  const Evaluator recording = [&](const Parallelism& p) {
    configs.push_back(p);
    seen.push_back(inner(p));
    return seen.back();
  };
  const baselines::DhalionPolicy policy(runner.spec().topology,
                                        {.max_parallelism = 60});
  static_cast<void>(policy.run(recording, Parallelism(4, 1)));
  ASSERT_GE(configs.size(), 2u);
  for (std::size_t i = 0; i + 1 < configs.size(); ++i) {
    const JobMetrics& m = seen[i];
    EXPECT_EQ(m.parallelism, configs[i]);  // what the live loop passes
    EXPECT_EQ(policy.resolve(m, policy.bottlenecks(m), configs[i]),
              configs[i + 1]);
  }
}

TEST(Dhalion, HealthyJobUntouched) {
  const sim::Topology t = chain();
  const baselines::DhalionPolicy policy(t, {.max_parallelism = 10});
  const Evaluator eval = [&](const Parallelism& p) {
    return metrics_with_queue(p, 0.0, 1000.0);
  };
  const auto r = policy.run(eval, {2, 2, 2});
  EXPECT_TRUE(r.healthy);
  EXPECT_EQ(r.final_config, (Parallelism{2, 2, 2}));
  EXPECT_EQ(r.iterations, 1);
}

TEST(Dhalion, ScalesUpBottleneckUntilHealthy) {
  const sim::Topology t = chain();
  const baselines::DhalionPolicy policy(t, {.max_parallelism = 10});
  const Evaluator eval = [&](const Parallelism& p) {
    // The middle operator needs 3 instances to drain its queue.
    const bool ok = p[1] >= 3;
    return metrics_with_queue(p, ok ? 0.0 : 5000.0, ok ? 1000.0 : 500.0 * p[1]);
  };
  const auto r = policy.run(eval, {1, 1, 1});
  EXPECT_TRUE(r.healthy);
  EXPECT_GE(r.final_config[1], 3);
}

TEST(Dhalion, BlacklistsUselessResolutionOnCappedJob) {
  // Throughput never improves (external cap): the resolution must be
  // rolled back and blacklisted rather than retried forever.
  const sim::Topology t = chain();
  const baselines::DhalionPolicy policy(t, {.max_parallelism = 30});
  int evals = 0;
  const Evaluator eval = [&](const Parallelism& p) {
    ++evals;
    return metrics_with_queue(p, 5000.0, 400.0);  // always sick, never better
  };
  const auto r = policy.run(eval, {1, 1, 1});
  EXPECT_FALSE(r.healthy);
  EXPECT_EQ(r.blacklisted.size(), 1u);
  EXPECT_EQ(r.final_config, (Parallelism{1, 1, 1}));  // rolled back
  EXPECT_LE(evals, 3);
}

TEST(Dhalion, CannotScaleDownOverProvisionedJob) {
  // The published limitation the paper leans on: no symptom -> no plan,
  // even though the job wastes 27 instances.
  const sim::Topology t = chain();
  const baselines::DhalionPolicy policy(t, {.max_parallelism = 30});
  const Evaluator eval = [&](const Parallelism& p) {
    return metrics_with_queue(p, 0.0, 1000.0);
  };
  const auto r = policy.run(eval, {10, 10, 10});
  EXPECT_TRUE(r.healthy);
  EXPECT_EQ(r.final_config, (Parallelism{10, 10, 10}));
}

// ---------------------------------------------------------------------------
// Rate-aware model.
// ---------------------------------------------------------------------------

double toy_score(const Parallelism& c, double rate) {
  // Optimal k2 grows linearly with the rate; smooth concave surface.
  const double k_opt = rate / 500.0;
  const double d1 = c[0] - 1.0;
  const double d2 = c[1] - k_opt;
  return 1.0 - 0.02 * d1 * d1 - 0.02 * d2 * d2;
}

core::RateAwareModel trained_toy_model() {
  core::RateAwareModel model;
  for (double rate : {1000.0, 2000.0, 3000.0}) {
    for (int a = 1; a <= 3; ++a) {
      for (int b = 1; b <= 9; b += 2) {
        model.add_sample({{a, b}, rate, toy_score({a, b}, rate)});
      }
    }
  }
  model.fit();
  return model;
}

TEST(RateAware, Validation) {
  core::RateAwareModel model;
  EXPECT_THROW(model.fit(), std::logic_error);
  EXPECT_THROW(model.add_sample({{}, 1000.0, 0.5}), std::invalid_argument);
  EXPECT_THROW(model.add_sample({{1, 2}, 0.0, 0.5}), std::invalid_argument);
  model.add_sample({{1, 2}, 1000.0, 0.5});
  EXPECT_THROW(model.add_sample({{1, 2, 3}, 1000.0, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(model.predict_mean({1, 2}, 1000.0), std::logic_error);
}

TEST(RateAware, AddSamplesSkipsEstimated) {
  core::RateAwareModel model;
  std::vector<core::SamplePoint> samples(2);
  samples[0].config = {1, 2};
  samples[0].score = 0.5;
  samples[0].metrics = runtime::JobMetrics{};  // real
  samples[1].config = {2, 2};
  samples[1].score = 0.6;  // estimated (no metrics)
  model.add_samples(1000.0, samples);
  EXPECT_EQ(model.num_samples(), 1u);
}

TEST(RateAware, InterpolatesAcrossRates) {
  const core::RateAwareModel model = trained_toy_model();
  // At an unseen rate of 2500, the optimum k2 is 5; the model must rank it
  // above a clearly wrong configuration.
  EXPECT_GT(model.predict_mean({1, 5}, 2500.0),
            model.predict_mean({1, 9}, 2500.0) - 1e-9);
  EXPECT_GT(model.predict_mean({1, 5}, 2500.0),
            model.predict_mean({3, 1}, 2500.0));
}

TEST(RateAware, RecommendStaysInSpace) {
  const core::RateAwareModel model = trained_toy_model();
  core::SteadyRateParams sp;
  sp.target_latency_ms = 100.0;
  sp.max_parallelism = 10;
  std::mt19937_64 rng(3);
  const Parallelism rec = model.recommend({1, 1}, 2500.0, sp, rng);
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_GE(rec[0], 1);
  EXPECT_LE(rec[1], 10);
}

TEST(RateAware, LoopConvergesAtUnseenRate) {
  core::RateAwareModel model = trained_toy_model();
  // Physics consistent with the toy score: latency compliant once k2 is at
  // least the optimum for the rate.
  const double rate = 2500.0;
  int evals = 0;
  const Evaluator eval = [&](const Parallelism& p) {
    ++evals;
    JobMetrics m;
    m.parallelism = p;
    m.latency_ms = p[1] >= 5 ? 40.0 : 300.0;
    m.throughput = rate;
    m.input_rate = rate;
    return m;
  };
  core::RateAwareParams params;
  params.steady.target_latency_ms = 100.0;
  params.steady.target_throughput = rate;
  params.steady.score_threshold = 0.8;
  params.steady.max_parallelism = 10;
  const core::RateAwareResult r =
      core::run_rate_aware(eval, {1, 5}, rate, model, params);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.real_evaluations, 5);
  EXPECT_LE(r.best_metrics.latency_ms, 100.0);
  EXPECT_EQ(evals, r.real_evaluations);
}

TEST(RateAware, EndToEndOnNexmarkQ5) {
  // Train at 15k/20k/25k, then optimise at the unseen 30k.
  auto runner_at = [](double rate) {
    auto spec = workloads::nexmark_q5(std::make_shared<ConstantRate>(rate));
    spec.engine.measurement_noise = 0.0;
    return sim::JobRunner(std::move(spec),
      {.warmup_sec = 40.0, .measure_sec = 40.0});
  };
  core::RateAwareModel model;
  core::SteadyRateParams sp;
  sp.target_latency_ms = 500.0;
  sp.bootstrap_m = 5;

  for (double rate : {15e3, 20e3, 25e3}) {
    sim::JobRunner runner = runner_at(rate);
    const Evaluator eval = sim::make_runner_evaluator(runner);
    const core::ThroughputOptimizer opt(
        runner.spec().topology,
        {.target_throughput = rate,
         .max_parallelism = runner.max_parallelism()});
    const Parallelism base = opt.optimize(eval, Parallelism(2, 1)).best;
    sp.target_throughput = rate;
    sp.max_parallelism = runner.max_parallelism();
    const core::SteadyRateResult r = core::run_steady_rate(eval, base, sp);
    model.add_samples(rate, r.history);
  }
  model.fit();
  EXPECT_GT(model.num_samples(), 10u);

  sim::JobRunner runner = runner_at(30e3);
  const Evaluator eval = sim::make_runner_evaluator(runner);
  const core::ThroughputOptimizer opt(
      runner.spec().topology,
      {.target_throughput = 30e3,
       .max_parallelism = runner.max_parallelism()});
  const Parallelism base = opt.optimize(eval, Parallelism(2, 1)).best;

  core::RateAwareParams params;
  params.steady = sp;
  params.steady.target_throughput = 30e3;
  params.steady.max_parallelism = runner.max_parallelism();
  const core::RateAwareResult r =
      core::run_rate_aware(eval, base, 30e3, model, params);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.real_evaluations, 8);
  EXPECT_GE(r.best_metrics.throughput, 0.95 * 30e3);
}

}  // namespace
}  // namespace autra
