// Tests for Algorithm 2 (transfer learning), the benefit model, and the
// model library.
#include "core/transfer.hpp"

#include "core/throughput_opt.hpp"
#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

namespace autra::core {
namespace {

using sim::ConstantRate;
using runtime::JobMetrics;
using sim::Parallelism;

SamplePoint real_sample(Parallelism config, double score,
                        double latency_ms = 50.0,
                        double throughput = 1000.0) {
  SamplePoint s;
  s.config = std::move(config);
  s.score = score;
  JobMetrics m;
  m.parallelism = s.config;
  m.latency_ms = latency_ms;
  m.throughput = throughput;
  m.input_rate = 1000.0;
  s.metrics = std::move(m);
  return s;
}

BenefitModel toy_model(double rate) {
  BenefitModel model;
  model.rate = rate;
  model.base = {1, 1};
  for (int a = 1; a <= 6; ++a) {
    for (int b = 1; b <= 6; b += 2) {
      // Smooth concave score surface peaking at (2, 3).
      const double score =
          1.0 - 0.05 * ((a - 2.0) * (a - 2.0) + (b - 3.0) * (b - 3.0));
      model.samples.push_back(real_sample({a, b}, score));
    }
  }
  model.fit();
  return model;
}

TEST(BenefitModel, FitAndPredict) {
  const BenefitModel m = toy_model(1000.0);
  EXPECT_TRUE(m.gp.is_fitted());
  // The fitted surface reproduces the training trend: the peak region
  // scores higher than the far corner.
  EXPECT_GT(m.predict_mean({2, 3}), m.predict_mean({6, 6}));
}

TEST(BenefitModel, EmptyFitThrows) {
  BenefitModel m;
  EXPECT_THROW(m.fit(), std::invalid_argument);
}

TEST(BenefitModel, RaggedSamplesThrow) {
  BenefitModel m;
  m.samples.push_back(real_sample({1, 2}, 0.5));
  m.samples.push_back(real_sample({1, 2, 3}, 0.5));
  EXPECT_THROW(m.fit(), std::invalid_argument);
}

TEST(ModelLibrary, ClosestByRate) {
  ModelLibrary lib;
  EXPECT_EQ(lib.closest(100.0), nullptr);
  lib.add(toy_model(1000.0));
  lib.add(toy_model(5000.0));
  EXPECT_EQ(lib.size(), 2u);
  EXPECT_DOUBLE_EQ(lib.closest(1200.0)->rate, 1000.0);
  EXPECT_DOUBLE_EQ(lib.closest(4000.0)->rate, 5000.0);
}

TEST(ModelLibrary, HasModelForTolerance) {
  ModelLibrary lib;
  lib.add(toy_model(1000.0));
  EXPECT_TRUE(lib.has_model_for(1000.0));
  EXPECT_TRUE(lib.has_model_for(1040.0));
  EXPECT_FALSE(lib.has_model_for(1200.0));
  EXPECT_FALSE(lib.has_model_for(0.0));
}

TEST(ModelLibrary, AddFitsUnfittedModels) {
  ModelLibrary lib;
  BenefitModel m;
  m.rate = 10.0;
  m.base = {1, 1};
  m.samples.push_back(real_sample({1, 1}, 0.5));
  m.samples.push_back(real_sample({2, 2}, 0.7));
  m.samples.push_back(real_sample({3, 3}, 0.6));
  lib.add(std::move(m));
  EXPECT_TRUE(lib.models().front().gp.is_fitted());
}

TEST(RunTransfer, Validation) {
  const runtime::Evaluator never = [](const Parallelism&) -> JobMetrics {
    return {};
  };
  BenefitModel unfitted;
  TransferParams params;
  params.steady.target_latency_ms = 100.0;
  params.steady.max_parallelism = 10;
  EXPECT_THROW(
      (void)run_transfer(never, {1, 1}, unfitted, params),
      std::invalid_argument);
  TransferParams bad = params;
  bad.n_num = 0;
  EXPECT_THROW((void)run_transfer(never, {1, 1}, toy_model(1.0), bad),
               std::invalid_argument);
}

TEST(RunTransfer, ConvergesImmediatelyWhenBaseMeets) {
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
  TransferParams params;
  params.steady.target_latency_ms = 100.0;
  params.steady.target_throughput = 1000.0;
  params.steady.max_parallelism = 10;
  const TransferResult r =
      run_transfer(eval, {1, 1}, toy_model(1000.0), params);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.real_evaluations, 1);
  EXPECT_EQ(evals, 1);
}

TEST(RunTransfer, UsesFewerRealRunsThanBootstrapWouldNeed) {
  // Scripted physics shared by both rates: latency improves with total
  // parallelism; the score surface transfers almost unchanged, so the
  // prior should let the transfer loop converge with a handful of runs.
  const auto physics = [](const Parallelism& p) {
    JobMetrics m;
    m.parallelism = p;
    const int total = p[0] + p[1];
    m.latency_ms = 260.0 / total;
    m.throughput = 1000.0;
    m.input_rate = 1000.0;
    return m;
  };
  // Prior trained at the "old rate" with the true score function.
  BenefitModel prior;
  prior.rate = 800.0;
  prior.base = {1, 1};
  const ScoreParams sp{.target_latency_ms = 100.0, .alpha = 0.5,
                       .base = {1, 1}};
  for (int a = 1; a <= 9; a += 2) {
    for (int b = 1; b <= 9; b += 2) {
      SamplePoint s;
      s.config = {a, b};
      const JobMetrics m = physics({a, b});
      s.score = benefit_score(m, sp);
      s.metrics = m;
      prior.samples.push_back(std::move(s));
    }
  }
  prior.fit();

  int evals = 0;
  const runtime::Evaluator eval = [&](const Parallelism& p) {
    ++evals;
    return physics(p);
  };
  TransferParams params;
  params.steady.target_latency_ms = 100.0;
  params.steady.target_throughput = 1000.0;
  params.steady.score_threshold = 0.85;
  params.steady.max_parallelism = 10;
  params.n_num = 10;
  params.max_transfer_evaluations = 10;
  const TransferResult r = run_transfer(eval, {1, 1}, prior, params);
  EXPECT_TRUE(r.converged);
  // Bootstrap alone would need ~8 runs (1 base + 5 uniform + 2 single-op);
  // the transfer loop must beat that.
  EXPECT_LT(r.real_evaluations, 8);
  EXPECT_EQ(r.real_evaluations, evals);
  EXPECT_LE(r.best_metrics.latency_ms, 100.0);
}

TEST(RunTransfer, SwitchesToAlgorithm1AfterNnum) {
  // Physics where nothing satisfies the score threshold, so the loop keeps
  // going and must hand over to Algorithm 1 once n_num real samples exist.
  const runtime::Evaluator eval = [](const Parallelism& p) {
    JobMetrics m;
    m.parallelism = p;
    m.latency_ms = 500.0;  // never compliant
    m.throughput = 100.0;
    m.input_rate = 1000.0;
    return m;
  };
  TransferParams params;
  params.steady.target_latency_ms = 100.0;
  params.steady.target_throughput = 1000.0;
  params.steady.max_parallelism = 6;
  params.steady.max_evaluations = 6;
  params.n_num = 3;
  params.max_transfer_evaluations = 12;
  const TransferResult r =
      run_transfer(eval, {1, 1}, toy_model(1000.0), params);
  EXPECT_TRUE(r.switched_to_algorithm1);
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.real_samples.empty());
}

TEST(RunTransfer, InitialRealSamplesSkipBaseMeasurement) {
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
  TransferParams params;
  params.steady.target_latency_ms = 100.0;
  params.steady.target_throughput = 1000.0;
  params.steady.max_parallelism = 10;
  std::vector<SamplePoint> initial{real_sample({2, 2}, 0.8)};
  const TransferResult r = run_transfer(eval, {1, 1}, toy_model(1000.0),
                                        params, std::move(initial));
  // The base was not measured up front; the first recommendation is
  // evaluated instead.
  EXPECT_GE(evals, 1);
  EXPECT_TRUE(r.converged || r.switched_to_algorithm1 ||
              r.real_evaluations > 0);
}

TEST(RunTransfer, NexmarkQ11EndToEnd) {
  // Train a prior at 80k, then transfer to 100k (the paper's Fig. 8
  // Query11 scenario) and require convergence within a few real runs.
  // Mirrors the paper's flow: throughput optimisation first to get k' at
  // each rate, then Algorithm 1 (prior) / Algorithm 2 (transfer).
  auto make_runner = [](double rate) {
    auto spec = autra::workloads::nexmark_q11(
        std::make_shared<ConstantRate>(rate));
    spec.engine.measurement_noise = 0.0;
    return sim::JobRunner(std::move(spec),
      {.warmup_sec = 40.0, .measure_sec = 40.0});
  };
  auto base_for = [](sim::JobRunner& runner) {
    const runtime::Evaluator eval = make_runner_evaluator(runner);
    const ThroughputOptimizer opt(
        runner.spec().topology,
        {.max_parallelism = runner.max_parallelism()});
    return opt.optimize(eval, Parallelism(2, 1)).best;
  };

  // Prior at 80k via Algorithm 1.
  sim::JobRunner r80 = make_runner(80000.0);
  const runtime::Evaluator e80 = make_runner_evaluator(r80);
  const Parallelism base80 = base_for(r80);
  SteadyRateParams sp;
  sp.target_latency_ms = 150.0;
  sp.target_throughput = 80000.0;
  sp.max_parallelism = r80.max_parallelism();
  const SteadyRateResult prior_run = run_steady_rate(e80, base80, sp);
  const BenefitModel prior =
      make_benefit_model(80000.0, base80, prior_run);

  // Transfer to 100k.
  sim::JobRunner r100 = make_runner(100000.0);
  const runtime::Evaluator e100 = make_runner_evaluator(r100);
  const Parallelism base100 = base_for(r100);
  TransferParams tp;
  tp.steady = sp;
  tp.steady.target_throughput = 100000.0;
  tp.steady.max_parallelism = r100.max_parallelism();
  const TransferResult r = run_transfer(e100, base100, prior, tp);
  EXPECT_TRUE(r.converged || r.switched_to_algorithm1);
  EXPECT_GE(r.best_metrics.throughput, 0.95 * 100000.0);
  EXPECT_LE(r.real_evaluations, 12);
}

}  // namespace
}  // namespace autra::core
