// Thread-count determinism suite: the exec layer's contract is that every
// Plan-stage computation — GP hyper-parameter fitting, BayesOpt
// acquisition, Algorithm 1, and full controller runs — produces
// bit-identical results whether it runs serially or on many threads.
// These tests compare against the 1-thread run with exact equality, not
// tolerances.
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "bayesopt/bayes_opt.hpp"
#include "core/controller.hpp"
#include "core/steady_rate.hpp"
#include "gp/gp_regressor.hpp"
#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

namespace autra {
namespace {

constexpr int kThreadCounts[] = {2, 8};

gp::GpRegressor fitted_gp(int threads) {
  gp::GpConfig cfg;
  cfg.threads = threads;
  gp::GpRegressor gp(cfg);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(0.0, 4.0);
  linalg::Matrix x(20, 2);
  linalg::Vector y(20);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = dist(rng);
    x(i, 1) = dist(rng);
    y[i] = std::sin(x(i, 0)) + 0.25 * x(i, 1);
  }
  gp.fit(x, y);
  return gp;
}

TEST(Determinism, GpFitHyperparamsIdenticalAcrossThreadCounts) {
  const gp::GpRegressor serial = fitted_gp(1);
  for (const int threads : kThreadCounts) {
    const gp::GpRegressor parallel = fitted_gp(threads);
    EXPECT_EQ(serial.kernel().signal_variance(),
              parallel.kernel().signal_variance())
        << "threads=" << threads;
    EXPECT_EQ(serial.kernel().length_scale(), parallel.kernel().length_scale())
        << "threads=" << threads;
    EXPECT_EQ(serial.log_marginal_likelihood(),
              parallel.log_marginal_likelihood())
        << "threads=" << threads;
    const std::vector<double> probe{1.7, 2.9};
    const gp::Prediction ps = serial.predict(probe);
    const gp::Prediction pp = parallel.predict(probe);
    EXPECT_EQ(ps.mean, pp.mean) << "threads=" << threads;
    EXPECT_EQ(ps.variance, pp.variance) << "threads=" << threads;
  }
}

/// Deterministic benefit surface for driving BO without a simulator.
double surface(const bo::Config& c) {
  double s = 1.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double d = c[i] - 7.0 - static_cast<double>(i);
    s -= 0.01 * d * d;
  }
  return s;
}

std::vector<bo::Config> bo_trajectory(const bo::SearchSpace& space,
                                      int threads) {
  bo::BayesOptConfig cfg;
  cfg.gp.threads = threads;
  bo::BayesOpt opt(space, cfg);
  opt.observe(space.lower(), surface(space.lower()));
  opt.observe(space.upper(), surface(space.upper()));
  std::vector<bo::Config> trajectory;
  for (int i = 0; i < 12; ++i) {
    const bo::Suggestion next = opt.suggest();
    trajectory.push_back(next.config);
    opt.observe(next.config, surface(next.config));
  }
  return trajectory;
}

TEST(Determinism, BayesOptSuggestionsIdenticalAcrossThreadCounts) {
  // 16^3 = 4096 points fit the default candidate budget, so candidates are
  // enumerated; 16^6 do not, so they are sampled and deduplicated.
  for (const bo::SearchSpace& space :
       {bo::SearchSpace(3, 1, 16), bo::SearchSpace(6, 1, 16)}) {
    const std::vector<bo::Config> serial = bo_trajectory(space, 1);
    for (const int threads : kThreadCounts) {
      EXPECT_EQ(serial, bo_trajectory(space, threads))
          << space.dims() << " dims, threads=" << threads;
    }
  }
}

/// Deterministic closed-form evaluator: an M/M/k-flavoured latency curve,
/// no noise, no shared state.
runtime::JobMetrics closed_form_metrics(const runtime::Parallelism& p) {
  runtime::JobMetrics m;
  m.parallelism = p;
  m.input_rate = 1000.0;
  double capacity = 1e9;
  for (std::size_t i = 0; i < p.size(); ++i) {
    capacity = std::min(capacity, 260.0 * static_cast<double>(p[i]));
  }
  m.throughput = std::min(m.input_rate, capacity);
  const double util = std::min(m.input_rate / capacity, 0.999);
  m.latency_ms = 4.0 / (1.0 - util);
  m.busy_cores = util * static_cast<double>(p.size());
  return m;
}

core::SteadyRateResult alg1_run(int threads) {
  core::SteadyRateParams params;
  params.target_latency_ms = 30.0;
  params.target_throughput = 1000.0;
  params.max_parallelism = 12;
  params.bootstrap_m = 5;
  params.max_evaluations = 25;
  params.threads = threads;
  return core::run_steady_rate(closed_form_metrics, {2, 2, 2}, params);
}

TEST(Determinism, SteadyRateHistoryIdenticalAcrossThreadCounts) {
  const core::SteadyRateResult serial = alg1_run(1);
  ASSERT_FALSE(serial.history.empty());
  for (const int threads : kThreadCounts) {
    const core::SteadyRateResult parallel = alg1_run(threads);
    EXPECT_EQ(serial.best, parallel.best) << "threads=" << threads;
    EXPECT_EQ(serial.best_score, parallel.best_score)
        << "threads=" << threads;
    EXPECT_EQ(serial.converged, parallel.converged) << "threads=" << threads;
    ASSERT_EQ(serial.history.size(), parallel.history.size())
        << "threads=" << threads;
    for (std::size_t i = 0; i < serial.history.size(); ++i) {
      EXPECT_EQ(serial.history[i].config, parallel.history[i].config)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(serial.history[i].score, parallel.history[i].score)
          << "threads=" << threads << " i=" << i;
    }
  }
}

std::vector<core::ControlDecision> controller_run(int threads) {
  // Under-provisioned synthetic chain: the controller must rescale. The
  // spec keeps its default measurement noise — trial determinism has to
  // come from the per-configuration seed salt, not from a quiet engine.
  auto spec = workloads::synthetic_chain(
      3, std::make_shared<sim::ConstantRate>(220000.0), 10.0);
  sim::ScalingSession session(spec, {1, 1, 1},
      {.restart_downtime_sec = 10.0});
  core::ControllerParams p;
  p.steady.target_latency_ms = 400.0;
  p.steady.target_throughput = 220000.0;
  p.steady.bootstrap_m = 4;
  p.steady.max_evaluations = 20;
  p.steady.threads = threads;
  p.policy_interval_sec = 30.0;
  p.policy_running_time_sec = 60.0;
  core::AuTraScaleController controller(spec.topology,
                                        sim::make_trial_service(spec), p);
  return controller.run(session, 200.0);
}

TEST(Determinism, ControllerDecisionsIdenticalAcrossThreadCounts) {
  const std::vector<core::ControlDecision> serial = controller_run(1);
  ASSERT_FALSE(serial.empty());
  for (const int threads : kThreadCounts) {
    const std::vector<core::ControlDecision> parallel =
        controller_run(threads);
    ASSERT_EQ(serial.size(), parallel.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].time, parallel[i].time)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(serial[i].trigger, parallel[i].trigger)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(serial[i].algorithm, parallel[i].algorithm)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(serial[i].applied, parallel[i].applied)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(serial[i].evaluations, parallel[i].evaluations)
          << "threads=" << threads << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace autra
