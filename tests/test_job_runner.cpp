// Tests for the JobRunner evaluation harness and the live ScalingSession.
#include "streamsim/job_runner.hpp"

#include <limits>
#include <memory>
#include <vector>

#include "exec/exec.hpp"
#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

namespace autra::sim {
namespace {

JobSpec small_job(double rate) {
  JobSpec spec = autra::workloads::synthetic_chain(
      3, std::make_shared<ConstantRate>(rate), 10.0);
  spec.engine.measurement_noise = 0.0;
  return spec;
}

TEST(JobSpec, InitialRate) {
  EXPECT_DOUBLE_EQ(small_job(123.0).initial_rate(), 123.0);
  JobSpec empty;
  EXPECT_THROW(empty.initial_rate(), std::logic_error);
}

TEST(JobMetrics, TotalParallelism) {
  runtime::JobMetrics m;
  m.parallelism = {1, 4, 2};
  EXPECT_EQ(m.total_parallelism(), 7);
}

TEST(JobRunner, Validation) {
  EXPECT_THROW(JobRunner(small_job(100.0),
      {.warmup_sec = -1.0, .measure_sec = 10.0}),
               std::invalid_argument);
  EXPECT_THROW(JobRunner(small_job(100.0),
      {.warmup_sec = 10.0, .measure_sec = 0.0}),
               std::invalid_argument);
}

TEST(JobRunner, MeasureReturnsConsistentSnapshot) {
  JobSpec spec = small_job(30000.0);
  spec.engine.latency_percentiles = true;
  JobRunner runner(std::move(spec),
      {.warmup_sec = 20.0, .measure_sec = 30.0});
  const runtime::JobMetrics m = runner.measure({1, 1, 1});
  EXPECT_EQ(m.parallelism, (Parallelism{1, 1, 1}));
  EXPECT_NEAR(m.throughput, 30000.0, 600.0);
  EXPECT_DOUBLE_EQ(m.input_rate, 30000.0);
  EXPECT_GT(m.latency_ms, 0.0);
  ASSERT_TRUE(m.latency_percentiles.has_value());
  EXPECT_LE(m.latency_percentiles->p50_ms, m.latency_percentiles->p99_ms);
  EXPECT_GE(m.event_latency_ms, m.latency_ms - 1.0);
  EXPECT_EQ(m.operators.size(), 3u);
  EXPECT_GT(m.memory_mb, 0.0);
  EXPECT_EQ(runner.evaluations(), 1);
}

TEST(JobRunner, LagGrowthDetectsUnderProvisioning) {
  // 10 us ops -> 100k/s capacity; feed 220k so one instance cannot keep up.
  JobRunner runner(small_job(220000.0),
      {.warmup_sec = 20.0, .measure_sec = 30.0});
  const runtime::JobMetrics starved = runner.measure({1, 1, 1});
  EXPECT_GT(starved.lag_growth_per_sec, 50000.0);
  const runtime::JobMetrics ok = runner.measure({3, 3, 3});
  EXPECT_LT(ok.lag_growth_per_sec, 10000.0);
}

TEST(JobRunner, SeedSaltChangesNoiseOnly) {
  JobSpec spec = small_job(30000.0);
  spec.engine.measurement_noise = 0.05;
  JobRunner runner(std::move(spec),
      {.warmup_sec = 10.0, .measure_sec = 20.0});
  const runtime::JobMetrics a = runner.measure({1, 1, 1}, 1);
  const runtime::JobMetrics b = runner.measure({1, 1, 1}, 2);
  // Same physics; throughput identical because it is not noise-derived in
  // the snapshot, but operator gauges in the metric DB would differ. Here
  // we only require both runs to be sane and equal in expectation.
  EXPECT_NEAR(a.throughput, b.throughput, 0.02 * a.throughput);
}

TEST(JobRunner, EvaluatorSaltsDecorrelateMetricNoise) {
  // Two evaluations through the evaluator must see different noise draws
  // in the recorded metric gauges (same physics, different jitter), which
  // is what keeps the GP's noise handling honest.
  JobSpec spec = small_job(30000.0);
  spec.engine.measurement_noise = 0.05;
  spec.engine.latency_percentiles = true;
  JobRunner runner(std::move(spec),
      {.warmup_sec = 10.0, .measure_sec = 20.0});
  const autra::runtime::Evaluator eval =
      autra::sim::make_runner_evaluator(runner);
  const runtime::JobMetrics a = eval({1, 1, 1});
  const runtime::JobMetrics b = eval({1, 1, 1});
  EXPECT_EQ(runner.evaluations(), 2);
  // Latency carries per-cohort jitter resampled per run.
  ASSERT_TRUE(a.latency_percentiles.has_value());
  ASSERT_TRUE(b.latency_percentiles.has_value());
  EXPECT_NE(a.latency_percentiles->p99_ms, b.latency_percentiles->p99_ms);
}

void expect_same_metrics(const runtime::JobMetrics& a,
                         const runtime::JobMetrics& b) {
  EXPECT_EQ(a.parallelism, b.parallelism);
  EXPECT_EQ(a.input_rate, b.input_rate);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  ASSERT_EQ(a.latency_percentiles.has_value(),
            b.latency_percentiles.has_value());
  if (a.latency_percentiles) {
    EXPECT_EQ(a.latency_percentiles->p50_ms, b.latency_percentiles->p50_ms);
    EXPECT_EQ(a.latency_percentiles->p95_ms, b.latency_percentiles->p95_ms);
    EXPECT_EQ(a.latency_percentiles->p99_ms, b.latency_percentiles->p99_ms);
  }
  EXPECT_EQ(a.event_latency_ms, b.event_latency_ms);
  EXPECT_EQ(a.kafka_lag, b.kafka_lag);
  EXPECT_EQ(a.lag_growth_per_sec, b.lag_growth_per_sec);
  EXPECT_EQ(a.busy_cores, b.busy_cores);
  EXPECT_EQ(a.memory_mb, b.memory_mb);
  ASSERT_EQ(a.operators.size(), b.operators.size());
  for (std::size_t i = 0; i < a.operators.size(); ++i) {
    const runtime::OperatorRates& x = a.operators[i];
    const runtime::OperatorRates& y = b.operators[i];
    EXPECT_EQ(x.true_rate_per_instance, y.true_rate_per_instance);
    EXPECT_EQ(x.observed_rate_per_instance, y.observed_rate_per_instance);
    EXPECT_EQ(x.total_input_rate, y.total_input_rate);
    EXPECT_EQ(x.total_output_rate, y.total_output_rate);
    EXPECT_EQ(x.queue_length, y.queue_length);
    EXPECT_EQ(x.parallelism, y.parallelism);
  }
}

TEST(JobRunner, TrialKeepsNoGaugesButMeasuresLikeAStoringEngine) {
  // measure() hands its engine a sink that keeps nothing. Every gauge, and
  // the noise drawn for it, is still computed, so the trial's metrics
  // equal those of an engine that stores its gauges in its own store.
  JobSpec spec = small_job(30000.0);
  spec.engine.measurement_noise = 0.05;
  spec.engine.latency_percentiles = true;
  const JobRunner runner(spec, {.warmup_sec = 10.0, .measure_sec = 20.0});
  const Parallelism p = {1, 2, 1};
  const runtime::JobMetrics trial = runner.measure(p, 3);

  const std::unique_ptr<Engine> engine = make_engine(spec, p, 0.0, 3);
  engine->run_until(10.0);
  engine->reset_counters();
  engine->run_until(30.0);
  EXPECT_GT(engine->metrics().points_held(), 0u);
  expect_same_metrics(trial, snapshot(*engine));
}

TEST(SimTrialService, EvaluatorIsTheRunnerEvaluator) {
  // Plan-stage trials and the offline policies' evaluations share one
  // rerun-counting evaluator: at the same constant rate, the same sequence
  // of configurations (a repeat included) gives == metrics.
  JobSpec spec = small_job(30000.0);
  spec.engine.measurement_noise = 0.05;
  spec.engine.latency_percentiles = true;
  const JobRunner runner(spec, {.warmup_sec = 10.0, .measure_sec = 20.0});
  const runtime::Evaluator offline = make_runner_evaluator(runner);
  const SimTrialService trials(spec);
  const runtime::Evaluator plan = trials.evaluator_at(30000.0, 10.0, 20.0);
  std::vector<runtime::JobMetrics> seen;
  for (const Parallelism& p :
       {Parallelism{1, 1, 1}, Parallelism{2, 1, 1}, Parallelism{1, 1, 1}}) {
    seen.push_back(offline(p));
    expect_same_metrics(seen.back(), plan(p));
  }
  // The repeat is a rerun with fresh noise, not a replay of the first run.
  ASSERT_TRUE(seen[0].latency_percentiles && seen[2].latency_percentiles);
  EXPECT_NE(seen[0].latency_percentiles->p99_ms,
            seen[2].latency_percentiles->p99_ms);
}

TEST(TrialLedger, SameSettingReplaysTheRunnerEvaluatorsRuns) {
  // Two Plan stages at one constant rate ask for the same (configuration,
  // rerun) keys, here in another order: the second replays all of them,
  // and both return what make_runner_evaluator simulates.
  JobSpec spec = small_job(30000.0);
  spec.engine.measurement_noise = 0.05;
  spec.engine.latency_percentiles = true;
  const JobRunner runner(spec, {.warmup_sec = 10.0, .measure_sec = 20.0});
  const runtime::Evaluator offline = make_runner_evaluator(runner);
  const std::vector<Parallelism> configs{{1, 1, 1}, {2, 1, 1}, {1, 1, 1}};
  std::vector<runtime::JobMetrics> reference;
  for (const Parallelism& p : configs) reference.push_back(offline(p));

  const SimTrialService trials(spec);
  const runtime::Evaluator first = trials.evaluator_at(30000.0, 10.0, 20.0);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_same_metrics(reference[i], first(configs[i]));
  }
  EXPECT_EQ(trials.runs_simulated(), 3u);
  EXPECT_EQ(trials.runs_replayed(), 0u);

  const runtime::Evaluator second = trials.evaluator_at(30000.0, 10.0, 20.0);
  expect_same_metrics(reference[1], second({2, 1, 1}));
  expect_same_metrics(reference[0], second({1, 1, 1}));
  expect_same_metrics(reference[2], second({1, 1, 1}));
  EXPECT_EQ(trials.runs_simulated(), 3u);
  EXPECT_EQ(trials.runs_replayed(), 3u);
  EXPECT_EQ(trials.runs_held(), 3u);
}

TEST(TrialLedger, FannedOutTrialsMatchSerialOnes) {
  // The Plan stage fans trials out over worker threads: a run simulated or
  // replayed on any thread is the run a serial evaluator measures.
  JobSpec spec = small_job(30000.0);
  spec.engine.measurement_noise = 0.05;
  const JobRunner runner(spec, {.warmup_sec = 5.0, .measure_sec = 5.0});
  const runtime::Evaluator offline = make_runner_evaluator(runner);
  std::vector<Parallelism> configs;
  for (int k = 1; k <= 8; ++k) configs.push_back({k, 1, 1});
  std::vector<runtime::JobMetrics> reference;
  for (const Parallelism& p : configs) reference.push_back(offline(p));

  const SimTrialService trials(spec);
  for (int stage = 0; stage < 2; ++stage) {
    const runtime::Evaluator evaluate = trials.evaluator_at(30000.0, 5.0, 5.0);
    const std::vector<runtime::JobMetrics> got = exec::parallel_map(
        exec::ExecContext(4), configs.size(),
        [&](std::size_t i) { return evaluate(configs[i]); });
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expect_same_metrics(reference[i], got[i]);
    }
  }
  EXPECT_EQ(trials.runs_simulated(), configs.size());
  EXPECT_EQ(trials.runs_replayed(), configs.size());
}

TEST(TrialLedger, AnotherSettingStartsANewTable) {
  // The service holds one setting's runs: another rate or window drops
  // them, while an evaluator of the old setting keeps measuring at it.
  JobSpec spec = small_job(30000.0);
  spec.engine.measurement_noise = 0.05;
  const SimTrialService trials(spec);
  const Parallelism p{1, 1, 1};
  const runtime::Evaluator old_setting =
      trials.evaluator_at(30000.0, 10.0, 20.0);
  const runtime::JobMetrics first = old_setting(p);
  (void)old_setting({2, 1, 1});
  EXPECT_EQ(trials.runs_held(), 2u);

  const runtime::Evaluator faster = trials.evaluator_at(40000.0, 10.0, 20.0);
  EXPECT_EQ(trials.runs_held(), 0u);
  EXPECT_EQ(faster(p).input_rate, 40000.0);
  EXPECT_EQ(trials.runs_held(), 1u);
  const runtime::Evaluator longer = trials.evaluator_at(40000.0, 10.0, 30.0);
  EXPECT_EQ(trials.runs_held(), 0u);
  (void)longer(p);
  EXPECT_EQ(trials.runs_held(), 1u);
  EXPECT_EQ(trials.runs_simulated(), 4u);
  EXPECT_EQ(trials.runs_replayed(), 0u);

  const JobRunner runner(spec, {.warmup_sec = 10.0, .measure_sec = 20.0});
  const runtime::Evaluator offline = make_runner_evaluator(runner);
  expect_same_metrics(first, offline(p));
  const runtime::JobMetrics rerun = old_setting(p);
  EXPECT_EQ(rerun.input_rate, 30000.0);
  expect_same_metrics(offline(p), rerun);
  EXPECT_EQ(trials.runs_held(), 1u);

  // Back at the first setting, nothing is left to replay.
  const runtime::Evaluator again = trials.evaluator_at(30000.0, 10.0, 20.0);
  expect_same_metrics(first, again(p));
  EXPECT_EQ(trials.runs_simulated(), 6u);
  EXPECT_EQ(trials.runs_replayed(), 0u);
}

TEST(JobRunner, PercentilesOnlyOnRequest) {
  // The flag adds the percentiles and moves nothing else: the reservoir
  // has its own generator, so the engine's noise and jitter draws, and
  // every other observable, are bit-identical with it off or on.
  JobSpec spec = small_job(30000.0);
  spec.engine.measurement_noise = 0.05;
  JobRunner off(spec, {.warmup_sec = 10.0, .measure_sec = 20.0});
  spec.engine.latency_percentiles = true;
  JobRunner on(spec, {.warmup_sec = 10.0, .measure_sec = 20.0});
  const runtime::JobMetrics a = off.measure({1, 2, 1}, 3);
  const runtime::JobMetrics b = on.measure({1, 2, 1}, 3);

  EXPECT_FALSE(a.latency_percentiles.has_value());
  ASSERT_TRUE(b.latency_percentiles.has_value());
  EXPECT_GT(b.latency_percentiles->p50_ms, 0.0);
  EXPECT_LE(b.latency_percentiles->p50_ms, b.latency_percentiles->p95_ms);
  EXPECT_LE(b.latency_percentiles->p95_ms, b.latency_percentiles->p99_ms);

  EXPECT_EQ(a.parallelism, b.parallelism);
  EXPECT_EQ(a.input_rate, b.input_rate);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.event_latency_ms, b.event_latency_ms);
  EXPECT_EQ(a.kafka_lag, b.kafka_lag);
  EXPECT_EQ(a.lag_growth_per_sec, b.lag_growth_per_sec);
  EXPECT_EQ(a.busy_cores, b.busy_cores);
  EXPECT_EQ(a.memory_mb, b.memory_mb);
  ASSERT_EQ(a.operators.size(), b.operators.size());
  for (std::size_t i = 0; i < a.operators.size(); ++i) {
    const runtime::OperatorRates& x = a.operators[i];
    const runtime::OperatorRates& y = b.operators[i];
    EXPECT_EQ(x.true_rate_per_instance, y.true_rate_per_instance) << i;
    EXPECT_EQ(x.observed_rate_per_instance, y.observed_rate_per_instance)
        << i;
    EXPECT_EQ(x.total_input_rate, y.total_input_rate) << i;
    EXPECT_EQ(x.total_output_rate, y.total_output_rate) << i;
    EXPECT_EQ(x.queue_length, y.queue_length) << i;
    EXPECT_EQ(x.parallelism, y.parallelism) << i;
  }
}

TEST(JobRunner, MaxParallelismComesFromCluster) {
  JobRunner runner(small_job(100.0));
  EXPECT_EQ(runner.max_parallelism(), 60);
  EXPECT_EQ(runner.num_operators(), 3u);
}

TEST(ScalingSession, RunAdvancesClock) {
  ScalingSession session(small_job(1000.0), {1, 1, 1});
  session.run_for(10.0);
  EXPECT_NEAR(session.now(), 10.0, 0.051);
  EXPECT_EQ(session.restarts(), 0);
}

TEST(ScalingSession, ReconfigureSameConfigIsNoOp) {
  ScalingSession session(small_job(1000.0), {1, 1, 1});
  session.run_for(5.0);
  session.reconfigure({1, 1, 1});
  EXPECT_EQ(session.restarts(), 0);
}

TEST(ScalingSession, ReconfigurePreservesLagAndClock) {
  // Under-provisioned: lag builds up, then a restart must carry it over.
  ScalingSession session(small_job(220000.0), {1, 1, 1},
      {.restart_downtime_sec = 10.0});
  session.run_for(30.0);
  const double lag_before = session.engine().kafka().lag();
  EXPECT_GT(lag_before, 1e5);
  const double t_before = session.now();

  session.reconfigure({4, 4, 4});
  EXPECT_EQ(session.restarts(), 1);
  EXPECT_EQ(session.parallelism(), (Parallelism{4, 4, 4}));
  EXPECT_NEAR(session.now(), t_before, 1e-9);
  EXPECT_GE(session.engine().kafka().lag(), lag_before - 1.0);

  // During the 10 s downtime nothing is processed and lag keeps growing.
  session.run_for(10.0);
  EXPECT_GT(session.engine().kafka().lag(), lag_before);

  // With 4x the capacity the backlog eventually drains.
  session.run_for(120.0);
  EXPECT_LT(session.engine().kafka().lag(), 1e4);
}

TEST(ScalingSession, HotScaleOutValidation) {
  ScalingSession session(small_job(1000.0), {2, 2, 2});
  EXPECT_THROW(
      session.reconfigure({1, 2, 2}, runtime::RescaleMode::kHotScaleOut),
      std::invalid_argument);
  EXPECT_NO_THROW(
      session.reconfigure({2, 3, 2}, runtime::RescaleMode::kHotScaleOut));
  EXPECT_EQ(session.parallelism(), (Parallelism{2, 3, 2}));
}

TEST(ScalingSession, RejectedRescaleKeepsTheJobRunning) {
  ScalingSession session(small_job(1000.0), {1, 1, 1});
  session.host_slow_node(0, 0.5, 5.0, 50.0);
  session.run_for(10.0);
  EXPECT_THROW(session.reconfigure({1, 1, 100000}), std::invalid_argument);
  EXPECT_THROW(session.reconfigure({1, 1}), std::invalid_argument);
  EXPECT_THROW(session.reconfigure({1, 0, 1}), std::invalid_argument);
  EXPECT_EQ(session.restarts(), 0);
  session.run_for(10.0);  // the Kafka log and the faults are still there
  EXPECT_NEAR(session.now(), 20.0, 1e-9);
  session.reconfigure({2, 2, 2});
  session.run_for(10.0);
  EXPECT_EQ(session.restarts(), 1);
}

TEST(ScalingSession, RejectsCrashesWithoutARestartInstant) {
  // A crash whose restart instant is NaN could never be ordered against
  // the clock, so the session refuses it instead of never restarting.
  ScalingSession session(small_job(1000.0), {1, 1, 1});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(session.host_machine_down(0, 10.0, 20.0, nan),
               std::invalid_argument);
  EXPECT_THROW(session.host_rack_down({0, 1}, nan, 20.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(session.host_rack_down({0, 1}, 10.0, 20.0, -1.0),
               std::invalid_argument);
  session.run_for(60.0);
  EXPECT_EQ(session.restarts(), 0);
}

TEST(ScalingSession, HotScaleOutHasMuchLessDowntime) {
  // Under-provisioned at 150k (one 100k/s instance): compare the lag built
  // up during a cold restart vs a hot scale-out to the same target.
  const auto lag_after = [&](runtime::RescaleMode mode) {
    ScalingSession session(small_job(150000.0), {1, 1, 1},
                           {.restart_downtime_sec = 20.0,
                            .hot_downtime_sec = 1.0});
    session.run_for(10.0);
    session.reconfigure({2, 2, 2}, mode);
    session.run_for(25.0);  // spans the cold downtime fully
    return session.engine().kafka().lag();
  };
  const double cold = lag_after(runtime::RescaleMode::kColdRestart);
  const double hot = lag_after(runtime::RescaleMode::kHotScaleOut);
  EXPECT_LT(hot, cold * 0.5);
}

TEST(ScalingSession, HistorySpansRestarts) {
  ScalingSession session(small_job(1000.0), {1, 1, 1},
      {.restart_downtime_sec = 2.0});
  session.run_for(5.0);
  session.reconfigure({2, 2, 2});
  session.run_for(5.0);
  const runtime::MetricId thr =
      session.history().find(runtime::metric_names::kThroughput);
  ASSERT_TRUE(thr.valid());
  const auto [first, last] = session.history().range(thr, 0.0, 10.0);
  EXPECT_GE(last - first, 8u);  // Continuous series across the restart.
}

TEST(ScalingSession, WindowMetricsResettable) {
  ScalingSession session(small_job(10000.0), {1, 1, 1});
  session.run_for(10.0);
  session.reset_window();
  session.run_for(10.0);
  const runtime::JobMetrics m = session.window_metrics();
  EXPECT_NEAR(m.throughput, 10000.0, 300.0);
}

}  // namespace
}  // namespace autra::sim
