// StreamingBackend conformance suite: the same behavioural contract is
// checked against both implementations — the fluid simulator's
// ScalingSession and the trace-driven ReplayBackend — so the policy layer
// can rely on it regardless of the backend behind the interface.
#include "fault/chaos.hpp"
#include "fault/fault_injecting_backend.hpp"
#include "fault/fault_schedule.hpp"
#include "runtime/replay_backend.hpp"
#include "streamsim/job_runner.hpp"
#include "workloads/workloads.hpp"

#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

namespace autra {
namespace {

using runtime::Parallelism;
using runtime::RescaleMode;
using runtime::StreamingBackend;

sim::JobSpec chain_spec(double rate) {
  sim::JobSpec spec = workloads::synthetic_chain(
      3, std::make_shared<sim::ConstantRate>(rate), 10.0);
  spec.engine.measurement_noise = 0.0;
  return spec;
}

/// Records a short session history to use as a replay trace.
runtime::MetricStore recorded_trace(double rate, double seconds) {
  sim::ScalingSession session(chain_spec(rate), {1, 1, 1});
  session.run_for(seconds);
  return session.history();
}

std::vector<std::string> chain_operators(const sim::JobSpec& spec) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < spec.topology.num_operators(); ++i) {
    names.push_back(spec.topology.op(i).name);
  }
  return names;
}

/// The contract every StreamingBackend must honour.
void check_conformance(StreamingBackend& b) {
  const double t0 = b.now();
  const int restarts0 = b.restarts();
  const Parallelism initial = b.parallelism();
  ASSERT_EQ(initial.size(), 3u);

  // Time advances by exactly what run_for was asked for.
  b.run_for(30.0);
  EXPECT_NEAR(b.now(), t0 + 30.0, 1e-9);
  b.run_for(0.0);
  EXPECT_NEAR(b.now(), t0 + 30.0, 1e-9);

  // The history accumulates gauges as time passes.
  EXPECT_FALSE(b.history().series_names().empty());
  const auto thr_before =
      b.history().series(b.history().find(runtime::metric_names::kThroughput));
  b.run_for(10.0);
  const auto thr_after =
      b.history().series(b.history().find(runtime::metric_names::kThroughput));
  EXPECT_GT(thr_after.times.size(), thr_before.times.size());

  // Reconfiguring to the current config is a no-op.
  b.reconfigure(initial);
  EXPECT_EQ(b.restarts(), restarts0);

  // Hot scale-out may not shrink any operator.
  Parallelism smaller = initial;
  smaller.back() = 0;
  EXPECT_THROW(b.reconfigure(smaller, RescaleMode::kHotScaleOut),
               std::invalid_argument);
  EXPECT_EQ(b.restarts(), restarts0);

  // A real change is applied, counted, and does not reset the clock.
  Parallelism bigger = initial;
  for (int& k : bigger) k += 1;
  const double before = b.now();
  b.reconfigure(bigger);
  EXPECT_EQ(b.restarts(), restarts0 + 1);
  EXPECT_EQ(b.parallelism(), bigger);
  EXPECT_GE(b.now(), before);

  // The window restarts at reset_window() and summarises what follows.
  b.reset_window();
  b.run_for(30.0);
  const runtime::JobMetrics m = b.window_metrics();
  EXPECT_EQ(m.parallelism, bigger);
  EXPECT_EQ(m.total_parallelism(), 6);
}

TEST(BackendConformance, ScalingSession) {
  sim::ScalingSession session(chain_spec(30000.0), {1, 1, 1});
  check_conformance(session);
  EXPECT_GT(session.window_metrics().throughput, 0.0);
}

TEST(BackendConformance, ReplayBackend) {
  const sim::JobSpec spec = chain_spec(30000.0);
  runtime::ReplayBackend replay(recorded_trace(30000.0, 120.0),
                                chain_operators(spec), {1, 1, 1});
  check_conformance(replay);
}

// The decorator with an empty schedule must itself satisfy the contract —
// and forward the inner history without copying it.
TEST(BackendConformance, FaultInjectingBackendEmptySchedule) {
  sim::ScalingSession session(chain_spec(30000.0), {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, fault::FaultSchedule{});
  EXPECT_EQ(&faulted.history(), &session.history());
  check_conformance(faulted);
  EXPECT_EQ(faulted.failed_rescales(), 0);
}

// Metric faults do not break the contract either: timing, restart counts
// and window semantics are unchanged even while gauges are being dropped.
TEST(BackendConformance, FaultInjectingBackendMetricFaults) {
  fault::FaultSchedule sched;
  sched.metric_dropout(10.0, 20.0).metric_delay(50.0, 20.0, 5.0);
  sim::ScalingSession session(chain_spec(30000.0), {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);
  check_conformance(faulted);
}

// A chaos-*generated* (not canned) schedule through the decorator must
// still satisfy the contract. The mix zeroes the classes that violate the
// contract's bookkeeping on purpose: crash classes force uncommanded
// restarts and rescale failures make reconfigure() throw — both are
// exercised by the chaos property suite, not the conformance contract.
TEST(BackendConformance, FaultInjectingBackendChaosSchedule) {
  const sim::JobSpec spec = chain_spec(30000.0);
  fault::ChaosProfile profile =
      fault::ChaosProfile::for_job(spec, 120.0, 2.0);
  profile.mix.machine_down = 0.0;
  profile.mix.rack_down = 0.0;
  profile.mix.rescale_failure = 0.0;
  const fault::ChaosGenerator gen(profile);
  const fault::FaultSchedule sched = gen.generate(42);
  ASSERT_FALSE(sched.empty());

  sim::ScalingSession session(spec, {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);
  check_conformance(faulted);
}

TEST(ReplayBackend, ReplaysTraceFaithfully) {
  const sim::JobSpec spec = chain_spec(30000.0);
  const runtime::MetricStore trace = recorded_trace(30000.0, 60.0);
  runtime::ReplayBackend replay(trace, chain_operators(spec), {1, 1, 1});

  EXPECT_THROW(replay.run_for(-1.0), std::invalid_argument);
  EXPECT_FALSE(replay.exhausted());
  // One extra second past the recording horizon: sampling ticks can land
  // an epsilon after it.
  replay.run_for(61.0);
  EXPECT_TRUE(replay.exhausted());

  // Every trace series came through point-for-point.
  namespace mn = runtime::metric_names;
  ASSERT_EQ(replay.history().series_names(), trace.series_names());
  const auto original = trace.series(trace.find(mn::kThroughput));
  const auto replayed =
      replay.history().series(replay.history().find(mn::kThroughput));
  ASSERT_EQ(replayed.times.size(), original.times.size());
  for (std::size_t i = 0; i < original.times.size(); ++i) {
    EXPECT_DOUBLE_EQ(replayed.times[i], original.times[i]);
    EXPECT_DOUBLE_EQ(replayed.values[i], original.values[i]);
  }

  // The reconstructed window metrics match the recorded steady state.
  const runtime::JobMetrics m = replay.window_metrics();
  EXPECT_NEAR(m.throughput, 30000.0, 1500.0);
  EXPECT_GT(m.latency_ms, 0.0);
  // A trace records the mean only; the replay does not invent percentiles.
  EXPECT_FALSE(m.latency_percentiles.has_value());
}

TEST(ReplayBackend, HalfWayRevealsOnlyPastPoints) {
  const sim::JobSpec spec = chain_spec(30000.0);
  const runtime::MetricStore trace = recorded_trace(30000.0, 60.0);
  runtime::ReplayBackend replay(trace, chain_operators(spec), {1, 1, 1});
  replay.run_for(30.0);
  namespace mn = runtime::metric_names;
  const auto revealed =
      replay.history().series(replay.history().find(mn::kThroughput));
  ASSERT_FALSE(revealed.times.empty());
  EXPECT_LE(revealed.times.back(), 30.0);
  const auto full = trace.series(trace.find(mn::kThroughput));
  EXPECT_LT(revealed.times.size(), full.times.size());
}

TEST(ReplayBackend, ValidatesConstruction) {
  const sim::JobSpec spec = chain_spec(30000.0);
  const runtime::MetricStore trace = recorded_trace(30000.0, 10.0);
  EXPECT_THROW(runtime::ReplayBackend(trace, chain_operators(spec), {1, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace autra
