// Fault-injection subsystem tests: the schedule taxonomy, the decorator's
// metric/Execute fault paths, the engine-level fault delivery through
// ScalingSession, and the control loop's resilience features (window
// health, retry with backoff, crash cooldown).
#include "fault/fault_injecting_backend.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "arrival/arrival.hpp"
#include "core/controller.hpp"
#include "fault/chaos.hpp"
#include "runtime/replay_backend.hpp"
#include "streamsim/job_runner.hpp"
#include "workloads/workloads.hpp"

namespace autra {
namespace {

sim::JobSpec chain_spec(double rate) {
  sim::JobSpec spec = workloads::synthetic_chain(
      3, std::make_shared<sim::ConstantRate>(rate), 10.0);
  spec.engine.measurement_noise = 0.0;
  return spec;
}

// --- FaultSchedule ---------------------------------------------------------

TEST(FaultSchedule, ValidatesEvents) {
  fault::FaultSchedule s;
  EXPECT_THROW(s.machine_down(0, -1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(s.machine_down(0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(s.slow_node(0, 0.0, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(s.slow_node(0, 1.0, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(s.metric_delay(0.0, 10.0, -1.0), std::invalid_argument);
  EXPECT_THROW(s.rescale_failure(0.0, 10.0, -1), std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

// A NaN compares false against every bound, so each field needs its own
// finiteness check: one test per field, through a builder and through the
// hand-assembled-vector constructor.
constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

fault::FaultEvent stall_event() {
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kIngestStall;
  e.at = 10.0;
  e.duration = 5.0;
  return e;
}

TEST(FaultSchedule, RejectsNonFiniteStart) {
  fault::FaultSchedule s;
  for (const double v : kNonFinite) {
    EXPECT_THROW(s.machine_down(0, v, 50.0), std::invalid_argument) << v;
    EXPECT_THROW(s.slow_node(1, 0.5, v, 50.0), std::invalid_argument) << v;
    fault::FaultEvent e = stall_event();
    e.at = v;
    EXPECT_THROW(fault::FaultSchedule({e}), std::invalid_argument) << v;
  }
  EXPECT_TRUE(s.empty());
}

TEST(FaultSchedule, RejectsNonFiniteDuration) {
  fault::FaultSchedule s;
  for (const double v : kNonFinite) {
    EXPECT_THROW(s.ingest_stall(10.0, v), std::invalid_argument) << v;
    fault::FaultEvent e = stall_event();
    e.duration = v;
    EXPECT_THROW(fault::FaultSchedule({e}), std::invalid_argument) << v;
  }
  EXPECT_TRUE(s.empty());
}

TEST(FaultSchedule, RejectsNonFiniteDetectionDelay) {
  fault::FaultSchedule s;
  for (const double v : kNonFinite) {
    EXPECT_THROW(s.machine_down(0, 100.0, 50.0, v), std::invalid_argument)
        << v;
    EXPECT_THROW(s.rack_down({0, 1}, 100.0, 50.0, v), std::invalid_argument)
        << v;
    fault::FaultEvent e = stall_event();
    e.detection_delay_sec = v;
    EXPECT_THROW(fault::FaultSchedule({e}), std::invalid_argument) << v;
  }
  EXPECT_TRUE(s.empty());
}

TEST(FaultSchedule, RejectsNonFiniteMagnitude) {
  fault::FaultSchedule s;
  for (const double v : kNonFinite) {
    EXPECT_THROW(s.slow_node(1, v, 0.5, 50.0), std::invalid_argument) << v;
    EXPECT_THROW(s.metric_delay(0.0, 10.0, v), std::invalid_argument) << v;
    fault::FaultEvent e = stall_event();
    e.magnitude = v;
    EXPECT_THROW(fault::FaultSchedule({e}), std::invalid_argument) << v;
  }
  EXPECT_TRUE(s.empty());
}

TEST(FaultSchedule, RejectsDegeneratePartitionsAndRackGroups) {
  fault::FaultSchedule s;
  // Empty or duplicate-carrying machine sets: "{1, 1}" would pose as a
  // two-machine island once sizes are compared against the cluster.
  EXPECT_THROW(s.network_partition({}, 10.0, 5.0), std::invalid_argument);
  EXPECT_THROW(s.network_partition({1, 1}, 10.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(s.network_partition({2, 0, 2}, 10.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(s.rack_down({3, 3}, 10.0, 5.0), std::invalid_argument);
  EXPECT_TRUE(s.empty());

  // The hand-assembled-vector constructor applies the same gate.
  fault::FaultEvent dup;
  dup.kind = fault::FaultKind::kNetworkPartition;
  dup.at = 1.0;
  dup.duration = 1.0;
  dup.machines = {0, 0};
  EXPECT_THROW(fault::FaultSchedule({dup}), std::invalid_argument);

  // An island covering the whole cluster leaves no mainland; the engine
  // (which knows the machine count — paper_cluster has 3) rejects it
  // instead of silently cutting nothing.
  fault::FaultSchedule whole;
  whole.network_partition({0, 1, 2}, 120.0, 60.0);
  sim::ScalingSession session(chain_spec(30000.0), {1, 1, 1});
  EXPECT_THROW(fault::FaultInjectingBackend(session, whole),
               std::invalid_argument);

  // A proper subset of the same cluster is accepted.
  fault::FaultSchedule proper;
  proper.network_partition({0, 2}, 120.0, 60.0);
  sim::ScalingSession ok(chain_spec(30000.0), {1, 1, 1});
  fault::FaultInjectingBackend backend(ok, proper);
  backend.run_for(10.0);
}

TEST(FaultSchedule, SortsAndClassifiesEvents) {
  fault::FaultSchedule s;
  s.metric_dropout(100.0, 10.0).machine_down(1, 50.0, 20.0, 5.0);
  ASSERT_EQ(s.events().size(), 2u);
  EXPECT_DOUBLE_EQ(s.events()[0].at, 50.0);
  EXPECT_TRUE(s.has_metric_faults());
  EXPECT_TRUE(s.has_host_faults());
  EXPECT_DOUBLE_EQ(s.last_fault_end(), 110.0);

  fault::FaultSchedule exec_only;
  exec_only.rescale_failure(0.0, 10.0, 1);
  EXPECT_FALSE(exec_only.has_metric_faults());
  EXPECT_FALSE(exec_only.has_host_faults());
}

TEST(FaultSchedule, UnsortedHandBuiltScheduleBehavesLikeSorted) {
  // The latent ordering assumption: consumers iterate events() expecting
  // start-time order. A hand-assembled vector arrives in whatever order
  // the author typed — the validating constructor must sort it.
  std::vector<fault::FaultEvent> unsorted = {
      {.kind = fault::FaultKind::kIngestStall, .at = 300.0, .duration = 30.0},
      {.kind = fault::FaultKind::kSlowNode,
       .at = 60.0,
       .duration = 120.0,
       .machine = 0,
       .magnitude = 0.3},
      {.kind = fault::FaultKind::kMetricDropout, .at = 150.0,
       .duration = 60.0},
  };
  const fault::FaultSchedule hand(unsorted);
  fault::FaultSchedule built;
  built.ingest_stall(300.0, 30.0)
      .slow_node(0, 0.3, 60.0, 120.0)
      .metric_dropout(150.0, 60.0);
  ASSERT_EQ(hand.events().size(), built.events().size());
  EXPECT_TRUE(hand.events() == built.events());
  for (std::size_t i = 1; i < hand.events().size(); ++i) {
    EXPECT_LE(hand.events()[i - 1].at, hand.events()[i].at);
  }

  // And the runs are bit-identical, not just the event lists.
  sim::ScalingSession sa(chain_spec(30000.0), {1, 1, 1});
  sim::ScalingSession sb(chain_spec(30000.0), {1, 1, 1});
  fault::FaultInjectingBackend fa(sa, hand);
  fault::FaultInjectingBackend fb(sb, built);
  fa.run_for(400.0);
  fb.run_for(400.0);
  namespace mn = runtime::metric_names;
  const auto va = fa.history().series(fa.history().find(mn::kThroughput));
  const auto vb = fb.history().series(fb.history().find(mn::kThroughput));
  ASSERT_EQ(va.values.size(), vb.values.size());
  for (std::size_t i = 0; i < va.values.size(); ++i) {
    EXPECT_EQ(va.values[i], vb.values[i]);  // exact
  }

  // The constructor applies the same validation as the builders.
  EXPECT_THROW(fault::FaultSchedule({{.kind = fault::FaultKind::kSlowNode,
                                      .at = 0.0,
                                      .duration = 1.0,
                                      .magnitude = 1.5}}),
               std::invalid_argument);
  EXPECT_THROW(
      fault::FaultSchedule({{.kind = fault::FaultKind::kRackDown,
                             .at = 0.0, .duration = 1.0}}),
      std::invalid_argument);  // empty machine group
}

TEST(FaultSchedule, CannedSchedulesAreDeterministic) {
  for (const std::string& name : fault::FaultSchedule::canned_names()) {
    const fault::FaultSchedule a = fault::FaultSchedule::canned(name, 7);
    const fault::FaultSchedule b = fault::FaultSchedule::canned(name, 7);
    ASSERT_EQ(a.events().size(), b.events().size()) << name;
    EXPECT_FALSE(a.empty()) << name;
    for (std::size_t i = 0; i < a.events().size(); ++i) {
      EXPECT_DOUBLE_EQ(a.events()[i].at, b.events()[i].at) << name;
      EXPECT_DOUBLE_EQ(a.events()[i].magnitude, b.events()[i].magnitude)
          << name;
      EXPECT_EQ(a.events()[i].machine, b.events()[i].machine) << name;
    }
  }
  EXPECT_THROW(fault::FaultSchedule::canned("nope"), std::invalid_argument);
}

// --- Decorator: metric faults ---------------------------------------------

TEST(FaultInjectingBackend, EmptyScheduleIsPassThrough) {
  sim::ScalingSession plain(chain_spec(30000.0), {1, 1, 1});
  sim::ScalingSession inner(chain_spec(30000.0), {1, 1, 1});
  fault::FaultInjectingBackend faulted(inner, fault::FaultSchedule{});

  // history() forwards the inner store by reference: zero-cost when unused.
  EXPECT_EQ(&faulted.history(), &inner.history());

  plain.run_for(90.0);
  faulted.run_for(90.0);
  plain.reconfigure({2, 1, 1});
  faulted.reconfigure({2, 1, 1});
  plain.run_for(60.0);
  faulted.run_for(60.0);

  // Bit-identical to an undecorated run.
  namespace mn = runtime::metric_names;
  const runtime::MetricStore& a = plain.history();
  const runtime::MetricStore& b = faulted.history();
  ASSERT_EQ(a.series_names(), b.series_names());
  const auto sa = a.series(a.find(mn::kThroughput));
  const auto sb = b.series(b.find(mn::kThroughput));
  ASSERT_EQ(sa.values.size(), sb.values.size());
  for (std::size_t i = 0; i < sa.values.size(); ++i) {
    EXPECT_EQ(sa.values[i], sb.values[i]);  // exact, not NEAR
    EXPECT_EQ(sa.times[i], sb.times[i]);
  }
  EXPECT_EQ(faulted.failed_rescales(), 0);
}

TEST(FaultInjectingBackend, DropoutRemovesWindowPoints) {
  fault::FaultSchedule sched;
  sched.metric_dropout(60.0, 60.0);
  sim::ScalingSession session(chain_spec(30000.0), {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);
  faulted.run_for(180.0);

  namespace mn = runtime::metric_names;
  const runtime::MetricStore& db = faulted.history();
  const runtime::MetricId id = db.find(mn::kThroughput);
  ASSERT_TRUE(id.valid());
  const auto [d0, d1] = db.range(id, 61.0, 119.0);
  EXPECT_EQ(d1 - d0, 0u);  // the dropout window is a hole, forever
  const auto [h0, h1] = db.range(id, 121.0, 180.0);
  EXPECT_GT(h1 - h0, 30u);  // gauges resume after the window
  // The inner session still has the full ground truth.
  const auto [g0, g1] = session.history().range(
      session.history().find(mn::kThroughput), 61.0, 119.0);
  EXPECT_GT(g1 - g0, 30u);
}

TEST(FaultInjectingBackend, DelayedPointsArriveLateInOrder) {
  fault::FaultSchedule sched;
  sched.metric_delay(30.0, 30.0, 20.0);
  sim::ScalingSession session(chain_spec(30000.0), {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);

  namespace mn = runtime::metric_names;
  faulted.run_for(45.0);
  const runtime::MetricStore& db = faulted.history();
  const runtime::MetricId id = db.find(mn::kThroughput);
  ASSERT_TRUE(id.valid());
  // Points stamped in [30, 45] are held back (visible only 20 s later).
  const auto visible = db.series(id);
  ASSERT_FALSE(visible.times.empty());
  EXPECT_LT(visible.times.back(), 30.0 + 1e-6);

  faulted.run_for(60.0);  // now = 105 > 60 + 20: everything revealed
  const auto after = db.series(id);
  EXPECT_GT(after.times.back(), 100.0);
  for (std::size_t i = 1; i < after.times.size(); ++i) {
    EXPECT_LE(after.times[i - 1], after.times[i]);  // still monotone
  }
}

TEST(FaultInjectingBackend, RejectsHostFaultsOnNonHostBackend) {
  const sim::JobSpec spec = chain_spec(30000.0);
  sim::ScalingSession recorder(spec, {1, 1, 1});
  recorder.run_for(30.0);
  std::vector<std::string> ops;
  for (std::size_t i = 0; i < spec.topology.num_operators(); ++i) {
    ops.push_back(spec.topology.op(i).name);
  }
  runtime::ReplayBackend replay(recorder.history(), ops, {1, 1, 1});
  fault::FaultSchedule sched;
  sched.machine_down(0, 10.0, 10.0);
  EXPECT_THROW(fault::FaultInjectingBackend(replay, sched),
               std::invalid_argument);
  // Metric-only schedules are fine on any backend.
  fault::FaultSchedule metric_only;
  metric_only.metric_dropout(5.0, 5.0);
  fault::FaultInjectingBackend ok(replay, metric_only);
  ok.run_for(10.0);
}

// --- Decorator: Execute faults --------------------------------------------

TEST(FaultInjectingBackend, TransientRescaleFailureConsumesBudget) {
  fault::FaultSchedule sched;
  sched.rescale_failure(0.0, 1000.0, 2);
  sim::ScalingSession session(chain_spec(30000.0), {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);
  faulted.run_for(10.0);

  const runtime::Parallelism target{2, 1, 1};
  EXPECT_THROW(faulted.reconfigure(target), runtime::RescaleFailed);
  EXPECT_THROW(faulted.reconfigure(target), runtime::RescaleFailed);
  EXPECT_EQ(faulted.failed_rescales(), 2);
  EXPECT_EQ(session.restarts(), 0);  // nothing reached the engine

  faulted.reconfigure(target);  // budget exhausted: goes through
  EXPECT_EQ(faulted.parallelism(), target);
  EXPECT_EQ(session.restarts(), 1);

  // A no-op reconfigure can never fail, even inside a failure window.
  fault::FaultSchedule always;
  always.rescale_failure(0.0, 1000.0, 0);
  sim::ScalingSession session2(chain_spec(30000.0), {1, 1, 1});
  fault::FaultInjectingBackend faulted2(session2, always);
  faulted2.reconfigure({1, 1, 1});  // same config: no throw
  EXPECT_THROW(faulted2.reconfigure(target), runtime::RescaleFailed);
  EXPECT_THROW(faulted2.reconfigure(target), runtime::RescaleFailed);
}

// --- Engine-level faults through ScalingSession ---------------------------

TEST(FaultHost, MachineCrashForcesRestartAndRecovers) {
  // Round-robin slot placement puts instance 0 of every operator on
  // machine 0, so crashing machine 0 stalls the whole p=1 chain.
  sim::JobSpec spec = chain_spec(50000.0);
  fault::FaultSchedule sched;
  sched.machine_down(0, 120.0, 120.0, 10.0);
  sim::ScalingSession session(spec, {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);

  faulted.reset_window();
  faulted.run_for(110.0);
  const double before = faulted.window_metrics().throughput;
  EXPECT_NEAR(before, 50000.0, 2500.0);
  EXPECT_EQ(session.failure_restarts(), 0);

  faulted.reset_window();
  faulted.run_for(70.0);  // crash at 120, detection at 130, still down
  const double during = faulted.window_metrics().throughput;
  EXPECT_LT(during, 0.35 * before);
  EXPECT_EQ(session.failure_restarts(), 1);  // detected and restarted
  EXPECT_EQ(session.restarts(), 1);
  const double lag_peak = faulted.window_metrics().kafka_lag;
  EXPECT_GT(lag_peak, 1e6);  // ~60 s of rate piled up

  faulted.reset_window();
  faulted.run_for(520.0);  // machine back at 240; drain the backlog
  const runtime::JobMetrics after = faulted.window_metrics();
  EXPECT_GT(after.throughput, 0.9 * before);
  EXPECT_LT(after.kafka_lag, 0.25 * lag_peak);
}

TEST(FaultHost, SlowNodeAndIngestStallAreTransient) {
  sim::JobSpec spec = chain_spec(50000.0);
  fault::FaultSchedule sched;
  sched.slow_node(0, 0.3, 60.0, 60.0).ingest_stall(180.0, 30.0);
  sim::ScalingSession session(spec, {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);

  faulted.reset_window();
  faulted.run_for(55.0);
  const double before = faulted.window_metrics().throughput;

  faulted.reset_window();
  faulted.run_for(65.0);  // the slow-node window
  EXPECT_LT(faulted.window_metrics().throughput, 0.75 * before);
  EXPECT_EQ(session.restarts(), 0);  // degradation, not a crash

  faulted.reset_window();
  faulted.run_for(62.0);  // inside the ingest stall [180, 210)
  const runtime::JobMetrics stalled = faulted.window_metrics();
  EXPECT_GT(stalled.kafka_lag, 1e5);  // producers kept appending

  faulted.reset_window();
  faulted.run_for(300.0);
  const runtime::JobMetrics recovered = faulted.window_metrics();
  EXPECT_GT(recovered.throughput, 0.9 * before);
  EXPECT_LT(recovered.kafka_lag, stalled.kafka_lag);
}

TEST(FaultHost, LateFaultsRideEveryRebuildLikeEarlyOnes) {
  // Faults delivered after two rescales (the timeline's cursor has moved,
  // and the delivery leaves it dirty) are handed on by a third rescale and
  // by a crash restart: the slow node still throttles the job afterwards,
  // exactly as when the same faults were delivered before the first tick,
  // directly or by a FaultInjectingBackend from a FaultSchedule. Every
  // rescale goes through the decorator.
  struct Run {
    runtime::JobMetrics slowed;
    int restarts = 0;
    int failure_restarts = 0;
  };
  enum class Delivery { kNone, kEarly, kLate, kScheduled };
  const auto run = [](Delivery delivery) {
    sim::ScalingSession session(chain_spec(50000.0), {1, 1, 1});
    // p = 1 puts every operator on machine 0; machine 2's crash costs a
    // restart at 160 s without touching the job's own instances.
    fault::FaultSchedule schedule;
    if (delivery == Delivery::kScheduled) {
      schedule.slow_node(0, 0.2, 200.0, 200.0)
          .machine_down(2, 150.0, 110.0, 10.0);
    }
    fault::FaultInjectingBackend faulted(session, schedule);
    const auto deliver = [&] {
      session.host_slow_node(0, 0.2, 200.0, 400.0);
      session.host_machine_down(2, 150.0, 260.0, 10.0);
    };
    if (delivery == Delivery::kEarly) deliver();
    faulted.run_for(40.0);
    faulted.reconfigure({2, 2, 2});
    faulted.run_for(40.0);
    faulted.reconfigure({2, 1, 2});
    faulted.run_for(40.0);
    if (delivery == Delivery::kLate) deliver();
    faulted.reconfigure({1, 1, 1});
    session.run_to(210.0);
    faulted.reset_window();
    session.run_to(300.0);
    return Run{faulted.window_metrics(), session.restarts(),
               session.failure_restarts()};
  };
  const Run early = run(Delivery::kEarly);
  const Run late = run(Delivery::kLate);
  const Run scheduled = run(Delivery::kScheduled);
  const Run healthy = run(Delivery::kNone);

  EXPECT_EQ(late.restarts, 4);  // three rescales and one crash restart
  EXPECT_EQ(late.failure_restarts, 1);
  EXPECT_EQ(healthy.failure_restarts, 0);
  EXPECT_LT(late.slowed.throughput, 0.5 * healthy.slowed.throughput);
  for (const Run* other : {&late, &scheduled}) {
    EXPECT_EQ(other->restarts, early.restarts);
    EXPECT_EQ(other->failure_restarts, early.failure_restarts);
    EXPECT_EQ(other->slowed.throughput, early.slowed.throughput);
    EXPECT_EQ(other->slowed.kafka_lag, early.slowed.kafka_lag);
    EXPECT_EQ(other->slowed.latency_ms, early.slowed.latency_ms);
    EXPECT_EQ(other->slowed.busy_cores, early.slowed.busy_cores);
  }
}

TEST(FaultHost, RackCrashCostsOneRestartForTheGroup) {
  // paper_cluster puts machines 0 and 1 on the same rack. With p=2 both
  // hold instances, so the rack crash stalls the chain — and the framework
  // notices the correlated loss as ONE incident, not one per machine.
  sim::JobSpec spec = chain_spec(50000.0);
  fault::FaultSchedule sched;
  sched.rack_down({0, 1}, 120.0, 120.0, 10.0);
  EXPECT_DOUBLE_EQ(sched.last_fault_end(), 240.0);
  sim::ScalingSession session(spec, {2, 2, 2});
  fault::FaultInjectingBackend faulted(session, sched);

  faulted.reset_window();
  faulted.run_for(110.0);
  const double before = faulted.window_metrics().throughput;
  EXPECT_NEAR(before, 50000.0, 2500.0);
  EXPECT_EQ(session.failure_restarts(), 0);

  faulted.reset_window();
  faulted.run_for(70.0);  // crash at 120, detected at 130, both machines out
  EXPECT_LT(faulted.window_metrics().throughput, 0.35 * before);
  EXPECT_EQ(session.failure_restarts(), 1);  // one restart for two machines
  EXPECT_EQ(session.restarts(), 1);
  const double lag_peak = faulted.window_metrics().kafka_lag;
  EXPECT_GT(lag_peak, 1e6);

  faulted.reset_window();
  faulted.run_for(520.0);  // rack back at 240; drain the backlog
  const runtime::JobMetrics after = faulted.window_metrics();
  EXPECT_GT(after.throughput, 0.9 * before);
  EXPECT_LT(after.kafka_lag, 0.25 * lag_peak);
}

TEST(FaultHost, SimultaneousMachineAndRackCrashesRestartTwice) {
  // A machine crash is a rack crash of one machine: crashes detected at
  // the same instant are separate incidents, one forced restart each, and
  // the order they were registered in changes nothing.
  fault::FaultSchedule machine_first;
  machine_first.machine_down(2, 120.0, 120.0, 10.0)
      .rack_down({0, 1}, 120.0, 120.0, 10.0);
  fault::FaultSchedule rack_first;
  rack_first.rack_down({0, 1}, 120.0, 120.0, 10.0)
      .machine_down(2, 120.0, 120.0, 10.0);
  std::vector<runtime::JobMetrics> windows;
  for (const fault::FaultSchedule* sched : {&machine_first, &rack_first}) {
    sim::ScalingSession session(chain_spec(50000.0), {2, 2, 2});
    fault::FaultInjectingBackend faulted(session, *sched);
    faulted.run_for(129.0);
    EXPECT_EQ(session.failure_restarts(), 0);
    faulted.reset_window();
    faulted.run_for(300.0);
    EXPECT_EQ(session.failure_restarts(), 2);
    EXPECT_EQ(session.restarts(), 2);
    windows.push_back(faulted.window_metrics());
  }
  EXPECT_EQ(windows[0].throughput, windows[1].throughput);
  EXPECT_EQ(windows[0].kafka_lag, windows[1].kafka_lag);
  EXPECT_EQ(windows[0].latency_ms, windows[1].latency_ms);
}

TEST(FaultHost, NetworkPartitionCutsCrossEdgesWithoutRestart) {
  // p = {2,1,1}: the source spans machines 0 and 1, downstream sits on
  // machine 0 only. Isolating machine 1 cuts the source's outgoing
  // exchange (keyed shuffles are all-to-all), so nothing flows — queues
  // back up, lag builds — yet no machine died, so no restart happens.
  sim::JobSpec spec = chain_spec(50000.0);
  fault::FaultSchedule sched;
  sched.network_partition({1}, 120.0, 120.0);
  EXPECT_TRUE(sched.has_host_faults());
  sim::ScalingSession session(spec, {2, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);

  faulted.reset_window();
  faulted.run_for(110.0);
  const double before = faulted.window_metrics().throughput;
  EXPECT_GT(before, 0.0);

  faulted.reset_window();
  faulted.run_for(130.0);  // spans the whole partition window
  const runtime::JobMetrics during = faulted.window_metrics();
  EXPECT_LT(during.throughput, 0.6 * before);
  EXPECT_GT(during.kafka_lag, 1e5);   // records piled up behind the cut
  EXPECT_EQ(session.restarts(), 0);   // a partition is not a crash
  EXPECT_EQ(session.failure_restarts(), 0);

  faulted.reset_window();
  faulted.run_for(500.0);  // heal at 240, then drain
  const runtime::JobMetrics after = faulted.window_metrics();
  EXPECT_GT(after.throughput, 0.9 * before);
  EXPECT_LT(after.kafka_lag, during.kafka_lag);
}

TEST(FaultHost, ServiceOutageThrottlesYahoo) {
  sim::JobSpec spec = workloads::yahoo_streaming(
      std::make_shared<sim::ConstantRate>(20000.0));
  spec.engine.measurement_noise = 0.0;
  fault::FaultSchedule sched;
  sched.service_outage(workloads::kYahooRedisService, 60.0, 60.0);
  sim::ScalingSession session(
      spec, sim::Parallelism(spec.topology.num_operators(), 1));
  fault::FaultInjectingBackend faulted(session, sched);

  faulted.reset_window();
  faulted.run_for(55.0);
  const double before = faulted.window_metrics().throughput;
  EXPECT_GT(before, 0.0);

  faulted.reset_window();
  faulted.run_for(65.0);
  // The sink calls Redis per record; a dark Redis stops completions.
  EXPECT_LT(faulted.window_metrics().throughput, 0.5 * before);

  // An outage of a service the job never calls is unobservable.
  fault::FaultSchedule phantom;
  phantom.service_outage("no-such-service", 10.0, 10.0);
  sim::ScalingSession session2(
      spec, sim::Parallelism(spec.topology.num_operators(), 1));
  fault::FaultInjectingBackend ok(session2, phantom);
  ok.reset_window();
  ok.run_for(55.0);
  EXPECT_NEAR(ok.window_metrics().throughput, before, 0.05 * before + 1.0);
}

// --- Controller resilience -------------------------------------------------

TEST(WindowHealth, DroppedMetricWindowsAreFlagged) {
  const sim::JobSpec spec = chain_spec(30000.0);
  fault::FaultSchedule sched;
  sched.metric_dropout(60.0, 60.0);
  sim::ScalingSession session(spec, {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);
  faulted.run_for(180.0);

  const core::MetricAggregator agg(spec.topology,
                                   spec.engine.metric_interval_sec);
  core::WindowHealth bad;
  (void)agg.aggregate(faulted.history(), 60.0, 120.0, &bad);
  EXPECT_FALSE(bad.healthy());
  EXPECT_GT(bad.missing_series + bad.sparse_series, 0);

  core::WindowHealth good;
  (void)agg.aggregate(faulted.history(), 0.0, 60.0, &good);
  EXPECT_TRUE(good.healthy());

  core::WindowHealth after;
  (void)agg.aggregate(faulted.history(), 120.0, 180.0, &after);
  EXPECT_TRUE(after.healthy());
}

TEST(ControllerResilience, RetryWithBackoffConverges) {
  // p=1 sustains ~100k/s; 150k/s forces a scale-up decision, and the
  // schedule fails the first two Execute attempts.
  sim::JobSpec spec = chain_spec(150000.0);
  fault::FaultSchedule sched;
  sched.rescale_failure(0.0, 3600.0, 2);
  sim::ScalingSession session(spec, {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);

  core::ControllerParams params;
  params.policy_interval_sec = 30.0;
  params.policy_running_time_sec = 60.0;
  params.steady.target_latency_ms = 1e5;  // throughput-only objective
  params.steady.bootstrap_m = 3;
  params.steady.max_evaluations = 6;
  params.resilience.max_rescale_retries = 4;
  params.resilience.rescale_backoff_initial_sec = 5.0;
  core::AuTraScaleController controller(
      spec.topology, sim::make_trial_service(spec), params);
  const auto decisions = controller.run(faulted, 240.0);

  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(faulted.failed_rescales(), 2);
  EXPECT_EQ(controller.stats().rescale_retries, 2);
  EXPECT_EQ(controller.stats().rescale_aborts, 0);
  EXPECT_FALSE(decisions.front().execute_failed);
  EXPECT_EQ(decisions.front().rescale_retries, 2);
  EXPECT_EQ(faulted.parallelism(), decisions.front().applied);
  int total = 0;
  for (int k : faulted.parallelism()) total += k;
  EXPECT_GT(total, 3);  // the decision was eventually applied
}

TEST(ControllerResilience, AbortsAfterMaxRetries) {
  sim::JobSpec spec = chain_spec(150000.0);
  fault::FaultSchedule sched;
  sched.rescale_failure(0.0, 3600.0, 0);  // every attempt fails
  sim::ScalingSession session(spec, {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);

  core::ControllerParams params;
  params.policy_interval_sec = 30.0;
  params.policy_running_time_sec = 60.0;
  params.steady.target_latency_ms = 1e5;
  params.steady.bootstrap_m = 3;
  params.steady.max_evaluations = 6;
  params.resilience.max_rescale_retries = 2;
  params.resilience.rescale_backoff_initial_sec = 5.0;
  core::AuTraScaleController controller(
      spec.topology, sim::make_trial_service(spec), params);
  const auto decisions = controller.run(faulted, 180.0);

  ASSERT_FALSE(decisions.empty());
  EXPECT_TRUE(decisions.front().execute_failed);
  EXPECT_GE(controller.stats().rescale_aborts, 1);
  EXPECT_EQ(faulted.parallelism(), runtime::Parallelism({1, 1, 1}));
}

TEST(ControllerResilience, MachineCrashHandledEndToEnd) {
  // The acceptance scenario: machine-crash canned schedule, live
  // controller. Detection, one forced restart, no decisions from
  // contaminated windows, recovery before the horizon.
  const double horizon = 900.0;
  const fault::FaultSchedule schedule =
      fault::FaultSchedule::canned("machine-crash", 1, horizon);
  sim::JobSpec spec = workloads::word_count(
      std::make_shared<sim::ConstantRate>(150e3));
  fault::ResilienceOptions opt;
  opt.horizon_sec = horizon;
  opt.policy_interval_sec = 60.0;
  const fault::ResilienceReport r =
      fault::run_resilience("autrascale", spec, schedule, opt);

  EXPECT_EQ(r.failure_restarts, 1);     // the crash was detected
  EXPECT_GE(r.unhealthy_windows, 1);    // contaminated windows were skipped
  EXPECT_GE(r.recovery_sec, 0.0);       // throughput came back
  EXPECT_LE(r.recovery_sec, horizon - schedule.last_fault_end());
}

// --- Lag-drain trigger (ResilienceParams::lag_drain_bound_sec) -------------

/// The lag-drain scenario shared by the tests below: a comfortable job
/// ({1,1,1} sustains ~100k/s against 50k/s input) whose source machine
/// crashes at t=120 for 60 s. policy_running_time_sec = 180 keeps every
/// post-crash window inside the stabilisation gate, so the decision log
/// contains lag-drain entries and nothing else.
core::ControllerParams lag_drain_params() {
  core::ControllerParams params;
  params.policy_interval_sec = 60.0;
  params.policy_running_time_sec = 180.0;
  params.steady.target_latency_ms = 1e5;
  params.steady.bootstrap_m = 3;
  params.steady.max_evaluations = 6;
  return params;
}

TEST(ControllerResilience, LagDrainBoostsThenRestoresAfterCrash) {
  sim::JobSpec spec = chain_spec(50000.0);
  fault::FaultSchedule sched;
  sched.machine_down(0, 120.0, 60.0, 10.0);
  sim::ScalingSession session(spec, {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);

  core::ControllerParams params = lag_drain_params();
  params.resilience.lag_drain_bound_sec = 5.0;  // arm the trigger
  core::AuTraScaleController controller(
      spec.topology, sim::make_trial_service(spec), params);
  const auto decisions = controller.run(faulted, 360.0);

  EXPECT_EQ(controller.stats().failure_restarts, 1);
  EXPECT_EQ(controller.stats().lag_drains, 1);
  ASSERT_EQ(decisions.size(), 2u);
  // The boost: every operator scaled by ceil(1 * 1.5) = 2, applied once.
  EXPECT_EQ(decisions[0].trigger, core::ScalingTrigger::kLagDrain);
  EXPECT_EQ(decisions[0].algorithm, "lag-drain");
  EXPECT_EQ(decisions[0].applied, runtime::Parallelism({2, 2, 2}));
  EXPECT_FALSE(decisions[0].execute_failed);
  // The restore: back to the pre-drain configuration once the lag is
  // below bound * rate.
  EXPECT_EQ(decisions[1].trigger, core::ScalingTrigger::kLagDrain);
  EXPECT_EQ(decisions[1].algorithm, "lag-drain-restore");
  EXPECT_EQ(decisions[1].applied, runtime::Parallelism({1, 1, 1}));
  EXPECT_EQ(faulted.parallelism(), runtime::Parallelism({1, 1, 1}));
  // The downtime backlog is actually gone by the horizon.
  EXPECT_LT(faulted.window_metrics().kafka_lag, 5.0 * 50000.0);
}

TEST(ControllerResilience, LagDrainGivesUpAtIntervalCap) {
  sim::JobSpec spec = chain_spec(50000.0);
  fault::FaultSchedule sched;
  sched.machine_down(0, 120.0, 60.0, 10.0);
  sim::ScalingSession session(spec, {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);

  core::ControllerParams params = lag_drain_params();
  params.resilience.lag_drain_bound_sec = 0.001;  // ~unreachable bound
  params.resilience.lag_drain_max_intervals = 1;
  core::AuTraScaleController controller(
      spec.topology, sim::make_trial_service(spec), params);
  const auto decisions = controller.run(faulted, 300.0);

  // One drain window, then the cap restores unconditionally.
  EXPECT_EQ(controller.stats().lag_drains, 1);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[1].algorithm, "lag-drain-restore");
  EXPECT_EQ(faulted.parallelism(), runtime::Parallelism({1, 1, 1}));
}

TEST(ControllerResilience, LagDrainBoostFailureIsSingleAttempt) {
  // An environment that cannot rescale right after a crash: the boost is
  // attempted exactly once, recorded as failed, and never retried — the
  // drain is an opportunistic optimisation, not a correctness action.
  sim::JobSpec spec = chain_spec(50000.0);
  fault::FaultSchedule sched;
  sched.machine_down(0, 120.0, 60.0, 10.0);
  sched.rescale_failure(0.0, 3600.0, 0);  // every attempt fails
  sim::ScalingSession session(spec, {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);

  core::ControllerParams params = lag_drain_params();
  params.resilience.lag_drain_bound_sec = 5.0;
  core::AuTraScaleController controller(
      spec.topology, sim::make_trial_service(spec), params);
  const auto decisions = controller.run(faulted, 360.0);

  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].trigger, core::ScalingTrigger::kLagDrain);
  EXPECT_TRUE(decisions[0].execute_failed);
  EXPECT_EQ(decisions[0].applied, runtime::Parallelism({1, 1, 1}));
  EXPECT_EQ(decisions[0].rescale_retries, 1);
  EXPECT_EQ(controller.stats().lag_drains, 0);  // never entered the drain
  EXPECT_EQ(controller.stats().rescale_retries, 1);
  EXPECT_EQ(controller.stats().rescale_aborts, 0);
  EXPECT_EQ(faulted.parallelism(), runtime::Parallelism({1, 1, 1}));
}

TEST(ControllerResilience, LagDrainIsInertByDefault) {
  // Default ResilienceParams: the same crash produces a restart and
  // nothing else — no boost, no decision, no stats movement.
  sim::JobSpec spec = chain_spec(50000.0);
  fault::FaultSchedule sched;
  sched.machine_down(0, 120.0, 60.0, 10.0);
  sim::ScalingSession session(spec, {1, 1, 1});
  fault::FaultInjectingBackend faulted(session, sched);

  core::AuTraScaleController controller(
      spec.topology, sim::make_trial_service(spec), lag_drain_params());
  const auto decisions = controller.run(faulted, 360.0);

  EXPECT_TRUE(decisions.empty());
  EXPECT_EQ(controller.stats().failure_restarts, 1);
  EXPECT_EQ(controller.stats().lag_drains, 0);
}

// --- Mirror retention (StreamingBackend::retain_history) -------------------

/// A forwarding decorator that does not pass retain_history() on, like a
/// tracing wrapper written without it: the backend it wraps keeps every
/// point.
class UndeclaredBackend final : public runtime::StreamingBackend {
 public:
  explicit UndeclaredBackend(runtime::StreamingBackend& inner)
      : inner_(inner) {}
  void run_for(double sec) override { inner_.run_for(sec); }
  void reconfigure(const runtime::Parallelism& p,
                   runtime::RescaleMode mode =
                       runtime::RescaleMode::kColdRestart) override {
    inner_.reconfigure(p, mode);
  }
  [[nodiscard]] double now() const override { return inner_.now(); }
  [[nodiscard]] const runtime::Parallelism& parallelism() const override {
    return inner_.parallelism();
  }
  [[nodiscard]] runtime::JobMetrics window_metrics() const override {
    return inner_.window_metrics();
  }
  void reset_window() override { inner_.reset_window(); }
  [[nodiscard]] const runtime::MetricStore& history() const override {
    return inner_.history();
  }
  [[nodiscard]] int restarts() const override { return inner_.restarts(); }

 private:
  runtime::StreamingBackend& inner_;
};

TEST(MirrorRetention, DeclaredWindowBoundsTheMirrorAndMovesNoDecision) {
  // Twelve simulated hours of chaos, metric dropouts and delays among the
  // faults, through the decorator: once with the controller's declaration
  // reaching the mirror, once through a wrapper that drops it.
  const double horizon = 12.0 * 3600.0;
  const sim::JobSpec spec =
      workloads::word_count(std::make_shared<sim::ConstantRate>(220e3));
  const fault::ChaosProfile profile =
      fault::ChaosProfile::for_job(spec, horizon, 0.5);
  const fault::FaultSchedule schedule =
      fault::ChaosGenerator(profile).generate(1);
  ASSERT_TRUE(schedule.has_metric_faults());

  core::ControllerParams params;
  params.steady.target_latency_ms = 300.0;
  params.steady.target_throughput = 0.0;  // Track the input rate.
  params.steady.bootstrap_m = 4;
  params.steady.max_evaluations = 24;
  params.policy_interval_sec = 60.0;
  params.policy_running_time_sec = 120.0;
  params.resilience.metric_interval_sec = spec.engine.metric_interval_sec;
  params.resilience.failure_cooldown_sec = 60.0;

  struct Episode {
    std::vector<core::ControlDecision> decisions;
    core::LoopStats stats;
    double window_sec = 0.0;
    std::size_t most_held = 0;  ///< In one series, at any window end.
  };
  const auto episode = [&](bool declare) {
    Episode ep;
    sim::ScalingSession session(
        spec, sim::Parallelism(spec.topology.num_operators(), 1));
    fault::FaultInjectingBackend faulted(session, schedule);
    UndeclaredBackend undeclared(faulted);
    runtime::StreamingBackend& backend =
        declare ? static_cast<runtime::StreamingBackend&>(faulted)
                : undeclared;
    core::AuTraScaleController controller(
        spec.topology, sim::make_trial_service(spec), params);
    const runtime::MetricStore& mirror = faulted.history();
    controller.prime(backend);
    while (runtime::before_horizon(backend, horizon)) {
      backend.reset_window();
      const double t0 = backend.now();
      backend.run_for(std::min(params.policy_interval_sec, horizon - t0));
      for (std::uint32_t i = 0; i < mirror.registry().size(); ++i) {
        ep.most_held = std::max(
            ep.most_held, mirror.series(runtime::MetricId(i)).times.size());
      }
      controller.observe_window(backend, t0, ep.decisions);
    }
    ep.stats = controller.stats();
    ep.window_sec = controller.history_window_sec();
    return ep;
  };
  const Episode bounded = episode(true);
  const Episode unbounded = episode(false);

  EXPECT_FALSE(bounded.decisions.empty());
  EXPECT_EQ(bounded.decisions, unbounded.decisions);
  EXPECT_EQ(bounded.stats, unbounded.stats);
  const auto most = static_cast<std::size_t>(std::ceil(
                        bounded.window_sec / spec.engine.metric_interval_sec)) +
                    1;
  EXPECT_LE(bounded.most_held, most);
  EXPECT_GT(unbounded.most_held, 100 * most);
}

TEST(ChaosProfile, ForClusterCapsEventsAtTenMinutes) {
  // Up to a 5000 s horizon the cap leaves the fraction at exactly 0.12,
  // so no committed schedule moves; beyond it no event outlasts 600 s.
  const sim::Cluster cluster(sim::paper_cluster());
  for (const double horizon : {600.0, 1800.0, 4999.0, 5000.0}) {
    EXPECT_EQ(fault::ChaosProfile::for_cluster(cluster, horizon)
                  .max_duration_frac,
              0.12)
        << horizon;
  }
  const sim::JobSpec spec = chain_spec(50000.0);
  for (const double horizon : {5001.0, 43200.0, 86400.0}) {
    const fault::ChaosProfile profile =
        fault::ChaosProfile::for_job(spec, horizon, 2.0);
    EXPECT_EQ(profile.max_duration_frac, 600.0 / horizon) << horizon;
    EXPECT_LT(profile.max_duration_frac, 0.12) << horizon;
    const fault::FaultSchedule schedule =
        fault::ChaosGenerator(profile).generate(7);
    ASSERT_FALSE(schedule.empty());
    double longest = 0.0;
    for (const fault::FaultEvent& e : schedule.events()) {
      longest = std::max(longest, e.duration);
    }
    EXPECT_LE(longest, 600.0 + 1e-9) << horizon;
  }
}

TEST(Resilience, BaselineLoopStopsWhenClockEndsShortOfHorizon) {
  // 0.2 s ticks sum to 599.99999999999943 on this job, a rounding error
  // short of the horizon that no run_for() step can close.
  sim::JobSpec spec = workloads::synthetic_chain(
      8, arrival::make_arrival("diurnal", 200e3, 1, 600.0), 10.0);
  spec.engine.tick_sec = 0.2;
  fault::ResilienceOptions opt;
  opt.horizon_sec = 600.0;
  const fault::ResilienceReport r =
      fault::run_resilience("threshold", spec, fault::FaultSchedule{}, opt);
  EXPECT_GT(r.mean_throughput, 0.0);
  EXPECT_EQ(r.failure_restarts, 0);
}

TEST(Resilience, RejectsUnknownPolicy) {
  const sim::JobSpec spec = chain_spec(30000.0);
  EXPECT_THROW(
      fault::run_resilience("nope", spec, fault::FaultSchedule{}, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace autra
