// Tests for the MAPE control loop (Sec. IV).
#include "core/controller.hpp"

#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

namespace autra::core {
namespace {

using sim::ConstantRate;
using sim::Parallelism;
using sim::PiecewiseRate;

sim::JobSpec quiet(sim::JobSpec spec) {
  spec.engine.measurement_noise = 0.0;
  return spec;
}

ControllerParams small_controller_params(double target_latency_ms,
                                         double target_throughput) {
  ControllerParams p;
  p.steady.target_latency_ms = target_latency_ms;
  p.steady.target_throughput = target_throughput;
  p.steady.bootstrap_m = 4;
  p.steady.max_evaluations = 20;
  p.policy_interval_sec = 30.0;
  p.policy_running_time_sec = 60.0;
  return p;
}

TEST(MetricAggregator, SummarisesWindow) {
  auto spec = quiet(autra::workloads::synthetic_chain(
      3, std::make_shared<ConstantRate>(30000.0), 10.0));
  sim::ScalingSession session(spec, {1, 1, 1});
  session.run_for(20.0);
  const MetricAggregator agg(spec.topology);
  const AggregatedMetrics m = agg.aggregate(session.history(), 5.0, 20.0);
  EXPECT_NEAR(m.input_rate, 30000.0, 600.0);
  EXPECT_NEAR(m.throughput, 30000.0, 1500.0);
  EXPECT_GT(m.latency_ms, 0.0);
  ASSERT_EQ(m.true_rate.size(), 3u);
  EXPECT_NEAR(m.true_rate[1], 100000.0, 8000.0);  // 10 us operator
}

TEST(MetricAggregator, EmptyWindowYieldsZeros) {
  auto spec = quiet(autra::workloads::synthetic_chain(
      3, std::make_shared<ConstantRate>(100.0), 10.0));
  const MetricAggregator agg(spec.topology);
  const runtime::MetricStore empty;
  const AggregatedMetrics m = agg.aggregate(empty, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(m.throughput, 0.0);
  EXPECT_DOUBLE_EQ(m.latency_ms, 0.0);
}

TEST(TriggerNames, AllCovered) {
  EXPECT_STREQ(to_string(ScalingTrigger::kNone), "none");
  EXPECT_STREQ(to_string(ScalingTrigger::kThroughputViolation),
               "throughput-violation");
  EXPECT_STREQ(to_string(ScalingTrigger::kLatencyViolation),
               "latency-violation");
  EXPECT_STREQ(to_string(ScalingTrigger::kOverProvisioned),
               "over-provisioned");
  EXPECT_STREQ(to_string(ScalingTrigger::kRateChanged), "rate-changed");
}

TEST(Controller, Validation) {
  auto spec = quiet(autra::workloads::synthetic_chain(
      3, std::make_shared<ConstantRate>(100.0), 10.0));
  ControllerParams p = small_controller_params(100.0, 100.0);
  p.policy_running_time_sec = 10.0;  // below the policy interval
  EXPECT_THROW(
      AuTraScaleController(spec.topology, sim::make_trial_service(spec), p),
      std::invalid_argument);
  EXPECT_THROW(AuTraScaleController(spec.topology, nullptr,
                                    small_controller_params(100.0, 100.0)),
               std::invalid_argument);
}

TEST(Controller, ScalesUpUnderProvisionedJob) {
  // 10 us ops, 220k input: one instance cannot keep up, the controller
  // must detect the throughput violation and rescale to meet the rate.
  auto spec = quiet(autra::workloads::synthetic_chain(
      3, std::make_shared<ConstantRate>(220000.0), 10.0));
  sim::ScalingSession session(spec, {1, 1, 1},
      {.restart_downtime_sec = 10.0});
  AuTraScaleController controller(spec.topology, sim::make_trial_service(spec),
                                   small_controller_params(400.0, 220000.0));
  const auto decisions = controller.run(session, 400.0);

  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions.front().trigger,
            ScalingTrigger::kThroughputViolation);
  EXPECT_EQ(decisions.front().algorithm, "algorithm1");
  EXPECT_GT(decisions.front().evaluations, 0);
  // The live job now sustains the input rate.
  session.reset_window();
  session.run_for(60.0);
  EXPECT_GE(session.window_metrics().throughput, 0.95 * 220000.0);
  EXPECT_EQ(controller.library().size(), 1u);
}

TEST(Controller, ScalesDownOverProvisionedJob) {
  // Grossly over-provisioned start: 30 instances per op for a 30k rate.
  auto spec = quiet(autra::workloads::synthetic_chain(
      3, std::make_shared<ConstantRate>(30000.0), 10.0));
  sim::ScalingSession session(spec, {30, 30, 30},
      {.restart_downtime_sec = 10.0});
  AuTraScaleController controller(spec.topology, sim::make_trial_service(spec),
                                   small_controller_params(200.0, 30000.0));
  const auto decisions = controller.run(session, 400.0);

  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions.front().trigger, ScalingTrigger::kOverProvisioned);
  int before = 3 * 30;
  int after = 0;
  for (int k : session.parallelism()) after += k;
  EXPECT_LT(after, before / 2);
  // QoS is still met after scaling down.
  session.reset_window();
  session.run_for(60.0);
  EXPECT_GE(session.window_metrics().throughput, 0.95 * 30000.0);
}

TEST(Controller, RateChangeUsesTransferWhenModelExists) {
  // The job starts under-provisioned at 220k (forcing a first decision
  // that builds a benefit model), then the rate jumps to 330k at t=300;
  // the controller should answer the rate change with algorithm2.
  auto spec = quiet(autra::workloads::synthetic_chain(
      3,
      std::make_shared<PiecewiseRate>(
          std::vector<std::pair<double, double>>{{0.0, 220000.0},
                                                 {300.0, 330000.0}}),
      10.0));
  sim::ScalingSession session(spec, {1, 1, 1},
      {.restart_downtime_sec = 10.0});
  ControllerParams params = small_controller_params(400.0, 0.0);
  params.steady.target_throughput = 0.0;  // track the input rate
  AuTraScaleController controller(spec.topology, sim::make_trial_service(spec),
                                   params);
  const auto decisions = controller.run(session, 700.0);

  ASSERT_GE(decisions.size(), 2u);
  bool saw_transfer = false;
  for (const auto& d : decisions) {
    if (d.algorithm == "algorithm2") {
      saw_transfer = true;
      EXPECT_EQ(d.trigger, ScalingTrigger::kRateChanged);
    }
  }
  EXPECT_TRUE(saw_transfer);
  EXPECT_GE(controller.library().size(), 2u);
}

TEST(Controller, StableJobNeverActs) {
  auto spec = quiet(autra::workloads::synthetic_chain(
      3, std::make_shared<ConstantRate>(30000.0), 10.0));
  // One instance handles 100k/s; 30k with one instance is util 0.3 and the
  // base configuration is (1,1,1): nothing to improve.
  sim::ScalingSession session(spec, {1, 1, 1},
      {.restart_downtime_sec = 10.0});
  AuTraScaleController controller(spec.topology, sim::make_trial_service(spec),
                                   small_controller_params(400.0, 30000.0));
  const auto decisions = controller.run(session, 300.0);
  EXPECT_TRUE(decisions.empty());
  EXPECT_EQ(session.restarts(), 0);
}

}  // namespace
}  // namespace autra::core
