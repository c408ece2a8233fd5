// Cross-module property suites: invariants that must hold across workloads,
// parallelism configurations, kernels and seeds.
#include "core/bootstrap.hpp"
#include "core/scoring.hpp"
#include "core/throughput_opt.hpp"
#include "streamsim/job_runner.hpp"
#include "workloads/workloads.hpp"

#include <cmath>
#include <random>

#include <gtest/gtest.h>

namespace autra {
namespace {

using sim::ConstantRate;
using runtime::JobMetrics;
using sim::Parallelism;

// ---------------------------------------------------------------------------
// Engine conservation and sanity across workloads x parallelism.
// ---------------------------------------------------------------------------

struct EngineCase {
  const char* workload;
  int parallelism;
  double rate;
};

// The workload is a std::string, not a const char*: gtest prints a pointer
// inside a tuple with its address, which would put a per-run address into
// every test name.
class EngineInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

sim::JobSpec spec_for(const std::string& name, double rate) {
  auto schedule = std::make_shared<ConstantRate>(rate);
  sim::JobSpec spec;
  if (name == "wordcount") {
    spec = workloads::word_count(schedule);
  } else if (name == "yahoo") {
    spec = workloads::yahoo_streaming(schedule);
  } else if (name == "q5") {
    spec = workloads::nexmark_q5(schedule);
  } else if (name == "q1") {
    spec = workloads::nexmark_q1(schedule);
  } else if (name == "q8") {
    spec = workloads::nexmark_q8(schedule);
  } else {
    spec = workloads::nexmark_q11(schedule);
  }
  spec.engine.measurement_noise = 0.0;
  return spec;
}

double default_rate(const std::string& name) {
  if (name == "wordcount") return 200000.0;
  if (name == "yahoo") return 30000.0;
  if (name == "q5") return 20000.0;
  if (name == "q1") return 120000.0;
  if (name == "q8") return 25000.0;
  return 60000.0;  // q11
}

TEST_P(EngineInvariants, ConservationAndBounds) {
  const auto& [name, p] = GetParam();
  sim::JobSpec spec = spec_for(name, default_rate(name));
  spec.engine.latency_percentiles = true;
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 30.0, .measure_sec = 30.0});
  const JobMetrics m =
      runner.measure(Parallelism(runner.num_operators(), p));

  // Throughput never exceeds the input rate at steady state (no backlog
  // existed before the window).
  EXPECT_LE(m.throughput, m.input_rate * 1.05) << name << " p=" << p;
  EXPECT_GE(m.throughput, 0.0);

  // Latency percentiles are ordered and positive once traffic flowed.
  ASSERT_TRUE(m.latency_percentiles.has_value());
  if (m.throughput > 0.0) {
    const runtime::LatencyPercentiles& lat = *m.latency_percentiles;
    EXPECT_GT(m.latency_ms, 0.0);
    EXPECT_LE(lat.p50_ms, lat.p95_ms + 1e-9);
    EXPECT_LE(lat.p95_ms, lat.p99_ms + 1e-9);
    EXPECT_GE(m.event_latency_ms, m.latency_ms - 1.0);
  }

  // Rates are finite and non-negative; observed <= true per instance.
  for (const runtime::OperatorRates& r : m.operators) {
    EXPECT_TRUE(std::isfinite(r.true_rate_per_instance));
    EXPECT_GE(r.true_rate_per_instance, 0.0);
    EXPECT_LE(r.observed_rate_per_instance,
              r.true_rate_per_instance * 1.05);
  }

  // Resource accounting is bounded by the cluster.
  EXPECT_GE(m.busy_cores, 0.0);
  EXPECT_LE(m.busy_cores, 60.0);
  EXPECT_GT(m.memory_mb, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndParallelism, EngineInvariants,
    ::testing::Combine(
        ::testing::Values("wordcount", "yahoo", "q5", "q11", "q1", "q8"),
        ::testing::Values(1, 2, 4, 8, 16)));

// ---------------------------------------------------------------------------
// Throughput monotonicity: more parallelism never reduces steady
// throughput by more than the noise/interference wiggle.
// ---------------------------------------------------------------------------

class ThroughputMonotonicity
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ThroughputMonotonicity, NonDecreasingUpToSaturation) {
  const std::string name = GetParam();
  sim::JobRunner runner(spec_for(name, default_rate(name)),
      {.warmup_sec = 30.0, .measure_sec = 30.0});
  double prev = 0.0;
  for (int p : {1, 2, 4, 8}) {
    const JobMetrics m =
        runner.measure(Parallelism(runner.num_operators(), p));
    EXPECT_GE(m.throughput, prev * 0.9)
        << name << ": throughput collapsed at p=" << p;
    prev = std::max(prev, m.throughput);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ThroughputMonotonicity,
                         ::testing::Values("wordcount", "yahoo", "q5", "q11",
                                           "q1", "q8"));

// ---------------------------------------------------------------------------
// Scoring function bounds across random configurations.
// ---------------------------------------------------------------------------

class ScoreBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScoreBounds, AlwaysWithinZeroOne) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> kdist(1, 60);
  std::uniform_real_distribution<double> ldist(0.0, 2000.0);
  std::uniform_real_distribution<double> adist(0.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + GetParam() % 6;
    Parallelism base(n), current(n);
    for (std::size_t i = 0; i < n; ++i) {
      base[i] = kdist(rng);
      current[i] = kdist(rng);
    }
    const core::ScoreParams params{.target_latency_ms = 100.0,
                                   .alpha = adist(rng),
                                   .base = base};
    const double f = core::benefit_score(current, ldist(rng), params);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreBounds,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---------------------------------------------------------------------------
// Bootstrap samples always live in the BO search space.
// ---------------------------------------------------------------------------

class BootstrapInSpace : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BootstrapInSpace, WithinBounds) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> kdist(1, 20);
  std::uniform_int_distribution<int> mdist(1, 10);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + trial % 5;
    Parallelism base(n);
    for (std::size_t i = 0; i < n; ++i) base[i] = kdist(rng);
    const int p_max = 20 + kdist(rng);
    const auto samples = core::bootstrap_samples(base, p_max, mdist(rng));
    ASSERT_FALSE(samples.empty());
    for (const auto& s : samples) {
      ASSERT_EQ(s.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_GE(s[i], base[i]);
        EXPECT_LE(s[i], p_max);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BootstrapInSpace,
                         ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------------------
// Eq. 3 scaling is scale-invariant: doubling target rate never reduces any
// operator's recommended parallelism.
// ---------------------------------------------------------------------------

TEST(ScaleStepProperty, MonotoneInTargetRate) {
  sim::JobRunner runner(spec_for("wordcount", 200000.0),
      {.warmup_sec = 30.0, .measure_sec = 30.0});
  const JobMetrics m = runner.measure(Parallelism(4, 4));
  const auto& topo = runner.spec().topology;
  Parallelism prev(4, 1);
  for (double target : {50e3, 100e3, 200e3, 400e3}) {
    const Parallelism rec = core::scale_step(topo, m, target, 60);
    for (std::size_t i = 0; i < rec.size(); ++i) {
      EXPECT_GE(rec[i], prev[i]) << "target=" << target << " op=" << i;
    }
    prev = rec;
  }
}

// ---------------------------------------------------------------------------
// Interference ablation: with interference disabled, throughput scales
// almost linearly (DS2's assumption holds), with it enabled it does not.
// ---------------------------------------------------------------------------

TEST(InterferenceAblation, LinearWithoutInterference) {
  auto measure_scaling = [](bool enabled) {
    sim::JobSpec spec = spec_for("wordcount", 1e9);  // never input-limited
    spec.engine.interference.enabled = enabled;
    sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 20.0, .measure_sec = 20.0});
    const double t1 =
        runner.measure(Parallelism(4, 1)).throughput;
    const double t4 =
        runner.measure(Parallelism(4, 4)).throughput;
    return t4 / t1;
  };
  const double without = measure_scaling(false);
  const double with = measure_scaling(true);
  EXPECT_GT(without, 3.6);  // near-linear 4x
  EXPECT_LT(with, without);  // interference breaks linearity
}

}  // namespace
}  // namespace autra
