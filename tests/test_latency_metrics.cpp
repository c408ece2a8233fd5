// Unit tests for the latency accumulator and the metric time-series store.
#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "runtime/metrics.hpp"
#include "streamsim/latency.hpp"

#include <gtest/gtest.h>

namespace autra::sim {
namespace {

// The mean-only questions, asked of both accumulators.
template <typename T>
class MeanAccumulator : public ::testing::Test {};

using Accumulators = ::testing::Types<LatencyStats, MassWeightedMean>;
TYPED_TEST_SUITE(MeanAccumulator, Accumulators);

TYPED_TEST(MeanAccumulator, EmptyState) {
  const TypeParam s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.total_mass(), 0.0);
}

TYPED_TEST(MeanAccumulator, WeightedMean) {
  TypeParam s;
  s.add(1.0, 3.0);
  s.add(2.0, 1.0);
  EXPECT_NEAR(s.mean(), 1.25, 1e-12);
  EXPECT_DOUBLE_EQ(s.total_mass(), 4.0);
}

TYPED_TEST(MeanAccumulator, ZeroMassIgnored) {
  TypeParam s;
  s.add(5.0, 0.0);
  s.add(5.0, -1.0);
  EXPECT_TRUE(s.empty());
}

TYPED_TEST(MeanAccumulator, Reset) {
  TypeParam s;
  s.add(1.0, 5.0);
  s.reset();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

// The engine answers its mean-only gauges with MassWeightedMean where it
// used to keep a LatencyStats: the sums must agree bit for bit.
TEST(MassWeightedMean, SameStreamSameSumsAsLatencyStats) {
  constexpr std::uint64_t kStreamSeed = 11;
  std::mt19937_64 rng(kStreamSeed);
  std::uniform_real_distribution<double> latency(0.0, 2.0);
  std::uniform_real_distribution<double> mass(-1.0, 500.0);
  LatencyStats full;
  MassWeightedMean lean;
  for (int i = 0; i < 20000; ++i) {
    const double l = latency(rng);
    const double m = mass(rng);
    full.add(l, m);
    lean.add(l, m);
    if (i == 7000) {
      full.reset();
      lean.reset();
    }
  }
  EXPECT_EQ(full.mean(), lean.mean());
  EXPECT_EQ(full.total_mass(), lean.total_mass());
}

TEST(LatencyStats, QuantileBoundsAndMonotonicity) {
  LatencyStats s;
  EXPECT_EQ(s.quantiles(std::array{0.5, 0.99}),
            (std::vector<double>{0.0, 0.0}));  // Empty.
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i), 1.0);
  const std::vector<double> q = s.quantiles(std::array{0.1, 0.5, 0.99});
  ASSERT_EQ(q.size(), 3u);
  EXPECT_LE(q[0], q[1]);
  EXPECT_LE(q[1], q[2]);
  EXPECT_GE(q[0], 1.0);
  EXPECT_LE(q[2], 1000.0);
  EXPECT_NEAR(q[1], 500.0, 120.0);  // Reservoir approximation.
  // Out of order, each q still gets its own answer.
  EXPECT_EQ(s.quantiles(std::array{0.99, 0.1, 0.5}),
            (std::vector<double>{q[2], q[0], q[1]}));
}

TEST(LatencyStats, QuantileValidation) {
  LatencyStats s;
  s.add(1.0, 1.0);
  EXPECT_THROW((void)s.quantiles(std::array{-0.1}), std::invalid_argument);
  EXPECT_THROW((void)s.quantiles(std::array{0.5, 1.1}), std::invalid_argument);
}

TEST(MetricsDb, RecordAndQueryWindow) {
  runtime::MetricStore db;
  const runtime::MetricId x = db.resolve("x");
  db.record(x, 0.0, 1.0);
  db.record(x, 1.0, 2.0);
  db.record(x, 2.0, 3.0);
  const auto [first, last] = db.range(x, 0.5, 2.0);
  ASSERT_EQ(last - first, 2u);
  const runtime::MetricStore::SeriesView v = db.series(x);
  EXPECT_DOUBLE_EQ(v.values[first], 2.0);
  EXPECT_DOUBLE_EQ(v.values[last - 1], 3.0);
}

TEST(MetricsDb, UnknownSeriesEmpty) {
  const runtime::MetricStore db;
  const runtime::MetricId nope = db.find("nope");
  EXPECT_FALSE(nope.valid());
  EXPECT_TRUE(db.series(nope).times.empty());
  EXPECT_FALSE(db.mean(nope, 0.0, 1.0).has_value());
  EXPECT_FALSE(db.last(nope).has_value());
  EXPECT_FALSE(db.has_series("nope"));
}

TEST(MetricsDb, TimeMustNotGoBackwards) {
  runtime::MetricStore db;
  const runtime::MetricId x = db.resolve("x");
  const runtime::MetricId y = db.resolve("y");
  db.record(x, 5.0, 1.0);
  EXPECT_THROW(db.record(x, 4.0, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(db.record(x, 5.0, 2.0));  // equal time is fine
  EXPECT_NO_THROW(db.record(y, 0.0, 1.0));  // other series independent
}

TEST(MetricsDb, NonFinitePointsAreDroppedAndCounted) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  runtime::MetricStore db;
  const runtime::MetricId x = db.resolve("x");
  db.record(x, 0.0, 10.0);
  for (const double bad : {nan, inf, -inf}) {
    db.record(x, bad, 5.0);
    db.record(x, 1.0, bad);
  }
  EXPECT_EQ(db.nonfinite_dropped(), 6u);
  EXPECT_EQ(db.series(x).times.size(), 1u);
  db.record(x, 2.0, 20.0);
  EXPECT_EQ(db.series(x).values.size(), 2u);
  EXPECT_DOUBLE_EQ(db.mean(x, 0.0, 2.0).value(), 15.0);
  EXPECT_DOUBLE_EQ(db.mean(x, 1.0, 2.0).value(), 20.0);
  const auto last = db.last(x);
  ASSERT_TRUE(last);
  EXPECT_DOUBLE_EQ(last->time, 2.0);
  EXPECT_DOUBLE_EQ(last->value, 20.0);
  EXPECT_THROW(db.record(x, 1.5, 1.0), std::invalid_argument);
  EXPECT_EQ(db.nonfinite_dropped(), 6u);
  db.clear();
  EXPECT_EQ(db.nonfinite_dropped(), 0u);
}

TEST(MetricsDb, MeanOverWindow) {
  runtime::MetricStore db;
  const runtime::MetricId x = db.resolve("x");
  db.record(x, 0.0, 10.0);
  db.record(x, 1.0, 20.0);
  db.record(x, 2.0, 90.0);
  EXPECT_DOUBLE_EQ(db.mean(x, 0.0, 1.0).value(), 15.0);
  EXPECT_FALSE(db.mean(x, 10.0, 20.0).has_value());
}

TEST(MetricsDb, Last) {
  runtime::MetricStore db;
  const runtime::MetricId x = db.resolve("x");
  db.record(x, 0.0, 1.0);
  db.record(x, 9.0, 42.0);
  const auto p = db.last(x);
  ASSERT_TRUE(p);
  EXPECT_DOUBLE_EQ(p->time, 9.0);
  EXPECT_DOUBLE_EQ(p->value, 42.0);
}

TEST(MetricsDb, SeriesNamesAndClear) {
  runtime::MetricStore db;
  db.record(db.resolve("b"), 0.0, 1.0);
  db.record(db.resolve("a"), 0.0, 1.0);
  EXPECT_EQ(db.series_names(), (std::vector<std::string>{"a", "b"}));
  db.clear();
  EXPECT_TRUE(db.series_names().empty());
}

TEST(MetricsDb, CsvExportSelectedSeries) {
  runtime::MetricStore db;
  const runtime::MetricId a = db.resolve("a");
  db.record(a, 0.0, 1.0);
  db.record(a, 1.0, 2.0);
  db.record(db.resolve("b"), 1.0, 20.0);
  std::ostringstream out;
  const std::vector<std::string> cols{"a", "b"};
  db.write_csv(out, cols);
  EXPECT_EQ(out.str(),
            "time,a,b\n"
            "0,1,\n"
            "1,2,20\n");
}

TEST(MetricsDb, CsvExportAllSeriesByDefault) {
  runtime::MetricStore db;
  db.record(db.resolve("x"), 0.0, 5.0);
  std::ostringstream out;
  db.write_csv(out);
  EXPECT_EQ(out.str(), "time,x\n0,5\n");
}

TEST(MetricsDb, CsvExportUnknownSeriesGivesEmptyColumn) {
  runtime::MetricStore db;
  db.record(db.resolve("x"), 0.0, 5.0);
  std::ostringstream out;
  const std::vector<std::string> cols{"x", "ghost"};
  db.write_csv(out, cols);
  EXPECT_EQ(out.str(), "time,x,ghost\n0,5,\n");
}

TEST(MetricNames, FlinkStylePaths) {
  EXPECT_EQ(runtime::metric_names::true_rate("count"),
            "taskmanager.job.task.trueProcessingRate.count");
  EXPECT_EQ(runtime::metric_names::observed_rate("count"),
            "taskmanager.job.task.observedProcessingRate.count");
  EXPECT_EQ(runtime::metric_names::input_rate("x"),
            "taskmanager.job.task.numRecordsInPerSecond.x");
  EXPECT_EQ(runtime::metric_names::output_rate("x"),
            "taskmanager.job.task.numRecordsOutPerSecond.x");
  EXPECT_EQ(runtime::metric_names::queue_size("x"),
            "taskmanager.job.task.inputQueueLength.x");
}

}  // namespace
}  // namespace autra::sim
