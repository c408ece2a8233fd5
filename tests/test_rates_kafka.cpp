// Unit tests for rate schedules and the Kafka log stand-in.
#include "streamsim/kafka.hpp"
#include "streamsim/rates.hpp"

#include <gtest/gtest.h>

namespace autra::sim {
namespace {

TEST(ConstantRate, Basics) {
  const ConstantRate r(1000.0);
  EXPECT_DOUBLE_EQ(r.rate_at(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(r.rate_at(1e6), 1000.0);
  EXPECT_THROW(ConstantRate(-1.0), std::invalid_argument);
}

TEST(StaircaseRate, PaperFig1Schedule) {
  // 100k records/s, +50k every 600 s (Fig. 1).
  const StaircaseRate r(100e3, 50e3, 600.0);
  EXPECT_DOUBLE_EQ(r.rate_at(0.0), 100e3);
  EXPECT_DOUBLE_EQ(r.rate_at(599.9), 100e3);
  EXPECT_DOUBLE_EQ(r.rate_at(600.0), 150e3);
  EXPECT_DOUBLE_EQ(r.rate_at(2400.0), 300e3);
  EXPECT_DOUBLE_EQ(r.rate_at(-5.0), 100e3);
}

TEST(StaircaseRate, NegativeStepsClampAtZero) {
  const StaircaseRate r(100.0, -60.0, 10.0);
  EXPECT_DOUBLE_EQ(r.rate_at(25.0), 0.0);
}

TEST(StaircaseRate, Validation) {
  EXPECT_THROW(StaircaseRate(-1.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(StaircaseRate(1.0, 1.0, 0.0), std::invalid_argument);
}

TEST(PiecewiseRate, LookupAndValidation) {
  const PiecewiseRate r({{0.0, 10.0}, {100.0, 20.0}, {200.0, 5.0}});
  EXPECT_DOUBLE_EQ(r.rate_at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(r.rate_at(99.0), 10.0);
  EXPECT_DOUBLE_EQ(r.rate_at(100.0), 20.0);
  EXPECT_DOUBLE_EQ(r.rate_at(500.0), 5.0);
  EXPECT_THROW(PiecewiseRate({}), std::invalid_argument);
  EXPECT_THROW(PiecewiseRate({{1.0, 10.0}}), std::invalid_argument);
  EXPECT_THROW(PiecewiseRate({{0.0, 10.0}, {0.0, 20.0}}),
               std::invalid_argument);
  EXPECT_THROW(PiecewiseRate({{0.0, -10.0}}), std::invalid_argument);
}

TEST(RateSchedule, CloneIsDeep) {
  const StaircaseRate r(10.0, 5.0, 1.0);
  const auto c = r.clone();
  EXPECT_DOUBLE_EQ(c->rate_at(2.5), 20.0);
}

TEST(KafkaLog, NullScheduleThrows) {
  EXPECT_THROW(KafkaLog(std::shared_ptr<const RateSchedule>()),
               std::invalid_argument);
}

TEST(KafkaLog, ProduceAccumulatesLag) {
  KafkaLog log(std::make_shared<ConstantRate>(1000.0));
  log.produce(0.0, 1.0);
  log.produce(1.0, 1.0);
  EXPECT_DOUBLE_EQ(log.lag(), 2000.0);
  EXPECT_DOUBLE_EQ(log.total_produced(), 2000.0);
  EXPECT_DOUBLE_EQ(log.total_consumed(), 0.0);
}

TEST(KafkaLog, ConsumePartialCohort) {
  KafkaLog log(std::make_shared<ConstantRate>(1000.0));
  log.produce(0.0, 1.0);
  std::vector<LogCohort> taken;
  log.consume(300.0, taken);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_DOUBLE_EQ(taken.front().mass, 300.0);
  EXPECT_DOUBLE_EQ(taken.front().produced_time, 0.5);
  EXPECT_DOUBLE_EQ(log.lag(), 700.0);
  EXPECT_DOUBLE_EQ(log.total_consumed(), 300.0);
}

TEST(KafkaLog, ConsumeSpansCohortsFifo) {
  KafkaLog log(std::make_shared<ConstantRate>(100.0));
  log.produce(0.0, 1.0);   // 100 @ t=0.5
  log.produce(1.0, 1.0);   // 100 @ t=1.5
  std::vector<LogCohort> taken;
  log.consume(150.0, taken);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_DOUBLE_EQ(taken[0].mass, 100.0);
  EXPECT_DOUBLE_EQ(taken[0].produced_time, 0.5);
  EXPECT_DOUBLE_EQ(taken[1].mass, 50.0);
  EXPECT_DOUBLE_EQ(taken[1].produced_time, 1.5);
  EXPECT_DOUBLE_EQ(log.lag(), 50.0);
}

TEST(KafkaLog, ConsumeMoreThanAvailable) {
  KafkaLog log(std::make_shared<ConstantRate>(100.0));
  log.produce(0.0, 1.0);
  std::vector<LogCohort> taken;
  log.consume(500.0, taken);
  double total = 0.0;
  for (const auto& c : taken) total += c.mass;
  EXPECT_DOUBLE_EQ(total, 100.0);
  EXPECT_DOUBLE_EQ(log.lag(), 0.0);
  log.consume(10.0, taken);
  EXPECT_TRUE(taken.empty());
}

TEST(KafkaLog, ZeroRateProducesNothing) {
  KafkaLog log(std::make_shared<ConstantRate>(0.0));
  log.produce(0.0, 10.0);
  EXPECT_DOUBLE_EQ(log.lag(), 0.0);
}

TEST(KafkaLog, ClearDropsPending) {
  KafkaLog log(std::make_shared<ConstantRate>(100.0));
  log.produce(0.0, 1.0);
  log.clear();
  EXPECT_DOUBLE_EQ(log.lag(), 0.0);
  std::vector<LogCohort> taken;
  log.consume(10.0, taken);
  EXPECT_TRUE(taken.empty());
  // Totals are preserved (clear only drops pending records).
  EXPECT_DOUBLE_EQ(log.total_produced(), 100.0);
}

TEST(KafkaLog, RateAtDelegatesToSchedule) {
  KafkaLog log(std::make_shared<StaircaseRate>(10.0, 10.0, 1.0));
  EXPECT_DOUBLE_EQ(log.rate_at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(log.rate_at(1.5), 20.0);
}

}  // namespace
}  // namespace autra::sim
