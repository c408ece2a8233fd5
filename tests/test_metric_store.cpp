// Unit tests for the interned-id metrics pipeline: the registry, the
// columnar MetricStore, its window-query boundary behaviour, its retention
// horizon, the CSV export corner cases, and its agreement with the
// three-column reference layout.
#include "runtime/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "three_column_store.hpp"

namespace autra::runtime {
namespace {

TEST(MetricRegistry, InternIsIdempotent) {
  MetricRegistry reg;
  const MetricId a = reg.intern("x");
  const MetricId b = reg.intern("y");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.intern("x"), a);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(a), "x");
  EXPECT_EQ(reg.name(b), "y");
}

TEST(MetricRegistry, FindDoesNotIntern) {
  MetricRegistry reg;
  EXPECT_FALSE(reg.find("missing").valid());
  EXPECT_EQ(reg.size(), 0u);
  reg.intern("present");
  EXPECT_TRUE(reg.find("present").valid());
}

TEST(MetricRegistry, NameOfUnknownIdThrows) {
  MetricRegistry reg;
  EXPECT_THROW(reg.name(MetricId()), std::out_of_range);
  EXPECT_THROW(reg.name(MetricId(7)), std::out_of_range);
}

TEST(MetricStore, WindowIncludesBoundaryPoints) {
  MetricStore db;
  const MetricId id = db.resolve("s");
  db.record(id, 1.0, 10.0);
  db.record(id, 2.0, 20.0);
  db.record(id, 3.0, 30.0);
  // Points exactly at t0 and t1 belong to the window.
  const auto [first, last] = db.range(id, 1.0, 3.0);
  ASSERT_EQ(last - first, 3u);
  const MetricStore::SeriesView v = db.series(id);
  EXPECT_DOUBLE_EQ(v.times[first], 1.0);
  EXPECT_DOUBLE_EQ(v.times[last - 1], 3.0);
  EXPECT_DOUBLE_EQ(db.mean(id, 1.0, 3.0).value(), 20.0);
  EXPECT_DOUBLE_EQ(db.mean(id, 2.0, 2.0).value(), 20.0);
  EXPECT_FALSE(db.mean(id, 3.5, 9.0).has_value());
}

TEST(MetricStore, BackwardsTimeThrowsEqualTimeAllowed) {
  MetricStore db;
  const MetricId id = db.resolve("s");
  db.record(id, 5.0, 1.0);
  db.record(id, 5.0, 2.0);  // Equal timestamps are fine.
  EXPECT_THROW(db.record(id, 4.999, 3.0), std::invalid_argument);
  // Other series are unaffected by s's clock.
  db.record(db.resolve("other"), 0.0, 1.0);
}

TEST(MetricStore, RecordWithForeignIdThrows) {
  MetricStore db;
  EXPECT_THROW(db.record(MetricId(), 0.0, 1.0), std::out_of_range);
  EXPECT_THROW(db.record(MetricId(12), 0.0, 1.0), std::out_of_range);
}

TEST(MetricStore, IdBasedReads) {
  MetricStore db;
  const MetricId id = db.resolve("s");
  db.record(id, 0.0, 1.0);
  db.record(id, 1.0, -2.0);  // Negative values keep cumsum honest.
  db.record(id, 2.0, 4.0);
  EXPECT_EQ(db.find("s"), id);
  EXPECT_DOUBLE_EQ(db.sum(id, 0.0, 2.0).value(), 3.0);
  EXPECT_DOUBLE_EQ(db.mean(id, 0.0, 2.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(db.mean(id, 1.0, 2.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(db.last(id)->value, 4.0);
  const auto [first, last] = db.range(id, 1.0, 2.0);
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(last, 3u);
  const MetricStore::SeriesView v = db.series(id);
  ASSERT_EQ(v.times.size(), 3u);
  EXPECT_DOUBLE_EQ(v.values[1], -2.0);
}

TEST(MetricStore, InvalidIdReadsAreEmpty) {
  const MetricStore db;
  EXPECT_FALSE(db.sum(MetricId(), 0.0, 1.0).has_value());
  EXPECT_FALSE(db.mean(MetricId(), 0.0, 1.0).has_value());
  EXPECT_FALSE(db.last(MetricId()).has_value());
  EXPECT_TRUE(db.series(MetricId()).times.empty());
  EXPECT_EQ(db.range(MetricId(), 0.0, 1.0), (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(MetricStore, SeriesNamesSortedAndClearInvalidates) {
  MetricStore db;
  db.record(db.resolve("b"), 0.0, 1.0);
  db.record(db.resolve("a"), 0.0, 1.0);
  db.resolve("never-written");
  EXPECT_EQ(db.series_names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(db.has_series("a"));
  EXPECT_FALSE(db.has_series("never-written"));
  db.clear();
  EXPECT_TRUE(db.series_names().empty());
  EXPECT_EQ(db.registry().size(), 0u);
  EXPECT_FALSE(db.find("a").valid());
}

TEST(MetricStore, WriteCsvWithUnknownSeries) {
  MetricStore db;
  const MetricId id = db.resolve("known");
  db.record(id, 0.0, 1.5);
  db.record(id, 1.0, 2.5);
  std::ostringstream out;
  const std::vector<std::string> cols = {"known", "unknown"};
  db.write_csv(out, cols);
  EXPECT_EQ(out.str(),
            "time,known,unknown\n"
            "0,1.5,\n"
            "1,2.5,\n");
}

TEST(MetricStore, WriteCsvUnionOfTimestamps) {
  MetricStore db;
  const MetricId a = db.resolve("a");
  db.record(a, 0.0, 1.0);
  db.record(a, 2.0, 3.0);
  db.record(db.resolve("b"), 1.0, 2.0);
  std::ostringstream out;
  db.write_csv(out);  // No selection: every series, sorted.
  EXPECT_EQ(out.str(),
            "time,a,b\n"
            "0,1,\n"
            "1,,2\n"
            "2,3,\n");
}

// --- Retention -------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::optional<double> a, std::optional<double> b) {
  return a.has_value() == b.has_value() && (!a || same_bits(*a, *b));
}

TEST(MetricStoreRetention, WindowsInsideTheHorizonMatchAnUnboundedStore) {
  // Random series with repeated timestamps and non-finite points, written
  // to a bounded and an unbounded store. After every write, the bounded
  // store holds exactly the points within R of the series' newest, every
  // window that starts inside R reads the same doubles from both, and a
  // window reaching a dropped point throws.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const double horizon : {0.0, 0.5, 7.0, 40.0}) {
    MetricStore full;
    MetricStore bounded;
    bounded.retain(horizon);
    std::vector<MetricId> ids;
    for (const char* name : {"a", "b", "c"}) {
      ids.push_back(full.resolve(name));
      ASSERT_EQ(bounded.resolve(name), ids.back());
    }
    std::vector<double> clock(ids.size(), 0.0);
    for (int step = 0; step < 3000; ++step) {
      const std::size_t k = rng() % ids.size();
      if (unit(rng) < 0.7) clock[k] += 2.0 * unit(rng);  // Else a repeat.
      double time = clock[k];
      double value = 100.0 * (unit(rng) - 0.3);
      const double roll = unit(rng);
      if (roll < 0.01) {
        value = kNaN;
      } else if (roll < 0.02) {
        value = kInf;
      } else if (roll < 0.03) {
        time = kNaN;
      }
      full.record(ids[k], time, value);
      bounded.record(ids[k], time, value);

      const MetricId id = ids[k];
      const MetricStore::SeriesView all = full.series(id);
      const MetricStore::SeriesView held = bounded.series(id);
      if (all.times.empty()) continue;
      const double newest = all.times.back();
      const auto kept_from = std::lower_bound(all.times.begin(),
                                              all.times.end(),
                                              newest - horizon);
      const auto dropped =
          static_cast<std::size_t>(kept_from - all.times.begin());
      ASSERT_EQ(held.times.size(), all.times.size() - dropped);
      for (std::size_t i = 0; i < held.times.size(); ++i) {
        ASSERT_TRUE(same_bits(held.times[i], all.times[dropped + i]));
        ASSERT_TRUE(same_bits(held.values[i], all.values[dropped + i]));
      }

      for (int w = 0; w < 4; ++w) {
        const double t0 = w == 0 ? held.times.front()
                                 : newest - horizon +
                                       (horizon + 1.0) * unit(rng);
        const double t1 = t0 + (horizon + 1.0) * unit(rng);
        const auto [f0, l0] = full.range(id, t0, t1);
        const auto [f1, l1] = bounded.range(id, t0, t1);
        ASSERT_EQ(l1 - f1, l0 - f0);
        for (std::size_t i = 0; i < l0 - f0; ++i) {
          ASSERT_TRUE(same_bits(held.values[f1 + i], all.values[f0 + i]));
        }
        ASSERT_TRUE(same_bits(bounded.sum(id, t0, t1), full.sum(id, t0, t1)));
        ASSERT_TRUE(
            same_bits(bounded.mean(id, t0, t1), full.mean(id, t0, t1)));
      }
      if (dropped > 0) {
        const double cut = all.times[dropped - 1];
        EXPECT_THROW(bounded.range(id, cut, newest), HistoryTrimmed);
        EXPECT_THROW(bounded.sum(id, cut - 1.0, cut), HistoryTrimmed);
        EXPECT_THROW(bounded.mean(id, all.times.front(), newest),
                     HistoryTrimmed);
      }
    }
    std::size_t held_total = 0;
    for (const MetricId id : ids) held_total += bounded.series(id).times.size();
    EXPECT_EQ(bounded.points_held(), held_total);
    EXPECT_LT(bounded.points_held(), full.points_held());
    EXPECT_GT(full.nonfinite_dropped(), 0u);
    EXPECT_EQ(bounded.nonfinite_dropped(), full.nonfinite_dropped());
  }
}

TEST(MetricStoreRetention, DeclarationsCombineByMax) {
  MetricStore db;
  const MetricId id = db.resolve("s");
  for (int t = 0; t <= 100; ++t) db.record(id, t, 1.0);
  EXPECT_EQ(db.points_held(), 101u);  // Nobody declared: all kept.

  db.retain(10.0);  // Applies to the points already held.
  EXPECT_EQ(db.series(id).times.size(), 11u);
  EXPECT_EQ(db.sum(id, 90.0, 100.0).value(), 11.0);
  db.retain(0.0);  // A shorter reach leaves the longer one.
  db.record(id, 101.0, 1.0);
  EXPECT_EQ(db.series(id).times.size(), 11u);
  EXPECT_EQ(db.series(id).times.front(), 91.0);

  // A longer reach widens it from here on. Dropped points stay dropped,
  // and a window reaching them throws.
  db.retain(30.0);
  EXPECT_EQ(db.series(id).times.size(), 11u);
  EXPECT_THROW(db.mean(id, 80.0, 101.0), HistoryTrimmed);
  EXPECT_THROW(db.range(id, 90.0, 90.5), std::out_of_range);
  EXPECT_FALSE(db.mean(id, 91.0, 90.0).has_value());  // Reaches nothing.
  for (int t = 102; t <= 200; ++t) db.record(id, t, 1.0);
  EXPECT_EQ(db.series(id).times.size(), 31u);
  EXPECT_EQ(db.last(id)->time, 200.0);

  EXPECT_THROW(db.retain(-1.0), std::invalid_argument);
  EXPECT_THROW(db.retain(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  db.retain(std::numeric_limits<double>::infinity());
  for (int t = 201; t <= 300; ++t) db.record(id, t, 1.0);
  EXPECT_EQ(db.series(id).times.size(), 131u);

  MetricStore cleared;
  cleared.retain(5.0);
  cleared.record(cleared.resolve("s"), 0.0, 1.0);
  cleared.clear();  // Forgets the series, keeps the declaration.
  EXPECT_EQ(cleared.points_held(), 0u);
  const MetricId again = cleared.resolve("s");
  for (int t = 0; t <= 100; ++t) cleared.record(again, t, 1.0);
  EXPECT_EQ(cleared.points_held(), 6u);
}

TEST(MetricStoreRetention, WindowFromMinusInfinityThrowsOnlyAfterADrop) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Nothing dropped, retained or not: the window holds every point.
  for (const bool retained : {false, true}) {
    MetricStore db;
    if (retained) db.retain(5.0);
    const MetricId id = db.resolve("s");
    db.record(id, 1.0, 2.0);
    const auto [first, last] = db.range(id, -kInf, 10.0);
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(last, 1u);
    EXPECT_EQ(db.mean(id, -kInf, 10.0), 2.0);
    EXPECT_EQ(db.sum(id, -kInf, kInf), 2.0);
  }
  MetricStore db;
  db.retain(5.0);
  const MetricId id = db.resolve("s");
  for (int t = 0; t <= 10; ++t) db.record(id, t, 1.0);
  EXPECT_THROW(db.mean(id, -kInf, 10.0), HistoryTrimmed);
}

// --- Agreement with the three-column layout --------------------------------

struct Write {
  std::size_t series = 0;
  double time = 0.0;
  double value = 0.0;
};

/// A random stream over five series. Series 0-2 are written at every
/// instant in lockstep, sometimes in shuffled order; series 3 skips some
/// instants and repeats some timestamps; series 4 joins a third of the way
/// in and sometimes writes just after the shared instant. Instants are
/// irregular and sometimes repeat; values include -0.0 and non-finite
/// points, and some times are NaN.
std::vector<Write> random_stream(std::uint64_t seed, int instants) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto value = [&] {
    const double roll = unit(rng);
    if (roll < 0.03) return -0.0;
    if (roll < 0.04) return kNaN;
    if (roll < 0.05) return -kInf;
    return 100.0 * (unit(rng) - 0.3);
  };
  std::vector<Write> out;
  double t = 0.0;
  double late_clock = 0.0;  // Series 4's newest time.
  std::vector<std::size_t> order = {0, 1, 2, 3, 4};
  for (int i = 0; i < instants; ++i) {
    if (unit(rng) < 0.9) t += 0.25 + 1.5 * unit(rng);
    if (unit(rng) < 0.2) std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t k : order) {
      if (k == 3 && unit(rng) < 0.15) continue;
      if (k == 4 && i < instants / 3) continue;
      double time = t;
      if (k == 4) {
        if (unit(rng) < 0.05) time += 0.2 * unit(rng);
        time = late_clock = std::max(time, late_clock);
      }
      if (unit(rng) < 0.01) time = kNaN;
      out.push_back({k, time, value()});
      if (k == 3 && unit(rng) < 0.1) out.push_back({k, time, value()});
    }
  }
  return out;
}

std::string bits(std::optional<double> v) {
  return v ? std::to_string(std::bit_cast<std::uint64_t>(*v)) : "none";
}

/// Every window read of [t0, t1], as text: index range, sum and mean, or
/// the HistoryTrimmed each throws.
template <typename Store>
std::string window_reads(const Store& db, MetricId id, double t0, double t1) {
  std::string out;
  try {
    const auto [first, last] = db.range(id, t0, t1);
    out += std::to_string(first) + ".." + std::to_string(last);
  } catch (const HistoryTrimmed&) {
    out += "trimmed";
  }
  try {
    out += " sum " + bits(db.sum(id, t0, t1));
  } catch (const HistoryTrimmed&) {
    out += " sum trimmed";
  }
  try {
    out += " mean " + bits(db.mean(id, t0, t1));
  } catch (const HistoryTrimmed&) {
    out += " mean trimmed";
  }
  return out;
}

bool same_doubles(std::span<const double> a, std::span<const double> b) {
  return std::ranges::equal(std::as_bytes(a), std::as_bytes(b));
}

template <typename Store>
std::string csv(const Store& db) {
  std::ostringstream out;
  db.write_csv(out);
  return out.str();
}

/// Compares every read of the two stores; `rng` picks the windows.
::testing::AssertionResult same_reads(const MetricStore& db,
                                      const oracle::ThreeColumnStore& ref,
                                      std::mt19937_64& rng) {
  if (db.points_held() != ref.points_held() ||
      db.nonfinite_dropped() != ref.nonfinite_dropped()) {
    return ::testing::AssertionFailure()
           << "held " << db.points_held() << " vs " << ref.points_held()
           << ", non-finite " << db.nonfinite_dropped() << " vs "
           << ref.nonfinite_dropped();
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::uint32_t i = 0; i < db.registry().size(); ++i) {
    const MetricId id(i);
    const MetricStore::SeriesView a = db.series(id);
    const MetricStore::SeriesView b = ref.series(id);
    if (!same_doubles(a.times, b.times) || !same_doubles(a.values, b.values)) {
      return ::testing::AssertionFailure() << "series " << i << " differs";
    }
    const auto la = db.last(id);
    const auto lb = ref.last(id);
    if (la.has_value() != lb.has_value() ||
        (la && (!same_bits(la->time, lb->time) ||
                !same_bits(la->value, lb->value)))) {
      return ::testing::AssertionFailure() << "last() of " << i << " differs";
    }
    if (b.times.empty()) continue;
    const double front = b.times.front();
    const double back = b.times.back();
    const double span = back - front + 2.0;
    std::vector<std::pair<double, double>> windows = {
        {front, back},       {back, back},
        {back - 1.0, back},  {front - 1.0, back},
        {-std::numeric_limits<double>::infinity(), back}};
    for (int w = 0; w < 6; ++w) {
      const double t0 = front - 1.0 + span * unit(rng);
      windows.emplace_back(t0, t0 + (span * unit(rng) - 1.0));
    }
    for (const auto& [t0, t1] : windows) {
      const std::string got = window_reads(db, id, t0, t1);
      const std::string want = window_reads(ref, id, t0, t1);
      if (got != want) {
        return ::testing::AssertionFailure()
               << "series " << i << " window [" << t0 << ", " << t1
               << "]: " << got << " vs " << want;
      }
    }
  }
  const std::string got = csv(db);
  const std::string want = csv(ref);
  if (got != want) return ::testing::AssertionFailure() << "write_csv differs";
  return ::testing::AssertionSuccess();
}

/// When retention is declared: before the stream, midway through it, or
/// never (nullopt).
struct RetentionCase {
  std::optional<double> before;
  std::optional<double> midway;
};

class MetricStoreOracle : public ::testing::TestWithParam<RetentionCase> {};

/// "Never", "Before3_5", "Midway90", "Before2Midway30", ...
std::string retention_case_name(
    const ::testing::TestParamInfo<RetentionCase>& info) {
  const auto part = [](const char* when, std::optional<double> horizon) {
    if (!horizon) return std::string();
    std::ostringstream out;
    out << when << *horizon;
    std::string s = out.str();
    std::replace(s.begin(), s.end(), '.', '_');
    return s;
  };
  const std::string name =
      part("Before", info.param.before) + part("Midway", info.param.midway);
  return name.empty() ? "Never" : name;
}

TEST_P(MetricStoreOracle, EveryReadMatchesTheThreeColumnLayout) {
  // After every write both layouts answer every read with the same doubles
  // and throw HistoryTrimmed on the same windows.
  const RetentionCase c = GetParam();
  const std::uint64_t seed = std::bit_cast<std::uint64_t>(
      c.before.value_or(-1.0) + 3.0 * c.midway.value_or(-1.0));
  const std::vector<Write> stream = random_stream(seed, 240);
  MetricStore db;
  oracle::ThreeColumnStore ref;
  if (c.before) {
    db.retain(*c.before);
    ref.retain(*c.before);
  }
  std::vector<MetricId> ids;
  for (const char* name : {"s0", "s1", "s2", "s3", "s4"}) {
    ids.push_back(db.resolve(name));
    ASSERT_EQ(ref.resolve(name), ids.back());
  }
  std::mt19937_64 rng(seed);
  for (std::size_t step = 0; step < stream.size(); ++step) {
    if (c.midway && step == stream.size() / 2) {
      db.retain(*c.midway);
      ref.retain(*c.midway);
      ASSERT_TRUE(same_reads(db, ref, rng)) << "after retain";
    }
    const Write& w = stream[step];
    db.record(ids[w.series], w.time, w.value);
    ref.record(ids[w.series], w.time, w.value);
    ASSERT_TRUE(same_reads(db, ref, rng)) << "after write " << step;
  }
  EXPECT_GT(db.nonfinite_dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Retention, MetricStoreOracle,
    ::testing::Values(RetentionCase{std::nullopt, std::nullopt},
                      RetentionCase{0.0, std::nullopt},
                      RetentionCase{3.5, std::nullopt},
                      RetentionCase{40.0, std::nullopt},
                      RetentionCase{std::nullopt, 0.0},
                      RetentionCase{std::nullopt, 7.0},
                      RetentionCase{std::nullopt, 90.0},
                      RetentionCase{2.0, 30.0}),
    retention_case_name);

TEST(MetricStoreLayout, ClearStartsBothLayoutsOver) {
  MetricStore db;
  oracle::ThreeColumnStore ref;
  db.retain(5.0);
  ref.retain(5.0);
  std::mt19937_64 rng(3);
  for (int round = 0; round < 2; ++round) {
    std::vector<MetricId> ids;
    for (const char* name : {"s0", "s1", "s2", "s3", "s4"}) {
      ids.push_back(db.resolve(name));
      ASSERT_EQ(ref.resolve(name), ids.back());
    }
    for (const Write& w : random_stream(100 + round, 120)) {
      db.record(ids[w.series], w.time, w.value);
      ref.record(ids[w.series], w.time, w.value);
      ASSERT_TRUE(same_reads(db, ref, rng));
    }
    db.clear();
    ref.clear();
    ASSERT_TRUE(same_reads(db, ref, rng));
  }
}

TEST(MetricStoreLayout, NegativeZeroKeepsItsSignInEveryWindowSum) {
  // The first point's running sum is the value itself, not 0.0 + value;
  // so is the cut's when retention drops the first point.
  for (const std::optional<double> horizon :
       {std::optional<double>(), std::optional<double>(10.0)}) {
    MetricStore db;
    oracle::ThreeColumnStore ref;
    if (horizon) {
      db.retain(*horizon);
      ref.retain(*horizon);
    }
    const MetricId id = db.resolve("z");
    ref.resolve("z");
    std::mt19937_64 rng(5);
    for (int t = 0; t < 200; ++t) {
      db.record(id, t, -0.0);
      ref.record(id, t, -0.0);
      ASSERT_TRUE(same_reads(db, ref, rng)) << "t = " << t;
    }
    if (!horizon) {
      EXPECT_TRUE(std::signbit(*db.sum(id, 0.0, 199.0)));
    }
  }
}

TEST(MetricStoreLayout, SharedInstantsAreMatchedBitForBit) {
  // Series b is stamped -0.0 where a and c are stamped 0.0: -0.0 == 0.0,
  // but b must read back -0.0 and the others 0.0.
  MetricStore db;
  oracle::ThreeColumnStore ref;
  std::mt19937_64 rng(9);
  std::vector<MetricId> ids;
  for (const char* name : {"a", "b", "c"}) {
    ids.push_back(db.resolve(name));
    ref.resolve(name);
  }
  for (const double time : {-1.0, 0.0, 1.0}) {
    for (const MetricId id : ids) {
      const double stamp = time == 0.0 && id == ids[1] ? -0.0 : time;
      db.record(id, stamp, 1.0);
      ref.record(id, stamp, 1.0);
      ASSERT_TRUE(same_reads(db, ref, rng));
    }
  }
  EXPECT_TRUE(std::signbit(db.series(ids[1]).times[1]));
  EXPECT_FALSE(std::signbit(db.series(ids[2]).times[1]));
}

}  // namespace
}  // namespace autra::runtime
