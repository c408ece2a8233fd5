// Backend-agnostic metrics pipeline: interned series ids, an abstract
// MetricSink, and the columnar MetricStore every backend writes into.
//
// The hot path is the per-tick gauge write of a streaming backend. A
// series name is interned into a dense MetricId exactly once (at backend
// construction); every subsequent write is an id-indexed vector append —
// zero string construction, zero map lookups. Reads keep a string-keyed
// API for cold paths (tests, CSV export), while policy-interval consumers
// resolve ids once and read window sums rebuilt from a running sum the
// store keeps at every 64th point (a window mean is two binary searches
// and at most 126 additions, never a copy). Series written at the same
// instants share one time column, so a point costs one double. A store
// can be told how far back its readers reach (MetricStore::retain), and
// then keeps only that much of each series.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace autra::runtime {

struct MetricPoint {
  double time = 0.0;
  double value = 0.0;
};

/// Dense handle of one interned metric series. Ids are stable for the
/// lifetime of the registry that produced them (until clear()).
class MetricId {
 public:
  constexpr MetricId() = default;
  constexpr explicit MetricId(std::uint32_t value) : value_(value) {}

  [[nodiscard]] constexpr bool valid() const noexcept {
    return value_ != kInvalid;
  }
  [[nodiscard]] constexpr std::uint32_t value() const noexcept {
    return value_;
  }
  friend constexpr bool operator==(MetricId, MetricId) noexcept = default;

 private:
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t value_ = kInvalid;
};

/// Name -> MetricId interning table (one per MetricStore).
class MetricRegistry {
 public:
  /// Returns the id of `name`, interning it on first sight.
  MetricId intern(std::string_view name);

  /// Id of `name` if already interned; invalid id otherwise.
  [[nodiscard]] MetricId find(std::string_view name) const;

  /// Name of an interned id; throws std::out_of_range on an unknown id.
  [[nodiscard]] const std::string& name(MetricId id) const;

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  void clear();

 private:
  struct Hash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>>
      index_;
  std::vector<std::string> names_;
};

/// Destination for gauge writes. Backends resolve their series names to ids
/// once, then record by id only.
class MetricSink {
 public:
  virtual ~MetricSink() = default;

  /// Interns `name` and returns its sink-local id.
  virtual MetricId resolve(std::string_view name) = 0;

  /// Appends one point. The id must come from this sink's resolve();
  /// time must be non-decreasing per series (std::invalid_argument).
  virtual void record(MetricId id, double time, double value) = 0;
};

/// Thrown by a MetricStore window query that reaches a point the store's
/// retention horizon has already dropped: the answer would cover only part
/// of the window.
class HistoryTrimmed : public std::out_of_range {
 public:
  explicit HistoryTrimmed(const std::string& what)
      : std::out_of_range(what) {}
};

/// In-memory time-series store — the InfluxDB stand-in of the MAPE loop's
/// Monitor stage.
///
/// Layout: a series stores its values only, in one contiguous array. Its
/// times live in a time column that every series recorded at the same
/// instants shares: a record() whose time equals, bit for bit, the column's
/// entry at the series' next position shares that entry, and the first
/// series to reach a new instant appends it. A series whose time differs
/// from a column others read copies its times into a column of its own,
/// once, and appends there from then on. Window sums come from the running
/// sum (previous + value, the first point's sum being the value itself)
/// that record() keeps at every 64th point: sum() rebuilds the running sum
/// at an index with the same chain of additions from the nearest kept one,
/// so every window sum and mean is the one a per-point running sum gives.
///
/// Retention: by default every point is kept. After retain(R), each series
/// holds only its points with time >= (its newest time - R), plus the
/// running sum of the points it dropped, so range()/sum()/mean() over a
/// window that starts after the newest dropped point return the same
/// doubles an unbounded store would, and series() the same trailing
/// points. A window [t0, t1] with t0 <= t1 that starts at or before the
/// newest dropped point throws HistoryTrimmed. Dropping advances a
/// per-series head index. Once the dropped points fill at least one
/// 64-point block and half of the stored values, the series erases its
/// dropped whole blocks and moves its held times into a column of its own,
/// so a record() stays amortised O(1).
class MetricStore final : public MetricSink {
 public:
  // --- id-based hot path -------------------------------------------------
  MetricId resolve(std::string_view name) override;
  [[nodiscard]] MetricId find(std::string_view name) const;
  /// A point whose time or value is not finite is dropped before it
  /// reaches the series or its running sum, and counted in
  /// nonfinite_dropped(); a finite time earlier than the series' last
  /// still throws.
  void record(MetricId id, double time, double value) override;

  /// Points record() dropped for a non-finite time or value.
  [[nodiscard]] std::uint64_t nonfinite_dropped() const noexcept {
    return nonfinite_dropped_;
  }

  /// Declares that reads of this store reach at most `seconds` back from
  /// each series' newest point; points older than that are dropped now and
  /// as newer ones arrive. Declarations combine by max, so every reader can
  /// declare its own reach; a store nobody declares to keeps everything.
  /// Throws std::invalid_argument on a negative or NaN `seconds`
  /// (+infinity keeps everything).
  void retain(double seconds);
  /// Points held over every series (what retention bounds).
  [[nodiscard]] std::size_t points_held() const noexcept;

  /// Columnar view of the points one series holds; empty spans for an
  /// invalid/unknown id. A view is valid until the next record() into the
  /// same store, into any series: the times span points into a column that
  /// other series append to.
  struct SeriesView {
    std::span<const double> times;
    std::span<const double> values;
  };
  [[nodiscard]] SeriesView series(MetricId id) const;

  /// Index range [first, last) into series(id) of the points with time in
  /// [t0, t1]. Throws HistoryTrimmed when the window reaches a dropped
  /// point.
  [[nodiscard]] std::pair<std::size_t, std::size_t> range(MetricId id,
                                                          double t0,
                                                          double t1) const;

  /// Sum over [t0, t1] from the kept running sums (at most 2 x 63
  /// additions, no copy); nullopt when no points fall in range. Throws like
  /// range().
  [[nodiscard]] std::optional<double> sum(MetricId id, double t0,
                                          double t1) const;
  [[nodiscard]] std::optional<double> mean(MetricId id, double t0,
                                           double t1) const;
  [[nodiscard]] std::optional<MetricPoint> last(MetricId id) const;

  /// Names of all series with at least one point, sorted.
  [[nodiscard]] std::vector<std::string> series_names() const;
  [[nodiscard]] bool has_series(const std::string& name) const;

  [[nodiscard]] const MetricRegistry& registry() const noexcept {
    return registry_;
  }

  /// Drops every series *and* the registry (and zeroes
  /// nonfinite_dropped()): previously resolved ids are invalidated and must
  /// be re-resolved. The declared retention stays.
  void clear();

  /// Writes the selected series as CSV (`time,<series...>`), one row per
  /// distinct timestamp, empty cells where a series has no point at that
  /// time — ready for gnuplot/pandas. Unknown series produce empty
  /// columns. Selecting no series exports every series in the store.
  void write_csv(std::ostream& out,
                 std::span<const std::string> series = {}) const;

 private:
  /// record() keeps the running sum of every kSumStride-th point.
  static constexpr std::size_t kSumStride = 64;

  struct TimeColumn {
    std::vector<double> times;
    /// Series whose held times lie in this column.
    std::size_t users = 0;
  };

  /// Points are numbered from 0 in the order the series was given them,
  /// dropped ones included.
  struct Series {
    /// Values of points base, base + 1, ...; base is a multiple of
    /// kSumStride (compaction erases whole blocks).
    std::size_t base = 0;
    std::vector<double> values;
    /// sums[j]: running sum through point base + j * kSumStride.
    std::vector<double> sums;
    /// Running sum through the newest point.
    double run = 0.0;
    /// Number of the first held point; the ones before it are dropped and
    /// wait for the next compaction.
    std::size_t head = 0;
    /// The held times are columns_[column].times[time_at, time_at + held).
    std::size_t column = 0;
    std::size_t time_at = 0;
    /// Running sum and time of the newest dropped point (0 and -infinity
    /// while none is dropped).
    double cut_sum = 0.0;
    double cut_time = -std::numeric_limits<double>::infinity();

    [[nodiscard]] std::size_t count() const noexcept {
      return base + values.size();
    }
    [[nodiscard]] std::size_t held() const noexcept { return count() - head; }
  };

  [[nodiscard]] const Series* series_ptr(MetricId id) const;
  [[nodiscard]] std::span<const double> held_times(const Series& s) const;
  /// Running sum through point `point` (base <= point < count()).
  [[nodiscard]] static double running_sum(const Series& s, std::size_t point);
  /// Sum of held points [first, last) (first < last).
  [[nodiscard]] static double window_sum(const Series& s, std::size_t first,
                                         std::size_t last);
  /// Leaves `s` alone in a column that holds just its held times.
  void own_times(Series& s);
  /// Drops the held points of `s` with time < `cut` (its newest time minus
  /// the retention), then compacts if enough of the series is dropped.
  void trim(Series& s, double cut);

  MetricRegistry registry_;
  std::vector<Series> series_;
  /// Column 0 is where a series' first point goes; it is created then.
  std::vector<TimeColumn> columns_;
  std::optional<double> retention_;
  std::uint64_t nonfinite_dropped_ = 0;
};

/// Flink-like metric path helpers.
namespace metric_names {

[[nodiscard]] std::string true_rate(const std::string& op);
[[nodiscard]] std::string observed_rate(const std::string& op);
[[nodiscard]] std::string input_rate(const std::string& op);
[[nodiscard]] std::string output_rate(const std::string& op);
[[nodiscard]] std::string queue_size(const std::string& op);
inline const std::string kThroughput = "job.throughput";
inline const std::string kLatencyMean = "job.latency.mean";
inline const std::string kEventLatencyMean = "job.eventLatency.mean";
inline const std::string kKafkaLag = "kafka.consumerLag";
inline const std::string kInputRate = "kafka.produceRate";
inline const std::string kBusyCores = "job.busyCores";
inline const std::string kParallelismTotal = "job.totalParallelism";

}  // namespace metric_names

}  // namespace autra::runtime
