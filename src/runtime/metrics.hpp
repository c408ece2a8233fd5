// Backend-agnostic metrics pipeline: interned series ids, an abstract
// MetricSink, and the columnar MetricStore every backend writes into.
//
// The hot path is the per-tick gauge write of a streaming backend. A
// series name is interned into a dense MetricId exactly once (at backend
// construction); every subsequent write is an id-indexed vector append —
// zero string construction, zero map lookups. Reads keep a string-keyed
// API for cold paths (tests, CSV export), while policy-interval consumers
// resolve ids once and read incrementally maintained window sums
// (per-series cumulative sums make a window mean two binary searches plus
// a subtraction, never a copy). A store can be told how far back its
// readers reach (MetricStore::retain), and then keeps only that much of
// each series.
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
/// Monitor stage. Per-series storage is columnar (times / values /
/// cumulative sums in separate contiguous arrays).
///
/// Retention: by default every point is kept. After retain(R), each series
/// holds only its points with time >= (its newest time - R), plus the
/// running sum of the points it dropped, so range()/sum()/mean() over a
/// window that starts after the newest dropped point return the same
/// doubles an unbounded store would, and series() the same trailing
/// points. A window [t0, t1] with t0 <= t1 that starts at or before the
/// newest dropped point throws HistoryTrimmed. Dropping advances a
/// per-series head index, and the columns are compacted once at least half
/// of them (and at least 64 points) is dropped, so a record() stays
/// amortised O(1).
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
  /// invalid/unknown id.
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

  /// Sum over [t0, t1] from the cumulative sums (no iteration, no copy);
  /// nullopt when no points fall in range. Throws like range().
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
  struct Series {
    std::vector<double> times;
    std::vector<double> values;
    /// Running sum of every value the series was ever given, dropped ones
    /// included, maintained per record() so any window sum is O(log n).
    std::vector<double> cumsum;
    /// Index of the first held point; the ones before it are dropped and
    /// wait for the next compaction.
    std::size_t head = 0;
    /// Running sum and time of the newest dropped point (0 and -infinity
    /// while none is dropped).
    double cut_sum = 0.0;
    double cut_time = -std::numeric_limits<double>::infinity();
  };

  [[nodiscard]] const Series* series_ptr(MetricId id) const;
  /// Drops the points of `s` older than its newest time minus
  /// `retention`, then compacts if enough of the columns is dropped.
  static void trim(Series& s, double retention);

  MetricRegistry registry_;
  std::vector<Series> series_;
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
