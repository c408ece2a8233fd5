// Reference layout for MetricStore: every series keeps three columns of its
// own, one time, one value and one running sum per point. It is the store
// as it was before series shared time columns and kept one running sum per
// 64 points, kept here so tests can check that MetricStore answers every
// read with the same doubles.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/metrics.hpp"

namespace autra::runtime::oracle {

class ThreeColumnStore {
 public:
  MetricId resolve(std::string_view name) {
    const MetricId id = registry_.intern(name);
    if (id.value() >= series_.size()) series_.resize(id.value() + 1);
    return id;
  }

  [[nodiscard]] MetricId find(std::string_view name) const {
    return registry_.find(name);
  }

  void record(MetricId id, double time, double value) {
    if (!id.valid() || id.value() >= series_.size()) {
      throw std::out_of_range("ThreeColumnStore::record: foreign id");
    }
    if (!std::isfinite(time) || !std::isfinite(value)) {
      ++nonfinite_dropped_;
      return;
    }
    Series& s = series_[id.value()];
    if (!s.times.empty() && time < s.times.back()) {
      throw std::invalid_argument("ThreeColumnStore::record: time went back");
    }
    s.times.push_back(time);
    s.values.push_back(value);
    s.cumsum.push_back(s.cumsum.empty() ? value : s.cumsum.back() + value);
    if (retention_) trim(s, *retention_);
  }

  [[nodiscard]] std::uint64_t nonfinite_dropped() const noexcept {
    return nonfinite_dropped_;
  }

  void retain(double seconds) {
    if (std::isnan(seconds) || seconds < 0.0) {
      throw std::invalid_argument("ThreeColumnStore::retain: bad horizon");
    }
    if (retention_ && *retention_ >= seconds) return;
    retention_ = seconds;
    for (Series& s : series_) trim(s, seconds);
  }

  [[nodiscard]] std::size_t points_held() const noexcept {
    std::size_t n = 0;
    for (const Series& s : series_) n += s.times.size() - s.head;
    return n;
  }

  [[nodiscard]] MetricStore::SeriesView series(MetricId id) const {
    const Series* s = series_ptr(id);
    if (s == nullptr) return {};
    return {std::span<const double>(s->times).subspan(s->head),
            std::span<const double>(s->values).subspan(s->head)};
  }

  [[nodiscard]] std::pair<std::size_t, std::size_t> range(MetricId id,
                                                          double t0,
                                                          double t1) const {
    const Series* s = series_ptr(id);
    if (s == nullptr) return {0, 0};
    // cut_time is -infinity until the series drops a point.
    if (std::isfinite(s->cut_time) && t0 <= s->cut_time && t0 <= t1) {
      throw HistoryTrimmed("ThreeColumnStore: window reaches dropped points");
    }
    const auto held = s->times.begin() + static_cast<std::ptrdiff_t>(s->head);
    const auto first = std::lower_bound(held, s->times.end(), t0);
    const auto last = std::upper_bound(first, s->times.end(), t1);
    return {static_cast<std::size_t>(first - held),
            static_cast<std::size_t>(last - held)};
  }

  [[nodiscard]] std::optional<double> sum(MetricId id, double t0,
                                          double t1) const {
    const Series* s = series_ptr(id);
    if (s == nullptr) return std::nullopt;
    const auto [first, last] = range(id, t0, t1);
    if (first == last) return std::nullopt;
    const double below =
        first == 0 ? s->cut_sum : s->cumsum[s->head + first - 1];
    return s->cumsum[s->head + last - 1] - below;
  }

  [[nodiscard]] std::optional<double> mean(MetricId id, double t0,
                                           double t1) const {
    const auto [first, last] = range(id, t0, t1);
    if (first == last) return std::nullopt;
    return *sum(id, t0, t1) / static_cast<double>(last - first);
  }

  [[nodiscard]] std::optional<MetricPoint> last(MetricId id) const {
    const Series* s = series_ptr(id);
    if (s == nullptr || s->times.size() == s->head) return std::nullopt;
    return MetricPoint{s->times.back(), s->values.back()};
  }

  [[nodiscard]] std::vector<std::string> series_names() const {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < series_.size(); ++i) {
      if (series_[i].times.size() > series_[i].head) {
        names.push_back(
            registry_.name(MetricId(static_cast<std::uint32_t>(i))));
      }
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  void clear() {
    registry_.clear();
    series_.clear();
    nonfinite_dropped_ = 0;
  }

  void write_csv(std::ostream& out,
                 std::span<const std::string> series = {}) const {
    std::vector<std::string> names(series.begin(), series.end());
    if (names.empty()) names = series_names();
    std::set<double> times;
    std::vector<std::map<double, double>> columns(names.size());
    for (std::size_t c = 0; c < names.size(); ++c) {
      const MetricStore::SeriesView v = this->series(find(names[c]));
      for (std::size_t i = 0; i < v.times.size(); ++i) {
        times.insert(v.times[i]);
        columns[c][v.times[i]] = v.values[i];
      }
    }
    out << "time";
    for (const std::string& n : names) out << "," << n;
    out << "\n";
    for (const double t : times) {
      out << t;
      for (std::size_t c = 0; c < names.size(); ++c) {
        out << ",";
        const auto it = columns[c].find(t);
        if (it != columns[c].end()) out << it->second;
      }
      out << "\n";
    }
  }

 private:
  struct Series {
    std::vector<double> times;
    std::vector<double> values;
    std::vector<double> cumsum;
    std::size_t head = 0;
    double cut_sum = 0.0;
    double cut_time = -std::numeric_limits<double>::infinity();
  };

  [[nodiscard]] const Series* series_ptr(MetricId id) const {
    if (!id.valid() || id.value() >= series_.size()) return nullptr;
    return &series_[id.value()];
  }

  static void trim(Series& s, double retention) {
    if (s.times.empty()) return;
    const double cut = s.times.back() - retention;
    std::size_t head = s.head;
    while (s.times[head] < cut) ++head;
    if (head == s.head) return;
    s.cut_sum = s.cumsum[head - 1];
    s.cut_time = s.times[head - 1];
    s.head = head;
    constexpr std::size_t kMinCompact = 64;
    if (head >= kMinCompact && 2 * head >= s.times.size()) {
      const auto n = static_cast<std::ptrdiff_t>(head);
      s.times.erase(s.times.begin(), s.times.begin() + n);
      s.values.erase(s.values.begin(), s.values.begin() + n);
      s.cumsum.erase(s.cumsum.begin(), s.cumsum.begin() + n);
      s.head = 0;
    }
  }

  MetricRegistry registry_;
  std::vector<Series> series_;
  std::optional<double> retention_;
  std::uint64_t nonfinite_dropped_ = 0;
};

}  // namespace autra::runtime::oracle
