#include "runtime/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>

namespace autra::runtime {

MetricId MetricRegistry::intern(std::string_view name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return MetricId(it->second);
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return MetricId(id);
}

MetricId MetricRegistry::find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? MetricId() : MetricId(it->second);
}

const std::string& MetricRegistry::name(MetricId id) const {
  if (!id.valid() || id.value() >= names_.size()) {
    throw std::out_of_range("MetricRegistry::name: unknown id");
  }
  return names_[id.value()];
}

void MetricRegistry::clear() {
  index_.clear();
  names_.clear();
}

MetricId MetricStore::resolve(std::string_view name) {
  const MetricId id = registry_.intern(name);
  if (id.value() >= series_.size()) series_.resize(id.value() + 1);
  return id;
}

MetricId MetricStore::find(std::string_view name) const {
  return registry_.find(name);
}

const MetricStore::Series* MetricStore::series_ptr(MetricId id) const {
  if (!id.valid() || id.value() >= series_.size()) return nullptr;
  return &series_[id.value()];
}

void MetricStore::record(MetricId id, double time, double value) {
  if (!id.valid() || id.value() >= series_.size()) {
    throw std::out_of_range("MetricStore::record: id not from this store");
  }
  if (!std::isfinite(time) || !std::isfinite(value)) {
    ++nonfinite_dropped_;
    return;
  }
  Series& s = series_[id.value()];
  if (!s.times.empty() && time < s.times.back()) {
    throw std::invalid_argument("MetricStore::record: time went backwards for " +
                                registry_.name(id));
  }
  s.times.push_back(time);
  s.values.push_back(value);
  s.cumsum.push_back(s.cumsum.empty() ? value : s.cumsum.back() + value);
  if (retention_) trim(s, *retention_);
}

void MetricStore::trim(Series& s, double retention) {
  if (s.times.empty()) return;
  // The newest point is always held: newest - R <= newest for any R >= 0.
  const double cut = s.times.back() - retention;
  std::size_t head = s.head;
  while (s.times[head] < cut) ++head;
  if (head == s.head) return;
  s.cut_sum = s.cumsum[head - 1];
  s.cut_time = s.times[head - 1];
  s.head = head;
  // Compact once the dropped prefix is at least as long as the held part:
  // a compaction then moves no more points than were dropped since the
  // last one.
  constexpr std::size_t kMinCompact = 64;
  if (head >= kMinCompact && 2 * head >= s.times.size()) {
    const auto n = static_cast<std::ptrdiff_t>(head);
    s.times.erase(s.times.begin(), s.times.begin() + n);
    s.values.erase(s.values.begin(), s.values.begin() + n);
    s.cumsum.erase(s.cumsum.begin(), s.cumsum.begin() + n);
    s.head = 0;
  }
}

void MetricStore::retain(double seconds) {
  if (std::isnan(seconds) || seconds < 0.0) {
    throw std::invalid_argument(
        "MetricStore::retain: horizon must be non-negative");
  }
  if (retention_ && *retention_ >= seconds) return;
  retention_ = seconds;
  for (Series& s : series_) trim(s, seconds);
}

std::size_t MetricStore::points_held() const noexcept {
  std::size_t n = 0;
  for (const Series& s : series_) n += s.times.size() - s.head;
  return n;
}

MetricStore::SeriesView MetricStore::series(MetricId id) const {
  const Series* s = series_ptr(id);
  if (s == nullptr) return {};
  return {std::span<const double>(s->times).subspan(s->head),
          std::span<const double>(s->values).subspan(s->head)};
}

std::pair<std::size_t, std::size_t> MetricStore::range(MetricId id, double t0,
                                                       double t1) const {
  const Series* s = series_ptr(id);
  if (s == nullptr) return {0, 0};
  if (t0 <= s->cut_time && t0 <= t1) {
    throw HistoryTrimmed("MetricStore: window [" + std::to_string(t0) + ", " +
                         std::to_string(t1) + "] of " + registry_.name(id) +
                         " reaches points dropped up to t=" +
                         std::to_string(s->cut_time));
  }
  const auto held = s->times.begin() + static_cast<std::ptrdiff_t>(s->head);
  const auto first = std::lower_bound(held, s->times.end(), t0);
  const auto last = std::upper_bound(first, s->times.end(), t1);
  return {static_cast<std::size_t>(first - held),
          static_cast<std::size_t>(last - held)};
}

std::optional<double> MetricStore::sum(MetricId id, double t0,
                                       double t1) const {
  const Series* s = series_ptr(id);
  if (s == nullptr) return std::nullopt;
  const auto [first, last] = range(id, t0, t1);
  if (first == last) return std::nullopt;
  // Held point i sits at cumsum[head + i]; the sum below the first held
  // point is the one kept at the cut (0 while nothing was dropped).
  const double below = first == 0 ? s->cut_sum : s->cumsum[s->head + first - 1];
  return s->cumsum[s->head + last - 1] - below;
}

std::optional<double> MetricStore::mean(MetricId id, double t0,
                                        double t1) const {
  const auto [first, last] = range(id, t0, t1);
  if (first == last) return std::nullopt;
  return *sum(id, t0, t1) / static_cast<double>(last - first);
}

std::optional<MetricPoint> MetricStore::last(MetricId id) const {
  const Series* s = series_ptr(id);
  if (s == nullptr || s->times.size() == s->head) return std::nullopt;
  return MetricPoint{s->times.back(), s->values.back()};
}

std::vector<std::string> MetricStore::series_names() const {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].times.size() > series_[i].head) {
      names.push_back(registry_.name(MetricId(static_cast<std::uint32_t>(i))));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool MetricStore::has_series(const std::string& name) const {
  const Series* s = series_ptr(find(name));
  return s != nullptr && s->times.size() > s->head;
}

void MetricStore::clear() {
  registry_.clear();
  series_.clear();
  nonfinite_dropped_ = 0;
}

void MetricStore::write_csv(std::ostream& out,
                            std::span<const std::string> series) const {
  std::vector<std::string> names(series.begin(), series.end());
  if (names.empty()) names = series_names();

  // Collect the union of timestamps, then the (possibly missing) value of
  // each series at each timestamp. Duplicate timestamps within one series
  // keep the last value.
  std::set<double> times;
  std::vector<std::map<double, double>> columns(names.size());
  for (std::size_t c = 0; c < names.size(); ++c) {
    const SeriesView v = this->series(find(names[c]));
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

namespace metric_names {

std::string true_rate(const std::string& op) {
  return "taskmanager.job.task.trueProcessingRate." + op;
}
std::string observed_rate(const std::string& op) {
  return "taskmanager.job.task.observedProcessingRate." + op;
}
std::string input_rate(const std::string& op) {
  return "taskmanager.job.task.numRecordsInPerSecond." + op;
}
std::string output_rate(const std::string& op) {
  return "taskmanager.job.task.numRecordsOutPerSecond." + op;
}
std::string queue_size(const std::string& op) {
  return "taskmanager.job.task.inputQueueLength." + op;
}

}  // namespace metric_names

}  // namespace autra::runtime
