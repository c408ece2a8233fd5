#include "runtime/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>

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
}

MetricStore::SeriesView MetricStore::series(MetricId id) const {
  const Series* s = series_ptr(id);
  if (s == nullptr) return {};
  return {s->times, s->values};
}

std::pair<std::size_t, std::size_t> MetricStore::range(MetricId id, double t0,
                                                       double t1) const {
  const Series* s = series_ptr(id);
  if (s == nullptr) return {0, 0};
  const auto first = std::lower_bound(s->times.begin(), s->times.end(), t0);
  const auto last = std::upper_bound(first, s->times.end(), t1);
  return {static_cast<std::size_t>(first - s->times.begin()),
          static_cast<std::size_t>(last - s->times.begin())};
}

std::optional<double> MetricStore::sum(MetricId id, double t0,
                                       double t1) const {
  const Series* s = series_ptr(id);
  if (s == nullptr) return std::nullopt;
  const auto [first, last] = range(id, t0, t1);
  if (first == last) return std::nullopt;
  const double below = first == 0 ? 0.0 : s->cumsum[first - 1];
  return s->cumsum[last - 1] - below;
}

std::optional<double> MetricStore::mean(MetricId id, double t0,
                                        double t1) const {
  const auto [first, last] = range(id, t0, t1);
  if (first == last) return std::nullopt;
  return *sum(id, t0, t1) / static_cast<double>(last - first);
}

std::optional<MetricPoint> MetricStore::last(MetricId id) const {
  const Series* s = series_ptr(id);
  if (s == nullptr || s->times.empty()) return std::nullopt;
  return MetricPoint{s->times.back(), s->values.back()};
}

std::vector<std::string> MetricStore::series_names() const {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (!series_[i].times.empty()) {
      names.push_back(registry_.name(MetricId(static_cast<std::uint32_t>(i))));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool MetricStore::has_series(const std::string& name) const {
  const Series* s = series_ptr(find(name));
  return s != nullptr && !s->times.empty();
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
    const Series* s = series_ptr(find(names[c]));
    if (s == nullptr) continue;
    for (std::size_t i = 0; i < s->times.size(); ++i) {
      times.insert(s->times[i]);
      columns[c][s->times[i]] = s->values[i];
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
