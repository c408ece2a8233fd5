#include "runtime/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>

namespace autra::runtime {
namespace {

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

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

std::span<const double> MetricStore::held_times(const Series& s) const {
  if (s.held() == 0) return {};
  return std::span<const double>(columns_[s.column].times)
      .subspan(s.time_at, s.held());
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
  const std::size_t n = s.count();
  if (n == 0) {
    // A first point joins column 0: at its newest instant if that is this
    // one, else at a new one.
    if (columns_.empty()) columns_.emplace_back();
    TimeColumn& joined = columns_.front();
    ++joined.users;
    s.column = 0;
    s.time_at = joined.times.size();
    if (s.time_at > 0 && same_bits(joined.times.back(), time)) --s.time_at;
  }
  // The column entry the new point's time goes to: shared when it already
  // holds this instant, appended when the column ends there.
  const std::size_t at = s.time_at + (n - s.head);
  const std::vector<double>& times = columns_[s.column].times;
  if (n > 0 && time < times[at - 1]) {
    throw std::invalid_argument("MetricStore::record: time went backwards for " +
                                registry_.name(id));
  }
  if (at == times.size() || !same_bits(times[at], time)) {
    if (at < times.size()) own_times(s);
    columns_[s.column].times.push_back(time);
  }
  s.values.push_back(value);
  s.run = n == 0 ? value : s.run + value;
  if (n % kSumStride == 0) s.sums.push_back(s.run);
  if (retention_) trim(s, time - *retention_);
}

void MetricStore::own_times(Series& s) {
  TimeColumn& column = columns_[s.column];
  const auto first =
      column.times.begin() + static_cast<std::ptrdiff_t>(s.time_at);
  const auto last = first + static_cast<std::ptrdiff_t>(s.held());
  if (column.users == 1) {
    column.times.erase(last, column.times.end());
    column.times.erase(column.times.begin(), first);
  } else {
    --column.users;
    std::vector<double> own(first, last);
    columns_.push_back({std::move(own), 1});
    s.column = columns_.size() - 1;
  }
  s.time_at = 0;
}

void MetricStore::trim(Series& s, double cut) {
  // The newest point is always held: cut <= its time.
  const double* times = columns_[s.column].times.data() + s.time_at;
  if (!(times[0] < cut)) return;
  std::size_t dropped = 0;
  do {
    // The running sum through each dropped point, by the chain record()
    // built it with.
    const std::size_t point = s.head + dropped;
    const double v = s.values[point - s.base];
    s.cut_sum = point == 0 ? v : s.cut_sum + v;
  } while (times[++dropped] < cut);
  s.cut_time = times[dropped - 1];
  s.head += dropped;
  s.time_at += dropped;
  // Compact once the dropped points fill a block and are at least as many
  // as the held ones: a compaction then moves no more points than were
  // dropped since the last one. Whole blocks go, so the kept sums stay
  // aligned with the values.
  const std::size_t stale = s.head - s.base;
  if (stale >= kSumStride && 2 * stale >= s.values.size()) {
    const std::size_t blocks = stale / kSumStride;
    s.values.erase(s.values.begin(),
                   s.values.begin() +
                       static_cast<std::ptrdiff_t>(blocks * kSumStride));
    s.sums.erase(s.sums.begin(),
                 s.sums.begin() + static_cast<std::ptrdiff_t>(blocks));
    s.base += blocks * kSumStride;
    own_times(s);
  }
}

void MetricStore::retain(double seconds) {
  if (std::isnan(seconds) || seconds < 0.0) {
    throw std::invalid_argument(
        "MetricStore::retain: horizon must be non-negative");
  }
  if (retention_ && *retention_ >= seconds) return;
  retention_ = seconds;
  for (Series& s : series_) {
    if (s.held() > 0) trim(s, held_times(s).back() - seconds);
  }
}

std::size_t MetricStore::points_held() const noexcept {
  std::size_t n = 0;
  for (const Series& s : series_) n += s.held();
  return n;
}

MetricStore::SeriesView MetricStore::series(MetricId id) const {
  const Series* s = series_ptr(id);
  if (s == nullptr) return {};
  return {held_times(*s),
          std::span<const double>(s->values).subspan(s->head - s->base)};
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
  const std::span<const double> times = held_times(*s);
  const auto first = std::lower_bound(times.begin(), times.end(), t0);
  const auto last = std::upper_bound(first, times.end(), t1);
  return {static_cast<std::size_t>(first - times.begin()),
          static_cast<std::size_t>(last - times.begin())};
}

double MetricStore::running_sum(const Series& s, std::size_t point) {
  const std::size_t i = point - s.base;
  const std::size_t kept = i / kSumStride;
  double sum = s.sums[kept];
  for (std::size_t k = kept * kSumStride + 1; k <= i; ++k) sum += s.values[k];
  return sum;
}

double MetricStore::window_sum(const Series& s, std::size_t first,
                               std::size_t last) {
  // The sum below the first held point is the one kept at the cut (0
  // while nothing was dropped).
  const double below =
      first == 0 ? s.cut_sum : running_sum(s, s.head + first - 1);
  return running_sum(s, s.head + last - 1) - below;
}

std::optional<double> MetricStore::sum(MetricId id, double t0,
                                       double t1) const {
  const auto [first, last] = range(id, t0, t1);
  if (first == last) return std::nullopt;
  return window_sum(*series_ptr(id), first, last);
}

std::optional<double> MetricStore::mean(MetricId id, double t0,
                                        double t1) const {
  const auto [first, last] = range(id, t0, t1);
  if (first == last) return std::nullopt;
  return window_sum(*series_ptr(id), first, last) /
         static_cast<double>(last - first);
}

std::optional<MetricPoint> MetricStore::last(MetricId id) const {
  const Series* s = series_ptr(id);
  if (s == nullptr || s->held() == 0) return std::nullopt;
  return MetricPoint{held_times(*s).back(), s->values.back()};
}

std::vector<std::string> MetricStore::series_names() const {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].held() > 0) {
      names.push_back(registry_.name(MetricId(static_cast<std::uint32_t>(i))));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool MetricStore::has_series(const std::string& name) const {
  const Series* s = series_ptr(find(name));
  return s != nullptr && s->held() > 0;
}

void MetricStore::clear() {
  registry_.clear();
  series_.clear();
  columns_.clear();
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
