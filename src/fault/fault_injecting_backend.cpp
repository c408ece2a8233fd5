#include "fault/fault_injecting_backend.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault_host.hpp"

namespace autra::fault {

namespace {
constexpr double kEps = 1e-9;
}

FaultInjectingBackend::FaultInjectingBackend(runtime::StreamingBackend& inner,
                                             FaultSchedule schedule)
    : inner_(inner), schedule_(std::move(schedule)) {
  mirror_metrics_ = schedule_.has_metric_faults();
  failure_budget_.reserve(schedule_.events().size());
  std::vector<MetricWindow> dropouts;
  for (const FaultEvent& e : schedule_.events()) {
    failure_budget_.push_back(
        e.kind == FaultKind::kRescaleFailure && e.magnitude > 0.0
            ? static_cast<int>(e.magnitude)
            : -1);
    if (e.kind == FaultKind::kMetricDropout) {
      dropouts.push_back({e.at, e.end()});
    } else if (e.kind == FaultKind::kMetricDelay) {
      delays_.push_back({e.at, e.end(), e.magnitude});
    }
  }
  std::sort(dropouts.begin(), dropouts.end(),
            [](const MetricWindow& a, const MetricWindow& b) {
              return a.at < b.at;
            });
  for (const MetricWindow& w : dropouts) {
    if (!dropouts_.empty() && w.at <= dropouts_.back().end) {
      dropouts_.back().end = std::max(dropouts_.back().end, w.end);
    } else {
      dropouts_.push_back(w);
    }
  }
  deliver_host_faults();
  if (mirror_metrics_) sync_history();
}

void FaultInjectingBackend::deliver_host_faults() {
  if (!schedule_.has_host_faults()) return;
  auto* host = dynamic_cast<FaultHost*>(&inner_);
  if (host == nullptr) {
    throw std::invalid_argument(
        "FaultInjectingBackend: schedule contains engine-level faults but "
        "the inner backend does not implement fault::FaultHost");
  }
  for (const FaultEvent& e : schedule_.events()) {
    switch (e.kind) {
      case FaultKind::kMachineDown:
        host->host_machine_down(e.machine, e.at, e.end(),
                                e.detection_delay_sec);
        break;
      case FaultKind::kSlowNode:
        host->host_slow_node(e.machine, e.magnitude, e.at, e.end());
        break;
      case FaultKind::kServiceOutage:
        host->host_service_outage(e.service, e.at, e.end());
        break;
      case FaultKind::kIngestStall:
        host->host_ingest_stall(e.at, e.end());
        break;
      case FaultKind::kRackDown:
        host->host_rack_down(e.machines, e.at, e.end(),
                             e.detection_delay_sec);
        break;
      case FaultKind::kNetworkPartition:
        host->host_network_partition(e.machines, e.at, e.end());
        break;
      case FaultKind::kMetricDropout:
      case FaultKind::kMetricDelay:
      case FaultKind::kRescaleFailure:
        break;  // Handled by the decorator itself.
    }
  }
}

bool FaultInjectingBackend::dropped_at(double t,
                                       std::size_t& window) const noexcept {
  while (window < dropouts_.size() && dropouts_[window].end <= t) ++window;
  return window < dropouts_.size() && t >= dropouts_[window].at;
}

double FaultInjectingBackend::reveal_time(double t) const noexcept {
  double reveal = t;
  for (const MetricWindow& w : delays_) {
    if (t >= w.at && t < w.end) reveal = std::max(reveal, t + w.delay_sec);
  }
  return reveal;
}

void FaultInjectingBackend::sync_history() {
  const runtime::MetricStore& source = inner_.history();
  const runtime::MetricRegistry& registry = source.registry();
  const double now = inner_.now();
  for (std::uint32_t s = 0; s < registry.size(); ++s) {
    const runtime::MetricId id(s);
    if (s >= cursor_.size()) {
      cursor_.push_back(0);
      dropout_cursor_.push_back(0);
      mirror_ids_.push_back(mirror_.resolve(registry.name(id)));
    }
    const runtime::MetricStore::SeriesView view = source.series(id);
    std::size_t& cur = cursor_[s];
    // Points are revealed in timestamp order: a delayed point stalls
    // everything behind it in the same series, like a real backed-up
    // metrics pipeline. Dropped points are skipped for good.
    while (cur < view.times.size()) {
      const double t = view.times[cur];
      if (dropped_at(t, dropout_cursor_[s])) {
        ++cur;
        continue;
      }
      if (reveal_time(t) > now + kEps) break;
      mirror_.record(mirror_ids_[s], t, view.values[cur]);
      ++cur;
    }
  }
}

void FaultInjectingBackend::run_for(double sec) {
  inner_.run_for(sec);
  if (mirror_metrics_) sync_history();
}

void FaultInjectingBackend::reconfigure(const runtime::Parallelism& p,
                                        runtime::RescaleMode mode) {
  // A no-op reconfigure (same config) cannot fail — forward it untouched
  // so the decorator keeps the inner backend's no-op semantics.
  if (p != inner_.parallelism()) {
    const double t = inner_.now();
    const std::vector<FaultEvent>& events = schedule_.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const FaultEvent& e = events[i];
      if (e.kind != FaultKind::kRescaleFailure) continue;
      if (t < e.at || t >= e.end() || failure_budget_[i] == 0) continue;
      if (failure_budget_[i] > 0) --failure_budget_[i];
      ++failed_rescales_;
      throw runtime::RescaleFailed(
          "FaultInjectingBackend: injected transient rescale failure at t=" +
          std::to_string(t));
    }
  }
  inner_.reconfigure(p, mode);
}

}  // namespace autra::fault
