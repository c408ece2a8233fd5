#include "streamsim/fault_timeline.hpp"

#include <algorithm>
#include <stdexcept>

namespace autra::sim {

namespace {

void check_window(double from, double until, const char* what) {
  if (!(until > from)) {  // NaN fails too
    throw std::invalid_argument(std::string("FaultTimeline: ") + what +
                                ": until must be > from");
  }
}

/// Inserts `value` into (sign +1) or erases it from (sign -1) the sorted
/// vector `set`.
void toggle_sorted(std::vector<std::size_t>& set, std::size_t value,
                   int sign) {
  const auto it = std::lower_bound(set.begin(), set.end(), value);
  if (sign > 0) {
    set.insert(it, value);
  } else {
    set.erase(it);
  }
}

}  // namespace

FaultTimeline::FaultTimeline(std::size_t num_machines)
    : num_machines_(num_machines),
      down_count_(num_machines, 0),
      slow_active_(num_machines) {}

void FaultTimeline::add(Event event) {
  events_.push_back(std::move(event));
  dirty_ = true;
}

void FaultTimeline::add_slowdown(std::size_t machine, double factor,
                                 double from, double until) {
  check_window(from, until, "slowdown");
  if (machine >= num_machines_ || !(factor > 0.0)) {
    throw std::invalid_argument("FaultTimeline: bad slowdown event");
  }
  add({.kind = Kind::kSlowdown, .from = from, .until = until,
       .machine = machine, .factor = factor});
}

void FaultTimeline::add_machine_down(std::size_t machine, double from,
                                     double until) {
  check_window(from, until, "machine-down");
  if (machine >= num_machines_) {
    throw std::invalid_argument("FaultTimeline: bad machine index");
  }
  add({.kind = Kind::kMachineDown, .from = from, .until = until,
       .machine = machine});
}

void FaultTimeline::add_ingest_stall(double from, double until) {
  check_window(from, until, "ingest-stall");
  add({.kind = Kind::kIngestStall, .from = from, .until = until});
}

void FaultTimeline::add_service_outage(std::string service, double from,
                                       double until) {
  check_window(from, until, "service-outage");
  if (service.empty()) {
    throw std::invalid_argument("FaultTimeline: empty service name");
  }
  add({.kind = Kind::kServiceOutage, .from = from, .until = until,
       .service = std::move(service)});
}

std::size_t FaultTimeline::add_partition(std::vector<std::size_t> island,
                                         double from, double until) {
  check_window(from, until, "partition");
  if (island.empty()) {
    throw std::invalid_argument("FaultTimeline: empty partition island");
  }
  std::vector<char> on_island(num_machines_, 0);
  for (const std::size_t m : island) {
    if (m >= num_machines_ || on_island[m]) {
      throw std::invalid_argument(
          "FaultTimeline: bad or duplicate partition machine");
    }
    on_island[m] = 1;
  }
  // An island holding every machine leaves no mainland: nothing is cut and
  // the "partition" silently becomes a no-op, which is always a schedule
  // bug rather than an intent.
  if (island.size() == num_machines_) {
    throw std::invalid_argument(
        "FaultTimeline: island covers the whole cluster; a partition must "
        "leave a mainland");
  }
  add({.kind = Kind::kPartition, .from = from, .until = until,
       .island = std::move(island), .partition = num_partitions_});
  return num_partitions_++;
}

void FaultTimeline::rebuild() {
  order_.resize(events_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return events_[a].from < events_[b].from;
                   });
  next_ = 0;
  expiry_ = {};
  std::fill(down_count_.begin(), down_count_.end(), 0);
  for (auto& active : slow_active_) active.clear();
  stall_count_ = 0;
  outage_count_.clear();
  part_active_.clear();
  dirty_ = false;
  started_ = false;
}

void FaultTimeline::apply(std::size_t idx, int sign) {
  const Event& e = events_[idx];
  switch (e.kind) {
    case Kind::kSlowdown:
      toggle_sorted(slow_active_[e.machine], idx, sign);
      delta_.machines.push_back(e.machine);
      break;
    case Kind::kMachineDown:
      down_count_[e.machine] += sign;
      delta_.machines.push_back(e.machine);
      break;
    case Kind::kIngestStall:
      stall_count_ += sign;
      break;
    case Kind::kServiceOutage:
      outage_count_[e.service] += sign;
      break;
    case Kind::kPartition:
      toggle_sorted(part_active_, e.partition, sign);
      break;
  }
}

const FaultTimeline::Delta& FaultTimeline::advance_to(double t) {
  delta_.machines.clear();
  delta_.rebuilt = false;
  if (dirty_ || (started_ && t < cursor_time_)) {
    rebuild();
    delta_.rebuilt = true;
  }
  cursor_time_ = t;
  started_ = true;

  // Activate windows that have opened, retire windows that have closed.
  // An event entirely in the past activates and retires in the same call
  // (net zero), which keeps the two phases order-independent. Machine
  // deltas are still reported for such events — a spurious entry costs the
  // caller one redundant refresh, a missed one would corrupt its caches.
  while (next_ < order_.size() && events_[order_[next_]].from <= t) {
    const std::size_t idx = order_[next_++];
    apply(idx, +1);
    expiry_.emplace(events_[idx].until, idx);
  }
  while (!expiry_.empty() && expiry_.top().first <= t) {
    apply(expiry_.top().second, -1);
    expiry_.pop();
  }
  // A rebuild already tells the caller to refresh everything; the machine
  // entries the catch-up loops above pushed would only duplicate that.
  if (delta_.rebuilt) delta_.machines.clear();
  return delta_;
}

double FaultTimeline::slowdown_factor(std::size_t machine) const noexcept {
  double factor = 1.0;
  for (std::size_t idx : slow_active_[machine]) factor *= events_[idx].factor;
  return factor;
}

bool FaultTimeline::service_out(const std::string& service) const noexcept {
  const auto it = outage_count_.find(service);
  return it != outage_count_.end() && it->second > 0;
}

}  // namespace autra::sim
