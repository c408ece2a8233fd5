#include "fault/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

namespace autra::fault {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kMachineDown:
      return "machine-down";
    case FaultKind::kSlowNode:
      return "slow-node";
    case FaultKind::kServiceOutage:
      return "service-outage";
    case FaultKind::kIngestStall:
      return "ingest-stall";
    case FaultKind::kMetricDropout:
      return "metric-dropout";
    case FaultKind::kMetricDelay:
      return "metric-delay";
    case FaultKind::kRescaleFailure:
      return "rescale-failure";
    case FaultKind::kRackDown:
      return "rack-down";
    case FaultKind::kNetworkPartition:
      return "network-partition";
  }
  return "unknown";
}

namespace {

bool has_duplicate_machines(const std::vector<std::size_t>& machines) {
  std::vector<std::size_t> sorted(machines);
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

// Validation shared between the builder methods and the vector constructor
// so a hand-assembled event passes exactly the same checks a built one does.
void validate_event(const FaultEvent& e) {
  // Every bound below is false for NaN, so finiteness comes first.
  for (const double v : {e.at, e.duration, e.detection_delay_sec,
                         e.magnitude}) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument(std::string("FaultSchedule: event '") +
                                  to_string(e.kind) +
                                  "' has a non-finite time or magnitude");
    }
  }
  if (e.at < 0.0 || e.duration <= 0.0) {
    throw std::invalid_argument(std::string("FaultSchedule: event '") +
                                to_string(e.kind) +
                                "' needs at >= 0 and duration > 0");
  }
  switch (e.kind) {
    case FaultKind::kMachineDown:
      if (e.detection_delay_sec < 0.0) {
        throw std::invalid_argument(
            "FaultSchedule::machine_down: negative detection delay");
      }
      break;
    case FaultKind::kSlowNode:
      if (e.magnitude <= 0.0 || e.magnitude >= 1.0) {
        throw std::invalid_argument(
            "FaultSchedule::slow_node: speed factor must be in (0, 1)");
      }
      break;
    case FaultKind::kServiceOutage:
      if (e.service.empty()) {
        throw std::invalid_argument(
            "FaultSchedule::service_outage: empty service name");
      }
      break;
    case FaultKind::kMetricDelay:
      if (e.magnitude <= 0.0) {
        throw std::invalid_argument(
            "FaultSchedule::metric_delay: delay must be > 0");
      }
      break;
    case FaultKind::kRescaleFailure:
      if (e.magnitude < 0.0) {
        throw std::invalid_argument(
            "FaultSchedule::rescale_failure: negative failure count");
      }
      break;
    case FaultKind::kRackDown:
      if (e.machines.empty()) {
        throw std::invalid_argument(
            "FaultSchedule::rack_down: empty machine group");
      }
      if (has_duplicate_machines(e.machines)) {
        throw std::invalid_argument(
            "FaultSchedule::rack_down: duplicate machine in group");
      }
      if (e.detection_delay_sec < 0.0) {
        throw std::invalid_argument(
            "FaultSchedule::rack_down: negative detection delay");
      }
      break;
    case FaultKind::kNetworkPartition:
      // The island must be a set: duplicates would let "{1, 1}" pose as a
      // two-machine island ("covers the whole cluster" checks downstream
      // compare sizes, and Engine::inject_network_partition knows the real
      // machine count).
      if (e.machines.empty()) {
        throw std::invalid_argument(
            "FaultSchedule::network_partition: empty island");
      }
      if (has_duplicate_machines(e.machines)) {
        throw std::invalid_argument(
            "FaultSchedule::network_partition: duplicate machine in island");
      }
      break;
    case FaultKind::kIngestStall:
    case FaultKind::kMetricDropout:
      break;
  }
}

}  // namespace

FaultSchedule::FaultSchedule(std::vector<FaultEvent> events) {
  for (const FaultEvent& e : events) validate_event(e);
  std::stable_sort(
      events.begin(), events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  events_ = std::move(events);
}

FaultSchedule& FaultSchedule::push(FaultEvent event) {
  validate_event(event);
  // Keep events_ sorted by start time (insertion is cold; reads are hot).
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event.at,
      [](double at, const FaultEvent& e) { return at < e.at; });
  events_.insert(pos, std::move(event));
  return *this;
}

FaultSchedule& FaultSchedule::machine_down(std::size_t machine, double at,
                                           double duration,
                                           double detection_delay_sec) {
  return push({.kind = FaultKind::kMachineDown,
               .at = at,
               .duration = duration,
               .machine = machine,
               .detection_delay_sec = detection_delay_sec});
}

FaultSchedule& FaultSchedule::slow_node(std::size_t machine,
                                        double speed_factor, double at,
                                        double duration) {
  return push({.kind = FaultKind::kSlowNode,
               .at = at,
               .duration = duration,
               .machine = machine,
               .magnitude = speed_factor});
}

FaultSchedule& FaultSchedule::service_outage(std::string service, double at,
                                             double duration) {
  return push({.kind = FaultKind::kServiceOutage,
               .at = at,
               .duration = duration,
               .service = std::move(service)});
}

FaultSchedule& FaultSchedule::ingest_stall(double at, double duration) {
  return push(
      {.kind = FaultKind::kIngestStall, .at = at, .duration = duration});
}

FaultSchedule& FaultSchedule::metric_dropout(double at, double duration) {
  return push(
      {.kind = FaultKind::kMetricDropout, .at = at, .duration = duration});
}

FaultSchedule& FaultSchedule::metric_delay(double at, double duration,
                                           double delay_sec) {
  return push({.kind = FaultKind::kMetricDelay,
               .at = at,
               .duration = duration,
               .magnitude = delay_sec});
}

FaultSchedule& FaultSchedule::rescale_failure(double at, double duration,
                                              int failures) {
  return push({.kind = FaultKind::kRescaleFailure,
               .at = at,
               .duration = duration,
               .magnitude = static_cast<double>(failures)});
}

FaultSchedule& FaultSchedule::rack_down(std::vector<std::size_t> machines,
                                        double at, double duration,
                                        double detection_delay_sec) {
  return push({.kind = FaultKind::kRackDown,
               .at = at,
               .duration = duration,
               .detection_delay_sec = detection_delay_sec,
               .machines = std::move(machines)});
}

FaultSchedule& FaultSchedule::network_partition(
    std::vector<std::size_t> island, double at, double duration) {
  return push({.kind = FaultKind::kNetworkPartition,
               .at = at,
               .duration = duration,
               .machines = std::move(island)});
}

bool FaultSchedule::has_metric_faults() const noexcept {
  return std::any_of(events_.begin(), events_.end(), [](const FaultEvent& e) {
    return e.kind == FaultKind::kMetricDropout ||
           e.kind == FaultKind::kMetricDelay;
  });
}

bool FaultSchedule::has_host_faults() const noexcept {
  return std::any_of(events_.begin(), events_.end(), [](const FaultEvent& e) {
    return e.kind == FaultKind::kMachineDown ||
           e.kind == FaultKind::kSlowNode ||
           e.kind == FaultKind::kServiceOutage ||
           e.kind == FaultKind::kIngestStall ||
           e.kind == FaultKind::kRackDown ||
           e.kind == FaultKind::kNetworkPartition;
  });
}

double FaultSchedule::last_fault_end() const noexcept {
  double end = 0.0;
  for (const FaultEvent& e : events_) {
    end = std::max(end, e.end());
    if (e.kind == FaultKind::kMachineDown ||
        e.kind == FaultKind::kRackDown) {
      end = std::max(end, e.at + e.detection_delay_sec);
    }
  }
  return end;
}

FaultSchedule FaultSchedule::canned(std::string_view name, std::uint64_t seed,
                                    double horizon_sec) {
  if (horizon_sec <= 0.0) {
    throw std::invalid_argument("FaultSchedule::canned: horizon must be > 0");
  }
  const double h = horizon_sec;
  FaultSchedule s;
  if (name == "machine-crash") {
    // One task manager dies a third of the way in, stays dead for 20% of
    // the horizon, and the framework notices after 10 s — the classic
    // instance-loss / detection-delay / restart / lag-catch-up cycle.
    s.machine_down(1, h / 3.0, 0.20 * h, 10.0);
    return s;
  }
  if (name == "metric-chaos") {
    // The Monitor path misbehaves while the cluster itself is healthy: two
    // dropout windows and one stalled-pipeline stretch. A naive controller
    // mistakes the silence for a dead job and rescales; a hardened one
    // marks the windows unhealthy and sits still.
    s.metric_dropout(0.25 * h, 0.10 * h);
    s.metric_delay(0.45 * h, 0.10 * h, 0.08 * h);
    s.metric_dropout(0.70 * h, 0.08 * h);
    return s;
  }
  if (name == "degraded-cluster") {
    // Rolling degradation, randomised by `seed`: slow nodes come and go,
    // the external service blips, Kafka ingest stalls once, and every
    // rescale attempted during the middle third fails twice before
    // succeeding.
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::uniform_real_distribution<double> when(0.1, 0.75);
    std::uniform_real_distribution<double> factor(0.25, 0.6);
    std::uniform_int_distribution<std::size_t> which(0, 2);
    for (int i = 0; i < 3; ++i) {
      s.slow_node(which(rng), factor(rng), when(rng) * h, 0.12 * h);
    }
    s.service_outage("redis", when(rng) * h, 0.05 * h);
    s.ingest_stall(when(rng) * h, 0.04 * h);
    s.rescale_failure(h / 3.0, h / 3.0, 2);
    return s;
  }
  std::string msg = "FaultSchedule::canned: unknown schedule '";
  msg += name;
  msg += "'; valid:";
  for (const std::string& n : canned_names()) msg += " " + n;
  throw std::invalid_argument(msg);
}

std::vector<std::string> FaultSchedule::canned_names() {
  return {"machine-crash", "metric-chaos", "degraded-cluster"};
}

}  // namespace autra::fault
