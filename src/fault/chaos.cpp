#include "fault/chaos.hpp"

#include <algorithm>

#include "arrival/hawkes.hpp"
#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

namespace autra::fault {

namespace {

// Mean events per this many simulated seconds at intensity 1.0.
constexpr double kIntensityWindowSec = 300.0;
// Events (including machine-down detection) must end by this fraction of
// the horizon so every run has a fault-free tail to recover in.
constexpr double kLastEndFrac = 0.9;

void require(bool ok, const char* msg) {
  if (!ok) throw std::invalid_argument(std::string("ChaosGenerator: ") + msg);
}

bool usable(FaultKind kind, const ChaosProfile& p) {
  switch (kind) {
    case FaultKind::kServiceOutage:
      return !p.services.empty();
    case FaultKind::kRackDown:
      return !p.racks.empty();
    case FaultKind::kNetworkPartition:
      // Domain-aligned islands need a proper subset of >= 2 domains; the
      // domain-free fallback needs >= 2 machines. One domain covering the
      // whole cluster can never leave a mainland.
      return p.partition_domains.size() >= 2 ||
             (p.partition_domains.empty() && p.num_machines >= 2);
    default:
      return true;
  }
}

double weight_of(FaultKind kind, const ChaosMix& m) {
  switch (kind) {
    case FaultKind::kMachineDown:
      return m.machine_down;
    case FaultKind::kSlowNode:
      return m.slow_node;
    case FaultKind::kServiceOutage:
      return m.service_outage;
    case FaultKind::kIngestStall:
      return m.ingest_stall;
    case FaultKind::kMetricDropout:
      return m.metric_dropout;
    case FaultKind::kMetricDelay:
      return m.metric_delay;
    case FaultKind::kRescaleFailure:
      return m.rescale_failure;
    case FaultKind::kRackDown:
      return m.rack_down;
    case FaultKind::kNetworkPartition:
      return m.network_partition;
  }
  return 0.0;
}

constexpr FaultKind kAllKinds[] = {
    FaultKind::kMachineDown,   FaultKind::kSlowNode,
    FaultKind::kServiceOutage, FaultKind::kIngestStall,
    FaultKind::kMetricDropout, FaultKind::kMetricDelay,
    FaultKind::kRescaleFailure, FaultKind::kRackDown,
    FaultKind::kNetworkPartition,
};

}  // namespace

ChaosProfile ChaosProfile::for_cluster(const sim::Cluster& cluster,
                                       double horizon_sec, double intensity) {
  ChaosProfile p;
  p.horizon_sec = horizon_sec;
  p.intensity = intensity;
  // No event outlasts ten minutes, however long the horizon: a fixed
  // fraction of a day-long run would keep the job down for hours.
  p.max_duration_frac = std::min(p.max_duration_frac, 600.0 / horizon_sec);
  p.num_machines = cluster.num_machines();
  // Only multi-machine racks are correlated-failure domains worth
  // crashing as a group; singletons are plain machine-down territory.
  for (const std::vector<std::size_t>& rack : cluster.racks()) {
    if (rack.size() >= 2) p.racks.push_back(rack);
  }
  if (p.racks.empty()) p.mix.rack_down = 0.0;
  // Partition islands sever rack uplinks, so every rack — singletons
  // included — is a partition domain (kRackDown's failure domains, reused).
  p.partition_domains = cluster.racks();
  return p;
}

ChaosProfile ChaosProfile::for_job(const sim::JobSpec& spec,
                                   double horizon_sec, double intensity) {
  ChaosProfile p =
      for_cluster(sim::Cluster(spec.cluster), horizon_sec, intensity);
  for (const sim::ExternalServiceSpec& svc : spec.services) {
    p.services.push_back(svc.name);
  }
  if (p.services.empty()) p.mix.service_outage = 0.0;
  return p;
}

ChaosGenerator::ChaosGenerator(ChaosProfile profile)
    : profile_(std::move(profile)) {
  require(profile_.horizon_sec > 0.0, "horizon must be > 0");
  require(profile_.intensity >= 0.0 && std::isfinite(profile_.intensity),
          "intensity must be finite and >= 0");
  require(profile_.num_machines >= 1, "cluster has no machines");
  require(profile_.min_duration_sec > 0.0 &&
              profile_.min_duration_sec <= kLastEndFrac * profile_.horizon_sec,
          "min duration must be in (0, 0.9 * horizon]");
  require(profile_.max_duration_frac > 0.0 &&
              profile_.max_duration_frac <= kLastEndFrac,
          "max duration fraction must be in (0, 0.9]");
  require(profile_.burst_clustering >= 0.0 && profile_.burst_clustering < 1.0,
          "burst_clustering must be in [0, 1)");
  for (const std::vector<std::size_t>& rack : profile_.racks) {
    require(!rack.empty(), "empty rack group");
    for (std::size_t m : rack) {
      require(m < profile_.num_machines, "rack member out of range");
    }
  }
  {
    std::vector<char> seen(profile_.num_machines, 0);
    for (const std::vector<std::size_t>& dom : profile_.partition_domains) {
      require(!dom.empty(), "empty partition domain");
      for (std::size_t m : dom) {
        require(m < profile_.num_machines,
                "partition domain member out of range");
        require(!seen[m], "partition domains must be disjoint");
        seen[m] = 1;
      }
    }
  }
  double total = 0.0;
  for (FaultKind kind : kAllKinds) {
    const double w = weight_of(kind, profile_.mix);
    require(w >= 0.0 && std::isfinite(w), "weights must be finite and >= 0");
    if (w <= 0.0 || !usable(kind, profile_)) continue;
    kinds_.push_back(kind);
    total += w;
    cumulative_.push_back(total);
  }
  require(!kinds_.empty() || profile_.intensity == 0.0,
          "no event class is drawable (all weights zero or gated off)");
}

FaultSchedule ChaosGenerator::generate(std::uint64_t seed) const {
  FaultSchedule schedule;
  const double mean =
      profile_.intensity * profile_.horizon_sec / kIntensityWindowSec;
  if (mean <= 0.0) return schedule;

  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0xc2b2ae3d27d4eb4full);
  // Spread the event count uniformly around the mean (0.5x..1.5x, never
  // below 1): deterministic, and different seeds get genuinely different
  // schedule sizes, not just different placements.
  const int lo = std::max(1, static_cast<int>(std::floor(0.5 * mean)));
  const int hi =
      std::max(lo, static_cast<int>(std::ceil(1.5 * mean)));
  const int count = std::uniform_int_distribution<int>(lo, hi)(rng);

  const double h = profile_.horizon_sec;
  const double max_duration =
      std::max(profile_.min_duration_sec, profile_.max_duration_frac * h);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> duration_dist(
      profile_.min_duration_sec, max_duration);
  std::uniform_int_distribution<std::size_t> machine_dist(
      0, profile_.num_machines - 1);

  // Time-correlated mode: pre-sample clustered onset times from the
  // arrival subsystem's Hawkes sampler. mu is calibrated so the expected
  // cascade total (mu * span / (1 - branching)) matches `count`; any
  // shortfall falls back to the legacy uniform placement below. Only the
  // burst_clustering > 0 path touches the RNG here, so clustering-off
  // schedules stay bit-identical to the golden corpus.
  std::vector<double> onsets;
  if (profile_.burst_clustering > 0.0) {
    const double span = kLastEndFrac * h;
    const double mu =
        static_cast<double>(count) * (1.0 - profile_.burst_clustering) / span;
    // Burst memory ~ the shortest event: storms tighter than a single
    // fault's duration still read as distinct events.
    const double decay = 1.0 / profile_.min_duration_sec;
    onsets = arrival::sample_hawkes_event_times(
        mu, profile_.burst_clustering, decay, span, rng);
  }

  for (int n = 0; n < count; ++n) {
    const double pick = unit(rng) * cumulative_.back();
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), pick) -
        cumulative_.begin());
    const FaultKind kind = kinds_[std::min(k, kinds_.size() - 1)];

    const double duration = duration_dist(rng);
    // Detection delay counts toward the event's footprint so even a crash
    // at the latest admissible start is detected (and restarted from)
    // before the fault-free tail.
    const bool crash =
        kind == FaultKind::kMachineDown || kind == FaultKind::kRackDown;
    const double detect =
        crash ? std::uniform_real_distribution<double>(5.0, 20.0)(rng) : 0.0;
    const double footprint = std::max(duration, detect);
    const double latest = std::max(0.0, kLastEndFrac * h - footprint);
    const double at = static_cast<std::size_t>(n) < onsets.size()
                          ? std::min(onsets[static_cast<std::size_t>(n)],
                                     latest)
                          : unit(rng) * latest;

    switch (kind) {
      case FaultKind::kMachineDown:
        schedule.machine_down(machine_dist(rng), at, duration, detect);
        break;
      case FaultKind::kSlowNode:
        schedule.slow_node(
            machine_dist(rng),
            std::uniform_real_distribution<double>(0.25, 0.7)(rng), at,
            duration);
        break;
      case FaultKind::kServiceOutage: {
        std::uniform_int_distribution<std::size_t> svc(
            0, profile_.services.size() - 1);
        schedule.service_outage(profile_.services[svc(rng)], at, duration);
        break;
      }
      case FaultKind::kIngestStall:
        schedule.ingest_stall(at, duration);
        break;
      case FaultKind::kMetricDropout:
        schedule.metric_dropout(at, duration);
        break;
      case FaultKind::kMetricDelay:
        schedule.metric_delay(
            at, duration,
            std::uniform_real_distribution<double>(
                10.0, std::max(10.0, 0.05 * h))(rng));
        break;
      case FaultKind::kRescaleFailure:
        schedule.rescale_failure(
            at, duration, std::uniform_int_distribution<int>(1, 3)(rng));
        break;
      case FaultKind::kRackDown: {
        std::uniform_int_distribution<std::size_t> rack(
            0, profile_.racks.size() - 1);
        schedule.rack_down(profile_.racks[rack(rng)], at, duration, detect);
        break;
      }
      case FaultKind::kNetworkPartition: {
        // A proper, non-empty island spelled in ascending machine order so
        // the same island set always serialises the same way. With
        // partition domains the island is a union of a proper subset of
        // racks (a partition severs uplinks, so it cannot split a rack);
        // without them, any proper machine subset (the legacy form).
        std::vector<std::size_t> island;
        if (!profile_.partition_domains.empty()) {
          const std::size_t nd = profile_.partition_domains.size();
          std::vector<std::size_t> order(nd);
          for (std::size_t i = 0; i < nd; ++i) order[i] = i;
          for (std::size_t i = nd - 1; i > 0; --i) {
            const std::size_t j =
                std::uniform_int_distribution<std::size_t>(0, i)(rng);
            std::swap(order[i], order[j]);
          }
          const std::size_t size =
              std::uniform_int_distribution<std::size_t>(1, nd - 1)(rng);
          for (std::size_t d = 0; d < size; ++d) {
            const std::vector<std::size_t>& dom =
                profile_.partition_domains[order[d]];
            island.insert(island.end(), dom.begin(), dom.end());
          }
        } else {
          std::vector<std::size_t> order(profile_.num_machines);
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          for (std::size_t i = order.size() - 1; i > 0; --i) {
            const std::size_t j =
                std::uniform_int_distribution<std::size_t>(0, i)(rng);
            std::swap(order[i], order[j]);
          }
          const std::size_t size = std::uniform_int_distribution<std::size_t>(
              1, profile_.num_machines - 1)(rng);
          island.assign(order.begin(), order.begin() + size);
        }
        std::sort(island.begin(), island.end());
        schedule.network_partition(std::move(island), at, duration);
        break;
      }
    }
  }
  return schedule;
}

}  // namespace autra::fault
