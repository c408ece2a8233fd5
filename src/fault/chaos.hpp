// Chaos-mode fault generation: a seed-deterministic sampler that turns a
// ChaosProfile (event-mix weights, intensity, horizon, cluster shape) into
// a valid FaultSchedule.
//
// The canned schedules in fault_schedule.cpp are three hand-written
// stories; chaos mode is the space *between* them — hundreds of seeded,
// structurally valid schedules that exercise the controller in
// combinations no hand would write. Every event the generator emits passes
// the same validation the FaultSchedule builders enforce, machine and rack
// indices always refer to real cluster members, and partitions are always
// proper subsets, so a generated schedule can be handed straight to
// FaultInjectingBackend. Identical (profile, seed) pairs produce
// bit-identical schedules, which is the foundation of both the
// property-based harness and the golden-trace corpus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "streamsim/cluster.hpp"
#include "streamsim/job_runner.hpp"

namespace autra::fault {

/// Relative weights of the event classes a chaos draw picks from. Weights
/// are relative, not probabilities — only ratios matter. A zero weight
/// removes the class entirely (the way the conformance suite disables
/// uncommanded restarts).
struct ChaosMix {
  double machine_down = 1.0;
  double slow_node = 2.0;
  double service_outage = 1.0;
  double ingest_stall = 1.0;
  double metric_dropout = 1.5;
  double metric_delay = 1.0;
  double rescale_failure = 1.0;
  double rack_down = 0.5;
  double network_partition = 0.5;

  friend bool operator==(const ChaosMix&, const ChaosMix&) = default;
};

/// Everything the generator needs to know to sample valid schedules.
struct ChaosProfile {
  ChaosMix mix;
  /// Events are placed so their windows (and machine-down detection
  /// delays) finish inside the horizon — the recovery-drain property needs
  /// a fault-free tail to measure in.
  double horizon_sec = 1800.0;
  /// Expected number of events per 300 simulated seconds. 0 is legal and
  /// yields the empty schedule (the bit-identical-to-fault-free baseline).
  double intensity = 1.0;
  /// Cluster shape: indices sampled for machine/rack/partition events.
  std::size_t num_machines = 0;
  /// Rack groups (each a machine-index set) for correlated crashes;
  /// rack_down weight is ignored when empty.
  std::vector<std::vector<std::size_t>> racks;
  /// Failure domains for network partitions. When at least two domains are
  /// present, a partition island is a union of a proper subset of them —
  /// real partitions sever rack uplinks, so islands align with the
  /// topology's failure domains instead of sampling arbitrary machine
  /// subsets. for_cluster() fills this with *every* rack (singletons
  /// included: a one-machine rack is still its own uplink domain). Empty
  /// falls back to per-machine islands; network_partition weight is gated
  /// off when neither form is possible.
  std::vector<std::vector<std::size_t>> partition_domains;
  /// Candidate services for outages; service_outage weight is ignored when
  /// empty.
  std::vector<std::string> services;
  /// Event-duration bounds: uniform in [min_duration_sec,
  /// max_duration_frac * horizon_sec]. for_cluster() lowers the fraction
  /// so no event lasts over 600 s (horizons above 5000 s).
  double min_duration_sec = 20.0;
  double max_duration_frac = 0.12;
  /// Time correlation of event onsets, in [0, 1). 0 (the default) keeps
  /// the legacy independent-uniform placements — and the legacy RNG
  /// stream, so existing golden schedules are untouched. > 0 draws
  /// onsets from the arrival subsystem's Hawkes sampler with this
  /// branching ratio: each fault raises the odds of another right
  /// behind it, so faults land in storms separated by calm (the
  /// "everything pages at once" incident shape).
  double burst_clustering = 0.0;

  /// Profile for a cluster: machine count, rack groups, default mix.
  [[nodiscard]] static ChaosProfile for_cluster(const sim::Cluster& cluster,
                                                double horizon_sec = 1800.0,
                                                double intensity = 1.0);
  /// Profile for a job: for_cluster() plus the job's external services.
  [[nodiscard]] static ChaosProfile for_job(const sim::JobSpec& spec,
                                            double horizon_sec = 1800.0,
                                            double intensity = 1.0);
};

/// The sampler. Construction validates the profile (and throws
/// std::invalid_argument on nonsense: negative weights, empty cluster,
/// out-of-range rack members, no usable event class at positive
/// intensity); generate() is const and thread-safe — each call owns its
/// RNG, so the same seed gives the same schedule regardless of what other
/// threads are generating.
class ChaosGenerator {
 public:
  explicit ChaosGenerator(ChaosProfile profile);

  /// Samples one schedule. Deterministic in `seed`: same profile + same
  /// seed is bit-identical, different seeds decorrelate.
  [[nodiscard]] FaultSchedule generate(std::uint64_t seed) const;

  [[nodiscard]] const ChaosProfile& profile() const noexcept {
    return profile_;
  }

  /// The event classes actually drawable under this profile (positive
  /// weight and structurally possible), in draw order — exposed so tests
  /// can assert the gating logic.
  [[nodiscard]] const std::vector<FaultKind>& enabled_kinds() const noexcept {
    return kinds_;
  }

 private:
  ChaosProfile profile_;
  std::vector<FaultKind> kinds_;
  std::vector<double> cumulative_;  ///< Prefix sums of effective weights.
};

}  // namespace autra::fault
