// Self-exciting (Hawkes) burst arrivals: burst onsets arrive at a base
// intensity mu, and every onset temporarily raises the intensity for its
// successors (exponential kernel), so bursts cluster into storms instead
// of spreading evenly like a Poisson process. Sampled by Ogata thinning;
// the sampler is a standalone function because the chaos generator
// reuses it for time-correlated fault bursts (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "arrival/tabulated.hpp"

namespace autra::arrival {

/// Samples the event times of a Hawkes process on [0, horizon_sec) with
/// conditional intensity
///
///   lambda(t) = mu + sum_{t_i < t} branching * decay_per_sec
///                                  * exp(-decay_per_sec * (t - t_i))
///
/// via Ogata's thinning algorithm. `branching` (= alpha/beta) is the
/// expected number of children per event and must be in [0, 1) for the
/// process to be subcritical. Returns strictly increasing times.
/// Consumes a caller-owned RNG so two subsystems can share one sampler
/// without sharing seed-derivation conventions.
[[nodiscard]] std::vector<double> sample_hawkes_event_times(
    double mu, double branching, double decay_per_sec, double horizon_sec,
    std::mt19937_64& rng);

struct HawkesParams {
  /// Constant background record rate (records/sec) under the bursts.
  double base_rate = 0.0;
  /// Spontaneous burst onsets per second (mu of the Hawkes process).
  double burst_onsets_per_sec = 1.0 / 60.0;
  /// Expected children per onset (alpha/beta), in [0, 1).
  double branching = 0.5;
  /// Exponential kernel decay (beta, 1/sec): 1/beta is the memory of a
  /// burst, both for exciting children and for draining its records.
  double decay_per_sec = 1.0 / 30.0;
  /// Record mass injected per burst onset, spread over time as
  /// records_per_burst * beta * exp(-beta * (t - t_i)).
  double records_per_burst = 1e6;
  /// Seconds of rate table to materialise.
  double horizon_sec = 3600.0;
};

class HawkesRate final : public TabulatedRate {
 public:
  /// Samples one burst history with std::mt19937_64(seed) and freezes
  /// base + decayed burst mass into the per-second table.
  HawkesRate(HawkesParams params, std::uint64_t seed);

  /// Long-run mean rate: base + records_per_burst * mu / (1 - branching)
  /// (each spontaneous onset spawns 1/(1-branching) total events).
  [[nodiscard]] double mean_rate() const noexcept;

  /// The sampled burst-onset times (for clustering statistics in tests).
  [[nodiscard]] const std::vector<double>& event_times() const noexcept {
    return events_;
  }

  [[nodiscard]] const HawkesParams& params() const noexcept {
    return params_;
  }

 private:
  HawkesRate(HawkesParams params, std::vector<double> events);

  HawkesParams params_;
  std::vector<double> events_;
};

}  // namespace autra::arrival
