// Markov-modulated Poisson process: the input rate jumps between a
// ladder of discrete regimes (e.g. quiet / normal / busy / surge), with
// exponentially distributed sojourns in each. This is the classic model
// for traffic whose *level* is piecewise-stable but whose regime shifts
// are unpredictable — exactly where a controller tuned on staircase
// schedules gets surprised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arrival/tabulated.hpp"

namespace autra::arrival {

struct MmppParams {
  /// Rate (records/sec) of each modulating state. At least one entry.
  std::vector<double> state_rates;
  /// Mean exponential sojourn in a state before jumping to a uniformly
  /// chosen *different* state. With uniform jumps the chain's stationary
  /// distribution is uniform, so the long-run mean rate is the plain
  /// average of `state_rates`.
  double mean_holding_sec = 120.0;
  /// Seconds of rate table to materialise.
  double horizon_sec = 3600.0;
};

class MmppRate final : public TabulatedRate {
 public:
  /// Samples one regime path with std::mt19937_64(seed) and freezes it
  /// into the per-second table. Throws std::invalid_argument on an empty
  /// ladder, non-positive holding time / horizon, or bad rates.
  MmppRate(MmppParams params, std::uint64_t seed);

  /// Long-run mean rate of the process (average of the ladder).
  [[nodiscard]] double stationary_rate() const noexcept;

  [[nodiscard]] const MmppParams& params() const noexcept { return params_; }

  /// Evenly spaced ladder of `states` rates spanning
  /// mean_rate * [1 - spread, 1 + spread]; its average is mean_rate, so
  /// MmppRate(ladder(m, ...), seed).stationary_rate() == m.
  [[nodiscard]] static MmppParams ladder(double mean_rate,
                                         std::size_t states = 4,
                                         double spread = 0.6,
                                         double mean_holding_sec = 120.0,
                                         double horizon_sec = 3600.0);

 private:
  MmppParams params_;
};

}  // namespace autra::arrival
