// Diurnal traffic: a daily sinusoid under a weekly envelope (weekend
// dip), with seeded flash-crowd spikes — the canonical shape of a
// consumer-facing service's ingest. `day_sec` is a parameter so benches
// can compress whole "days" into a sub-hour simulated horizon.
#pragma once

#include <cstdint>

#include "arrival/tabulated.hpp"

namespace autra::arrival {

/// Position of the daily peak as a fraction of the day (14:00 ~ 0.583).
inline constexpr double kDiurnalPeakFrac = 14.0 / 24.0;

struct DiurnalParams {
  /// Mean rate (records/sec) of the deterministic envelope.
  double base_rate = 100e3;
  /// Daily swing: rate oscillates base * (1 +/- daily_amplitude). [0, 1].
  double daily_amplitude = 0.5;
  /// Multiplier applied on days 5 and 6 of each 7-day week. >= 0.
  double weekend_factor = 0.7;
  /// Simulated length of one "day"; 7 of them make a "week".
  double day_sec = 86400.0;
  /// Flash crowds per day (rounded to an integer count); onsets are
  /// drawn uniformly within each day from the seed.
  double flash_crowds_per_day = 1.0;
  /// Peak height of a flash crowd as a fraction of base_rate.
  double flash_magnitude = 1.5;
  /// Duration of one flash crowd (half-cosine bump).
  double flash_duration_sec = 600.0;
  /// Seconds of rate table to materialise.
  double horizon_sec = 3600.0;
};

class DiurnalRate final : public TabulatedRate {
 public:
  /// The envelope is deterministic; only flash-crowd onsets consume the
  /// seed (std::mt19937_64(seed)). Throws std::invalid_argument on
  /// out-of-range parameters.
  DiurnalRate(DiurnalParams params, std::uint64_t seed);

  [[nodiscard]] const DiurnalParams& params() const noexcept {
    return params_;
  }

 private:
  DiurnalParams params_;
};

}  // namespace autra::arrival
