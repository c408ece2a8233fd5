#include "arrival/diurnal.hpp"

#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

namespace autra::arrival {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

void validate(const DiurnalParams& p) {
  if (!(p.base_rate >= 0.0) || !std::isfinite(p.base_rate)) {
    throw std::invalid_argument("DiurnalRate: base_rate must be >= 0");
  }
  if (!(p.daily_amplitude >= 0.0) || p.daily_amplitude > 1.0) {
    throw std::invalid_argument(
        "DiurnalRate: daily_amplitude must be in [0, 1]");
  }
  if (!(p.weekend_factor >= 0.0) || !std::isfinite(p.weekend_factor)) {
    throw std::invalid_argument("DiurnalRate: weekend_factor must be >= 0");
  }
  if (!(p.day_sec > 0.0)) {
    throw std::invalid_argument("DiurnalRate: day_sec must be > 0");
  }
  if (!(p.flash_crowds_per_day >= 0.0) || !(p.flash_magnitude >= 0.0) ||
      !(p.flash_duration_sec > 0.0)) {
    throw std::invalid_argument(
        "DiurnalRate: flash parameters must be non-negative "
        "(duration > 0)");
  }
  if (!(p.horizon_sec >= 1.0)) {
    throw std::invalid_argument("DiurnalRate: horizon_sec must be >= 1");
  }
}

std::vector<double> materialise(const DiurnalParams& p, std::uint64_t seed) {
  validate(p);
  const std::size_t horizon = static_cast<std::size_t>(p.horizon_sec);
  std::vector<double> table(horizon, 0.0);

  // Deterministic envelope: weekly factor x daily sinusoid, sampled at
  // bucket midpoints.
  for (std::size_t s = 0; s < horizon; ++s) {
    const double t = static_cast<double>(s) + 0.5;
    const double day_frac = t / p.day_sec;
    const int day = static_cast<int>(day_frac);
    const double weekly = (day % 7 == 5 || day % 7 == 6)
                              ? p.weekend_factor
                              : 1.0;
    const double phase =
        day_frac - static_cast<double>(day) - kDiurnalPeakFrac;
    table[s] = p.base_rate * weekly *
               (1.0 + p.daily_amplitude * std::cos(kTwoPi * phase));
  }

  // Seeded flash crowds: a fixed count per day, each a half-cosine bump
  // peaking at flash_magnitude * base_rate.
  const int days = static_cast<int>(
      std::ceil(p.horizon_sec / p.day_sec) + 0.5);
  const long crowds_per_day = std::lround(p.flash_crowds_per_day);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int day = 0; day < days; ++day) {
    for (long c = 0; c < crowds_per_day; ++c) {
      const double onset =
          (static_cast<double>(day) + unit(rng)) * p.day_sec;
      for (std::size_t s = 0; s < horizon; ++s) {
        const double u =
            (static_cast<double>(s) + 0.5 - onset) / p.flash_duration_sec;
        if (u < 0.0 || u >= 1.0) continue;
        table[s] += p.base_rate * p.flash_magnitude * 0.5 *
                    (1.0 - std::cos(kTwoPi * u));
      }
    }
  }
  return table;
}

}  // namespace

DiurnalRate::DiurnalRate(DiurnalParams params, std::uint64_t seed)
    : TabulatedRate(materialise(params, seed)), params_(std::move(params)) {}

}  // namespace autra::arrival
