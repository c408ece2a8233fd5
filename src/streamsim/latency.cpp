#include "streamsim/latency.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autra::sim {

void LatencyStats::add(double latency_sec, double mass) {
  if (mass <= 0.0) return;
  mean_.add(latency_sec, mass);

  // Weighted reservoir sampling: each unit of mass is a candidate sample.
  // We approximate by inserting one sample per `stride` units of mass where
  // stride keeps the reservoir within bounds, with uniform replacement once
  // full. This preserves the mass-weighted distribution in expectation.
  mass_since_last_keep_ += mass;
  const double stride = std::max(
      1.0, mean_.total_mass() / static_cast<double>(kReservoirSize));
  while (mass_since_last_keep_ >= stride) {
    mass_since_last_keep_ -= stride;
    if (reservoir_.size() < kReservoirSize) {
      reservoir_.push_back(latency_sec);
    } else {
      std::uniform_int_distribution<std::size_t> dist(0, reservoir_.size() - 1);
      reservoir_[dist(rng_)] = latency_sec;
    }
  }
}

std::vector<double> LatencyStats::quantiles(std::span<const double> qs) const {
  if (std::ranges::any_of(qs, [](double q) { return q < 0.0 || q > 1.0; })) {
    throw std::invalid_argument("LatencyStats::quantiles: q outside [0,1]");
  }
  std::vector<double> out(qs.size(), 0.0);
  if (reservoir_.empty()) return out;
  std::vector<double> sorted = reservoir_;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const double pos = qs[i] * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    out[i] = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }
  return out;
}

}  // namespace autra::sim
