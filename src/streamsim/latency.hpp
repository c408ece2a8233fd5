// Mass-weighted latency statistics. The fluid engine contributes
// (latency, record-mass) pairs at the sink. MassWeightedMean keeps the two
// sums a mean needs; LatencyStats adds a weighted reservoir for percentile
// queries (Fig. 8(b) plots per-record latency distributions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace autra::sim {

class MassWeightedMean {
 public:
  /// Adds `mass` records that each experienced `latency_sec`; non-positive
  /// mass is ignored.
  void add(double latency_sec, double mass) noexcept {
    if (mass <= 0.0) return;
    total_mass_ += mass;
    weighted_sum_ += latency_sec * mass;
  }

  [[nodiscard]] double mean() const noexcept {
    return total_mass_ > 0.0 ? weighted_sum_ / total_mass_ : 0.0;
  }
  [[nodiscard]] double total_mass() const noexcept { return total_mass_; }
  [[nodiscard]] bool empty() const noexcept { return total_mass_ <= 0.0; }
  void reset() noexcept { *this = MassWeightedMean{}; }

 private:
  double total_mass_ = 0.0;
  double weighted_sum_ = 0.0;
};

class LatencyStats {
 public:
  static constexpr std::size_t kReservoirSize = 4096;

  explicit LatencyStats(std::uint64_t seed = 7) : rng_(seed) {
    reservoir_.reserve(kReservoirSize);
  }

  /// Adds `mass` records that each experienced `latency_sec`.
  void add(double latency_sec, double mass);

  [[nodiscard]] double mean() const noexcept { return mean_.mean(); }
  [[nodiscard]] double total_mass() const noexcept {
    return mean_.total_mass();
  }
  [[nodiscard]] bool empty() const noexcept { return mean_.empty(); }

  /// Approximate quantiles from one sorted copy of the reservoir: entry i
  /// answers qs[i], in any order. All 0 when empty; throws
  /// std::invalid_argument for any q outside [0, 1].
  [[nodiscard]] std::vector<double> quantiles(
      std::span<const double> qs) const;

  void reset() {
    mean_.reset();
    reservoir_.clear();
    mass_since_last_keep_ = 0.0;
  }

 private:
  MassWeightedMean mean_;
  std::vector<double> reservoir_;
  double mass_since_last_keep_ = 0.0;
  std::mt19937_64 rng_;
};

}  // namespace autra::sim
