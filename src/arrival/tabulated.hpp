// Base class for the generative arrival processes (DESIGN.md §13).
//
// Every process in src/arrival/ is sampled ONCE, at construction, into a
// per-second rate table; rate_at() is then a pure table lookup. This is
// the discretisation-and-determinism contract of the subsystem: the RNG
// lives and dies inside the constructor (seeded with a named seed, per
// lint rule D3), so rate_at() is const, thread-safe, and bit-identical
// across exec thread counts and engine cores — the engine only ever sees a
// fixed function of time, exactly like the hand-built schedules in
// streamsim/rates.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "streamsim/rates.hpp"

namespace autra::arrival {

/// A RateSchedule backed by an immutable per-second table: entry s is the
/// average rate (records/second) over simulated time [s, s+1). Queries
/// before t=0 return the first entry; queries at or beyond the horizon
/// hold the last entry (a long-lived session outliving the materialised
/// horizon sees a constant tail, never a discontinuity to zero).
class TabulatedRate : public sim::RateSchedule {
 public:
  [[nodiscard]] double rate_at(double t) const final {
    if (t <= 0.0) return table_.front();
    std::size_t s = static_cast<std::size_t>(t);
    if (s >= table_.size()) s = table_.size() - 1;
    return table_[s];
  }

  /// The materialised per-second table (one entry per second of horizon).
  [[nodiscard]] const std::vector<double>& table() const noexcept {
    return table_;
  }

 protected:
  /// Validates and adopts the table: non-empty, every entry finite and
  /// >= 0. Throws std::invalid_argument otherwise.
  explicit TabulatedRate(std::vector<double> table);

 private:
  std::vector<double> table_;
};

}  // namespace autra::arrival
