// Trace-driven rates: replay a recorded (time, rate) series from a
// small line-oriented text format, with hold or linear interpolation
// between breakpoints. The format is designed to round-trip exactly:
// save() prints every breakpoint with %.17g, so load(save(load(f)))
// is bit-identical to load(f).
//
//   # autra-trace v1          <- comment lines start with '#'
//   interp linear             <- or "interp hold" (default when absent)
//   0 100000                  <- "<time_sec> <records_per_sec>"
//   600 250000
//   1200 80000
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "arrival/tabulated.hpp"

namespace autra::arrival {

enum class TraceInterp : std::uint8_t {
  kHold,    ///< step function: rate of the latest breakpoint at or before t
  kLinear,  ///< linear between breakpoints, held flat beyond the ends
};

class TraceRate final : public TabulatedRate {
 public:
  /// Breakpoints must be non-empty, strictly increasing in time, with
  /// finite non-negative times and rates; throws std::invalid_argument
  /// otherwise. The table spans max(horizon_sec, last breakpoint + 1)
  /// seconds (horizon_sec == 0 means "just cover the trace").
  explicit TraceRate(std::vector<std::pair<double, double>> points,
                     TraceInterp interp = TraceInterp::kHold,
                     double horizon_sec = 0.0);

  /// Parses the text format above. Throws std::runtime_error naming the
  /// offending line on malformed input or an unreadable file.
  [[nodiscard]] static TraceRate load(const std::string& path);
  [[nodiscard]] static TraceRate parse(std::istream& in,
                                       const std::string& origin);

  /// Writes the trace back out; load(save(x)) reproduces x's
  /// breakpoints bit-for-bit. Returns false if the file can't be
  /// written.
  [[nodiscard]] bool save(const std::string& path) const;

  [[nodiscard]] const std::vector<std::pair<double, double>>& points()
      const noexcept {
    return points_;
  }
  [[nodiscard]] TraceInterp interpolation() const noexcept {
    return interp_;
  }

 private:
  std::vector<std::pair<double, double>> points_;
  TraceInterp interp_;
};

}  // namespace autra::arrival
