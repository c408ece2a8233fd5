// Small shared printing helpers for the example programs.
#pragma once

#include <cstdio>
#include <string>

#include "streamsim/job_runner.hpp"

namespace autra::examples {

inline std::string to_string(const sim::Parallelism& p) {
  std::string s = "(";
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(p[i]);
  }
  return s + ")";
}

/// Prints p99 as "n/a" unless the job was run with
/// EngineParams::latency_percentiles.
inline void print_metrics(const char* tag, const runtime::JobMetrics& m) {
  char p99[32] = "    n/a";
  if (m.latency_percentiles) {
    std::snprintf(p99, sizeof p99, "%7.1f", m.latency_percentiles->p99_ms);
  }
  std::printf(
      "%-28s config=%-18s thr=%8.0f rec/s  lat=%7.1f ms  p99=%s ms  "
      "lag-growth=%8.0f rec/s  cores=%5.1f  mem=%6.0f MB\n",
      tag, to_string(m.parallelism).c_str(), m.throughput, m.latency_ms, p99,
      m.lag_growth_per_sec, m.busy_cores, m.memory_mb);
}

}  // namespace autra::examples
