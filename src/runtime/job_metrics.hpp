// Backend-neutral job observables: the parallelism configuration, the
// per-operator rate snapshot, and the QoS summary of one measurement
// window. These are the only job-level types the policy layer (core/ and
// baselines/) sees — every streaming backend (the fluid simulator, a trace
// replay, eventually a real engine) reports in these terms.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace autra::runtime {

/// Parallelism configuration of a job: one entry per operator, in topology
/// operator-index order.
using Parallelism = std::vector<int>;

/// Deterministic per-configuration seed salt for trial evaluators (FNV-1a
/// over the parallelism vector). Evaluators derive measurement-noise seeds
/// from the *configuration being measured* (plus a per-config rerun
/// counter), not from a shared call counter, so the noise a configuration
/// sees does not depend on the order evaluations are issued in — a
/// requirement for bit-identical Plan decisions at any thread count.
[[nodiscard]] std::uint64_t trial_seed_salt(const Parallelism& p) noexcept;

/// Live snapshot of one operator's rates.
struct OperatorRates {
  /// Average true processing rate of one instance (records/s), Eq. 2.
  double true_rate_per_instance = 0.0;
  /// Observed rate of one instance (records/s, includes idle/blocked time).
  double observed_rate_per_instance = 0.0;
  double total_input_rate = 0.0;   ///< lambda_i.
  double total_output_rate = 0.0;  ///< o_i.
  double queue_length = 0.0;
  int parallelism = 0;
};

/// Per-record processing-latency percentiles of one window (Fig. 8(b)).
struct LatencyPercentiles {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// QoS snapshot of one measurement window.
struct JobMetrics {
  Parallelism parallelism;
  double input_rate = 0.0;      ///< External production rate during window.
  double throughput = 0.0;      ///< Records/s consumed from the source log.
  double latency_ms = 0.0;      ///< Mean processing latency (Flink latency).
  /// Measured only when the backend was asked for them (the simulator's
  /// EngineParams::latency_percentiles); no policy reads them.
  std::optional<LatencyPercentiles> latency_percentiles;
  double event_latency_ms = 0.0;  ///< Mean event-time latency (incl. lag).
  double kafka_lag = 0.0;         ///< Records pending at window end.
  double lag_growth_per_sec = 0.0;
  double busy_cores = 0.0;        ///< Average CPU cores in use.
  double memory_mb = 0.0;         ///< Static memory footprint.
  std::vector<OperatorRates> operators;

  /// Sum of all operator parallelisms — the "resource units" compared in
  /// the paper's Figs. 7 and 8.
  [[nodiscard]] int total_parallelism() const;
};

}  // namespace autra::runtime
