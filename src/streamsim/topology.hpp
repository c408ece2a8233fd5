// Job topology: the directed acyclic graph of operators a streaming job is
// made of, mirroring a Flink JobGraph. Operators carry the per-record cost
// model the fluid engine executes (deserialize + process + serialize, the
// three components of "time used" in the paper's true-rate definition,
// Eq. 2).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace autra::sim {

/// What kind of operator this is; only sources and the cost/state model
/// differ — the fluid engine treats all non-source kinds uniformly.
enum class OperatorKind {
  kSource,          ///< Pulls from the Kafka log.
  kStateless,       ///< Map / FlatMap / Filter.
  kKeyedAggregate,  ///< Keyed running aggregate (e.g. WordCount's Count).
  kSlidingWindow,   ///< Sliding-window aggregate (Nexmark Query5).
  kSessionWindow,   ///< Session-window aggregate (Nexmark Query11).
  kSink,            ///< Terminal operator; completions are latency samples.
};

[[nodiscard]] const char* to_string(OperatorKind kind) noexcept;

/// Static description of one operator.
struct OperatorSpec {
  std::string name;
  OperatorKind kind = OperatorKind::kStateless;

  /// Output records emitted per input record processed.
  double selectivity = 1.0;

  /// Per-record costs in microseconds on one reference core, split the way
  /// the paper splits "time used" (Eq. 2).
  double deserialize_us = 0.0;
  double process_us = 1.0;
  double serialize_us = 0.0;

  /// Managed state per instance, for the memory-usage metric (Fig. 8c).
  double state_mb = 16.0;

  /// If set, every processed record issues `external_calls_per_record`
  /// calls against this named rate-capped external service (the Redis
  /// stand-in that throttles the Yahoo benchmark).
  std::optional<std::string> external_service;
  double external_calls_per_record = 1.0;

  /// Key skew for keyed operators: the hottest instance receives
  /// (1 + key_skew) times the uniform share of incoming records (0 =
  /// uniform, the paper's assumption). A skewed operator saturates its hot
  /// instance first, so its effective capacity is below k times the
  /// per-instance rate — a failure-injection axis for the policies that
  /// assume uniformity (DS2's Eq. 3 and AuTraScale's throughput stage).
  double key_skew = 0.0;

  [[nodiscard]] double total_cost_us() const noexcept {
    return deserialize_us + process_us + serialize_us;
  }
};

/// A DAG of operators. Operators are identified by dense indices in
/// insertion order; edges point downstream.
class Topology {
 public:
  /// Adds an operator, returns its index.
  std::size_t add_operator(OperatorSpec spec);

  /// Adds an edge from `from` to `to`. Throws std::invalid_argument on bad
  /// indices, self-loops, or duplicate edges.
  void connect(std::size_t from, std::size_t to);

  [[nodiscard]] std::size_t num_operators() const noexcept {
    return ops_.size();
  }
  [[nodiscard]] const OperatorSpec& op(std::size_t i) const {
    return ops_.at(i);
  }
  [[nodiscard]] OperatorSpec& op(std::size_t i) { return ops_.at(i); }

  [[nodiscard]] const std::vector<std::size_t>& downstream(
      std::size_t i) const {
    return downstream_.at(i);
  }
  [[nodiscard]] const std::vector<std::size_t>& upstream(std::size_t i) const {
    return upstream_.at(i);
  }

  [[nodiscard]] std::vector<std::size_t> sources() const;

  /// Topological order of operator indices. Throws std::logic_error if the
  /// graph has a cycle.
  [[nodiscard]] std::vector<std::size_t> topological_order() const;

  /// Validates the job: at least one source, every source is kSource, every
  /// non-source reachable from a source, acyclic. Throws std::logic_error
  /// with a description on failure.
  void validate() const;

 private:
  std::vector<OperatorSpec> ops_;
  std::vector<std::vector<std::size_t>> downstream_;
  std::vector<std::vector<std::size_t>> upstream_;
};

}  // namespace autra::sim
