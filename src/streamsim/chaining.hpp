// Operator chaining — Flink's task-chaining optimisation.
//
// Consecutive operators connected 1:1 can be fused into one task: records
// pass by function call instead of a serialising network hop. In the
// simulator a chained group becomes a single operator whose per-record cost
// accumulates the members' costs (downstream members weighted by the
// upstream selectivity product, because they process the expanded stream)
// and whose selectivity is the product. Chaining removes per-hop latency
// and lets one slot do the work of several — at the price of coupling the
// members' parallelism, which is exactly why auto-scaling systems like the
// paper's break chains around heavy operators.
//
// Sources may head a chain; keyed/window operators always start a new
// chain (their input is a shuffle, never a local pass); sinks may end one.
#pragma once

#include <vector>

#include "streamsim/topology.hpp"

namespace autra::sim {

struct ChainingResult {
  Topology topology;
  /// group_of[original op index] = operator index in the chained topology.
  std::vector<std::size_t> group_of;
};

/// True if `op` may be fused onto the tail of a chain (stateless with
/// exactly one upstream whose only downstream is `op`).
[[nodiscard]] bool chainable(const Topology& t, std::size_t op);

/// Fuses every chainable run of operators. The input topology must
/// validate; the output topology validates too.
[[nodiscard]] ChainingResult chain_operators(const Topology& t);

}  // namespace autra::sim
