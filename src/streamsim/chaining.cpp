#include "streamsim/chaining.hpp"

#include <algorithm>
#include <stdexcept>

namespace autra::sim {

bool chainable(const Topology& t, std::size_t op) {
  if (op >= t.num_operators()) {
    throw std::out_of_range("chainable: bad operator index");
  }
  const OperatorSpec& spec = t.op(op);
  // Only stateless operators (and sinks, which are terminal pass-throughs
  // cost-wise) can be fused onto a predecessor; keyed and window operators
  // need a shuffle in front of them.
  if (spec.kind != OperatorKind::kStateless &&
      spec.kind != OperatorKind::kSink) {
    return false;
  }
  // Operators with external-service calls stay unfused so the token-bucket
  // accounting remains per-operator.
  if (spec.external_service.has_value()) return false;
  if (t.upstream(op).size() != 1) return false;
  const std::size_t up = t.upstream(op).front();
  // The upstream must forward only to us (1:1 edge).
  if (t.downstream(up).size() != 1) return false;
  // And must not itself demand a shuffle out (keyed operators repartition
  // downstream in Flink only when keys change; we conservatively allow
  // fusing behind any operator, matching Flink's forward-edge rule).
  if (t.op(up).external_service.has_value()) return false;
  if (t.op(up).key_skew > 0.0 || spec.key_skew > 0.0) return false;
  return true;
}

ChainingResult chain_operators(const Topology& t) {
  t.validate();
  const std::size_t n = t.num_operators();

  // Pass 1: assign each operator to a chain head.
  std::vector<std::size_t> head(n);
  for (std::size_t i : t.topological_order()) {
    head[i] = chainable(t, i) ? head[t.upstream(i).front()] : i;
  }

  ChainingResult result;
  result.group_of.assign(n, 0);

  // Pass 2: build fused operators, one per distinct head, in topological
  // order of the head.
  std::vector<std::ptrdiff_t> group_index(n, -1);
  for (std::size_t i : t.topological_order()) {
    const std::size_t h = head[i];
    if (group_index[h] < 0) {
      OperatorSpec fused = t.op(h);
      fused.name = t.op(h).name;
      group_index[h] = static_cast<std::ptrdiff_t>(
          result.topology.add_operator(fused));
    }
    const auto g = static_cast<std::size_t>(group_index[h]);
    result.group_of[i] = g;
    if (i != h) {
      // Accumulate this member into the fused spec. Its per-record costs
      // apply to the stream *after* the group's selectivity so far, so
      // weight them by the current cumulative selectivity.
      OperatorSpec& fused = result.topology.op(g);
      const double expansion = fused.selectivity;
      fused.deserialize_us += t.op(i).deserialize_us * expansion;
      fused.process_us += t.op(i).process_us * expansion;
      fused.serialize_us += t.op(i).serialize_us * expansion;
      fused.state_mb += t.op(i).state_mb;
      fused.selectivity *= t.op(i).selectivity;
      if (t.op(i).kind == OperatorKind::kSink) {
        fused.kind = fused.kind == OperatorKind::kSource
                         ? OperatorKind::kSource
                         : OperatorKind::kSink;
      }
      fused.name += "+" + t.op(i).name;
    }
  }

  // Pass 3: edges between groups.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d : t.downstream(i)) {
      const std::size_t from = result.group_of[i];
      const std::size_t to = result.group_of[d];
      if (from == to) continue;
      // Avoid duplicate edges (diamonds collapsing onto the same groups).
      const auto& down = result.topology.downstream(from);
      if (std::find(down.begin(), down.end(), to) == down.end()) {
        result.topology.connect(from, to);
      }
    }
  }

  result.topology.validate();
  return result;
}

}  // namespace autra::sim
