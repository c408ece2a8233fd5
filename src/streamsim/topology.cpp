#include "streamsim/topology.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace autra::sim {

const char* to_string(OperatorKind kind) noexcept {
  switch (kind) {
    case OperatorKind::kSource:
      return "source";
    case OperatorKind::kStateless:
      return "stateless";
    case OperatorKind::kKeyedAggregate:
      return "keyed-aggregate";
    case OperatorKind::kSlidingWindow:
      return "sliding-window";
    case OperatorKind::kSessionWindow:
      return "session-window";
    case OperatorKind::kSink:
      return "sink";
  }
  return "unknown";
}

std::size_t Topology::add_operator(OperatorSpec spec) {
  ops_.push_back(std::move(spec));
  downstream_.emplace_back();
  upstream_.emplace_back();
  return ops_.size() - 1;
}

void Topology::connect(std::size_t from, std::size_t to) {
  if (from >= ops_.size() || to >= ops_.size()) {
    throw std::invalid_argument("Topology::connect: bad operator index");
  }
  if (from == to) {
    throw std::invalid_argument("Topology::connect: self loop");
  }
  auto& down = downstream_[from];
  if (std::find(down.begin(), down.end(), to) != down.end()) {
    throw std::invalid_argument("Topology::connect: duplicate edge");
  }
  down.push_back(to);
  upstream_[to].push_back(from);
}

std::vector<std::size_t> Topology::sources() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (upstream_[i].empty()) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> Topology::topological_order() const {
  std::vector<std::size_t> indegree(ops_.size(), 0);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    indegree[i] = upstream_[i].size();
  }
  std::queue<std::size_t> ready;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::vector<std::size_t> order;
  order.reserve(ops_.size());
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop();
    order.push_back(i);
    for (std::size_t j : downstream_[i]) {
      if (--indegree[j] == 0) ready.push(j);
    }
  }
  if (order.size() != ops_.size()) {
    throw std::logic_error("Topology: graph has a cycle");
  }
  return order;
}

void Topology::validate() const {
  if (ops_.empty()) {
    throw std::logic_error("Topology: empty job graph");
  }
  const auto srcs = sources();
  if (srcs.empty()) {
    throw std::logic_error("Topology: no source operator");
  }
  for (std::size_t s : srcs) {
    if (ops_[s].kind != OperatorKind::kSource) {
      throw std::logic_error("Topology: root operator '" + ops_[s].name +
                             "' is not a source");
    }
  }
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].kind == OperatorKind::kSource && !upstream_[i].empty()) {
      throw std::logic_error("Topology: source '" + ops_[i].name +
                             "' has upstream operators");
    }
    if (ops_[i].selectivity < 0.0) {
      throw std::logic_error("Topology: negative selectivity on '" +
                             ops_[i].name + "'");
    }
    if (ops_[i].total_cost_us() <= 0.0) {
      throw std::logic_error("Topology: non-positive record cost on '" +
                             ops_[i].name + "'");
    }
    if (ops_[i].key_skew < 0.0) {
      throw std::logic_error("Topology: negative key skew on '" +
                             ops_[i].name + "'");
    }
  }
  // Reachability from sources (also detects cycles via topological_order).
  (void)topological_order();
  std::vector<bool> reach(ops_.size(), false);
  std::queue<std::size_t> bfs;
  for (std::size_t s : srcs) {
    reach[s] = true;
    bfs.push(s);
  }
  while (!bfs.empty()) {
    const std::size_t i = bfs.front();
    bfs.pop();
    for (std::size_t j : downstream_[i]) {
      if (!reach[j]) {
        reach[j] = true;
        bfs.push(j);
      }
    }
  }
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (!reach[i]) {
      throw std::logic_error("Topology: operator '" + ops_[i].name +
                             "' unreachable from any source");
    }
  }
}

}  // namespace autra::sim
