#include "baselines/dhalion.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autra::baselines {

DhalionPolicy::DhalionPolicy(const sim::Topology& topology,
                             DhalionParams params)
    : topology_(topology), params_(params) {
  if (params_.max_parallelism < 1 || params_.max_iterations < 1 ||
      params_.backpressure_queue_threshold <= 0.0 ||
      params_.min_improvement < 0.0) {
    throw std::invalid_argument("DhalionPolicy: bad parameters");
  }
}

std::vector<std::size_t> DhalionPolicy::diagnose(
    const runtime::JobMetrics& metrics) const {
  std::vector<std::pair<double, std::size_t>> severity;
  for (std::size_t i = 0; i < metrics.operators.size(); ++i) {
    const runtime::OperatorRates& r = metrics.operators[i];
    const double per_instance_queue =
        r.parallelism > 0 ? r.queue_length / r.parallelism : 0.0;
    if (per_instance_queue > params_.backpressure_queue_threshold) {
      severity.emplace_back(per_instance_queue, i);
    }
  }
  std::sort(severity.rbegin(), severity.rend());
  std::vector<std::size_t> out;
  out.reserve(severity.size());
  for (const auto& [_, i] : severity) out.push_back(i);
  return out;
}

std::size_t DhalionPolicy::culprit_of(const runtime::JobMetrics& metrics,
                                      std::size_t jammed) const {
  const auto utilization = [&](std::size_t i) {
    const runtime::OperatorRates& r = metrics.operators[i];
    return r.true_rate_per_instance > 0.0
               ? r.observed_rate_per_instance / r.true_rate_per_instance
               : 0.0;
  };
  // BFS downstream from the jam looking for a saturated operator.
  std::vector<std::size_t> frontier{jammed};
  std::vector<bool> seen(metrics.operators.size(), false);
  while (!frontier.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : frontier) {
      if (seen[i]) continue;
      seen[i] = true;
      if (utilization(i) >= 0.8) return i;
      for (std::size_t d : topology_.downstream(i)) next.push_back(d);
    }
    frontier = std::move(next);
  }
  return jammed;  // Nothing saturated downstream: the jam itself is slow.
}

std::vector<std::size_t> DhalionPolicy::bottlenecks(
    const runtime::JobMetrics& metrics) const {
  // The job is also unhealthy when the source cannot keep up (growing
  // Kafka lag shows up as source-side pressure).
  std::vector<std::size_t> out = diagnose(metrics);
  if (metrics.lag_growth_per_sec > 0.01 * std::max(metrics.input_rate, 1.0)) {
    for (std::size_t s : topology_.sources()) {
      if (std::find(out.begin(), out.end(), s) == out.end()) {
        out.push_back(s);
      }
    }
  }
  return out;
}

runtime::Parallelism DhalionPolicy::resolve(
    const runtime::JobMetrics& metrics,
    const std::vector<std::size_t>& bottlenecks,
    const runtime::Parallelism& current) const {
  // For each jam, scale the culprit (the saturated operator downstream of
  // the backlog) by its observed pressure ratio.
  runtime::Parallelism next = current;
  for (std::size_t b : bottlenecks) {
    const std::size_t target_op = culprit_of(metrics, b);
    const runtime::OperatorRates& r = metrics.operators[target_op];
    // Pressure: what the culprit would have to absorb, including the
    // demand currently piling up upstream (the jam's input rate carried
    // through to it), relative to its current capacity.
    const double capacity =
        r.true_rate_per_instance * std::max(r.parallelism, 1);
    const double demand =
        std::max(r.total_input_rate, metrics.operators[b].total_input_rate);
    const double pressure = capacity > 0.0 ? demand / capacity : 1.5;
    const int target = static_cast<int>(
        std::ceil(next[target_op] * std::max(pressure, 1.0 + 1e-3)));
    next[target_op] = std::clamp(std::max(target, next[target_op] + 1), 1,
                                 params_.max_parallelism);
  }
  return next;
}

DhalionResult DhalionPolicy::run(const runtime::Evaluator& evaluate,
                                 const runtime::Parallelism& initial) const {
  DhalionResult result;
  runtime::Parallelism current = initial;
  runtime::JobMetrics metrics = evaluate(current);
  ++result.iterations;
  std::set<runtime::Parallelism> blacklist;

  while (result.iterations < params_.max_iterations) {
    const std::vector<std::size_t> symptoms = bottlenecks(metrics);
    if (symptoms.empty()) {
      result.healthy = true;
      break;
    }
    const runtime::Parallelism next = resolve(metrics, symptoms, current);
    if (next == current || blacklist.contains(next)) {
      break;  // Nothing new to try.
    }

    const runtime::JobMetrics trial = evaluate(next);
    ++result.iterations;
    const double gain = trial.throughput - metrics.throughput;
    // A resolution is useful when it raised throughput OR cleared some of
    // the symptom (fewer backpressured operators).
    const bool symptom_improved = diagnose(trial).size() < symptoms.size();
    if (!symptom_improved &&
        gain < params_.min_improvement * std::max(metrics.throughput, 1.0)) {
      // No benefit: roll back and blacklist this resolution.
      blacklist.insert(next);
      result.blacklisted.push_back(next);
      // Keep the old configuration and stop — every further resolution the
      // rule engine can produce from the same symptom is the same plan.
      break;
    }
    current = next;
    metrics = trial;
  }

  result.final_config = current;
  result.final_metrics = metrics;
  return result;
}

}  // namespace autra::baselines
