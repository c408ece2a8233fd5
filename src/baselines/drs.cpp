#include "baselines/drs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace autra::baselines {

namespace {
constexpr double kEps = 1e-9;
}

double mmk_sojourn_time(double arrival_rate, double service_rate,
                        int servers) {
  if (service_rate <= 0.0 || servers < 1) {
    throw std::invalid_argument("mmk_sojourn_time: bad queue parameters");
  }
  if (arrival_rate <= kEps) return 1.0 / service_rate;
  const double a = arrival_rate / service_rate;  // offered load
  const double k = static_cast<double>(servers);
  if (a >= k - kEps) return std::numeric_limits<double>::infinity();

  // Erlang-C via the stable iterative form:
  //   B(0) = 1; B(n) = a*B(n-1) / (n + a*B(n-1))   (Erlang-B recursion)
  //   C = B(k) / (1 - rho + rho*B(k))
  double b = 1.0;
  for (int n = 1; n <= servers; ++n) {
    b = a * b / (static_cast<double>(n) + a * b);
  }
  const double rho = a / k;
  const double c = b / (1.0 - rho + rho * b);
  const double wait = c / (k * service_rate - arrival_rate);
  return wait + 1.0 / service_rate;
}

double ggk_sojourn_time(double arrival_rate, double service_rate, int servers,
                        double arrival_scv, double service_scv) {
  if (arrival_scv < 0.0 || service_scv < 0.0) {
    throw std::invalid_argument("ggk_sojourn_time: negative scv");
  }
  const double mmk = mmk_sojourn_time(arrival_rate, service_rate, servers);
  if (std::isinf(mmk)) return mmk;
  const double service = 1.0 / service_rate;
  const double wait = mmk - service;
  return wait * 0.5 * (arrival_scv + service_scv) + service;
}

DrsPolicy::DrsPolicy(const sim::Topology& topology, DrsParams params)
    : topology_(topology), params_(params) {
  if (params_.target_latency_ms <= 0.0) {
    throw std::invalid_argument("DrsPolicy: no latency target");
  }
  if (params_.max_parallelism < 1 || params_.max_iterations < 1) {
    throw std::invalid_argument("DrsPolicy: bad bounds");
  }
}

runtime::Parallelism DrsPolicy::allocate(const runtime::JobMetrics& metrics,
                                     double* predicted_latency_ms) const {
  const std::size_t n = topology_.num_operators();
  if (metrics.operators.size() != n) {
    throw std::invalid_argument("DrsPolicy::allocate: metrics mismatch");
  }

  // Arrival rates: the target input rate propagated through measured
  // selectivities (same DAG propagation DS2 uses).
  const double target = params_.target_throughput > 0.0
                            ? params_.target_throughput
                            : metrics.input_rate;
  std::vector<double> arrival(n, 0.0);
  std::vector<double> service(n, 0.0);
  for (std::size_t i : topology_.topological_order()) {
    const runtime::OperatorRates& r = metrics.operators[i];
    if (topology_.op(i).kind == sim::OperatorKind::kSource) {
      arrival[i] = target;
    }
    double selectivity = topology_.op(i).selectivity;
    if (r.total_input_rate > kEps) {
      selectivity = r.total_output_rate / r.total_input_rate;
    }
    for (std::size_t d : topology_.downstream(i)) {
      arrival[d] += arrival[i] * selectivity;
    }
    service[i] = params_.rate_metric == RateMetric::kTrueRate
                     ? r.true_rate_per_instance
                     : r.observed_rate_per_instance;
    // An idle observed rate can be ~0; clamp to something positive so the
    // model stays defined (this is exactly why observed-rate DRS
    // over-provisions).
    service[i] = std::max(service[i], 1.0);
  }

  // Minimal stable configuration.
  runtime::Parallelism config(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const int k = static_cast<int>(std::floor(arrival[i] / service[i])) + 1;
    config[i] = std::clamp(k, 1, params_.max_parallelism);
  }

  const auto sojourn = [&](double lambda, double mu, int k) {
    return params_.queue_model == QueueModel::kKingman
               ? ggk_sojourn_time(lambda, mu, k, params_.arrival_scv,
                                  params_.service_scv)
               : mmk_sojourn_time(lambda, mu, k);
  };
  const auto total_latency = [&](const runtime::Parallelism& c) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += sojourn(arrival[i], service[i], c[i]);
    }
    return sum;
  };

  // Greedy: add the instance with the largest marginal latency reduction.
  const double target_sec = params_.target_latency_ms / 1000.0;
  double current_lat = total_latency(config);
  while (current_lat > target_sec) {
    std::size_t best_op = n;
    double best_lat = current_lat;
    for (std::size_t i = 0; i < n; ++i) {
      if (config[i] >= params_.max_parallelism) continue;
      ++config[i];
      const double lat = total_latency(config);
      --config[i];
      if (lat < best_lat - kEps) {
        best_lat = lat;
        best_op = i;
      }
    }
    if (best_op == n) break;  // No further improvement possible.
    ++config[best_op];
    current_lat = best_lat;
  }

  if (predicted_latency_ms != nullptr) {
    *predicted_latency_ms = current_lat * 1000.0;
  }
  return config;
}

DrsResult DrsPolicy::run(const runtime::Evaluator& evaluate,
                         const runtime::Parallelism& initial) const {
  if (initial.size() != topology_.num_operators()) {
    throw std::invalid_argument("DrsPolicy::run: initial config mismatch");
  }
  DrsResult result;
  runtime::Parallelism current = initial;
  runtime::JobMetrics metrics;

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    metrics = evaluate(current);
    ++result.iterations;

    double predicted = 0.0;
    const runtime::Parallelism next = allocate(metrics, &predicted);
    result.predicted_latency_ms = predicted;
    result.prediction_feasible =
        predicted <= params_.target_latency_ms + kEps;

    if (next == current) {
      result.converged = true;
      break;
    }
    current = next;
  }

  result.final_config = current;
  result.final_metrics =
      result.converged ? metrics : evaluate(current);
  if (!result.converged) ++result.iterations;
  return result;
}

}  // namespace autra::baselines
