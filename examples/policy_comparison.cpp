// Side-by-side comparison of every auto-scaling policy in the repository
// on the same WordCount scenario: AuTraScale (Algorithm 1), DS2, DRS with
// true and observed rates, and the utilisation-threshold baseline.
//
// Build & run:  ./build/examples/policy_comparison
#include <cstdio>

#include "baselines/dhalion.hpp"
#include "baselines/drs.hpp"
#include "baselines/ds2.hpp"
#include "baselines/threshold.hpp"
#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "example_util.hpp"
#include "workloads/workloads.hpp"

namespace {

struct Row {
  const char* policy;
  autra::runtime::JobMetrics metrics;
  int runs;
  bool qos_met;
};

void print_row(const Row& row, double target_lat, double target_thr) {
  std::printf("%-18s %-16s %4d runs  thr=%8.0f  lat=%7.1f ms  cores=%5.1f  %s\n",
              row.policy,
              autra::examples::to_string(row.metrics.parallelism).c_str(),
              row.runs, row.metrics.throughput, row.metrics.latency_ms,
              row.metrics.busy_cores,
              (row.metrics.latency_ms <= target_lat &&
               row.metrics.throughput >= 0.97 * target_thr)
                  ? "QoS ok"
                  : "QoS VIOLATED");
}

}  // namespace

int main() {
  using namespace autra;

  const double rate = 350000.0;
  const double target_latency = 28.0;

  sim::JobSpec spec =
      workloads::word_count(std::make_shared<sim::ConstantRate>(rate));
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
  const runtime::Evaluator evaluate = sim::make_runner_evaluator(runner);
  const auto& topology = runner.spec().topology;
  const int p_max = runner.max_parallelism();
  const sim::Parallelism start(4, 1);

  std::printf("WordCount @ %.0fk rec/s, latency target %.0f ms\n\n",
              rate / 1000.0, target_latency);

  // AuTraScale: throughput optimisation + Algorithm 1.
  {
    const core::ThroughputOptimizer opt(
        topology, {.target_throughput = rate, .max_parallelism = p_max});
    const auto base = opt.optimize(evaluate, start);
    core::SteadyRateParams params;
    params.target_latency_ms = target_latency;
    params.target_throughput = rate;
    params.bootstrap_m = 6;
    params.max_parallelism = p_max;
    const auto r = core::run_steady_rate(evaluate, base.best, params);
    print_row({"AuTraScale", r.best_metrics,
               base.iterations + r.bootstrap_evaluations + r.bo_iterations,
               r.converged},
              target_latency, rate);
  }

  // DS2 (throughput only — no latency objective).
  {
    const baselines::Ds2Policy ds2(
        topology, {.target_throughput = rate, .max_parallelism = p_max});
    const auto r = ds2.run(evaluate, start);
    print_row({"DS2", r.final_metrics, r.iterations, r.reached_target},
              target_latency, rate);
  }

  // DRS with true and observed processing rates.
  for (const auto metric :
       {baselines::RateMetric::kTrueRate, baselines::RateMetric::kObservedRate}) {
    const baselines::DrsPolicy drs(
        topology, {.target_latency_ms = target_latency,
                   .target_throughput = rate,
                   .rate_metric = metric,
                   .max_parallelism = p_max});
    const auto r = drs.run(evaluate, start);
    print_row({metric == baselines::RateMetric::kTrueRate ? "DRS (true rate)"
                                                          : "DRS (observed)",
               r.final_metrics, r.iterations, r.converged},
              target_latency, rate);
  }

  // Utilisation-threshold baseline.
  {
    const baselines::ThresholdPolicy policy({.max_parallelism = p_max});
    const auto r = policy.run(evaluate, start);
    print_row({"threshold", r.final_metrics, r.iterations, r.converged},
              target_latency, rate);
  }

  // Dhalion-style backpressure rules.
  {
    const baselines::DhalionPolicy policy(topology,
                                          {.max_parallelism = p_max});
    const auto r = policy.run(evaluate, start);
    print_row({"dhalion", r.final_metrics, r.iterations, r.healthy},
              target_latency, rate);
  }

  std::printf(
      "\nDS2/DRS trust their models blindly; AuTraScale is the only policy "
      "that verifies QoS on measurements\nand optimises the "
      "latency/resource trade-off jointly.\n");
  return 0;
}
