// Quickstart: the complete AuTraScale pipeline on the WordCount job in
// ~60 lines.
//
//   1. describe the job (here: a prebuilt workload) and its input rate;
//   2. find the throughput-optimal base configuration k' (Eq. 3 loop);
//   3. run Algorithm 1 to find the cheapest configuration that also meets
//      the latency target (GP surrogate + Expected Improvement).
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "example_util.hpp"
#include "workloads/workloads.hpp"

int main() {
  using namespace autra;

  // A WordCount streaming job fed 350k records/s from the Kafka stand-in.
  const double rate = 350000.0;
  sim::JobSpec spec =
      workloads::word_count(std::make_shared<sim::ConstantRate>(rate));
  spec.engine.latency_percentiles = true;  // print_metrics reports p99

  // The evaluation harness: each measure() is one "run the job with this
  // configuration for the policy running time" trial.
  sim::JobRunner runner(std::move(spec),
                        {.warmup_sec = 60.0, .measure_sec = 60.0});
  const runtime::Evaluator evaluate = sim::make_runner_evaluator(runner);

  // Step 1: throughput optimisation from parallelism 1.
  const core::ThroughputOptimizer optimizer(
      runner.spec().topology,
      {.target_throughput = rate, .max_parallelism = runner.max_parallelism()});
  const core::ThroughputOptResult base =
      optimizer.optimize(evaluate, sim::Parallelism(4, 1));
  std::printf("throughput-optimal base k' = %s  (%.0f rec/s in %d runs)\n",
              examples::to_string(base.best).c_str(), base.best_throughput,
              base.iterations);

  // Step 2: Bayesian optimisation for the latency target.
  core::SteadyRateParams params;
  params.target_latency_ms = 28.0;
  params.target_throughput = rate;
  params.bootstrap_m = 6;
  params.max_parallelism = runner.max_parallelism();
  const core::SteadyRateResult result =
      core::run_steady_rate(evaluate, base.best, params);

  std::printf("algorithm 1 %s after %d bootstrap + %d BO runs\n",
              result.converged ? "converged" : "stopped",
              result.bootstrap_evaluations, result.bo_iterations);
  examples::print_metrics("recommended configuration", result.best_metrics);
  std::printf("benefit score %.3f (threshold %.2f)\n", result.best_score,
              params.score_threshold);
  return 0;
}
