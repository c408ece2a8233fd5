// Yahoo Streaming Benchmark elasticity: the externally-capped job.
//
// The Yahoo job's window sink reads/writes a Redis stand-in whose rate cap
// keeps job throughput below the input rate at ANY parallelism. Plain DS2
// keeps recommending bigger configurations forever; AuTraScale's extra
// termination condition (two consecutive identical recommendations) stops
// the loop, and its trajectory review picks the small configuration with
// the same saturated throughput (paper Fig. 5(b)).
//
// Build & run:  ./build/examples/yahoo_elasticity
#include <cstdio>

#include "baselines/ds2.hpp"
#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "example_util.hpp"
#include "workloads/workloads.hpp"

int main() {
  using namespace autra;

  const double rate = 60000.0;  // input exceeds what Redis can absorb
  sim::JobSpec spec =
      workloads::yahoo_streaming(std::make_shared<sim::ConstantRate>(rate));
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
  const runtime::Evaluator evaluate = sim::make_runner_evaluator(runner);

  std::printf("input rate %.0fk rec/s; Redis capacity %.0fk calls/s\n\n",
              rate / 1000.0, workloads::kYahooRedisCallsPerSec / 1000.0);

  std::printf("--- AuTraScale throughput optimisation ---\n");
  const core::ThroughputOptimizer optimizer(
      runner.spec().topology,
      {.max_parallelism = runner.max_parallelism()});
  const core::ThroughputOptResult r =
      optimizer.optimize(evaluate, sim::Parallelism(5, 1));
  for (const auto& it : r.trajectory) {
    std::printf("  tried %-18s -> throughput %8.0f rec/s\n",
                examples::to_string(it.config).c_str(),
                it.metrics.throughput);
  }
  std::printf("terminated by %s after %d runs\n",
              r.externally_limited ? "repeated recommendation (external cap)"
                                   : "reaching the target",
              r.iterations);
  std::printf("trajectory review selected %s (max throughput %.0f with the "
              "fewest instances)\n\n",
              examples::to_string(r.best).c_str(), r.best_throughput);

  std::printf("--- plain DS2 on the same job ---\n");
  const baselines::Ds2Policy ds2(
      runner.spec().topology,
      {.target_throughput = rate, .max_iterations = 8,
       .max_parallelism = runner.max_parallelism()});
  const baselines::Ds2Result d = ds2.run(evaluate, sim::Parallelism(5, 1));
  std::printf("DS2 %s after %d runs at %s (throughput %.0f)\n",
              d.hit_iteration_bound
                  ? "was still iterating when the budget ran out"
                  : "stopped",
              d.iterations, examples::to_string(d.final_config).c_str(),
              d.final_metrics.throughput);

  std::printf("\n--- Algorithm 1 at a sustainable rate (the paper's Yahoo "
              "QoS scenario: 34k rec/s, 300 ms) ---\n");
  // At 60k input the Redis cap makes every latency target unreachable (the
  // backlog grows forever); the QoS experiment therefore runs at the 34k
  // target rate, which the capped job can sustain.
  sim::JobSpec qos_spec =
      workloads::yahoo_streaming(std::make_shared<sim::ConstantRate>(34000.0));
  qos_spec.engine.latency_percentiles = true;  // print_metrics reports p99
  sim::JobRunner qos_runner(std::move(qos_spec),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
  const runtime::Evaluator qos_eval = sim::make_runner_evaluator(qos_runner);
  const core::ThroughputOptimizer qos_opt(
      qos_runner.spec().topology,
      {.target_throughput = 34000.0,
       .max_parallelism = qos_runner.max_parallelism()});
  const sim::Parallelism qos_base =
      qos_opt.optimize(qos_eval, sim::Parallelism(5, 1)).best;

  core::SteadyRateParams params;
  params.target_latency_ms = 300.0;
  params.target_throughput = 34000.0;
  params.bootstrap_m = 6;
  params.max_parallelism = qos_runner.max_parallelism();
  const core::SteadyRateResult s =
      core::run_steady_rate(qos_eval, qos_base, params);
  examples::print_metrics("algorithm 1 result", s.best_metrics);
  std::printf("score %.3f, %s\n", s.best_score,
              s.converged ? "all QoS requirements met" : "budget exhausted");
  return 0;
}
