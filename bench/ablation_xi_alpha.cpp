// Ablation: the EI exploration parameter xi (Eq. 6) and the scoring weight
// alpha (Eq. 4) — DESIGN.md §4.4.
//
// xi trades exploitation for exploration; alpha trades latency priority
// for resource frugality. Both sweeps run Algorithm 1 on the WordCount
// scale-up scenario.
#include "bench_util.hpp"
#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

core::SteadyRateResult run_once(double xi, double alpha, double threshold) {
  sim::JobSpec spec =
      workloads::word_count(std::make_shared<sim::ConstantRate>(350e3));
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
  const runtime::Evaluator evaluate = sim::make_runner_evaluator(runner);
  const core::ThroughputOptimizer opt(
      runner.spec().topology,
      {.target_throughput = 350e3,
       .max_parallelism = runner.max_parallelism()});
  const auto base = opt.optimize(evaluate, sim::Parallelism(4, 1));
  core::SteadyRateParams params;
  params.target_latency_ms = 28.0;
  params.target_throughput = 350e3;
  params.alpha = alpha;
  params.score_threshold = threshold;
  params.xi = xi;
  params.bootstrap_m = 6;
  params.max_parallelism = runner.max_parallelism();
  return core::run_steady_rate(evaluate, base.best, params);
}

}  // namespace

int main() {
  using namespace autra;

  bench::header("xi sweep (alpha = 0.5, threshold 0.9)");
  std::printf("%8s %6s %6s %-18s %8s %8s\n", "xi", "boot", "bo",
              "best config", "total", "conv");
  for (const double xi : {0.0, 0.01, 0.05, 0.2}) {
    const auto r = run_once(xi, 0.5, 0.9);
    std::printf("%8.2f %6d %6d %-18s %8d %8s\n", xi,
                r.bootstrap_evaluations, r.bo_iterations,
                bench::cfg(r.best).c_str(), bench::total(r.best),
                r.converged ? "yes" : "no");
  }

  bench::header("alpha sweep (xi = 0.01, threshold from Eq. 9 with w = 1/4)");
  std::printf("%8s %10s %6s %6s %-18s %8s %8s\n", "alpha", "threshold",
              "boot", "bo", "best config", "total", "conv");
  for (const double alpha : {0.3, 0.5, 0.7, 0.9}) {
    const double threshold = core::score_threshold(alpha, 0.25);
    const auto r = run_once(0.01, alpha, threshold);
    std::printf("%8.1f %10.3f %6d %6d %-18s %8d %8s\n", alpha, threshold,
                r.bootstrap_evaluations, r.bo_iterations,
                bench::cfg(r.best).c_str(), bench::total(r.best),
                r.converged ? "yes" : "no");
  }

  std::printf("\nShape check: moderate xi converges fastest (xi=0 can stall "
              "in a local region, large xi wastes runs exploring); larger "
              "alpha tolerates more resources at equal threshold slack.\n");
  return 0;
}
