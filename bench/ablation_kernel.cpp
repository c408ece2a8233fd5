// Ablation: GP kernel choice (DESIGN.md §4.3).
//
// The paper picks the Matern covariance kernel for its extrapolation
// quality. This ablation runs Algorithm 1 on the WordCount scale-up
// scenario with Matern 5/2, Matern 3/2 and RBF surrogates and compares
// evaluation counts and solution quality.
#include "bench_util.hpp"
#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "workloads/workloads.hpp"

int main() {
  using namespace autra;

  bench::header("kernel ablation — WordCount @350k, latency target 28 ms");
  std::printf("%-10s %6s %6s %-18s %8s %12s %8s\n", "kernel", "boot", "bo",
              "best config", "score", "latency[ms]", "conv");

  for (const gp::KernelKind kernel :
       {gp::KernelKind::kMatern52, gp::KernelKind::kMatern32,
        gp::KernelKind::kRbf}) {
    sim::JobSpec spec = workloads::word_count(
        std::make_shared<sim::ConstantRate>(350e3));
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
    params.bootstrap_m = 6;
    params.max_parallelism = runner.max_parallelism();
    params.gp_kernel = kernel;
    const core::SteadyRateResult r =
        core::run_steady_rate(evaluate, base.best, params);

    std::printf("%-10s %6d %6d %-18s %8.3f %12.1f %8s\n",
                gp::to_string(kernel),
                r.bootstrap_evaluations, r.bo_iterations,
                bench::cfg(r.best).c_str(), r.best_score,
                r.best_metrics.latency_ms, r.converged ? "yes" : "no");
  }
  std::printf("\nShape check: all kernels find QoS-compliant configurations; "
              "Matern 5/2 (the paper's choice) should need no more "
              "evaluations than RBF.\n");
  return 0;
}
