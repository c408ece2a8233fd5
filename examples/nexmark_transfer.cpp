// Transfer learning across input rates on Nexmark Query 5.
//
// A benefit model is bound to the rate it was trained at. When the rate
// changes, Algorithm 2 reuses the closest model plus a residual GP instead
// of re-running the whole bootstrap set — this example measures how many
// real job runs that saves (the paper's Fig. 8 scenario: model at 20k,
// new rate 30k).
//
// Build & run:  ./build/examples/nexmark_transfer
#include <cstdio>

#include "core/throughput_opt.hpp"
#include "core/transfer.hpp"
#include "example_util.hpp"
#include "workloads/workloads.hpp"

namespace {

autra::sim::JobRunner make_runner(double rate) {
  auto spec = autra::workloads::nexmark_q5(
      std::make_shared<autra::sim::ConstantRate>(rate));
  spec.engine.latency_percentiles = true;  // print_metrics reports p99
  return autra::sim::JobRunner(
      std::move(spec), {.warmup_sec = 60.0, .measure_sec = 60.0});
}

autra::sim::Parallelism base_config(autra::sim::JobRunner& runner) {
  const autra::runtime::Evaluator eval =
      autra::sim::make_runner_evaluator(runner);
  const autra::core::ThroughputOptimizer opt(
      runner.spec().topology,
      {.max_parallelism = runner.max_parallelism()});
  return opt.optimize(eval, autra::sim::Parallelism(2, 1)).best;
}

}  // namespace

int main() {
  using namespace autra;

  core::SteadyRateParams sp;
  sp.target_latency_ms = 500.0;  // the paper's Query5 target
  sp.bootstrap_m = 5;

  // --- Train a benefit model at the old rate (20k rec/s). ---------------
  sim::JobRunner r20 = make_runner(20000.0);
  const runtime::Evaluator e20 = sim::make_runner_evaluator(r20);
  const sim::Parallelism base20 = base_config(r20);
  sp.target_throughput = 20000.0;
  sp.max_parallelism = r20.max_parallelism();
  const core::SteadyRateResult run20 = core::run_steady_rate(e20, base20, sp);
  std::printf("model @20k: base %s, best %s, %d real runs\n",
              examples::to_string(base20).c_str(),
              examples::to_string(run20.best).c_str(),
              run20.bootstrap_evaluations + run20.bo_iterations);

  core::ModelLibrary library;
  library.add(core::make_benefit_model(20000.0, base20, run20));

  // --- The rate rises to 30k: transfer. ---------------------------------
  sim::JobRunner r30 = make_runner(30000.0);
  const runtime::Evaluator e30 = sim::make_runner_evaluator(r30);
  const sim::Parallelism base30 = base_config(r30);
  sp.target_throughput = 30000.0;
  sp.max_parallelism = r30.max_parallelism();

  core::TransferParams tp;
  tp.steady = sp;
  const core::BenefitModel* prior = library.closest(30000.0);
  const core::TransferResult transfer =
      core::run_transfer(e30, base30, *prior, tp);

  // --- Compare against training from scratch at 30k. --------------------
  const core::SteadyRateResult scratch =
      core::run_steady_rate(e30, base30, sp);

  std::printf("\n@30k with transfer (Algorithm 2): %s, %d real runs%s\n",
              examples::to_string(transfer.best).c_str(),
              transfer.real_evaluations,
              transfer.converged ? "" : " (budget exhausted)");
  examples::print_metrics("  transfer result", transfer.best_metrics);
  std::printf("@30k from scratch (Algorithm 1): %s, %d real runs\n",
              examples::to_string(scratch.best).c_str(),
              scratch.bootstrap_evaluations + scratch.bo_iterations);
  examples::print_metrics("  scratch result", scratch.best_metrics);

  const int saved = scratch.bootstrap_evaluations + scratch.bo_iterations -
                    transfer.real_evaluations;
  std::printf("\ntransfer saved %d real job restarts.\n", saved);
  return 0;
}
