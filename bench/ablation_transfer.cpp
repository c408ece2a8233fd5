// Ablation: transfer learning (Algorithm 2) vs training from scratch
// (Algorithm 1) across increasing rate gaps (DESIGN.md §4.6).
//
// The residual-GP transfer should save real job runs when the new rate is
// close to the model's rate and degrade gracefully as the gap widens.
#include "bench_util.hpp"
#include "core/throughput_opt.hpp"
#include "core/transfer.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

sim::JobRunner q5_runner(double rate) {
  return sim::JobRunner(
      workloads::nexmark_q5(std::make_shared<sim::ConstantRate>(rate)),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
}

sim::Parallelism base_of(sim::JobRunner& runner, double target) {
  const runtime::Evaluator eval = sim::make_runner_evaluator(runner);
  const core::ThroughputOptimizer opt(
      runner.spec().topology,
      {.target_throughput = target,
       .max_parallelism = runner.max_parallelism()});
  return opt.optimize(eval, sim::Parallelism(2, 1)).best;
}

core::SteadyRateParams q5_params(double rate, int p_max) {
  core::SteadyRateParams sp;
  sp.target_latency_ms = 500.0;
  sp.target_throughput = rate;
  sp.bootstrap_m = 5;
  sp.max_parallelism = p_max;
  return sp;
}

}  // namespace

int main() {
  using namespace autra;

  bench::header("transfer ablation — Nexmark Q5, model trained at 20k");

  // Train the prior once at 20k.
  sim::JobRunner r20 = q5_runner(20e3);
  const runtime::Evaluator e20 = sim::make_runner_evaluator(r20);
  const sim::Parallelism base20 = base_of(r20, 20e3);
  const core::SteadyRateResult run20 = core::run_steady_rate(
      e20, base20, q5_params(20e3, r20.max_parallelism()));
  const core::BenefitModel prior =
      core::make_benefit_model(20e3, base20, run20);
  std::printf("prior at 20k: %zu samples, base %s\n\n", prior.samples.size(),
              bench::cfg(base20).c_str());

  std::printf("%10s %18s %18s %10s\n", "new rate", "transfer runs",
              "scratch runs", "saved");
  for (const double rate : {22e3, 30e3, 40e3}) {
    sim::JobRunner runner = q5_runner(rate);
    const runtime::Evaluator eval = sim::make_runner_evaluator(runner);
    const sim::Parallelism base = base_of(runner, rate);
    const auto sp = q5_params(rate, runner.max_parallelism());

    core::TransferParams tp;
    tp.steady = sp;
    const core::TransferResult tr = core::run_transfer(eval, base, prior, tp);

    const core::SteadyRateResult sr = core::run_steady_rate(eval, base, sp);
    const int scratch_runs = sr.bootstrap_evaluations + sr.bo_iterations;

    std::printf("%9.0fk %14d (%s) %14d (%s) %9d\n", rate / 1e3,
                tr.real_evaluations, tr.converged ? "conv" : "stop",
                scratch_runs, sr.converged ? "conv" : "stop",
                scratch_runs - tr.real_evaluations);
  }

  std::printf("\nShape check: transfer saves runs at nearby rates; the "
              "saving shrinks (and may vanish) as the rate gap grows and "
              "the prior stops being informative.\n");
  return 0;
}
