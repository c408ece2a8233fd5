// Extension experiment (the paper's future work, Sec. VII): a single
// rate-aware benefit model over (configuration, rate) versus the paper's
// per-rate models with residual transfer (Algorithm 2) versus training from
// scratch (Algorithm 1).
//
// Protocol: Nexmark Query5 is optimised at 15k, 20k and 25k rec/s; the
// collected samples feed (a) the rate-aware model and (b) the per-rate
// model library. Then each method optimises at unseen rates, counting real
// job runs.
#include "bench_util.hpp"
#include "core/rate_aware.hpp"
#include "core/throughput_opt.hpp"
#include "core/transfer.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

sim::JobRunner runner_at(double rate) {
  return sim::JobRunner(
      workloads::nexmark_q5(std::make_shared<sim::ConstantRate>(rate)),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
}

sim::Parallelism base_of(sim::JobRunner& runner, double rate) {
  const runtime::Evaluator eval = sim::make_runner_evaluator(runner);
  const core::ThroughputOptimizer opt(
      runner.spec().topology,
      {.target_throughput = rate,
       .max_parallelism = runner.max_parallelism()});
  return opt.optimize(eval, sim::Parallelism(2, 1)).best;
}

core::SteadyRateParams params_at(double rate, int p_max) {
  core::SteadyRateParams sp;
  sp.target_latency_ms = 500.0;
  sp.target_throughput = rate;
  sp.bootstrap_m = 5;
  sp.max_parallelism = p_max;
  return sp;
}

}  // namespace

int main() {
  bench::header(
      "extension — rate-aware benefit model vs Algorithm 2 vs scratch "
      "(Nexmark Q5, trained at 15k/20k/25k)");

  core::RateAwareModel joint_model;
  core::ModelLibrary library;

  for (const double rate : {15e3, 20e3, 25e3}) {
    sim::JobRunner runner = runner_at(rate);
    const runtime::Evaluator eval = sim::make_runner_evaluator(runner);
    const sim::Parallelism base = base_of(runner, rate);
    const auto sp = params_at(rate, runner.max_parallelism());
    const core::SteadyRateResult r = core::run_steady_rate(eval, base, sp);
    joint_model.add_samples(rate, r.history);
    library.add(core::make_benefit_model(rate, base, r));
    std::printf("trained at %5.0fk: base %-8s best %-8s (%d runs)\n",
                rate / 1e3, bench::cfg(base).c_str(),
                bench::cfg(r.best).c_str(),
                r.bootstrap_evaluations + r.bo_iterations);
  }
  joint_model.fit();
  std::printf("joint model: %zu samples across 3 rates\n\n",
              joint_model.num_samples());

  std::printf("%10s %16s %16s %16s\n", "new rate", "rate-aware",
              "algorithm 2", "scratch");
  for (const double rate : {28e3, 32e3, 36e3}) {
    sim::JobRunner runner = runner_at(rate);
    const runtime::Evaluator eval = sim::make_runner_evaluator(runner);
    const sim::Parallelism base = base_of(runner, rate);
    const auto sp = params_at(rate, runner.max_parallelism());

    // (a) Rate-aware joint model (fresh copy so runs stay independent).
    core::RateAwareModel model = joint_model;
    core::RateAwareParams rp;
    rp.steady = sp;
    const core::RateAwareResult ra =
        core::run_rate_aware(eval, base, rate, model, rp);

    // (b) Algorithm 2 from the closest per-rate model.
    core::TransferParams tp;
    tp.steady = sp;
    const core::TransferResult tr =
        core::run_transfer(eval, base, *library.closest(rate), tp);

    // (c) Algorithm 1 from scratch.
    const core::SteadyRateResult sr = core::run_steady_rate(eval, base, sp);

    std::printf("%9.0fk %11d (%s) %11d (%s) %11d (%s)\n", rate / 1e3,
                ra.real_evaluations, ra.converged ? "conv" : "stop",
                tr.real_evaluations, tr.converged ? "conv" : "stop",
                sr.bootstrap_evaluations + sr.bo_iterations,
                sr.converged ? "conv" : "stop");
  }

  std::printf(
      "\nShape check: the joint model needs the fewest real runs at rates "
      "inside/near its training range because its first recommendation "
      "costs nothing; Algorithm 2 is close behind; scratch pays the full "
      "bootstrap every time.\n");
  return 0;
}
