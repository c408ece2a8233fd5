// Plan-stage parallel scaling: Algorithm 1 wall time vs. worker threads.
//
// Runs the full steady-rate search (bootstrap fan-out, GP grid search, EI
// batch scoring) on the Table-IV synthetic chain at 1/2/4/8 threads and
// reports wall time, speedup over the serial run, and — because the exec
// layer guarantees it — that the decisions are identical at every thread
// count. Speedup is bounded by the physical cores of the machine running
// the bench; the determinism column must read "yes" everywhere regardless.
// Wall time and speedup vary with the host, so the committed JSON baseline
// is meaningful for the determinism flag and evaluation counts only.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace autra;
  using Clock = std::chrono::steady_clock;

  std::string json_path;
  if (!bench::Args().text("--json", "PATH", json_path).parse(argc, argv)) {
    return 2;
  }

  bench::header(
      "Plan-stage parallel scaling — Alg. 1 on the Table-IV synthetic "
      "chain (6 ops @220k, latency target 45 ms)");

  const auto run_once = [](int threads) {
    sim::JobSpec spec = workloads::synthetic_chain(
        6, std::make_shared<sim::ConstantRate>(220e3), 10.0);
    sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
    const runtime::Evaluator evaluate = sim::make_runner_evaluator(runner);

    const core::ThroughputOptimizer opt(
        runner.spec().topology,
        {.target_throughput = 220e3,
         .max_parallelism = runner.max_parallelism()});
    const auto base = opt.optimize(evaluate, sim::Parallelism(6, 1));

    core::SteadyRateParams params;
    params.target_latency_ms = 45.0;
    params.target_throughput = 220e3;
    params.bootstrap_m = 8;
    params.max_parallelism = runner.max_parallelism();
    params.max_evaluations = 30;
    params.threads = threads;

    const auto t0 = Clock::now();
    const core::SteadyRateResult r =
        core::run_steady_rate(evaluate, base.best, params);
    const double sec =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return std::make_pair(sec, r);
  };

  std::printf("%8s %10s %8s %-18s %8s %6s %6s %6s\n", "threads", "time[s]",
              "speedup", "best config", "score", "boot", "bo", "same");

  bench::JsonReport report("bench_parallel_scaling");
  double serial_sec = 0.0;
  core::SteadyRateResult serial;
  for (const int threads : {1, 2, 4, 8}) {
    const auto [sec, r] = run_once(threads);
    if (threads == 1) {
      serial_sec = sec;
      serial = r;
    }
    const bool same = r.best == serial.best &&
                      r.best_score == serial.best_score &&
                      r.history.size() == serial.history.size();
    std::printf("%8d %10.3f %7.2fx %-18s %8.3f %6d %6d %6s\n", threads, sec,
                serial_sec / sec, bench::cfg(r.best).c_str(), r.best_score,
                r.bootstrap_evaluations, r.bo_iterations,
                same ? "yes" : "NO");
    report.row()
        .num("threads", threads)
        .num("time_sec", sec)
        .num("speedup", serial_sec / sec)
        .str("best_config", bench::cfg(r.best))
        .num("best_score", r.best_score)
        .num("bootstrap_evaluations", r.bootstrap_evaluations)
        .num("bo_iterations", r.bo_iterations)
        .num("deterministic", same ? 1 : 0);
  }

  std::printf(
      "\nShape check: the 'same' column must read yes at every thread "
      "count (bit-identical decisions); speedup saturates at the "
      "machine's physical core count.\n");

  if (!json_path.empty()) {
    if (!report.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
