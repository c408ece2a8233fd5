// Ablation: the interference model (DESIGN.md §4.2).
//
// With interference disabled, throughput scales near-linearly with
// parallelism and DS2's linear assumption holds — its one-shot
// recommendation is already optimal. With interference enabled (the
// default), scaling is sub-linear and DS2 under-provisions on its first
// step, needing extra iterations; this is the regime AuTraScale's GP is
// built for. This ablation substantiates the paper's implicit claim that
// interference is what breaks the linear dataflow model.
#include "baselines/ds2.hpp"
#include "bench_util.hpp"
#include "streamsim/job_runner.hpp"
#include "workloads/workloads.hpp"

int main() {
  using namespace autra;

  for (const bool enabled : {false, true}) {
    bench::header(enabled ? "interference ENABLED (default model)"
                          : "interference DISABLED");

    // Scaling curve at an unbounded input rate.
    std::printf("%6s %12s %18s\n", "p", "thr [k/s]", "scaling efficiency");
    double t1 = 0.0;
    for (int p : {1, 2, 4, 8}) {
      sim::JobSpec spec = workloads::word_count(
          std::make_shared<sim::ConstantRate>(3e6));  // never input-limited
      spec.engine.interference.enabled = enabled;
      sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 30.0, .measure_sec = 30.0});
      const runtime::JobMetrics m = runner.measure(sim::Parallelism(4, p));
      if (p == 1) t1 = m.throughput;
      std::printf("%6d %12.1f %17.0f%%\n", p, m.throughput / 1e3,
                  100.0 * m.throughput / (t1 * p));
    }

    // DS2 iteration count at a fixed target.
    sim::JobSpec spec = workloads::word_count(
        std::make_shared<sim::ConstantRate>(350e3));
    spec.engine.interference.enabled = enabled;
    sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 30.0, .measure_sec = 30.0});
    const runtime::Evaluator evaluate = sim::make_runner_evaluator(runner);
    const baselines::Ds2Policy ds2(
        runner.spec().topology,
        {.target_throughput = 350e3,
         .max_parallelism = runner.max_parallelism()});
    const baselines::Ds2Result r = ds2.run(evaluate, sim::Parallelism(4, 1));
    std::printf("DS2: %d iterations to reach 350k (final %s)\n", r.iterations,
                bench::cfg(r.final_config).c_str());
  }

  std::printf("\nShape check: without interference, scaling efficiency stays "
              "near 100%% and DS2 needs at most 2 runs; with it, efficiency "
              "decays with p.\n");
  return 0;
}
