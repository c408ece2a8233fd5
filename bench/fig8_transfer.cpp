// Reproduces paper Fig. 8: transfer efficiency when the data rate changes,
// AuTraScale (Algorithm 2) vs DS2 (offline), on Nexmark Query5 and Query11.
//
//   Fig. 8(a): iterations and final parallelism per method
//              (paper: Q11 — same iterations, similar parallelism;
//               Q5 — AuTraScale needs 2 more iterations but saves 5
//               resource units; 13.5% average parallelism saving).
//   Fig. 8(b): per-record latency distribution of the terminal configs.
//   Fig. 8(c): CPU and memory savings (paper: 5.2% CPU, 6.2% memory).
//
// Setup mirrors the paper: benefit models are pre-trained at 20k (Q5) and
// 80k (Q11); the new rates are 30k and 100k; latency targets 500 ms and
// 150 ms.
//
// `--json PATH` writes one row per query x method (iterations, parallelism,
// latency percentiles, CPU, memory); every column is deterministic, and
// BENCH_fig8.json is the committed baseline the zero-budget gate compares.

#include "baselines/ds2.hpp"
#include "bench_util.hpp"
#include "core/throughput_opt.hpp"
#include "core/transfer.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

struct QueryCase {
  const char* name;
  sim::JobSpec (*make)(std::shared_ptr<const sim::RateSchedule>);
  double old_rate;
  double new_rate;
  double target_latency_ms;
};

sim::JobRunner make_runner(const QueryCase& q, double rate) {
  sim::JobSpec spec = q.make(std::make_shared<sim::ConstantRate>(rate));
  spec.engine.latency_percentiles = true;  // Fig. 8(b) plots them
  return sim::JobRunner(std::move(spec),
                        {.warmup_sec = 60.0, .measure_sec = 60.0});
}

sim::Parallelism base_config(sim::JobRunner& runner, double target) {
  const runtime::Evaluator eval = sim::make_runner_evaluator(runner);
  const core::ThroughputOptimizer opt(
      runner.spec().topology,
      {.target_throughput = target,
       .max_parallelism = runner.max_parallelism()});
  return opt
      .optimize(eval, sim::Parallelism(runner.num_operators(), 1))
      .best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (!bench::Args().text("--json", "PATH", json_path).parse(argc, argv)) {
    return 2;
  }

  const QueryCase cases[] = {
      {"Query5", workloads::nexmark_q5, 20e3, 30e3, 500.0},
      {"Query11", workloads::nexmark_q11, 80e3, 100e3, 150.0},
  };

  double autra_total = 0.0, ds2_total = 0.0;
  double autra_cpu = 0.0, ds2_cpu = 0.0;
  double autra_mem = 0.0, ds2_mem = 0.0;
  bench::JsonReport report("fig8_transfer");

  for (const QueryCase& q : cases) {
    bench::header((std::string("Fig. 8 — ") + q.name + ": rate " +
                   std::to_string(static_cast<int>(q.old_rate / 1e3)) +
                   "k -> " +
                   std::to_string(static_cast<int>(q.new_rate / 1e3)) + "k")
                      .c_str());

    // --- Pre-train the benefit model at the old rate. --------------------
    sim::JobRunner old_runner = make_runner(q, q.old_rate);
    const runtime::Evaluator old_eval =
        sim::make_runner_evaluator(old_runner);
    const sim::Parallelism old_base = base_config(old_runner, q.old_rate);
    core::SteadyRateParams sp;
    sp.target_latency_ms = q.target_latency_ms;
    sp.target_throughput = q.old_rate;
    sp.bootstrap_m = 5;
    sp.max_parallelism = old_runner.max_parallelism();
    const core::SteadyRateResult old_run =
        core::run_steady_rate(old_eval, old_base, sp);
    const core::BenefitModel prior =
        core::make_benefit_model(q.old_rate, old_base, old_run);
    std::printf("pre-trained model at %.0fk: %zu samples, base %s\n",
                q.old_rate / 1e3, prior.samples.size(),
                bench::cfg(old_base).c_str());

    // --- AuTraScale Algorithm 2 at the new rate. --------------------------
    sim::JobRunner new_runner = make_runner(q, q.new_rate);
    const runtime::Evaluator new_eval =
        sim::make_runner_evaluator(new_runner);
    const sim::Parallelism new_base = base_config(new_runner, q.new_rate);
    core::TransferParams tp;
    tp.steady = sp;
    tp.steady.target_throughput = q.new_rate;
    tp.steady.max_parallelism = new_runner.max_parallelism();
    const core::TransferResult at =
        core::run_transfer(new_eval, new_base, prior, tp);

    // --- DS2 offline at the new rate. -------------------------------------
    const baselines::Ds2Policy ds2(
        new_runner.spec().topology,
        {.target_throughput = q.new_rate,
         .max_parallelism = new_runner.max_parallelism()});
    const baselines::Ds2Result dr =
        ds2.run(new_eval, sim::Parallelism(new_runner.num_operators(), 1));

    // Fig. 8(a).
    std::printf("\nFig. 8(a) — iterations & final parallelism\n");
    std::printf("  %-12s %6s %-16s %6s\n", "method", "iters", "parallelism",
                "total");
    std::printf("  %-12s %6d %-16s %6d\n", "AuTraScale", at.real_evaluations,
                bench::cfg(at.best).c_str(), bench::total(at.best));
    std::printf("  %-12s %6d %-16s %6d\n", "DS2", dr.iterations,
                bench::cfg(dr.final_config).c_str(),
                bench::total(dr.final_config));

    // Fig. 8(b).
    std::printf("\nFig. 8(b) — per-record latency of terminal configs [ms]\n");
    std::printf("  %-12s %8s %8s %8s %8s\n", "method", "p50", "p95", "p99",
                "mean");
    const runtime::LatencyPercentiles at_lat =
        at.best_metrics.latency_percentiles.value();
    const runtime::LatencyPercentiles dr_lat =
        dr.final_metrics.latency_percentiles.value();
    std::printf("  %-12s %8.1f %8.1f %8.1f %8.1f\n", "AuTraScale",
                at_lat.p50_ms, at_lat.p95_ms, at_lat.p99_ms,
                at.best_metrics.latency_ms);
    std::printf("  %-12s %8.1f %8.1f %8.1f %8.1f\n", "DS2", dr_lat.p50_ms,
                dr_lat.p95_ms, dr_lat.p99_ms, dr.final_metrics.latency_ms);

    const auto add_row = [&](const char* method, int iterations,
                             const sim::Parallelism& config,
                             const runtime::JobMetrics& m,
                             const runtime::LatencyPercentiles& lat) {
      report.row()
          .str("query", q.name)
          .str("method", method)
          .num("iterations", iterations)
          .num("total_parallelism", bench::total(config))
          .num("p50_ms", lat.p50_ms)
          .num("p95_ms", lat.p95_ms)
          .num("p99_ms", lat.p99_ms)
          .num("mean_ms", m.latency_ms)
          .num("busy_cores", m.busy_cores)
          .num("memory_mb", m.memory_mb);
    };
    add_row("AuTraScale", at.real_evaluations, at.best, at.best_metrics,
            at_lat);
    add_row("DS2", dr.iterations, dr.final_config, dr.final_metrics, dr_lat);

    // Fig. 8(c) inputs.
    autra_total += bench::total(at.best);
    ds2_total += bench::total(dr.final_config);
    autra_cpu += at.best_metrics.busy_cores;
    ds2_cpu += dr.final_metrics.busy_cores;
    autra_mem += at.best_metrics.memory_mb;
    ds2_mem += dr.final_metrics.memory_mb;
  }

  bench::header("Fig. 8(c) — aggregate resource savings vs DS2");
  std::printf("  parallelism: AuTraScale %.0f vs DS2 %.0f  ->  %.1f%% saved "
              "(paper: 13.5%%)\n",
              autra_total, ds2_total,
              100.0 * (ds2_total - autra_total) / ds2_total);
  std::printf("  CPU cores:   AuTraScale %.1f vs DS2 %.1f  ->  %.1f%% saved "
              "(paper: 5.2%%)\n",
              autra_cpu, ds2_cpu, 100.0 * (ds2_cpu - autra_cpu) / ds2_cpu);
  std::printf("  memory:      AuTraScale %.0f MB vs DS2 %.0f MB  ->  %.1f%% "
              "saved (paper: 6.2%%)\n",
              autra_mem, ds2_mem, 100.0 * (ds2_mem - autra_mem) / ds2_mem);

  if (!json_path.empty()) {
    if (!report.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
