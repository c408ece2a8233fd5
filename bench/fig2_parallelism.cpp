// Reproduces paper Fig. 2: WordCount at a fixed 300k rec/s input rate with
// uniform operator parallelism 1..6 (six independent runs).
//
//   Obs. 2.1: throughput grows sub-linearly (paper: 150k/250k/275k at
//             p=1/2/3, saturating at the 300k input rate).
//   Obs. 2.2: latency is minimised at a moderate parallelism and rises
//             again when parallelism is excessive (communication cost).
#include "bench_util.hpp"
#include "workloads/workloads.hpp"

int main() {
  using namespace autra;

  bench::header("Fig. 2 — WordCount, rate 300k, parallelism 1..6");
  std::printf("%6s %12s %14s %14s %16s\n", "p", "thr [k/s]", "latency [ms]",
              "lag [k rec]", "thr per inst.");

  double p1_throughput = 0.0;
  for (int p = 1; p <= 6; ++p) {
    sim::JobSpec spec = workloads::word_count(
        std::make_shared<sim::ConstantRate>(300e3));
    sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 120.0, .measure_sec = 120.0});
    const runtime::JobMetrics m = runner.measure(sim::Parallelism(4, p));
    if (p == 1) p1_throughput = m.throughput;
    std::printf("%6d %12.1f %14.1f %14.0f %16.1f\n", p, m.throughput / 1e3,
                m.latency_ms, m.kafka_lag / 1e3, m.throughput / 1e3 / p);
  }
  std::printf(
      "\nShape check (paper): p=2 delivers well under 2x the p=1 throughput "
      "(%.0fk here),\nand latency bottoms out at p=3-4 then increases again "
      "at p=5-6.\n",
      p1_throughput / 1e3);
  return 0;
}
