// Reproduces paper Fig. 1: WordCount with fixed parallelism 2 under an
// input rate rising from 100k rec/s by +50k every 10 minutes, 50 minutes
// total.
//
//   Fig. 1(a): input rate vs achieved throughput.
//   Fig. 1(b): end-to-end latency in Flink and data lag in Kafka.
//
// Expected shape: throughput tracks the rate up to the ~250k saturation
// point of parallelism 2, after which lag accumulates and latency rises.
#include "bench_util.hpp"
#include "workloads/workloads.hpp"

int main() {
  using namespace autra;

  bench::header(
      "Fig. 1 — WordCount, parallelism 2, rate 100k +50k every 10 min");

  sim::JobSpec spec = workloads::word_count(
      std::make_shared<sim::StaircaseRate>(100e3, 50e3, 600.0));
  sim::ScalingSession session(spec, sim::Parallelism(4, 2));

  std::printf("%8s %12s %12s %14s %14s\n", "t [min]", "rate [k/s]",
              "thr [k/s]", "latency [ms]", "lag [k rec]");
  for (int minute = 1; minute <= 50; ++minute) {
    session.reset_window();
    session.run_for(60.0);
    const runtime::JobMetrics m = session.window_metrics();
    std::printf("%8d %12.0f %12.1f %14.1f %14.0f\n", minute,
                m.input_rate / 1e3, m.throughput / 1e3, m.latency_ms,
                m.kafka_lag / 1e3);
  }
  std::printf(
      "\nShape check (paper): throughput follows the rate until ~250k, then "
      "saturates; lag and latency grow from that point on.\n");
  return 0;
}
