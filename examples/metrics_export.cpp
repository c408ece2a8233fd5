// Metrics export: replay the paper's Fig. 1 scenario on a live session
// with a hot scale-out mid-run, and dump the continuous metric history as
// CSV for plotting (gnuplot/pandas).
//
// Build & run:  ./build/examples/metrics_export [output.csv]
#include <cstdio>
#include <fstream>

#include "example_util.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace autra;
  const std::string path = argc > 1 ? argv[1] : "fig1_timeline.csv";

  // Fig. 1 schedule: 100k rec/s, +50k every 5 minutes (compressed).
  sim::JobSpec spec = workloads::word_count(
      std::make_shared<sim::StaircaseRate>(100e3, 50e3, 300.0));
  spec.engine.latency_percentiles = true;  // print_metrics reports p99
  sim::ScalingSession session(spec, sim::Parallelism(4, 2));

  // Saturation begins around 300k; scale out in place at t=14 min
  // (kHotScaleOut keeps the pipeline running — ~1 s pause instead of a
  // full savepoint/restart).
  session.run_for(840.0);
  session.reconfigure({2, 2, 4, 3}, runtime::RescaleMode::kHotScaleOut);
  session.run_for(660.0);

  namespace mn = runtime::metric_names;
  const std::vector<std::string> series{
      mn::kInputRate,    mn::kThroughput,       mn::kLatencyMean,
      mn::kKafkaLag,     mn::kBusyCores,        mn::kParallelismTotal,
  };
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  session.history().write_csv(out, series);
  std::printf("wrote %s (25 min of per-second gauges, %zu series)\n",
              path.c_str(), series.size());

  session.reset_window();
  session.run_for(60.0);
  examples::print_metrics("state after hot scale-out",
                          session.window_metrics());
  std::printf("restarts: %d (the scale-out at t=14 min was applied hot)\n",
              session.restarts());
  return 0;
}
