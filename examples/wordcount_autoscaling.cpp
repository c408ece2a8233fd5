// WordCount auto-scaling walkthrough: reproduces the paper's motivation on
// a single job, then shows AuTraScale fixing it.
//
// Part 1 (the problem) — a fixed-parallelism job under a rising input rate
// saturates: Kafka lag and latency explode (paper Fig. 1).
// Part 2 (the fix) — the MAPE controller watches the same job live,
// detects the violation, and rescales it until QoS holds again.
//
// Build & run:  ./build/examples/wordcount_autoscaling
#include <cstdio>

#include "core/controller.hpp"
#include "example_util.hpp"
#include "workloads/workloads.hpp"

int main() {
  using namespace autra;

  std::printf("=== Part 1: fixed parallelism, rising rate ===\n");
  {
    // 100k rec/s, +50k every 5 simulated minutes.
    sim::JobSpec spec = workloads::word_count(
        std::make_shared<sim::StaircaseRate>(100e3, 50e3, 300.0));
    spec.engine.latency_percentiles = true;  // print_metrics reports p99
    sim::ScalingSession session(spec, sim::Parallelism(4, 2));
    for (int step = 0; step < 5; ++step) {
      session.reset_window();
      const double window_rate =
          session.engine().kafka().rate_at(session.now());
      session.run_for(300.0);
      const runtime::JobMetrics m = session.window_metrics();
      char tag[64];
      std::snprintf(tag, sizeof tag, "t=%4.0f min, rate=%3.0fk",
                    session.now() / 60.0, window_rate / 1000.0);
      examples::print_metrics(tag, m);
    }
    std::printf("-> parallelism 2 saturates around 250k rec/s; the backlog "
                "and latency keep growing.\n\n");
  }

  std::printf("=== Part 2: the same scenario under AuTraScale ===\n");
  {
    sim::JobSpec spec = workloads::word_count(
        std::make_shared<sim::StaircaseRate>(100e3, 50e3, 300.0));
    spec.engine.latency_percentiles = true;  // print_metrics reports p99
    sim::ScalingSession session(spec, sim::Parallelism(4, 2));

    core::ControllerParams params;
    params.steady.target_latency_ms = 200.0;
    params.steady.target_throughput = 0.0;  // track the input rate
    params.steady.bootstrap_m = 4;
    params.steady.max_evaluations = 24;
    params.policy_interval_sec = 60.0;
    params.policy_running_time_sec = 120.0;

    core::AuTraScaleController controller(spec.topology,
                                          sim::make_trial_service(spec),
                                          params);
    const auto decisions = controller.run(session, 1500.0);

    for (const auto& d : decisions) {
      std::printf("t=%5.0f s  trigger=%-21s algo=%-10s -> %s  (%d trial runs)\n",
                  d.time, core::to_string(d.trigger), d.algorithm.c_str(),
                  examples::to_string(d.applied).c_str(), d.evaluations);
    }
    session.reset_window();
    session.run_for(120.0);
    examples::print_metrics("final state", session.window_metrics());
    std::printf("-> %zu scaling decisions; %zu benefit models in the library.\n",
                decisions.size(), controller.library().size());
  }
  return 0;
}
