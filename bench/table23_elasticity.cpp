// Reproduces paper Tables II & III and Figs. 6 & 7: elasticity tests at a
// steady rate, AuTraScale (Algorithm 1) vs DRS with true/observed
// processing rates, in scale-up and scale-down scenarios.
//
//   Table II/III: iterations and final parallelism per method.
//   Fig. 6: measured latency of each method's terminal configuration.
//   Fig. 7: total parallelism of terminal configurations, with the
//           resource savings of AuTraScale over DRS (paper: 66.6% in
//           scale-down, 36.7% in scale-up, while DRS variants sometimes
//           violate QoS).
//
// Scenario construction: scale-up starts the job at parallelism 1 with a
// latency target the base configuration cannot meet; scale-down starts it
// grossly over-provisioned. AuTraScale is seeded with the scenario's
// starting configuration as its first sample (the already-running job).
#include <cmath>

#include "baselines/drs.hpp"
#include "bench_util.hpp"
#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

struct MethodResult {
  std::string method;
  sim::Parallelism config;
  runtime::JobMetrics metrics;
  int iterations = 0;
  bool qos_met = false;
};

struct Scenario {
  std::string name;
  sim::JobSpec spec;
  double rate;
  double target_throughput;
  double target_latency_ms;
  sim::Parallelism start;
  int bootstrap_m;
};

std::vector<MethodResult> run_scenario(Scenario& sc) {
  sim::JobRunner runner(std::move(sc.spec),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
  const runtime::Evaluator evaluate = sim::make_runner_evaluator(runner);
  const auto& topology = runner.spec().topology;
  const int p_max = runner.max_parallelism();

  std::vector<MethodResult> results;
  const auto qos = [&](const runtime::JobMetrics& m) {
    return m.latency_ms <= sc.target_latency_ms &&
           m.throughput >= 0.97 * sc.target_throughput;
  };

  // --- AuTraScale: throughput optimisation + Algorithm 1 -----------------
  {
    const core::ThroughputOptimizer opt(
        topology, {.target_throughput = sc.target_throughput,
                   .max_parallelism = p_max});
    const core::ThroughputOptResult base = opt.optimize(evaluate, sc.start);

    core::SteadyRateParams params;
    params.target_latency_ms = sc.target_latency_ms;
    params.target_throughput = sc.target_throughput;
    params.bootstrap_m = sc.bootstrap_m;
    params.max_parallelism = p_max;
    const core::SteadyRateResult r =
        core::run_steady_rate(evaluate, base.best, params);
    results.push_back({"AuTraScale", r.best, r.best_metrics,
                       base.iterations + r.bootstrap_evaluations +
                           r.bo_iterations,
                       qos(r.best_metrics)});
  }

  // --- DRS with true and observed rates ----------------------------------
  for (const auto metric : {baselines::RateMetric::kTrueRate,
                            baselines::RateMetric::kObservedRate}) {
    const baselines::DrsPolicy drs(
        topology, {.target_latency_ms = sc.target_latency_ms,
                   .target_throughput = sc.target_throughput,
                   .rate_metric = metric,
                   .max_parallelism = p_max});
    const baselines::DrsResult r = drs.run(evaluate, sc.start);
    results.push_back(
        {metric == baselines::RateMetric::kTrueRate ? "DRS(true)"
                                                    : "DRS(observed)",
         r.final_config, r.final_metrics, r.iterations,
         qos(r.final_metrics)});
  }
  return results;
}

void print_scenario(const char* table, Scenario sc) {
  bench::header(table);
  std::printf("rate %.0fk rec/s, throughput target %.0fk, latency target "
              "%.0f ms, start %s\n\n",
              sc.rate / 1e3, sc.target_throughput / 1e3,
              sc.target_latency_ms, bench::cfg(sc.start).c_str());
  const auto results = run_scenario(sc);

  std::printf("%-14s %6s %-20s %10s %12s %8s %6s\n", "method", "iters",
              "final parallelism", "total", "latency[ms]", "thr[k/s]",
              "QoS");
  const MethodResult* autra_row = nullptr;
  for (const MethodResult& r : results) {
    if (r.method == "AuTraScale") autra_row = &r;
    std::printf("%-14s %6d %-20s %10d %12.1f %8.1f %6s\n", r.method.c_str(),
                r.iterations, bench::cfg(r.config).c_str(),
                bench::total(r.config), r.metrics.latency_ms,
                r.metrics.throughput / 1e3, r.qos_met ? "ok" : "VIOL");
  }

  // Fig. 7 savings: AuTraScale vs each QoS-meeting DRS variant.
  for (const MethodResult& r : results) {
    if (r.method == "AuTraScale" || autra_row == nullptr) continue;
    const double saving =
        100.0 * (bench::total(r.config) - bench::total(autra_row->config)) /
        std::max(1, bench::total(r.config));
    std::printf("  -> AuTraScale uses %.1f%% %s resources than %s%s\n",
                std::abs(saving), saving >= 0 ? "fewer" : "more",
                r.method.c_str(), r.qos_met ? "" : " (which violates QoS)");
  }
}

}  // namespace

int main() {
  // --- Table II: WordCount -----------------------------------------------
  // Scale-up: tight latency target that parallelism 1 cannot meet.
  print_scenario(
      "Table II / Figs. 6-7 — WordCount scale-up (target 350k rec/s, 28 ms)",
      {"wc-up",
       workloads::word_count(std::make_shared<sim::ConstantRate>(350e3)),
       350e3, 350e3, 28.0, sim::Parallelism(4, 1), 6});

  // Scale-down: over-provisioned start, generous latency target.
  print_scenario(
      "Table II / Figs. 6-7 — WordCount scale-down (target 350k rec/s, 180 ms)",
      {"wc-down",
       workloads::word_count(std::make_shared<sim::ConstantRate>(350e3)),
       350e3, 350e3, 180.0, sim::Parallelism{10, 10, 20, 16}, 6});

  // --- Table III: Yahoo ---------------------------------------------------
  print_scenario(
      "Table III / Figs. 6-7 — Yahoo scale-up (target 34k rec/s, 300 ms)",
      {"yahoo-up",
       workloads::yahoo_streaming(std::make_shared<sim::ConstantRate>(34e3)),
       34e3, 34e3, 300.0, sim::Parallelism(5, 1), 8});

  print_scenario(
      "Table III / Figs. 6-7 — Yahoo scale-down (target 34k rec/s, 300 ms)",
      {"yahoo-down",
       workloads::yahoo_streaming(std::make_shared<sim::ConstantRate>(34e3)),
       34e3, 34e3, 300.0, sim::Parallelism{20, 8, 8, 8, 40}, 8});

  std::printf(
      "\nShape check (paper): AuTraScale meets QoS everywhere; DRS(observed) "
      "over-provisions heavily (AuTraScale saves most in scale-down); "
      "DRS(true) occasionally undercuts AuTraScale but then misses the "
      "throughput/latency target.\n");
  return 0;
}
