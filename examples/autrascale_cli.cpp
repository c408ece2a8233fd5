// Command-line driver: run any policy on any workload without writing
// code. The closest thing in this repository to a production entry point.
//
//   autrascale_cli --workload wordcount --rate 350000
//                  --policy autrascale --latency-ms 40
//
//   --workload   wordcount | yahoo | q1 | q5 | q8 | q11 | join | session |
//                fanin                           (default wordcount)
//   --rate       mean input records/s           (default 350000)
//   --arrival    constant | mmpp | hawkes | diurnal | trace:<path>
//                generative arrival process for the input rate; the
//                generative ones are calibrated to a long-run mean of
//                --rate over --horizon seconds   (default constant)
//   --arrival-seed  seed for the arrival process (default 7)
//   --policy     autrascale | ds2 | drs-true | drs-observed | threshold |
//                dhalion                        (default autrascale)
//   --latency-ms target latency                 (default 100)
//   --throughput target records/s, 0 = the rate (default 0)
//   --kernel     matern52 | matern32 | rbf      (default matern52)
//   --threads    Plan-stage worker threads, 0 = auto, 1 = serial (default 0)
//   --seed       RNG seed                       (default 42)
//
// Fault injection (runs the live resilience harness instead of the
// offline recommend-run-judge loop):
//
//   --faults     machine-crash | metric-chaos | degraded-cluster | chaos
//   --fault-seed seed for the schedule's randomised placements (default 1)
//   --horizon    simulated seconds for the faulted run   (default 1800)
//   --intensity  chaos mode only: expected events per 300 s (default 1.0)
//   --burst-clustering  chaos mode only: Hawkes branching ratio in [0, 1)
//                for time-correlated fault storms; 0 = independent
//                placements (default 0)
//
// `--faults chaos` samples a full-taxonomy schedule (crashes, rack
// crash groups, partitions, metric corruption, rescale failures) from
// fault::ChaosGenerator instead of replaying a canned story; the same
// --fault-seed reproduces the same schedule bit for bit.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>

#include "arrival/arrival.hpp"
#include "baselines/dhalion.hpp"
#include "baselines/drs.hpp"
#include "baselines/ds2.hpp"
#include "baselines/threshold.hpp"
#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "example_util.hpp"
#include "fault/chaos.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/resilience.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

struct Options {
  std::string workload = "wordcount";
  std::string policy = "autrascale";
  std::string arrival = "constant";
  std::uint64_t arrival_seed = 7;
  double rate = 350000.0;
  double latency_ms = 100.0;
  double throughput = 0.0;
  gp::KernelKind kernel = gp::KernelKind::kMatern52;
  int threads = 0;
  std::uint64_t seed = 42;
  std::string faults;  ///< Schedule name or "chaos"; empty = no fault run.
  std::uint64_t fault_seed = 1;
  double horizon_sec = 1800.0;
  double intensity = 1.0;  ///< Chaos mode: expected events per 300 s.
  double burst_clustering = 0.0;  ///< Chaos mode: Hawkes branching ratio.
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload wordcount|yahoo|q1|q5|q8|q11|join|"
               "session|fanin]\n"
               "          [--rate R] [--arrival constant|mmpp|hawkes|diurnal|"
               "trace:<path>]\n"
               "          [--arrival-seed S]\n"
               "          [--policy autrascale|ds2|drs-true|drs-observed|"
               "threshold|dhalion]\n"
               "          [--latency-ms L] [--throughput T]\n"
               "          [--kernel matern52|matern32|rbf] [--threads N]"
               " [--seed S]\n"
               "          [--faults machine-crash|metric-chaos|"
               "degraded-cluster|chaos]\n"
               "          [--fault-seed S] [--horizon SEC] [--intensity I]\n"
               "          [--burst-clustering B]\n",
               argv0);
  std::exit(2);
}

// A numeric flag value must parse whole ("250000x", "abc" and "" are usage
// errors, never a truncated number or a silent 0) and be finite.
template <class T>
T parse_number(const char* s, const char* argv0) {
  T v{};
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || ptr != end) usage(argv0);
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) usage(argv0);
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload = value();
    } else if (flag == "--policy") {
      opt.policy = value();
    } else if (flag == "--rate") {
      opt.rate = parse_number<double>(value(), argv[0]);
    } else if (flag == "--latency-ms") {
      opt.latency_ms = parse_number<double>(value(), argv[0]);
    } else if (flag == "--throughput") {
      opt.throughput = parse_number<double>(value(), argv[0]);
    } else if (flag == "--kernel") {
      // Bad kernel names fail here, at the I/O boundary, not deep inside a
      // GP fit.
      try {
        opt.kernel = gp::parse_kernel_kind(value());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0]);
      }
    } else if (flag == "--threads") {
      opt.threads = parse_number<int>(value(), argv[0]);
    } else if (flag == "--seed") {
      opt.seed = parse_number<std::uint64_t>(value(), argv[0]);
    } else if (flag == "--faults") {
      opt.faults = value();
    } else if (flag == "--fault-seed") {
      opt.fault_seed = parse_number<std::uint64_t>(value(), argv[0]);
    } else if (flag == "--horizon") {
      opt.horizon_sec = parse_number<double>(value(), argv[0]);
    } else if (flag == "--intensity") {
      opt.intensity = parse_number<double>(value(), argv[0]);
    } else if (flag == "--arrival") {
      opt.arrival = value();
    } else if (flag == "--arrival-seed") {
      opt.arrival_seed = parse_number<std::uint64_t>(value(), argv[0]);
    } else if (flag == "--burst-clustering") {
      opt.burst_clustering = parse_number<double>(value(), argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  if (opt.rate <= 0.0 || opt.latency_ms <= 0.0 || opt.horizon_sec <= 0.0 ||
      opt.intensity < 0.0 || opt.burst_clustering < 0.0 ||
      opt.burst_clustering >= 1.0) {
    usage(argv[0]);
  }
  return opt;
}

sim::JobSpec make_spec(const Options& opt) {
  std::shared_ptr<const sim::RateSchedule> schedule;
  try {
    schedule = arrival::make_arrival(opt.arrival, opt.rate, opt.arrival_seed,
                                     opt.horizon_sec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  if (opt.workload == "wordcount") return workloads::word_count(schedule);
  if (opt.workload == "yahoo") return workloads::yahoo_streaming(schedule);
  if (opt.workload == "q1") return workloads::nexmark_q1(schedule);
  if (opt.workload == "q5") return workloads::nexmark_q5(schedule);
  if (opt.workload == "q8") return workloads::nexmark_q8(schedule);
  if (opt.workload == "q11") return workloads::nexmark_q11(schedule);
  if (opt.workload == "join") return workloads::stream_stream_join(schedule);
  if (opt.workload == "session") return workloads::sessionization(schedule);
  if (opt.workload == "fanin") return workloads::fanin_tree(schedule);
  std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  std::exit(2);
}

/// --faults mode: a live session with the schedule injected, driven by the
/// selected policy; QoS is judged on fault-free ground truth.
int run_faulted(const Options& opt) {
  fault::FaultSchedule schedule;
  try {
    if (opt.faults == "chaos") {
      fault::ChaosProfile profile = fault::ChaosProfile::for_job(
          make_spec(opt), opt.horizon_sec, opt.intensity);
      profile.burst_clustering = opt.burst_clustering;
      const fault::ChaosGenerator gen(std::move(profile));
      schedule = gen.generate(opt.fault_seed);
    } else {
      schedule = fault::FaultSchedule::canned(opt.faults, opt.fault_seed,
                                              opt.horizon_sec);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  fault::ResilienceOptions ropt;
  ropt.horizon_sec = opt.horizon_sec;
  ropt.target_latency_ms = opt.latency_ms;
  ropt.seed = opt.seed;
  fault::ResilienceReport r;
  try {
    r = fault::run_resilience(opt.policy, make_spec(opt), schedule, ropt);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("workload=%s rate=%.0f policy=%s faults=%s fault-seed=%llu "
              "horizon=%.0fs\n",
              opt.workload.c_str(), opt.rate, opt.policy.c_str(),
              opt.faults.c_str(),
              static_cast<unsigned long long>(opt.fault_seed),
              opt.horizon_sec);
  std::printf(
      "throughput=%.0f/s (input %.0f/s)  violation=%.0fs  recovery=%.0fs\n"
      "lag max=%.0f end=%.0f  restarts=%d (failure %d)  decisions=%d\n"
      "failed-rescales=%d retries=%d unhealthy-windows=%d\n",
      r.mean_throughput, r.mean_input_rate, r.violation_sec, r.recovery_sec,
      r.max_lag, r.end_lag, r.restarts, r.failure_restarts, r.decisions,
      r.failed_rescales, r.rescale_retries, r.unhealthy_windows);
  // Pass criteria for a faulted run: the job recovered and drained.
  const bool ok = r.recovery_sec >= 0.0;
  std::printf("recovered=%s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.faults.empty()) return run_faulted(opt);
  const double target_thr = opt.throughput > 0.0 ? opt.throughput : opt.rate;

  sim::JobSpec spec = make_spec(opt);
  spec.engine.latency_percentiles = true;  // print_metrics reports p99
  sim::JobRunner runner(std::move(spec),
      {.warmup_sec = 60.0, .measure_sec = 60.0});
  const runtime::Evaluator evaluate = sim::make_runner_evaluator(runner);
  const auto& topology = runner.spec().topology;
  const int p_max = runner.max_parallelism();
  const sim::Parallelism start(runner.num_operators(), 1);

  std::printf("workload=%s rate=%.0f policy=%s latency-target=%.0fms "
              "throughput-target=%.0f\n",
              opt.workload.c_str(), opt.rate, opt.policy.c_str(),
              opt.latency_ms, target_thr);

  runtime::JobMetrics final_metrics;
  int runs = 0;

  if (opt.policy == "autrascale") {
    const core::ThroughputOptimizer topt(
        topology,
        {.target_throughput = target_thr, .max_parallelism = p_max});
    const auto base = topt.optimize(evaluate, start);
    core::SteadyRateParams sp;
    sp.target_latency_ms = opt.latency_ms;
    sp.target_throughput = target_thr;
    sp.max_parallelism = p_max;
    sp.gp_kernel = opt.kernel;
    sp.threads = opt.threads;
    sp.seed = opt.seed;
    const auto r = core::run_steady_rate(evaluate, base.best, sp);
    final_metrics = r.best_metrics;
    runs = base.iterations + r.bootstrap_evaluations + r.bo_iterations;
    std::printf("converged=%s score=%.3f\n", r.converged ? "yes" : "no",
                r.best_score);
  } else if (opt.policy == "ds2") {
    const baselines::Ds2Policy policy(
        topology,
        {.target_throughput = target_thr, .max_parallelism = p_max});
    const auto r = policy.run(evaluate, start);
    final_metrics = r.final_metrics;
    runs = r.iterations;
  } else if (opt.policy == "drs-true" || opt.policy == "drs-observed") {
    const baselines::DrsPolicy policy(
        topology, {.target_latency_ms = opt.latency_ms,
                   .target_throughput = target_thr,
                   .rate_metric = opt.policy == "drs-true"
                                      ? baselines::RateMetric::kTrueRate
                                      : baselines::RateMetric::kObservedRate,
                   .max_parallelism = p_max});
    const auto r = policy.run(evaluate, start);
    final_metrics = r.final_metrics;
    runs = r.iterations;
    std::printf("model-predicted latency=%.2fms\n", r.predicted_latency_ms);
  } else if (opt.policy == "threshold") {
    const baselines::ThresholdPolicy policy({.max_parallelism = p_max});
    const auto r = policy.run(evaluate, start);
    final_metrics = r.final_metrics;
    runs = r.iterations;
  } else if (opt.policy == "dhalion") {
    const baselines::DhalionPolicy policy(topology,
                                          {.max_parallelism = p_max});
    const auto r = policy.run(evaluate, start);
    final_metrics = r.final_metrics;
    runs = r.iterations;
    std::printf("healthy=%s blacklisted=%zu\n", r.healthy ? "yes" : "no",
                r.blacklisted.size());
  } else {
    usage(argv[0]);
  }

  autra::examples::print_metrics("result", final_metrics);
  const bool qos = final_metrics.latency_ms <= opt.latency_ms &&
                   final_metrics.throughput >= 0.97 * target_thr;
  std::printf("trial runs=%d  QoS=%s\n", runs, qos ? "met" : "VIOLATED");
  return qos ? 0 : 1;
}
