// Resilience comparison: AuTraScale's hardened MAPE loop vs the reactive
// baselines (threshold, DS2, Dhalion) and a static configuration, each
// driven through the same three canned fault schedules on WordCount:
//
//   machine-crash    — one machine lost for 20% of the horizon; tests
//                      crash detection, forced restart and lag catch-up;
//   metric-chaos     — gauges dropped and delayed; tests whether a
//                      controller can tell "the job is sick" from "the
//                      metrics are sick";
//   degraded-cluster — randomised slow nodes, a Redis outage, an ingest
//                      stall and transient rescale failures all at once.
//
// All QoS numbers come from the session's fault-free ground-truth history;
// only the controllers see the corrupted Monitor path. Run with --smoke
// for the CI-sized variant (shorter horizon, machine-crash only).
//
// --chaos N switches from the three canned stories to N seeded
// chaos-generated schedules per policy (seeds 1..N over the same
// ChaosProfile, so every policy faces the identical schedule set) and
// reports QoS-violation percentiles instead of single-run numbers.
//
// --arrival NAME [--arrival-seed S] drives WordCount with a generative
// arrival process (src/arrival/) instead of the constant 250k rate —
// faults on top of bursty input. The committed BENCH_resilience.json
// baseline is for the default (constant).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "arrival/arrival.hpp"
#include "bench_util.hpp"
#include "fault/chaos.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/resilience.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

void print(const fault::ResilienceReport& r) {
  std::printf("%-11s %9.0f %9.0f %10.0f %9.0f %9.0f %5d %4d %5d %5d\n",
              r.policy.c_str(), r.mean_throughput, r.violation_sec,
              r.max_lag / 1e3, r.end_lag / 1e3, r.recovery_sec, r.restarts,
              r.failure_restarts, r.failed_rescales, r.decisions);
}

void report_row(bench::JsonReport& report, const char* schedule,
                const fault::ResilienceReport& r) {
  report.row()
      .str("schedule", schedule)
      .str("policy", r.policy)
      .num("mean_throughput", r.mean_throughput)
      .num("violation_sec", r.violation_sec)
      .num("max_lag", r.max_lag)
      .num("end_lag", r.end_lag)
      .num("recovery_sec", r.recovery_sec)
      .num("restarts", r.restarts)
      .num("failure_restarts", r.failure_restarts)
      .num("failed_rescales", r.failed_rescales)
      .num("decisions", r.decisions)
      .num("trials", r.trials)
      .num("trial_runs_simulated",
           static_cast<double>(r.trial_runs_simulated))
      .num("mirror_points", static_cast<double>(r.mirror_points));
}

void run_schedule(const char* name, double horizon, const sim::JobSpec& spec,
                  const std::vector<std::string>& policies,
                  bench::JsonReport& report) {
  bench::header(name);
  std::printf("%-11s %9s %9s %10s %9s %9s %5s %4s %5s %5s\n", "policy",
              "thr [/s]", "viol [s]", "maxlag[k]", "endlag[k]", "recov[s]",
              "rst", "fail", "nack", "dec");
  for (const std::string& policy : policies) {
    const fault::FaultSchedule schedule =
        fault::FaultSchedule::canned(name, /*seed=*/1, horizon);
    fault::ResilienceOptions opt;
    opt.horizon_sec = horizon;
    const fault::ResilienceReport r =
        fault::run_resilience(policy, spec, schedule, opt);
    print(r);
    report_row(report, name, r);
  }
}

/// Nearest-rank percentile of an already sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void run_chaos(int schedules, bool smoke, const sim::JobSpec& spec,
               bench::JsonReport& report) {
  const double horizon = smoke ? 600.0 : 1800.0;
  const std::vector<std::string> policies =
      smoke ? std::vector<std::string>{"autrascale", "threshold"}
            : fault::resilience_policies();
  // Full-taxonomy mix: crash groups, partitions, metric corruption and
  // rescale failures all drawn from the default weights.
  const fault::ChaosGenerator gen(
      fault::ChaosProfile::for_job(spec, horizon, smoke ? 1.0 : 1.5));

  char title[128];
  std::snprintf(title, sizeof(title),
                "chaos sweep — %d seeded schedules x %zu policies, "
                "horizon %.0fs",
                schedules, policies.size(), horizon);
  bench::header(title);
  std::printf("%-11s %9s %9s %9s %9s %9s %7s %5s\n", "policy", "viol-p50",
              "viol-p90", "viol-p99", "thr [/s]", "maxlag[k]", "recov%",
              "frst");

  for (const std::string& policy : policies) {
    std::vector<double> violations;
    double thr_sum = 0.0;
    double maxlag_sum = 0.0;
    int recovered = 0;
    int failure_restarts = 0;
    for (int seed = 1; seed <= schedules; ++seed) {
      const fault::FaultSchedule schedule =
          gen.generate(static_cast<std::uint64_t>(seed));
      fault::ResilienceOptions opt;
      opt.horizon_sec = horizon;
      opt.seed = static_cast<std::uint64_t>(seed);
      const fault::ResilienceReport r =
          fault::run_resilience(policy, spec, schedule, opt);
      violations.push_back(r.violation_sec);
      thr_sum += r.mean_throughput;
      maxlag_sum += r.max_lag;
      if (r.recovery_sec >= 0.0) ++recovered;
      failure_restarts += r.failure_restarts;
    }
    std::sort(violations.begin(), violations.end());
    const double n = static_cast<double>(schedules);
    std::printf("%-11s %9.0f %9.0f %9.0f %9.0f %9.0f %6.0f%% %5d\n",
                policy.c_str(), percentile(violations, 0.50),
                percentile(violations, 0.90), percentile(violations, 0.99),
                thr_sum / n, maxlag_sum / n / 1e3,
                100.0 * recovered / n, failure_restarts);
    report.row()
        .str("schedule", "chaos")
        .str("policy", policy)
        .num("schedules", schedules)
        .num("violation_p50", percentile(violations, 0.50))
        .num("violation_p90", percentile(violations, 0.90))
        .num("violation_p99", percentile(violations, 0.99))
        .num("mean_throughput", thr_sum / n)
        .num("mean_max_lag", maxlag_sum / n)
        .num("recovered_fraction", recovered / n)
        .num("failure_restarts", failure_restarts);
  }

  std::printf(
      "\nShape check: every policy faces the identical schedule set, so "
      "the violation percentiles are directly comparable. Every live "
      "policy's percentiles sit far below static's (which never recovers) "
      "and AuTraScale recovers on every schedule — it skips corrupted "
      "Monitor windows and retries failed rescales instead of stalling. "
      "Its tail sits near the best reactive baseline's rather than below "
      "it: the conservative plan-per-window loop trades violation seconds "
      "for fewer, better-sized rescales (see EXPERIMENTS.md).\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int chaos = 0;
  std::string json_path;
  std::string arrival = "constant";
  std::uint64_t arrival_seed = 7;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], chaos) || chaos <= 0) {
        std::fprintf(stderr, "--chaos needs a positive schedule count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--arrival") == 0 && i + 1 < argc) {
      arrival = argv[++i];
    } else if (std::strcmp(argv[i], "--arrival-seed") == 0 && i + 1 < argc &&
               bench::parse_number(argv[i + 1], arrival_seed)) {
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--chaos N] [--json PATH]\n"
                   "          [--arrival constant|mmpp|hawkes|diurnal|"
                   "trace:<path>] [--arrival-seed S]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::JsonReport report("bench_resilience");
  const double horizon =
      chaos > 0 ? (smoke ? 600.0 : 1800.0) : (smoke ? 900.0 : 1800.0);
  const sim::JobSpec spec = workloads::word_count(
      arrival::make_arrival(arrival, 250e3, arrival_seed, horizon));
  if (arrival != "constant") {
    std::printf("arrival=%s arrival-seed=%llu (mean 250k/s)\n",
                arrival.c_str(),
                static_cast<unsigned long long>(arrival_seed));
  }

  if (chaos > 0) {
    run_chaos(chaos, smoke, spec, report);
    if (!json_path.empty()) {
      if (!report.write(json_path)) return 1;
      std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
  }

  const std::vector<std::string> policies =
      smoke ? std::vector<std::string>{"autrascale", "threshold"}
            : fault::resilience_policies();

  run_schedule("machine-crash", horizon, spec, policies, report);
  if (!smoke) {
    run_schedule("metric-chaos", horizon, spec, policies, report);
    run_schedule("degraded-cluster", horizon, spec, policies, report);
  }

  std::printf(
      "\nShape check: under machine-crash every live policy shows exactly "
      "one failure restart and recovers (recov >= 0); AuTraScale "
      "additionally refuses to plan on recovery-contaminated windows. "
      "Under metric-chaos the baselines are unaffected (they sample the "
      "engine directly) while AuTraScale skips the corrupted windows "
      "instead of acting on them. Under degraded-cluster the transient "
      "rescale failures cost the baselines whole intervals; AuTraScale "
      "retries with backoff.\n");

  if (!json_path.empty()) {
    if (!report.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
