// Controller QoS under generative arrival processes: policy x arrival x
// DAG sweep over the src/arrival/ processes (constant as the control,
// MMPP regime shifts, Hawkes burst storms, compressed diurnal cycles)
// and the three production DAGs (stream-stream join, sessionization,
// fan-in aggregation tree), measured through the resilience harness
// with an *empty* fault schedule — all pressure comes from the input.
//
// Everything here is a deterministic simulation (fixed seeds, no
// wall-clock metrics), so the committed BENCH_arrival.json baseline can
// be compared at zero noise budget. --smoke runs a 4-row subset at the
// same horizon, so its rows are value-identical to the corresponding
// rows of the full baseline (tools/bench_compare --subset gates it in
// CI).
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "arrival/arrival.hpp"
#include "bench_util.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/resilience.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

constexpr double kHorizonSec = 900.0;
constexpr std::uint64_t kArrivalSeed = 7;

struct Dag {
  const char* name;
  double mean_rate;
  sim::JobSpec (*make)(std::shared_ptr<const sim::RateSchedule>);
};

constexpr Dag kDags[] = {
    {"join", 150e3, workloads::stream_stream_join},
    {"session", 150e3, workloads::sessionization},
    {"fanin", 200e3, workloads::fanin_tree},
};

void run_cell(const Dag& dag, const std::string& arrival,
              const std::string& policy, bench::JsonReport& report) {
  const sim::JobSpec spec = dag.make(arrival::make_arrival(
      arrival, dag.mean_rate, kArrivalSeed, kHorizonSec));
  fault::ResilienceOptions opt;
  opt.horizon_sec = kHorizonSec;
  const fault::ResilienceReport r =
      fault::run_resilience(policy, spec, fault::FaultSchedule(), opt);
  std::printf("%-8s %-8s %-11s %9.0f %9.0f %9.0f %10.0f %5d %5d\n", dag.name,
              arrival.c_str(), policy.c_str(), r.mean_input_rate,
              r.mean_throughput, r.violation_sec, r.max_lag / 1e3, r.restarts,
              r.decisions);
  report.row()
      .str("workload", dag.name)
      .str("arrival", arrival)
      .str("policy", policy)
      .num("mean_input_rate", r.mean_input_rate)
      .num("mean_throughput", r.mean_throughput)
      .num("violation_sec", r.violation_sec)
      .num("max_lag", r.max_lag)
      .num("end_lag", r.end_lag)
      .num("restarts", r.restarts)
      .num("decisions", r.decisions);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  if (!bench::Args()
           .flag("--smoke", smoke)
           .text("--json", "PATH", json_path)
           .parse(argc, argv)) {
    return 2;
  }

  const std::vector<std::string> arrivals =
      smoke ? std::vector<std::string>{"mmpp", "hawkes"}
            : std::vector<std::string>{"constant", "mmpp", "hawkes",
                                       "diurnal"};
  const std::vector<std::string> policies =
      smoke ? std::vector<std::string>{"autrascale", "threshold"}
            : std::vector<std::string>{"autrascale", "threshold", "static"};

  char title[128];
  std::snprintf(title, sizeof(title),
                "arrival sweep — %zu DAGs x %zu arrivals x %zu policies, "
                "horizon %.0fs, arrival seed %llu",
                smoke ? std::size_t{1} : std::size(kDags), arrivals.size(),
                policies.size(), kHorizonSec,
                static_cast<unsigned long long>(kArrivalSeed));
  bench::header(title);
  std::printf("%-8s %-8s %-11s %9s %9s %9s %10s %5s %5s\n", "dag", "arrival",
              "policy", "in [/s]", "thr [/s]", "viol [s]", "maxlag[k]", "rst",
              "dec");

  bench::JsonReport report("bench_arrival");
  for (const Dag& dag : kDags) {
    for (const std::string& arrival : arrivals) {
      for (const std::string& policy : policies) {
        run_cell(dag, arrival, policy, report);
      }
    }
    if (smoke) break;  // smoke: first DAG only, a subset of the full grid
  }

  std::printf(
      "\nShape check: each DAG's 'constant' rows are its control. fanin is "
      "easy — every policy near zero violations. join separates adaptation "
      "speed: autrascale converges in ~2 decisions, threshold pays a "
      "restart per fixed step, static drowns. The skewed sessionization "
      "window breaks uniform-key capacity models outright — only "
      "autrascale tracks the input at all. Every generative process then "
      "pushes violations above the constant control row, Hawkes storms "
      "hardest. mean_input_rate is the one sampled path's mean, so it "
      "sits above the calibrated mean when a storm lands in-horizon.\n");

  if (!json_path.empty()) {
    if (!report.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
