// autra_e2e — the end-to-end benchmark of the AuTraScale stack.
//
// Two units of work matter to a user of an autoscaler: one control decision
// (Monitor -> Analyze -> Plan -> Execute) and one simulated second of the
// controlled job. Each workload drives the real stack through its public
// APIs only — AuTraScaleController::prime()/observe_window(), a
// ScalingSession behind an optional FaultInjectingBackend, the simulator's
// TrialService, and GpRegressor::fit()/observe()/predict() — and times it
// from outside. A run holds a fixed number of whole seeded episodes, sized
// from --seconds, and pools their samples, so one run averages over several
// inputs and two builds measured with the same arguments do the same work.
//
//   autra_e2e --workload NAME [--seed N] [--seconds S] [--threads T]
//             [--trace 0|1] [--trace-out PATH] [--pins PATH] [--smoke]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics from
// the span trace (--trace 1). Exit status 1 means an output check or a
// pinned value failed; 2 means bad arguments. README.md defines every
// workload and metric.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arrival/arrival.hpp"
#include "core/controller.hpp"
#include "fault/chaos.hpp"
#include "fault/fault_injecting_backend.hpp"
#include "gp/gp_regressor.hpp"
#include "spans.hpp"
#include "streamsim/job_runner.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace autra;

constexpr const char* kUsage =
    "usage: autra_e2e --workload NAME [--seed N] [--seconds S] [--threads T]\n"
    "                 [--trace 0|1] [--trace-out PATH] [--pins PATH] "
    "[--smoke]\n"
    "workloads: wordcount_mmpp chain8_diurnal gp_window_1024 "
    "wordcount_chaos_1k\n";

// ---------------------------------------------------------------------------
// Arguments

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int threads = 4;
  bool trace = false;
  std::string trace_out;
  std::string pins;
  bool smoke = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "autra_e2e: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage_error(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 3600) usage_error("--seconds must be in [1, 3600]");
      o.seconds = static_cast<double>(s);
    } else if (flag == "--threads") {
      const std::uint64_t t = parse_u64(flag, value);
      if (t < 1 || t > 256) usage_error("--threads must be in [1, 256]");
      o.threads = static_cast<int>(t);
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) usage_error("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--pins") {
      o.pins = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  return o;
}

// ---------------------------------------------------------------------------
// Statistics and hashing

/// Linear interpolation between closest ranks; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// FNV-1a over the bytes of each value fed in.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss would not do: Linux carries it across execve, so a child
/// forked from a larger launcher reports the launcher's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB.
    }
  }
  return 0.0;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(e2e::now_ns() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Host speed
//
// The machines this benchmark runs on share their cores with other tenants,
// and their speed drifts by a third for minutes at a time. Every timing of
// the stack slows with it. A fixed kernel timed just before each episode
// tracks that drift, and the end-to-end times are scaled by it to what the
// reference machine would have measured (README.md, "Host speed").

/// calibrate_ms() on the reference machine at its usual speed: the median
/// over the 180 episodes of two ten-round sets.
constexpr double kReferenceCalibrateMs = 3.0;

/// Median of nine timings of a fixed single-threaded kernel: a
/// multiply-add sweep over 1 MiB, which stays in L2. It uses no code of the
/// stack, so no change to the stack can move it.
double calibrate_ms() {
  constexpr std::size_t kN = 65536;
  std::vector<double> a(kN, 1.0);
  std::vector<double> b(kN, 0.5);
  std::vector<double> ms;
  double acc = 0.0;
  for (int rep = 0; rep < 9; ++rep) {
    const std::int64_t start = e2e::now_ns();
    for (int sweep = 0; sweep < 12; ++sweep) {
      for (std::size_t i = 0; i < kN; ++i) {
        a[i] = a[i] * 0.999999 + b[(i * 7) & (kN - 1)] * 1e-6;
        acc += a[i];
      }
    }
    ms.push_back(static_cast<double>(e2e::now_ns() - start) * 1e-6);
  }
  // Using the sum keeps the compiler from dropping the sweeps.
  if (!std::isfinite(acc)) throw std::runtime_error("calibration overflowed");
  std::nth_element(ms.begin(), ms.begin() + 4, ms.end());
  return ms[4];
}

// ---------------------------------------------------------------------------
// Workloads

/// What one episode measured. Counts are deterministic for a given
/// (workload, seed, size); timings are not.
struct Episode {
  /// kReferenceCalibrateMs / calibrate_ms() just before the episode: its
  /// times times this are what the reference machine would have measured.
  double host_scale = 1.0;
  std::vector<double> setup_s;  ///< One sample per set-up.
  double loop_wall_s = 0.0;
  double probe_s = 0.0;  ///< The bench's own aggregate() probes (traced).
  /// Simulated seconds served and the wall time spent serving them: the
  /// live job's run_for() calls, or one 60 s policy window per model step.
  double sim_sec = 0.0;
  double live_wall_s = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> decision_ms;
  e2e::LiveStats live;  ///< Traced controller episodes only.
  std::vector<std::string> errors;

  // Deterministic outputs.
  std::uint64_t hash = 0;
  int decisions = 0;
  int trial_runs = 0;
  int alg2_decisions = 0;
  core::LoopStats loop;
  int fault_events = 0;
  int failed_rescales = 0;
  double history_points = 0.0;
  int library_models = 0;
  double library_full_fits = 0.0;
  double alloc_mean = 0.0;
  double violation_s = 0.0;
  double latency_ms_mean = 0.0;
  double checksum = 0.0;
  gp::FitStats fit;
};

/// How to run one episode.
struct EpisodeArgs {
  std::uint64_t seed = 1;
  bool smoke = false;
  int threads = 4;
  e2e::SpanLog* log = nullptr;  ///< Null for an untraced episode.
};

struct Workload;
using EpisodeFn = Episode (*)(const Workload&, const EpisodeArgs&);

struct Workload {
  const char* name;
  EpisodeFn episode;
  /// One episode's median wall time on the reference machine (README.md).
  /// A run of S seconds holds round(S / episode_s) whole episodes, at least
  /// one, so the work a run measures depends on S alone, never on how fast
  /// the code runs.
  double episode_s = 1.0;
  // Controller workloads only.
  double horizon_sec = 0.0;
  double smoke_horizon_sec = 0.0;
  double target_latency_ms = 0.0;
  sim::JobSpec (*make_spec)(std::uint64_t seed, double horizon) = nullptr;
  bool chaos = false;
};

/// Set-ups per controller episode, each timed; the objects of the last one
/// run. One set-up takes well under a millisecond, so a single sample would
/// be mostly timer and cache noise.
constexpr int kControllerSetupReps = 25;

sim::JobSpec wordcount_mmpp_spec(std::uint64_t seed, double horizon) {
  return workloads::word_count(
      arrival::make_arrival("mmpp", 220e3, seed, horizon));
}

sim::JobSpec chain8_diurnal_spec(std::uint64_t seed, double horizon) {
  sim::JobSpec spec = workloads::synthetic_chain(
      8, arrival::make_arrival("diurnal", 200e3, seed, horizon), 10.0);
  spec.engine.tick_sec = 0.2;
  return spec;
}

sim::JobSpec wordcount_chaos_spec(std::uint64_t /*seed*/, double /*horizon*/) {
  sim::JobSpec spec =
      workloads::word_count(std::make_shared<sim::ConstantRate>(220e3));
  spec.cluster = sim::uniform_cluster(1024, 32);
  spec.engine.load_epsilon = 1e-3;
  return spec;
}

/// wordcount_chaos_1k's fault timeline: mean events per 300 simulated
/// seconds, and the longest event.
constexpr double kChaosIntensity = 0.5;
constexpr double kChaosMaxEventSec = 600.0;

const std::string kDecideSpan = "decide";
const std::string kQuietSpan = "observe";

/// Folds the decision stream and the final loop counters into one hash.
std::uint64_t decision_hash(const std::vector<core::ControlDecision>& ds,
                            const core::LoopStats& s) {
  Fnv1a h;
  for (const core::ControlDecision& d : ds) {
    h.f64(d.time);
    h.i64(static_cast<std::int64_t>(d.trigger));
    h.str(d.algorithm);
    h.i64(static_cast<std::int64_t>(d.applied.size()));
    for (int k : d.applied) h.i64(k);
    h.i64(d.evaluations);
    h.i64(d.rescale_retries);
    h.i64(d.execute_failed ? 1 : 0);
  }
  for (int v : {s.windows, s.unhealthy_windows, s.failure_restarts,
                s.rescale_retries, s.rescale_aborts, s.lag_drains}) {
    h.i64(v);
  }
  return h.value();
}

/// Resource and QoS outcome read from the job's ground-truth history.
void summarize_history(const runtime::MetricStore& db, double horizon,
                       Episode& ep) {
  namespace mn = runtime::metric_names;
  for (std::uint32_t i = 0; i < db.registry().size(); ++i) {
    ep.history_points +=
        static_cast<double>(db.series(runtime::MetricId(i)).times.size());
  }
  ep.alloc_mean =
      db.mean(db.find(mn::kParallelismTotal), 0.0, horizon).value_or(0.0);
  const runtime::MetricStore::SeriesView lat =
      db.series(db.find(mn::kLatencyMean));
  int n = 0;
  for (double v : lat.values) {
    if (v > 0.0) {
      ep.latency_ms_mean += v * 1000.0;
      ++n;
    }
  }
  if (n > 0) ep.latency_ms_mean /= n;
  const runtime::MetricStore::SeriesView thr =
      db.series(db.find(mn::kThroughput));
  const runtime::MetricStore::SeriesView rate =
      db.series(db.find(mn::kInputRate));
  for (std::size_t i = 0; i < thr.values.size() && i < rate.values.size();
       ++i) {
    if (thr.values[i] < 0.97 * rate.values[i]) ep.violation_s += 1.0;
  }
}

/// Everything one controller episode drives, built as a unit so that
/// set-up can be timed and repeated. It must not move once built: the
/// decorators and the aggregator hold references into it.
struct ControllerRig {
  sim::JobSpec spec;
  std::optional<sim::ScalingSession> session;
  std::optional<fault::FaultInjectingBackend> faulted;
  std::shared_ptr<const runtime::TrialService> trials;
  std::shared_ptr<e2e::TimedTrials> timed_trials;  ///< Traced only.
  std::optional<e2e::TimedBackend> timed;           ///< Traced only.
  std::optional<core::MetricAggregator> probe;      ///< Traced only.
  runtime::StreamingBackend* backend = nullptr;     ///< What the loop drives.
  core::ControllerParams params;
  std::optional<core::AuTraScaleController> controller;
};

std::unique_ptr<ControllerRig> build_rig(const Workload& w,
                                         const EpisodeArgs& args,
                                         double horizon) {
  auto rig = std::make_unique<ControllerRig>();
  // Inputs: the seeded arrival table (open loop: Kafka produces from it
  // whatever the job does) and, for the chaos workload, the fault timeline.
  rig->spec = w.make_spec(args.seed, horizon);
  const sim::JobSpec& spec = rig->spec;
  rig->session.emplace(spec,
                       sim::Parallelism(spec.topology.num_operators(), 1));
  rig->backend = &*rig->session;
  if (w.chaos) {
    fault::ChaosProfile profile =
        fault::ChaosProfile::for_job(spec, horizon, kChaosIntensity);
    // The default caps an event at 12% of the horizon, which over hours
    // overlaps faults until the job is down most of the time.
    profile.max_duration_frac = kChaosMaxEventSec / horizon;
    rig->faulted.emplace(*rig->session,
                         fault::ChaosGenerator(profile).generate(args.seed));
    rig->backend = &*rig->faulted;
  }
  rig->trials = sim::make_trial_service(spec);

  core::ControllerParams& params = rig->params;
  params.steady.target_latency_ms = w.target_latency_ms;
  params.steady.target_throughput = 0.0;  // Track the input rate.
  params.steady.bootstrap_m = 4;
  params.steady.max_evaluations = 24;
  params.steady.threads = args.threads;
  params.policy_interval_sec = 60.0;
  params.policy_running_time_sec = 120.0;
  if (w.chaos) {
    params.resilience.metric_interval_sec = spec.engine.metric_interval_sec;
    params.resilience.failure_cooldown_sec = 60.0;
  }

  if (args.log != nullptr) {
    rig->timed.emplace(*rig->backend, *args.log, &*rig->session);
    rig->backend = &*rig->timed;
    rig->timed_trials =
        std::make_shared<e2e::TimedTrials>(rig->trials, *args.log);
    rig->trials = rig->timed_trials;
    rig->probe.emplace(spec.topology, params.resilience.metric_interval_sec,
                       params.resilience.max_missing_fraction);
  }
  rig->controller.emplace(spec.topology, rig->trials, params);
  rig->controller->prime(*rig->backend);
  return rig;
}

Episode controller_episode(const Workload& w, const EpisodeArgs& args) {
  Episode ep;
  e2e::SpanLog* log = args.log;
  const double horizon = args.smoke ? w.smoke_horizon_sec : w.horizon_sec;
  std::unique_ptr<ControllerRig> rig;
  for (int r = 0; r < kControllerSetupReps; ++r) {
    rig.reset();
    const std::int64_t setup_start = e2e::now_ns();
    rig = build_rig(w, args, horizon);
    ep.setup_s.push_back(seconds_since(setup_start));
  }
  runtime::StreamingBackend& backend = *rig->backend;
  core::AuTraScaleController& controller = *rig->controller;
  const core::ControllerParams& params = rig->params;
  const std::size_t n_ops = rig->spec.topology.num_operators();

  // Closed control loop: one policy window at a time.
  std::vector<core::ControlDecision> decisions;
  const std::int64_t loop_start = e2e::now_ns();
  // Session time is a sum of engine ticks, so it can land a rounding error
  // short of the horizon; a run_for() of that remainder advances nothing
  // (the engine ticks only while now + 1e-12 < target) and a plain
  // `now() < horizon` test would spin forever.
  constexpr double kTimeSlackSec = 1e-6;
  while (backend.now() < horizon - kTimeSlackSec) {
    const e2e::ScopedSpan window(log, "window");
    backend.reset_window();
    const double t0 = backend.now();
    const std::int64_t r0 = e2e::now_ns();
    backend.run_for(std::min(params.policy_interval_sec, horizon - t0));
    ep.live_wall_s += seconds_since(r0);
    ep.sim_sec += backend.now() - t0;
    if (rig->probe) {
      const std::int64_t a = e2e::now_ns();
      core::WindowHealth health;
      core::AggregatedMetrics m;
      {
        const e2e::ScopedSpan span(log, "analyze.aggregate");
        m = rig->probe->aggregate(backend.history(), t0, backend.now(),
                                  &health);
      }
      if (!std::isfinite(m.throughput)) {
        ep.errors.push_back("aggregate() returned a non-finite throughput");
      }
      ep.probe_s += seconds_since(a);
    }
    e2e::ScopedSpan decide(log, kDecideSpan);
    if (rig->timed) rig->timed->set_deciding(true);
    const std::size_t before = decisions.size();
    const std::int64_t d0 = e2e::now_ns();
    ++ep.attempted;
    try {
      controller.observe_window(backend, t0, decisions);
    } catch (const std::exception& e) {
      ++ep.failed;
      std::fprintf(stderr, "autra_e2e: observe_window threw: %s\n", e.what());
    }
    const std::int64_t d1 = e2e::now_ns();
    if (rig->timed) rig->timed->set_deciding(false);
    if (decisions.size() > before) {
      ep.decision_ms.push_back(static_cast<double>(d1 - d0) * 1e-6);
    } else {
      decide.rename(kQuietSpan);
    }
  }
  ep.loop_wall_s = seconds_since(loop_start);
  const double end_time = backend.now();
  if (rig->timed) ep.live = rig->timed->stats();

  // Deterministic outputs and their checks (untimed).
  ep.loop = controller.stats();
  ep.hash = decision_hash(decisions, ep.loop);
  ep.decisions = static_cast<int>(decisions.size());
  const int max_parallelism = rig->trials->max_parallelism();
  double last_time = 0.0;
  for (const core::ControlDecision& d : decisions) {
    ep.trial_runs += d.evaluations;
    if (d.algorithm == "algorithm2") ++ep.alg2_decisions;
    const bool in_range = std::all_of(
        d.applied.begin(), d.applied.end(),
        [&](int k) { return k >= 1 && k <= max_parallelism; });
    if (d.applied.size() != n_ops || !in_range) {
      ep.errors.push_back("decision applies an infeasible configuration");
    }
    if (d.time < last_time || d.time > end_time || d.evaluations < 0) {
      ep.errors.push_back("decision at t=" + std::to_string(d.time) +
                          " is out of order or past the session's end");
    }
    last_time = d.time;
  }
  if (ep.loop.windows != ep.attempted) {
    ep.errors.push_back("LoopStats::windows disagrees with the windows run");
  }
  if (rig->timed_trials && rig->timed_trials->calls() != ep.trial_runs) {
    ep.errors.push_back(
        "trial evaluations seen by the TrialService (" +
        std::to_string(rig->timed_trials->calls()) +
        ") disagree with ControlDecision::evaluations (" +
        std::to_string(ep.trial_runs) + ")");
  }
  if (rig->faulted) {
    ep.fault_events =
        static_cast<int>(rig->faulted->schedule().events().size());
    ep.failed_rescales = rig->faulted->failed_rescales();
  }
  for (const core::BenefitModel& m : controller.library().models()) {
    ++ep.library_models;
    ep.library_full_fits += static_cast<double>(m.gp.fit_stats().full_fits);
  }
  summarize_history(rig->session->history(), horizon, ep);
  return ep;
}

// gp_window_1024: the always-on model step of a long-lived controller.
constexpr std::size_t kGpDims = 4;
constexpr int kGpCandidates = 32;

/// Point `i` of a Weyl low-discrepancy sequence in [1, 20]^4.
void weyl_point(std::uint64_t i, double* x) {
  constexpr double kWeyl[kGpDims] = {0.6180339887498949, 0.4142135623730951,
                                     0.7320508075688772, 0.2360679774997897};
  for (std::size_t j = 0; j < kGpDims; ++j) {
    const double f = static_cast<double>(i) * kWeyl[j];
    x[j] = 1.0 + 19.0 * (f - std::floor(f));
  }
}

double gp_target(const double* x) {
  double s = 1.0;
  for (std::size_t j = 0; j < kGpDims; ++j) {
    const double d = (x[j] - 8.0) / 10.0;
    s -= d * d / static_cast<double>(kGpDims);
  }
  return s;
}

Episode gp_episode(const Workload& /*w*/, const EpisodeArgs& args) {
  Episode ep;
  e2e::SpanLog* log = args.log;
  const std::size_t n = args.smoke ? 128 : 1024;
  const int steps = args.smoke ? 20 : 200;
  // The seed offsets the Weyl index; 2^20 offsets of 2^14 points each keep
  // every index far below where doubles lose the fractional part.
  const std::uint64_t base = 2 + (args.seed % (1u << 20)) * (1u << 14);
  const std::int64_t setup_start = e2e::now_ns();

  // Rows 0 and 1 pin the corners of [1, 20]^4, so the normalisation box the
  // fit freezes covers every later point and observe() never refits.
  linalg::Matrix x(n, kGpDims);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = x.row(i).data();
    if (i < 2) {
      std::fill(row, row + kGpDims, i == 0 ? 1.0 : 20.0);
    } else {
      weyl_point(base + i, row);
    }
    y[i] = gp_target(row);
  }
  gp::GpConfig cfg;
  cfg.optimize_hyperparams = false;
  cfg.length_scale = 0.3;
  cfg.noise_variance = 1e-3;
  cfg.max_observations = static_cast<int>(n);
  cfg.threads = args.threads;
  gp::GpRegressor model(cfg);
  model.fit(x, y);
  ep.setup_s.push_back(seconds_since(setup_start));

  const std::uint64_t next_point = base + n;
  const std::uint64_t first_candidate = next_point + steps;
  double last_x[kGpDims] = {};
  const std::int64_t loop_start = e2e::now_ns();
  for (int step = 0; step < steps; ++step) {
    const e2e::ScopedSpan window(log, "window");
    const std::int64_t t0 = e2e::now_ns();
    ++ep.attempted;
    try {
      weyl_point(next_point + static_cast<std::uint64_t>(step), last_x);
      {
        const e2e::ScopedSpan span(log, "gp.observe");
        model.observe(last_x, gp_target(last_x));
      }
      const e2e::ScopedSpan span(log, "gp.predict");
      for (int c = 0; c < kGpCandidates; ++c) {
        double cand[kGpDims];
        weyl_point(first_candidate +
                       static_cast<std::uint64_t>(step * kGpCandidates + c),
                   cand);
        const gp::Prediction p = model.predict(cand);
        if (!std::isfinite(p.mean) || !(p.variance >= 0.0)) {
          ep.errors.push_back("predict() returned a non-finite posterior");
        }
        ep.checksum += p.mean + p.variance;
      }
    } catch (const std::exception& e) {
      ++ep.failed;
      std::fprintf(stderr, "autra_e2e: model step threw: %s\n", e.what());
    }
    ep.decision_ms.push_back(static_cast<double>(e2e::now_ns() - t0) * 1e-6);
  }
  ep.loop_wall_s = seconds_since(loop_start);
  ep.live_wall_s = ep.loop_wall_s;
  ep.sim_sec = 60.0 * steps;  // One model step per 60 s policy window.

  ep.fit = model.fit_stats();
  gp::FitStats expected;
  expected.full_fits = 1;
  expected.incremental_updates = static_cast<std::uint64_t>(steps);
  expected.window_evictions = static_cast<std::uint64_t>(steps);
  if (ep.fit != expected) {
    ep.errors.push_back("FitStats left the incremental path");
  }
  // The posterior must still interpolate the newest observation.
  if (std::abs(model.predict(last_x).mean - gp_target(last_x)) > 0.05) {
    ep.errors.push_back("posterior mean misses the newest observation");
  }
  return ep;
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kWorkloads = {
      {.name = "wordcount_mmpp",
       .episode = controller_episode,
       .episode_s = 3.6,
       .horizon_sec = 7200.0,
       .smoke_horizon_sec = 900.0,
       .target_latency_ms = 200.0,
       .make_spec = wordcount_mmpp_spec},
      {.name = "chain8_diurnal",
       .episode = controller_episode,
       .episode_s = 6.9,
       .horizon_sec = 3600.0,
       .smoke_horizon_sec = 600.0,
       .target_latency_ms = 60.0,
       .make_spec = chain8_diurnal_spec},
      {.name = "gp_window_1024", .episode = gp_episode, .episode_s = 5.6},
      {.name = "wordcount_chaos_1k",
       .episode = controller_episode,
       .episode_s = 6.6,
       .horizon_sec = 43200.0,
       .smoke_horizon_sec = 3600.0,
       .target_latency_ms = 400.0,
       .make_spec = wordcount_chaos_spec,
       .chaos = true},
  };
  return kWorkloads;
}

/// Seed of episode `k` of a run; episode 0 runs the run's own seed.
std::uint64_t episode_seed(std::uint64_t seed, int k) {
  return seed + 1000003ull * static_cast<std::uint64_t>(k);
}

// ---------------------------------------------------------------------------
// Pinned outputs

/// The deterministic outputs of an episode that the pin file can hold.
std::vector<std::pair<std::string, std::string>> pin_values(
    const Workload& w, const Episode& ep) {
  char buf[64];
  if (w.episode == gp_episode) {
    std::snprintf(buf, sizeof buf, "%.17g", ep.checksum);
    return {{"checksum", buf},
            {"fit_stats", std::to_string(ep.fit.full_fits) + "/" +
                              std::to_string(ep.fit.incremental_updates) +
                              "/" + std::to_string(ep.fit.window_evictions)}};
  }
  std::snprintf(buf, sizeof buf, "%016" PRIx64, ep.hash);
  return {{"hash", buf},
          {"decisions", std::to_string(ep.decisions)},
          {"trial_runs", std::to_string(ep.trial_runs)}};
}

/// Checks episode-0 outputs against `path` (lines of
/// "workload size seed key value"; '#' starts a comment). Returns the
/// mismatches; an unreadable file is a usage error.
std::vector<std::string> check_pins(const std::string& path,
                                    const Workload& w, const Options& o,
                                    const Episode& ep) {
  std::ifstream in(path);
  if (!in) usage_error("cannot read pin file " + path);
  const std::string size = o.smoke ? "smoke" : "full";
  const auto actual = pin_values(w, ep);
  std::vector<std::string> errors;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, pin_size, key, value;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> pin_size >> seed >> key >> value)) {
      usage_error("malformed pin line: " + line);
    }
    if (workload != w.name || pin_size != size || seed != o.seed) continue;
    const auto it =
        std::find_if(actual.begin(), actual.end(),
                     [&](const auto& kv) { return kv.first == key; });
    if (it == actual.end()) usage_error("unknown pin key: " + key);
    bool ok = it->second == value;
    if (key == "checksum") {
      const double want = std::strtod(value.c_str(), nullptr);
      const double got = std::strtod(it->second.c_str(), nullptr);
      ok = std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
    }
    if (!ok) {
      errors.push_back("pin " + key + " expected " + value + ", got " +
                       it->second);
    }
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics, each episode's times scaled by its host_scale,
/// or left as measured when `scaled` is false.
std::vector<Metric> end_to_end_metrics(const std::vector<Episode>& eps,
                                       bool scaled) {
  std::vector<double> decision_ms;
  std::vector<double> setup_s;
  double sim_sec = 0.0;
  double wall = 0.0;
  for (const Episode& ep : eps) {
    const double k = scaled ? ep.host_scale : 1.0;
    for (double v : ep.decision_ms) decision_ms.push_back(v * k);
    for (double v : ep.setup_s) setup_s.push_back(v * k);
    sim_sec += ep.sim_sec;
    wall += ep.live_wall_s * k;
  }
  return {
      {"decision_ms_p50", percentile(decision_ms, 0.5), "ms"},
      {"decision_ms_p90", percentile(decision_ms, 0.9), "ms"},
      {"sim_s_per_wall_s", wall > 0.0 ? sim_sec / wall : 0.0, "s/s"},
      {"setup_s", percentile(setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Length of the union of [start, end) intervals.
double cover_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  for (const auto& [s, e] : iv) {
    if (s > cur_end) {
      if (cur_end > cur_start) total += static_cast<double>(cur_end - cur_start);
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += static_cast<double>(cur_end - cur_start);
  return total;
}

/// Per-layer metrics from the span trace of the traced episodes `eps`;
/// `ref` is the untraced run of episode 0 (the tracing-overhead baseline).
std::vector<Metric> layer_metrics(const e2e::SpanLog& log,
                                  const std::vector<Episode>& eps,
                                  const Episode& ref,
                                  std::vector<std::string>& errors) {
  const std::vector<e2e::Span>& spans = log.spans();
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  constexpr double kNs = 1e-9;
  double window_ns = 0.0;
  double live_ns = 0.0;
  double trial_busy_ns = 0.0;
  double trial_cover_ns = 0.0;
  double plan_self_ns = 0.0;
  std::vector<double> trial_ms, plan_self_ms, execute_ms, quiet_us,
      aggregate_us, observe_us, predict_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const e2e::Span& s = spans[i];
    const auto dur = static_cast<double>(s.duration_ns());
    if (s.name == "window") window_ns += dur;
    if (s.name == "monitor.run_for" || s.name == "execute.backoff") {
      live_ns += dur;
    }
    if (s.name == "execute") execute_ms.push_back(dur * 1e-6);
    if (s.name == "observe") quiet_us.push_back(dur * 1e-3);
    if (s.name == "analyze.aggregate") aggregate_us.push_back(dur * 1e-3);
    if (s.name == "gp.observe") observe_us.push_back(dur * 1e-3);
    if (s.name == "gp.predict") predict_us.push_back(dur * 1e-3 / kGpCandidates);
    if (s.name == "trial") {
      trial_ms.push_back(dur * 1e-6);
      const bool in_decide =
          s.parent >= 0 &&
          spans[static_cast<std::size_t>(s.parent)].name == kDecideSpan;
      if (!in_decide) errors.push_back("a trial ran outside a decide span");
    }
    if (s.name != kDecideSpan) continue;
    // A decide span splits into trial cover + Execute + Plan self time.
    std::vector<std::pair<std::int64_t, std::int64_t>> trial_iv;
    double busy = 0.0;
    double execute = 0.0;
    for (std::size_t c : children[i]) {
      const e2e::Span& child = spans[c];
      if (child.name == "trial") {
        trial_iv.emplace_back(child.start_ns, child.end_ns);
        busy += static_cast<double>(child.duration_ns());
      } else {
        execute += static_cast<double>(child.duration_ns());
      }
    }
    const double cover = cover_ns(std::move(trial_iv));
    const double self = dur - cover - execute;
    if (self < -1e3) errors.push_back("decide span children exceed it");
    trial_busy_ns += busy;
    trial_cover_ns += cover;
    plan_self_ns += self;
    plan_self_ms.push_back(self * 1e-6);
  }

  double loop_ns = 0.0;
  double probe_s = 0.0;
  double sim_sec = 0.0;
  e2e::LiveStats live;
  std::vector<double> calibrate;
  for (const Episode& ep : eps) {
    calibrate.push_back(kReferenceCalibrateMs / ep.host_scale);
    loop_ns += ep.loop_wall_s * 1e9;
    probe_s += ep.probe_s;
    sim_sec += ep.sim_sec;
    live.ticks += ep.live.ticks;
    live.operators_touched += ep.live.operators_touched;
    live.full_refreshes += ep.live.full_refreshes;
    live.sim_sec += ep.live.sim_sec;
  }
  const double coverage = loop_ns > 0.0 ? window_ns / loop_ns : 0.0;
  if (std::abs(coverage - 1.0) > 0.02) {
    errors.push_back("window spans cover " + std::to_string(coverage) +
                     " of the loop wall time (must be within 2%)");
  }
  const Episode& e0 = eps.front();
  const double overhead_pct =
      ref.loop_wall_s > 0.0
          ? 100.0 * ((e0.loop_wall_s - e0.probe_s) / ref.loop_wall_s - 1.0)
          : 0.0;
  const double loop_s = loop_ns * kNs - probe_s;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto count = [](auto v) { return static_cast<double>(v); };
  return {
      {"streamsim.live_s", live_ns * kNs, "s"},
      {"streamsim.live_ns_per_sim_s", ratio(live_ns, live.sim_sec), "ns/s"},
      {"streamsim.ops_touched_per_tick",
       ratio(count(live.operators_touched), count(live.ticks)), "count"},
      {"streamsim.full_refreshes", count(live.full_refreshes), "count"},
      {"trial.count", count(trial_ms.size()), "count"},
      {"trial.ms_p50", percentile(trial_ms, 0.5), "ms"},
      {"trial.ms_p90", percentile(trial_ms, 0.9), "ms"},
      {"trial.busy_s", trial_busy_ns * kNs, "s"},
      {"exec.trial_concurrency", ratio(trial_busy_ns, trial_cover_ns), "ratio"},
      {"core.plan_self_ms_p50", percentile(plan_self_ms, 0.5), "ms"},
      {"core.plan_self_s", plan_self_ns * kNs, "s"},
      {"core.execute_ms_p50", percentile(execute_ms, 0.5), "ms"},
      {"core.quiet_window_us_p50", percentile(quiet_us, 0.5), "us"},
      {"core.decisions", count(e0.decisions), "count"},
      {"core.trial_runs", count(e0.trial_runs), "count"},
      {"core.evals_per_decision", ratio(e0.trial_runs, e0.decisions), "count"},
      {"core.alg2_share", ratio(e0.alg2_decisions, e0.decisions), "ratio"},
      {"runtime.aggregate_us_p50", percentile(aggregate_us, 0.5), "us"},
      {"runtime.history_points", e0.history_points, "count"},
      {"gp.observe_us_p50", percentile(observe_us, 0.5), "us"},
      {"gp.observe_us_p90", percentile(observe_us, 0.9), "us"},
      {"gp.predict_us_p50", percentile(predict_us, 0.5), "us"},
      {"gp.full_fits", count(e0.fit.full_fits), "count"},
      {"gp.incremental_updates", count(e0.fit.incremental_updates), "count"},
      {"gp.window_evictions", count(e0.fit.window_evictions), "count"},
      {"gp.library_models", count(e0.library_models), "count"},
      {"gp.library_full_fits", e0.library_full_fits, "count"},
      {"fault.events", count(e0.fault_events), "count"},
      {"fault.failed_rescales", count(e0.failed_rescales), "count"},
      {"loop.unhealthy_windows", count(e0.loop.unhealthy_windows), "count"},
      {"loop.failure_restarts", count(e0.loop.failure_restarts), "count"},
      {"loop.rescale_retries", count(e0.loop.rescale_retries), "count"},
      {"loop.sim_s_per_wall_s", ratio(sim_sec, loop_s), "s/s"},
      {"loop.window_coverage", coverage, "ratio"},
      {"qos.alloc_mean", e0.alloc_mean, "units"},
      {"qos.violation_s", e0.violation_s, "s"},
      {"qos.latency_ms_mean", e0.latency_ms_mean, "ms"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"trace.spans", count(spans.size()), "count"},
      {"host.calibrate_ms", percentile(calibrate, 0.5), "ms"},
  };
}

// ---------------------------------------------------------------------------
// Driver

int run(const Workload& w, const Options& o) {
  e2e::SpanLog log;
  e2e::SpanLog* traced = o.trace ? &log : nullptr;
  std::vector<Episode> eps;
  Episode ref;
  if (o.smoke) {
    eps.push_back(w.episode(w, {.seed = o.seed,
                                .smoke = true,
                                .threads = o.threads,
                                .log = traced}));
    if (o.trace) ref = eps.front();
  } else {
    if (o.trace) ref = w.episode(w, {.seed = o.seed, .threads = o.threads});
    const int episodes =
        std::max(1, static_cast<int>(std::lround(o.seconds / w.episode_s)));
    for (int k = 0; k < episodes; ++k) {
      const double calibrate = calibrate_ms();
      eps.push_back(w.episode(w, {.seed = episode_seed(o.seed, k),
                                  .threads = o.threads,
                                  .log = traced}));
      Episode& ep = eps.back();
      ep.host_scale = kReferenceCalibrateMs / calibrate;
      std::fprintf(stderr,
                   "episode %d: calibrate %.3f ms, setup %.6f s, loop %.3f s, "
                   "%zu decisions, decision p50 %.3f ms\n",
                   k, calibrate, percentile(ep.setup_s, 0.5), ep.loop_wall_s,
                   ep.decision_ms.size(), percentile(ep.decision_ms, 0.5));
    }
  }

  std::vector<std::string> errors;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Episode& ep : eps) {
    errors.insert(errors.end(), ep.errors.begin(), ep.errors.end());
    attempted += ep.attempted;
    failed += ep.failed;
  }
  errors.insert(errors.end(), ref.errors.begin(), ref.errors.end());
  const Episode& e0 = eps.front();
  if (o.trace && pin_values(w, ref) != pin_values(w, e0)) {
    errors.push_back("tracing changed the decisions of episode 0");
  }
  for (const auto& [key, value] : pin_values(w, e0)) {
    std::fprintf(stderr, "pin: %s %s %llu %s %s\n", w.name,
                 o.smoke ? "smoke" : "full",
                 static_cast<unsigned long long>(o.seed), key.c_str(),
                 value.c_str());
  }
  if (!o.pins.empty()) {
    const std::vector<std::string> pin_errors = check_pins(o.pins, w, o, e0);
    errors.insert(errors.end(), pin_errors.begin(), pin_errors.end());
  }

  const std::vector<Metric> metrics = o.trace
                                          ? layer_metrics(log, eps, ref, errors)
                                          : end_to_end_metrics(eps, true);
  if (o.trace && !o.trace_out.empty() && !log.write_jsonl(o.trace_out)) {
    errors.push_back("cannot write " + o.trace_out);
  }

  std::size_t samples = 0;
  for (const Episode& ep : eps) samples += ep.decision_ms.size();
  std::printf("%s seed=%llu threads=%d episodes=%zu decisions=%zu %s\n",
              w.name, static_cast<unsigned long long>(o.seed), o.threads,
              eps.size(), samples,
              o.trace ? "(traced: per-layer metrics)"
                      : "(end-to-end metrics; scaled, as measured)");
  const std::vector<Metric> unscaled =
      o.trace ? std::vector<Metric>{} : end_to_end_metrics(eps, false);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("  %-32s %16.6g", m.name.c_str(), m.value);
    if (i < unscaled.size()) std::printf(" %16.6g", unscaled[i].value);
    std::printf(" %s\n", m.unit.c_str());
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "autra_e2e: CHECK FAILED: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  const auto& ws = all_workloads();
  const auto it = std::find_if(ws.begin(), ws.end(), [&](const Workload& w) {
    return o.workload == w.name;
  });
  if (it == ws.end()) usage_error("unknown workload " + o.workload);
  try {
    return run(*it, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "autra_e2e: %s\n", e.what());
    return 1;
  }
}
