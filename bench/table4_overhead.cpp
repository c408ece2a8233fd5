// Reproduces paper Table IV: CPU-time overhead of the AuTraScale
// algorithms as a function of the number of operators in the DAG
// (2, 4, 6, 8, 10).
//
//   Alg1_train — fitting the GP benefit model on a bootstrap-sized sample
//                set and recommending a configuration (paper: 42-88 ms).
//   Alg1_use   — a single model-driven recommendation from an existing
//                sample set (paper: < 1 ms).
//   Alg2       — one transfer-learning step: residual fit + estimated
//                bootstrap scores + recommendation (paper: 67-116 ms).
//
// Absolute times depend on hardware; the paper's shape to check is
// near-linear growth with the operator count, all far below the policy
// interval.
//
// The incremental-GP section (--smoke / --json, DESIGN.md §14) measures
// the always-on Plan path instead: a full O(n^3) refit vs the O(n^2)
// GpRegressor::observe() factor extension at n in {64, 256, 1024}, with a
// posterior-parity check (incremental vs from-scratch <= 1e-9) whose
// verdict — together with the FitStats counters — is the deterministic,
// bench_compare-gated part of the committed BENCH_overhead.json; the
// timing columns carry noise and are skipped by the CI gate.
//
// The prediction section (same flags) measures the batched posterior: 32
// candidates predicted one by one with predict() vs as one predict_batch()
// block, at n in {64, 256, 1024} ({64, 256} under --smoke). Its rows carry
// "section": "predict"; the gated column is `identical` (1 when every mean
// and variance is bit-equal), the timings are skipped like the others.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/bootstrap.hpp"
#include "core/steady_rate.hpp"
#include "core/transfer.hpp"

namespace {

using namespace autra;

// Synthetic benefit surface: smooth, concave, rate-shifted.
double synthetic_score(const runtime::Parallelism& config, double shift) {
  double s = 1.0;
  for (int k : config) {
    const double d = (k - 6.0 - shift) / 10.0;
    s -= d * d / static_cast<double>(config.size());
  }
  return s;
}

std::vector<core::SamplePoint> make_samples(std::size_t n_ops, double shift,
                                            std::uint64_t seed) {
  const runtime::Parallelism base(n_ops, 2);
  std::vector<core::SamplePoint> samples;
  for (const runtime::Parallelism& c : core::bootstrap_samples(base, 20, 6)) {
    core::SamplePoint s;
    s.config = c;
    s.score = synthetic_score(c, shift);
    runtime::JobMetrics m;
    m.parallelism = c;
    m.latency_ms = 1000.0 * (1.1 - s.score);
    m.throughput = 1000.0;
    m.input_rate = 1000.0;
    s.metrics = std::move(m);
    samples.push_back(std::move(s));
  }
  // A few extra BO-style samples for realism.
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(2, 20);
  for (int extra = 0; extra < 6; ++extra) {
    core::SamplePoint s;
    s.config.resize(n_ops);
    for (int& k : s.config) k = dist(rng);
    s.score = synthetic_score(s.config, shift);
    samples.push_back(std::move(s));
  }
  return samples;
}

core::SteadyRateParams params_for(std::size_t n_ops) {
  core::SteadyRateParams p;
  p.target_latency_ms = 100.0;
  p.target_throughput = 1000.0;
  p.max_parallelism = 20;
  p.seed = 7 + n_ops;
  return p;
}

void Alg1Train(benchmark::State& state) {
  const auto n_ops = static_cast<std::size_t>(state.range(0));
  const auto samples = make_samples(n_ops, 0.0, 11);
  const runtime::Parallelism base(n_ops, 2);
  const auto params = params_for(n_ops);
  for (auto _ : state) {
    // Fit + recommend, the per-iteration planning cost of Algorithm 1.
    core::BenefitModel model;
    model.rate = 1000.0;
    model.base = base;
    model.samples = samples;
    model.fit();
    benchmark::DoNotOptimize(
        core::recommend_next(samples, base, params));
  }
}

void Alg1Use(benchmark::State& state) {
  const auto n_ops = static_cast<std::size_t>(state.range(0));
  const auto samples = make_samples(n_ops, 0.0, 13);
  const runtime::Parallelism base(n_ops, 2);
  core::BenefitModel model;
  model.rate = 1000.0;
  model.base = base;
  model.samples = samples;
  model.fit();
  for (auto _ : state) {
    // A single posterior query of the already-trained model.
    benchmark::DoNotOptimize(model.predict_mean(base));
  }
}

void Alg2Step(benchmark::State& state) {
  const auto n_ops = static_cast<std::size_t>(state.range(0));
  const runtime::Parallelism base(n_ops, 2);
  const auto params = params_for(n_ops);

  core::BenefitModel prior;
  prior.rate = 800.0;
  prior.base = base;
  prior.samples = make_samples(n_ops, -1.0, 17);
  prior.fit();

  const auto real = make_samples(n_ops, 0.5, 19);
  const std::vector<core::SamplePoint> few(real.begin(),
                                           real.begin() + 4);

  for (auto _ : state) {
    // One outer iteration of Algorithm 2: residual fit, estimated
    // bootstrap scores, one recommendation.
    std::vector<core::SamplePoint> residual = few;
    for (core::SamplePoint& s : residual) {
      s.score -= prior.predict_mean(s.config);
    }
    core::BenefitModel res;
    res.samples = std::move(residual);
    res.fit();

    std::vector<core::SamplePoint> dataset = few;
    for (const runtime::Parallelism& x :
         core::bootstrap_samples(base, 20, 6)) {
      core::SamplePoint est;
      est.config = x;
      est.score = prior.predict_mean(x) + res.predict_mean(x);
      dataset.push_back(std::move(est));
    }
    benchmark::DoNotOptimize(
        core::recommend_next(dataset, base, params));
  }
}

BENCHMARK(Alg1Train)->DenseRange(2, 10, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(Alg1Use)->DenseRange(2, 10, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK(Alg2Step)->DenseRange(2, 10, 2)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Incremental-GP section: full refit vs cached-factor observe().

constexpr std::size_t kGpDims = 4;

/// Deterministic in-box data: rows 0 and 1 pin the exact corners of
/// [1, 20]^d (so the normalisation box frozen by any >= 2-point prefix fit
/// covers every later point), the rest is a Weyl low-discrepancy fill. No
/// RNG, no clock — the parity verdict must be reproducible bit-for-bit.
void gp_point(std::size_t i, double* x) {
  constexpr double kWeyl[kGpDims] = {0.6180339887498949, 0.4142135623730951,
                                     0.7320508075688772, 0.2360679774997897};
  for (std::size_t j = 0; j < kGpDims; ++j) {
    if (i == 0) {
      x[j] = 1.0;
    } else if (i == 1) {
      x[j] = 20.0;
    } else {
      const double f = static_cast<double>(i) * kWeyl[j];
      x[j] = 1.0 + 19.0 * (f - std::floor(f));
    }
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

gp::GpConfig incremental_gp_config() {
  gp::GpConfig cfg;
  // Frozen hyper-parameters: the section measures the factor paths, not
  // the grid search, and observe() keeps them frozen anyway.
  cfg.optimize_hyperparams = false;
  cfg.length_scale = 0.3;
  cfg.noise_variance = 1e-3;
  return cfg;
}

std::vector<std::size_t> section_sizes(bool smoke) {
  return smoke ? std::vector<std::size_t>{64, 256}
               : std::vector<std::size_t>{64, 256, 1024};
}

void run_incremental_section(bool smoke, bench::JsonReport& report) {
  bench::header(
      "incremental GP — O(n^2) observe() vs O(n^3) refit (DESIGN.md §14)");
  std::printf("%8s %4s %12s %12s %9s %8s %7s\n", "n", "d", "refit [ms]",
              "observe[us]", "speedup", "parity", "inc/full");

  const std::vector<std::size_t> grid = section_sizes(smoke);

  for (const std::size_t n : grid) {
    linalg::Matrix x(n, kGpDims);
    linalg::Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
      gp_point(i, x.row(i).data());
      y[i] = gp_target(x.row(i).data());
    }

    // Full-refit cost at n (the legacy per-round Plan cost).
    gp::GpRegressor full(incremental_gp_config());
    const auto t0 = std::chrono::steady_clock::now();
    full.fit(x, y);
    const double refit_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

    // Parity: fit on the first half, observe() the rest, and compare the
    // posterior against the from-scratch fit at a probe grid.
    gp::GpRegressor inc(incremental_gp_config());
    const std::size_t n_seed = n / 2;
    linalg::Matrix x_seed(n_seed, kGpDims);
    linalg::Vector y_seed(n_seed);
    for (std::size_t i = 0; i < n_seed; ++i) {
      for (std::size_t j = 0; j < kGpDims; ++j) x_seed(i, j) = x(i, j);
      y_seed[i] = y[i];
    }
    inc.fit(x_seed, y_seed);
    for (std::size_t i = n_seed; i < n; ++i) inc.observe(x.row(i), y[i]);

    double max_diff = 0.0;
    for (std::size_t p = 0; p < 64; ++p) {
      double probe[kGpDims];
      gp_point(2 + p * 7, probe);
      const gp::Prediction a = full.predict(probe);
      const gp::Prediction b = inc.predict(probe);
      max_diff = std::max(max_diff, std::abs(a.mean - b.mean));
      max_diff = std::max(max_diff, std::abs(a.variance - b.variance));
    }
    const bool parity_ok = max_diff <= 1e-9;
    const gp::FitStats& stats = inc.fit_stats();

    // Steady-state observe() cost at window size n: a windowed model full
    // at n pays one eviction + one extension per observation.
    gp::GpConfig windowed = incremental_gp_config();
    windowed.max_observations = static_cast<int>(n);
    gp::GpRegressor window(windowed);
    window.fit(x, y);
    constexpr int kReps = 32;
    const auto t1 = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) {
      double nx[kGpDims];
      gp_point(n + static_cast<std::size_t>(r) + 2, nx);
      window.observe(nx, gp_target(nx));
    }
    const double observe_us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - t1)
                                  .count() /
                              kReps;
    const double speedup =
        observe_us > 0.0 ? refit_ms * 1000.0 / observe_us : 0.0;

    std::printf("%8zu %4zu %12.2f %12.1f %8.1fx %8s %4llu/%llu\n", n, kGpDims,
                refit_ms, observe_us, speedup, parity_ok ? "ok" : "FAIL",
                static_cast<unsigned long long>(stats.incremental_updates),
                static_cast<unsigned long long>(stats.full_fits));

    report.row()
        .num("n", static_cast<double>(n))
        .num("d", static_cast<double>(kGpDims))
        .num("incremental_updates",
             static_cast<double>(stats.incremental_updates))
        .num("full_fits", static_cast<double>(stats.full_fits))
        .num("parity_ok", parity_ok ? 1.0 : 0.0)
        .num("refit_ms", refit_ms)
        .num("observe_us", observe_us)
        .num("speedup", speedup);
  }

  std::printf(
      "\nShape check: observe() stays microsecond-range while the refit "
      "grows O(n^3) — >= 10x at n = 1024 — and the incremental posterior "
      "matches the from-scratch fit to <= 1e-9.\n");
}

void run_prediction_section(bool smoke, bench::JsonReport& report) {
  bench::header(
      "batched posterior — predict() per point vs predict_batch() "
      "(DESIGN.md §14)");
  std::printf("%8s %6s %10s %10s %9s %10s\n", "n", "cands", "point[us]",
              "batch[us]", "speedup", "identical");
  constexpr std::size_t kCandidates = 32;
  using Clock = std::chrono::steady_clock;

  for (const std::size_t n : section_sizes(smoke)) {
    linalg::Matrix x(n, kGpDims);
    linalg::Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
      gp_point(i, x.row(i).data());
      y[i] = gp_target(x.row(i).data());
    }
    gp::GpRegressor model(incremental_gp_config());
    model.fit(x, y);
    std::vector<double> cands(kCandidates * kGpDims);
    for (std::size_t c = 0; c < kCandidates; ++c) {
      gp_point(n + 2 + c, &cands[c * kGpDims]);
    }

    // Same candidates both ways; every result must be bit-equal.
    std::vector<gp::Prediction> batch(kCandidates);
    gp::PredictWorkspace ws;
    model.predict_batch(cands, batch, ws);
    bool identical = true;
    for (std::size_t c = 0; c < kCandidates; ++c) {
      const gp::Prediction p =
          model.predict(std::span(cands).subspan(c * kGpDims, kGpDims));
      identical = identical && p.mean == batch[c].mean &&
                  p.variance == batch[c].variance;
    }

    // About 4M factor entries read per timing, at least 3 repetitions.
    const std::size_t reps = std::max<std::size_t>(3, (1u << 22) / (n * n));
    double sink = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t c = 0; c < kCandidates; ++c) {
        sink += model.predict(std::span(cands).subspan(c * kGpDims, kGpDims))
                    .mean;
      }
    }
    const auto t1 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      model.predict_batch(cands, batch, ws);
      sink += batch[0].mean;
    }
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(sink);
    const double per_call = static_cast<double>(reps * kCandidates);
    const double point_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / per_call;
    const double batch_us =
        std::chrono::duration<double, std::micro>(t2 - t1).count() / per_call;
    const double speedup = batch_us > 0.0 ? point_us / batch_us : 0.0;

    std::printf("%8zu %6zu %10.2f %10.2f %8.2fx %10s\n", n, kCandidates,
                point_us, batch_us, speedup, identical ? "yes" : "NO");
    report.row()
        .str("section", "predict")
        .num("n", static_cast<double>(n))
        .num("candidates", static_cast<double>(kCandidates))
        .num("identical", identical ? 1.0 : 0.0)
        .num("point_us", point_us)
        .num("batch_us", batch_us)
        .num("speedup", speedup);
  }

  std::printf(
      "\nShape check: predict_batch() returns bit-identical posteriors and "
      "costs less per candidate than predict() at every n.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool flags = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = flags = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
      flags = true;
    }
  }

  if (!flags) {
    // Plain invocation: the google-benchmark Table IV rows, then the full
    // incremental section (this is what regenerates BENCH_overhead.json
    // when combined with --json).
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  bench::JsonReport report("table4_overhead");
  run_incremental_section(smoke, report);
  run_prediction_section(smoke, report);
  if (!json_path.empty()) {
    if (!report.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
