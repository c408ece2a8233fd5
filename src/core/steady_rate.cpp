#include "core/steady_rate.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/bootstrap.hpp"
#include "exec/exec.hpp"

namespace autra::core {

namespace {

bo::SearchSpace make_space(const runtime::Parallelism& base,
                           int max_parallelism) {
  return {base, bo::Config(base.size(), max_parallelism)};
}

bo::BayesOptConfig make_bo_config(const SteadyRateParams& params) {
  bo::BayesOptConfig cfg;
  cfg.gp.kernel = params.gp_kernel;
  cfg.gp.threads = params.threads;
  cfg.gp.max_observations = params.max_observations;
  cfg.xi = params.xi;
  cfg.seed = params.seed;
  cfg.incremental = params.incremental;
  return cfg;
}

ScoreParams make_score_params(const SteadyRateParams& params,
                              const runtime::Parallelism& base) {
  return {.target_latency_ms = params.target_latency_ms,
          .alpha = params.alpha,
          .base = base};
}

void validate(const runtime::Parallelism& base, const SteadyRateParams& params) {
  if (base.empty()) {
    throw std::invalid_argument("run_steady_rate: empty base configuration");
  }
  if (params.target_latency_ms <= 0.0) {
    throw std::invalid_argument("run_steady_rate: no latency target");
  }
  if (params.max_parallelism <
      *std::max_element(base.begin(), base.end())) {
    throw std::invalid_argument(
        "run_steady_rate: P_max below the base configuration");
  }
  if (params.max_evaluations < 1) {
    throw std::invalid_argument("run_steady_rate: no evaluation budget");
  }
}

}  // namespace

const SamplePoint* pick_best_fallback(std::span<const SamplePoint> samples,
                                      const SteadyRateParams& params) {
  const auto tier = [&](const SamplePoint& s) {
    const runtime::JobMetrics& m = *s.metrics;
    const double target = params.target_throughput > 0.0
                              ? params.target_throughput
                              : m.input_rate;
    const bool latency_ok = m.latency_ms <= params.target_latency_ms;
    const bool throughput_ok =
        m.throughput + target * params.throughput_tolerance >= target;
    return (latency_ok ? 2 : 0) + (throughput_ok ? 1 : 0);
  };
  const SamplePoint* best = nullptr;
  int best_tier = -1;
  for (const SamplePoint& s : samples) {
    if (s.estimated()) continue;
    const int t = tier(s);
    if (best == nullptr || t > best_tier ||
        (t == best_tier && s.score > best->score)) {
      best = &s;
      best_tier = t;
    }
  }
  return best;
}

bool meets_requirements(const SamplePoint& sample,
                        const SteadyRateParams& params) {
  if (sample.estimated()) return false;
  const runtime::JobMetrics& m = *sample.metrics;
  if (m.latency_ms > params.target_latency_ms) return false;
  const double target = params.target_throughput > 0.0
                            ? params.target_throughput
                            : m.input_rate;
  if (m.throughput + target * params.throughput_tolerance < target) {
    return false;
  }
  return sample.score >= params.score_threshold;
}

SteadyRateResult run_steady_rate(const runtime::Evaluator& evaluate,
                                 const runtime::Parallelism& base,
                                 const SteadyRateParams& params,
                                 std::span<const SamplePoint> seed_samples,
                                 bool skip_bootstrap) {
  validate(base, params);
  const ScoreParams score_params = make_score_params(params, base);

  bo::BayesOpt opt(make_space(base, params.max_parallelism),
                   make_bo_config(params));
  SteadyRateResult result;
  // References into history are held across iterations; pre-reserving keeps
  // them stable (at most seeds + evaluation budget entries are added).
  result.history.reserve(seed_samples.size() +
                         static_cast<std::size_t>(params.max_evaluations) + 1);

  const auto record = [&](SamplePoint sample) -> const SamplePoint& {
    opt.observe(sample.config, sample.score);
    result.history.push_back(std::move(sample));
    return result.history.back();
  };

  for (const SamplePoint& s : seed_samples) record(s);

  int budget = params.max_evaluations;

  const auto measure = [&](const runtime::Parallelism& config)
      -> const SamplePoint& {
    runtime::JobMetrics m = evaluate(config);
    SamplePoint s;
    s.config = config;
    s.score = benefit_score(m, score_params);
    s.metrics = std::move(m);
    --budget;
    return record(std::move(s));
  };

  if (!skip_bootstrap) {
    // Bootstrap samples are independent of each other, so the trial fan-out
    // runs in parallel; results are recorded serially in sample order, which
    // keeps the surrogate's training set (and every downstream decision)
    // identical at any thread count. The evaluator must satisfy the
    // const-thread-safety contract of runtime::TrialService::evaluator_at.
    std::vector<runtime::Parallelism> configs =
        bootstrap_samples(base, params.max_parallelism, params.bootstrap_m);
    if (std::cmp_greater(configs.size(), budget)) {
      configs.resize(static_cast<std::size_t>(std::max(budget, 0)));
    }
    const exec::ExecContext ctx(params.threads);
    std::vector<runtime::JobMetrics> metrics =
        exec::parallel_map(ctx, configs.size(), [&](std::size_t i) {
          return evaluate(configs[i]);
        });
    for (std::size_t i = 0; i < configs.size(); ++i) {
      SamplePoint s;
      s.config = configs[i];
      s.score = benefit_score(metrics[i], score_params);
      s.metrics = std::move(metrics[i]);
      --budget;
      record(std::move(s));
      ++result.bootstrap_evaluations;
    }
  }

  // Termination may already hold on a seed/bootstrap sample.
  const SamplePoint* satisfied = nullptr;
  for (const SamplePoint& s : result.history) {
    if (meets_requirements(s, params)) {
      satisfied = &s;
      break;
    }
  }

  while (satisfied == nullptr && budget > 0) {
    const bo::Suggestion next = opt.suggest();
    const runtime::Parallelism& config = next.config;

    // Acquisition and random-bootstrap suggestions are unobserved by
    // construction; only the best-observed fallback can repeat a config. A
    // fallback onto an already *really measured* configuration means the
    // model is fully exploited; measuring it again would not change the
    // decision, so stop and fall through to best-effort selection. (A
    // fallback onto an estimated seed sample is still worth one real run.)
    if (next.source == bo::SuggestionSource::kBestObservedFallback) {
      const bool repeat = std::any_of(
          result.history.begin(), result.history.end(),
          [&](const SamplePoint& s) {
            return !s.estimated() && s.config == config;
          });
      if (repeat) break;
    }

    const SamplePoint& s = measure(config);
    ++result.bo_iterations;
    if (meets_requirements(s, params)) satisfied = &s;
  }

  if (satisfied != nullptr) {
    result.converged = true;
    result.best = satisfied->config;
    result.best_score = satisfied->score;
    result.best_metrics = *satisfied->metrics;
    return result;
  }

  // Budget exhausted: best-effort selection by feasibility tier.
  const SamplePoint* best = pick_best_fallback(result.history, params);
  if (best == nullptr) {
    throw std::logic_error("run_steady_rate: no real sample was evaluated");
  }
  result.best = best->config;
  result.best_score = best->score;
  result.best_metrics = *best->metrics;
  return result;
}

runtime::Parallelism recommend_next(std::span<const SamplePoint> samples,
                                const runtime::Parallelism& base,
                                const SteadyRateParams& params) {
  validate(base, params);
  if (samples.empty()) {
    throw std::invalid_argument("recommend_next: no samples");
  }
  bo::BayesOpt opt(make_space(base, params.max_parallelism),
                   make_bo_config(params));
  for (const SamplePoint& s : samples) {
    opt.observe(s.config, s.score);
  }
  return opt.suggest().config;
}

}  // namespace autra::core
