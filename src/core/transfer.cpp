#include "core/transfer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/bootstrap.hpp"

namespace autra::core {

namespace {

linalg::Matrix features_of(const std::vector<SamplePoint>& samples) {
  if (samples.empty()) {
    throw std::invalid_argument("BenefitModel: no samples");
  }
  const std::size_t d = samples.front().config.size();
  linalg::Matrix x(samples.size(), d);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].config.size() != d) {
      throw std::invalid_argument("BenefitModel: ragged sample configs");
    }
    for (std::size_t j = 0; j < d; ++j) {
      x(i, j) = static_cast<double>(samples[i].config[j]);
    }
  }
  return x;
}

std::vector<double> config_features(const runtime::Parallelism& config) {
  return {config.begin(), config.end()};
}

}  // namespace

void BenefitModel::fit() {
  const linalg::Matrix x = features_of(samples);
  linalg::Vector y(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) y[i] = samples[i].score;
  gp::GpConfig cfg = gp.config();
  cfg.kernel = kernel;
  cfg.threads = threads;
  cfg.max_observations = max_observations;
  gp = gp::GpRegressor(cfg);
  gp.fit(x, y);
}

void BenefitModel::observe(const SamplePoint& sample) {
  samples.push_back(sample);
  if (!gp.is_fitted()) {
    fit();
    return;
  }
  gp.observe(config_features(sample.config), sample.score);
  // The GP evicts its own window; mirror it so `samples` stays the exact
  // training set (model I/O and refits rebuild from it).
  while (samples.size() > gp.num_samples()) {
    samples.erase(samples.begin());
  }
}

double BenefitModel::predict_mean(const runtime::Parallelism& config) const {
  return gp.predict(config_features(config)).mean;
}

BenefitModel make_benefit_model(double rate, const runtime::Parallelism& base,
                                const SteadyRateResult& result,
                                gp::KernelKind kernel, int threads,
                                int max_observations) {
  BenefitModel model;
  model.rate = rate;
  model.base = base;
  model.kernel = kernel;
  model.threads = threads;
  model.max_observations = max_observations;
  for (const SamplePoint& s : result.history) {
    if (!s.estimated()) model.samples.push_back(s);
  }
  model.fit();
  return model;
}

void ModelLibrary::add(BenefitModel model) {
  if (!model.gp.is_fitted()) model.fit();
  models_.push_back(std::move(model));
}

const BenefitModel* ModelLibrary::closest(double rate) const {
  const BenefitModel* best = nullptr;
  double best_d = 0.0;
  for (const BenefitModel& m : models_) {
    const double d = std::abs(m.rate - rate);
    if (best == nullptr || d < best_d) {
      best = &m;
      best_d = d;
    }
  }
  return best;
}

BenefitModel* ModelLibrary::find_for(double rate, double tolerance) {
  if (rate <= 0.0) return nullptr;
  BenefitModel* best = nullptr;
  double best_d = 0.0;
  for (BenefitModel& m : models_) {
    const double d = std::abs(m.rate - rate);
    if (best == nullptr || d < best_d) {
      best = &m;
      best_d = d;
    }
  }
  if (best == nullptr || best_d / rate > tolerance) return nullptr;
  return best;
}

bool ModelLibrary::has_model_for(double rate, double tolerance) const {
  if (rate <= 0.0) return false;
  const BenefitModel* m = closest(rate);
  return m != nullptr && std::abs(m->rate - rate) / rate <= tolerance;
}

TransferResult run_transfer(const runtime::Evaluator& evaluate,
                            const runtime::Parallelism& base,
                            const BenefitModel& prior,
                            const TransferParams& params,
                            std::vector<SamplePoint> initial_real) {
  if (!prior.gp.is_fitted()) {
    throw std::invalid_argument("run_transfer: prior model not fitted");
  }
  if (params.n_num < 1 || params.max_transfer_evaluations < 1) {
    throw std::invalid_argument("run_transfer: bad loop bounds");
  }

  const SteadyRateParams& sp = params.steady;
  const ScoreParams score_params{.target_latency_ms = sp.target_latency_ms,
                                 .alpha = sp.alpha,
                                 .base = base};

  TransferResult result;
  std::vector<SamplePoint>& real = result.real_samples;
  real = std::move(initial_real);

  const auto measure = [&](const runtime::Parallelism& config)
      -> const SamplePoint& {
    runtime::JobMetrics m = evaluate(config);
    SamplePoint s;
    s.config = config;
    s.score = benefit_score(m, score_params);
    s.metrics = std::move(m);
    real.push_back(std::move(s));
    ++result.real_evaluations;
    return real.back();
  };

  // Seed the residual model with at least one real observation.
  if (real.empty()) {
    const SamplePoint& s = measure(base);
    if (meets_requirements(s, sp)) {
      result.converged = true;
      result.best = s.config;
      result.best_score = s.score;
      result.best_metrics = *s.metrics;
      return result;
    }
  }

  const std::vector<runtime::Parallelism> bootstrap =
      bootstrap_samples(base, sp.max_parallelism, sp.bootstrap_m);

  while (result.real_evaluations < params.max_transfer_evaluations) {
    // Residual dataset: s_t - mu_{c-1}(k_t) over the real samples.
    std::vector<SamplePoint> residual_samples = real;
    for (SamplePoint& s : residual_samples) {
      s.score -= prior.predict_mean(s.config);
    }
    BenefitModel residual;
    residual.kernel = sp.gp_kernel;
    residual.threads = sp.threads;
    residual.samples = std::move(residual_samples);
    residual.fit();

    // Estimated scores for the bootstrap set: mu_c = mu_{c-1} + residual.
    std::vector<SamplePoint> dataset = real;
    for (const runtime::Parallelism& x : bootstrap) {
      const bool measured =
          std::any_of(real.begin(), real.end(), [&](const SamplePoint& s) {
            return s.config == x;
          });
      if (measured) continue;
      SamplePoint est;
      est.config = x;
      est.score = prior.predict_mean(x) + residual.predict_mean(x);
      dataset.push_back(std::move(est));
    }

    // One Algorithm-1 recommendation on the mixed dataset, then one real
    // run of the recommended configuration.
    const runtime::Parallelism next = recommend_next(dataset, base, sp);
    const bool repeat =
        std::any_of(real.begin(), real.end(), [&](const SamplePoint& s) {
          return s.config == next;
        });
    if (!repeat) {
      const SamplePoint& s = measure(next);
      if (meets_requirements(s, sp)) {
        result.converged = true;
        result.best = s.config;
        result.best_score = s.score;
        result.best_metrics = *s.metrics;
        return result;
      }
    }

    if (repeat ||
        static_cast<int>(real.size()) >= params.n_num) {
      // Enough real data (or the model is exploited): hand over to plain
      // Algorithm 1 on real samples only.
      result.switched_to_algorithm1 = true;
      SteadyRateParams fallback = sp;
      fallback.max_evaluations =
          std::max(1, params.max_transfer_evaluations -
                          result.real_evaluations);
      const SteadyRateResult r = run_steady_rate(
          evaluate, base, fallback, real, /*skip_bootstrap=*/true);
      result.real_evaluations += r.bootstrap_evaluations + r.bo_iterations;
      result.converged = r.converged;
      result.best = r.best;
      result.best_score = r.best_score;
      result.best_metrics = r.best_metrics;
      for (const SamplePoint& s : r.history) {
        if (!s.estimated() &&
            std::none_of(real.begin(), real.end(), [&](const SamplePoint& e) {
              return e.config == s.config;
            })) {
          real.push_back(s);
        }
      }
      return result;
    }
  }

  // Budget exhausted: best-effort selection by feasibility tier.
  const SamplePoint* best = pick_best_fallback(real, sp);
  result.best = best->config;
  result.best_score = best->score;
  result.best_metrics = *best->metrics;
  return result;
}

}  // namespace autra::core
