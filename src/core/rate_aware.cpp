#include "core/rate_aware.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/exec.hpp"

namespace autra::core {

RateAwareModel::RateAwareModel(gp::GpConfig gp_config)
    : gp_config_(std::move(gp_config)), gp_(gp_config_) {}

void RateAwareModel::add_samples(double rate,
                                 std::span<const SamplePoint> samples) {
  for (const SamplePoint& s : samples) {
    if (s.estimated()) continue;  // Only real measurements train the model.
    add_sample({s.config, rate, s.score});
  }
}

void RateAwareModel::add_sample(RatedSample sample) {
  if (sample.config.empty() || sample.rate <= 0.0) {
    throw std::invalid_argument("RateAwareModel: bad sample");
  }
  if (!samples_.empty() &&
      samples_.front().config.size() != sample.config.size()) {
    throw std::invalid_argument("RateAwareModel: inconsistent config size");
  }
  samples_.push_back(std::move(sample));
}

namespace {

/// The rate column of a feature row. The GP normalises inputs per
/// dimension, so the raw rate is fine as a feature; scaling to thousands
/// just keeps the numbers readable.
double rate_feature(double rate) { return rate / 1000.0; }

}  // namespace

std::vector<double> RateAwareModel::features(const runtime::Parallelism& config,
                                             double rate) const {
  std::vector<double> f(config.begin(), config.end());
  f.push_back(rate_feature(rate));
  return f;
}

void RateAwareModel::fit() {
  if (samples_.empty()) {
    throw std::logic_error("RateAwareModel::fit: no samples");
  }
  const std::size_t d = samples_.front().config.size() + 1;
  linalg::Matrix x(samples_.size(), d);
  linalg::Vector y(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const auto f = features(samples_[i].config, samples_[i].rate);
    std::copy(f.begin(), f.end(), x.row(i).begin());
    y[i] = samples_[i].score;
  }
  gp_.fit(x, y);
}

double RateAwareModel::predict_mean(const runtime::Parallelism& config,
                                    double rate) const {
  if (!gp_.is_fitted()) {
    throw std::logic_error("RateAwareModel: model not fitted");
  }
  return gp_.predict(features(config, rate)).mean;
}

runtime::Parallelism RateAwareModel::recommend(const runtime::Parallelism& base,
                                           double rate,
                                           const SteadyRateParams& params,
                                           std::mt19937_64& rng) const {
  if (!gp_.is_fitted()) {
    throw std::logic_error("RateAwareModel::recommend: model not fitted");
  }
  bo::SearchSpace space(base, bo::Config(base.size(), params.max_parallelism));

  bo::ConfigBlock cands = space.candidates(2048, rng);
  cands.append(space.local_candidates(base));
  // Local moves around configurations that scored well at nearby rates.
  std::vector<const RatedSample*> ranked;
  for (const RatedSample& s : samples_) ranked.push_back(&s);
  std::sort(ranked.begin(), ranked.end(),
            [](const RatedSample* a, const RatedSample* b) {
              return a->score > b->score;
            });
  for (std::size_t i = 0; i < ranked.size() && i < 3; ++i) {
    const bo::Config clamped = space.clamp(ranked[i]->config);
    cands.append(space.local_candidates(clamped));
    cands.push_back(clamped);
  }

  // Incumbent: the best predicted score at this rate among candidates of
  // interest (there are no observations at the new rate yet).
  const double incumbent = predict_mean(base, rate);

  // Feature rows as features() builds them, one per candidate.
  const std::size_t d = base.size() + 1;
  std::vector<double> rows(cands.size() * d);
  for (std::size_t r = 0; r < cands.size(); ++r) {
    const std::span<double> row = std::span(rows).subspan(r * d, d);
    bo::to_features(cands[r], row.first(d - 1));
    row[d - 1] = rate_feature(rate);
  }
  std::vector<double> eis(cands.size());
  gp::expected_improvement(gp_, rows, incumbent, params.xi,
                           exec::ExecContext(gp_config_.threads), eis);

  double best_ei = -1.0;
  runtime::Parallelism best = space.clamp(base);
  for (std::size_t r = 0; r < cands.size(); ++r) {
    if (eis[r] > best_ei) {
      best_ei = eis[r];
      best.assign(cands[r].begin(), cands[r].end());
    }
  }
  return best;
}

RateAwareResult run_rate_aware(const runtime::Evaluator& evaluate,
                               const runtime::Parallelism& base, double rate,
                               RateAwareModel& model,
                               const RateAwareParams& params) {
  if (params.max_evaluations < 1) {
    throw std::invalid_argument("run_rate_aware: no evaluation budget");
  }
  const SteadyRateParams& sp = params.steady;
  const ScoreParams score_params{.target_latency_ms = sp.target_latency_ms,
                                 .alpha = sp.alpha,
                                 .base = base};
  std::mt19937_64 rng(sp.seed);

  RateAwareResult result;
  std::vector<SamplePoint> measured;

  while (result.real_evaluations < params.max_evaluations) {
    runtime::Parallelism next = model.is_fitted()
                                ? model.recommend(base, rate, sp, rng)
                                : base;
    const bool repeat = std::any_of(
        measured.begin(), measured.end(),
        [&](const SamplePoint& s) { return s.config == next; });
    if (repeat) {
      // The model keeps recommending something already measured below the
      // thresholds: fall back to the base configuration once, then stop.
      if (next == base) break;
      next = base;
    }

    runtime::JobMetrics m = evaluate(next);
    SamplePoint s;
    s.config = next;
    s.score = benefit_score(m, score_params);
    s.metrics = std::move(m);
    ++result.real_evaluations;
    model.add_sample({s.config, rate, s.score});
    model.fit();
    measured.push_back(s);

    if (meets_requirements(s, sp)) {
      result.converged = true;
      result.best = s.config;
      result.best_score = s.score;
      result.best_metrics = *s.metrics;
      return result;
    }
  }

  // Budget exhausted: best-effort selection by feasibility tier.
  const SamplePoint* best = pick_best_fallback(measured, sp);
  if (best == nullptr) {
    throw std::logic_error("run_rate_aware: nothing was measured");
  }
  result.best = best->config;
  result.best_score = best->score;
  result.best_metrics = *best->metrics;
  return result;
}

}  // namespace autra::core
