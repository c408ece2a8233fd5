#include "bayesopt/bayes_opt.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "exec/exec.hpp"

namespace autra::bo {

const char* to_string(SuggestionSource source) noexcept {
  switch (source) {
    case SuggestionSource::kAcquisition:
      return "acquisition";
    case SuggestionSource::kBestObservedFallback:
      return "best_observed_fallback";
    case SuggestionSource::kRandomBootstrap:
      return "random_bootstrap";
  }
  return "unknown";
}

BayesOpt::BayesOpt(SearchSpace space, BayesOptConfig config)
    : space_(std::move(space)),
      config_(std::move(config)),
      surrogate_(config_.gp),
      rng_(config_.seed) {}

void BayesOpt::observe(const Config& config, double score) {
  if (!space_.contains(config)) {
    throw std::invalid_argument("BayesOpt::observe: config outside space");
  }
  for (Observation& o : observations_) {
    if (o.config == config) {
      o.score = score;
      // A score rewrite on an already-incorporated point cannot be
      // expressed as a factor extension; force the next refit to be full.
      needs_full_refit_ = true;
      dirty_ = true;
      return;
    }
  }
  observations_.push_back({config, score});
  dirty_ = true;
}

void BayesOpt::refit_if_dirty() {
  if (!dirty_) return;
  if (observations_.empty()) {
    throw std::logic_error("BayesOpt: no observations");
  }
  if (config_.incremental && !needs_full_refit_ && surrogate_.is_fitted() &&
      surrogate_obs_ > 0 && observations_.size() > surrogate_obs_) {
    // Feed only the new suffix through the O(n^2) incremental path; the
    // regressor itself falls back to a full fit when it must (point outside
    // the normalisation box, jittered factor, reoptimisation cadence).
    for (std::size_t i = surrogate_obs_; i < observations_.size(); ++i) {
      surrogate_.observe(to_features(observations_[i].config),
                         observations_[i].score);
    }
    surrogate_obs_ = observations_.size();
    dirty_ = false;
    return;
  }
  linalg::Matrix x(observations_.size(), space_.dims());
  linalg::Vector y(observations_.size());
  for (std::size_t i = 0; i < observations_.size(); ++i) {
    to_features(observations_[i].config, x.row(i));
    y[i] = observations_[i].score;
  }
  surrogate_.fit(x, y);
  surrogate_obs_ = observations_.size();
  needs_full_refit_ = false;
  dirty_ = false;
}

BayesOptSnapshot BayesOpt::snapshot() const {
  BayesOptSnapshot s;
  s.observations = observations_;
  s.surrogate_fitted = surrogate_.is_fitted();
  if (s.surrogate_fitted) s.surrogate = surrogate_.snapshot();
  s.surrogate_observations = surrogate_obs_;
  std::ostringstream rng_out;
  rng_out << rng_;
  s.rng_state = rng_out.str();
  s.dirty = dirty_;
  s.needs_full_refit = needs_full_refit_;
  return s;
}

void BayesOpt::restore(const BayesOptSnapshot& snap) {
  for (const Observation& o : snap.observations) {
    if (!space_.contains(o.config)) {
      throw std::invalid_argument(
          "BayesOpt::restore: observation outside space");
    }
  }
  std::mt19937_64 rng;
  std::istringstream rng_in(snap.rng_state);
  rng_in >> rng;
  if (rng_in.fail()) {
    throw std::invalid_argument("BayesOpt::restore: malformed RNG state");
  }
  observations_ = snap.observations;
  surrogate_ = gp::GpRegressor(config_.gp);
  if (snap.surrogate_fitted) surrogate_.restore(snap.surrogate);
  surrogate_obs_ = snap.surrogate_observations;
  rng_ = rng;
  dirty_ = snap.dirty;
  needs_full_refit_ = snap.needs_full_refit;
}

Suggestion BayesOpt::suggest() {
  if (observations_.empty()) {
    throw std::logic_error("BayesOpt::suggest: observe at least one sample");
  }
  const std::size_t d = space_.dims();

  ConfigBlock seen(d);
  for (const Observation& o : observations_) seen.push_back(o.config);
  seen.sort_unique();

  ConfigBlock cands = space_.candidates(config_.candidate_budget, rng_);
  // Random candidates almost never land next to the points that matter in
  // a large space; add local moves around the incumbent, the best few
  // observations, and the lower corner (the base configuration).
  const auto add_local = [&](const Config& center) {
    cands.append(space_.local_candidates(center));
    cands.append(space_.axis_candidates(center));
  };
  add_local(space_.lower());
  std::vector<const Observation*> ranked;
  ranked.reserve(observations_.size());
  for (const Observation& o : observations_) ranked.push_back(&o);
  std::sort(ranked.begin(), ranked.end(),
            [](const Observation* a, const Observation* b) {
              return a->score > b->score;
            });
  for (std::size_t i = 0; i < ranked.size() && i < 3; ++i) {
    add_local(ranked[i]->config);
  }

  std::vector<std::size_t> fresh;
  fresh.reserve(cands.size());
  for (std::size_t r = 0; r < cands.size(); ++r) {
    if (!seen.sorted_contains(cands[r])) fresh.push_back(r);
  }
  const auto config_of = [&](std::size_t r) {
    return Config(cands[r].begin(), cands[r].end());
  };

  if (observations_.size() < 2) {
    // Not enough data for a meaningful surrogate: explore randomly.
    if (fresh.empty()) {
      return {observations_.front().config, 0.0,
              SuggestionSource::kBestObservedFallback};
    }
    std::uniform_int_distribution<std::size_t> dist(0, fresh.size() - 1);
    return {config_of(fresh[dist(rng_)]), 0.0,
            SuggestionSource::kRandomBootstrap};
  }

  refit_if_dirty();
  const double incumbent = best()->score;

  // Score the unseen candidates in blocks (in parallel; each EI is an
  // independent GP posterior read), then pick the winner with a serial
  // scan in candidate order so the suggestion is identical at any thread
  // count.
  std::vector<double> features(fresh.size() * d);
  for (std::size_t f = 0; f < fresh.size(); ++f) {
    to_features(cands[fresh[f]], std::span(features).subspan(f * d, d));
  }
  std::vector<double> eis(fresh.size());
  gp::expected_improvement(surrogate_, features, incumbent, config_.xi,
                           exec::ExecContext(config_.gp.threads), eis);

  double best_ei = 0.0;
  std::optional<std::size_t> best_idx;
  for (std::size_t f = 0; f < fresh.size(); ++f) {
    if (!best_idx || eis[f] > best_ei) {
      best_ei = eis[f];
      best_idx = fresh[f];
    }
  }
  if (!best_idx || best_ei <= 0.0) {
    // Model fully exploited (or space exhausted): return the incumbent so
    // the caller's repeated-config termination condition can fire.
    return {best()->config, 0.0, SuggestionSource::kBestObservedFallback};
  }
  return {config_of(*best_idx), best_ei, SuggestionSource::kAcquisition};
}

std::optional<Observation> BayesOpt::best() const {
  if (observations_.empty()) return std::nullopt;
  return *std::max_element(
      observations_.begin(), observations_.end(),
      [](const Observation& a, const Observation& b) { return a.score < b.score; });
}

gp::Prediction BayesOpt::predict(const Config& config) {
  refit_if_dirty();
  return surrogate_.predict(to_features(config));
}

}  // namespace autra::bo
