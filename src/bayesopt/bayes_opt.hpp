// Generic discrete Bayesian optimisation loop: a Gaussian-process surrogate
// over an integer search space with Expected Improvement acquisition.
//
// AuTraScale's Algorithm 1 drives this loop with its benefit scoring
// function; the loop itself is policy-free (observe / suggest / best).
#pragma once

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bayesopt/search_space.hpp"
#include "gp/acquisition.hpp"
#include "gp/gp_regressor.hpp"

namespace autra::bo {

struct BayesOptConfig {
  gp::GpConfig gp;
  /// Exploration parameter xi of the EI acquisition (paper Eq. 6).
  double xi = 0.01;
  /// Max candidate points evaluated per suggest() call.
  std::size_t candidate_budget = 4096;
  std::uint64_t seed = 42;
  /// When true, new observations reach the surrogate through
  /// GpRegressor::observe() (O(n^2) cached-factor extension) instead of a
  /// from-scratch fit per suggest(). Off by default: the incremental factor
  /// differs from a refit in the low bits, which would perturb committed
  /// golden decision streams.
  bool incremental = false;
};

/// One evaluated sample.
struct Observation {
  Config config;
  double score = 0.0;
};

/// How suggest() arrived at its proposal. Callers that terminate on a
/// repeated suggestion can branch on this instead of re-deriving the
/// optimiser's internal state from the returned config.
enum class SuggestionSource {
  kAcquisition,            ///< Unobserved candidate maximising EI.
  kBestObservedFallback,   ///< Model fully exploited; incumbent returned.
  kRandomBootstrap,        ///< < 2 observations; random exploration.
};

[[nodiscard]] const char* to_string(SuggestionSource source) noexcept;

/// Everything needed to reconstruct a BayesOpt mid-run in a fresh process
/// such that its future suggest()/observe() trajectory is bit-identical to
/// the uninterrupted original: observations, the surrogate's fitted state,
/// and the acquisition RNG stream position (serialised via the standard
/// mt19937_64 stream operators).
struct BayesOptSnapshot {
  std::vector<Observation> observations;
  bool surrogate_fitted = false;
  gp::GpSnapshot surrogate;  ///< Valid only when surrogate_fitted.
  std::size_t surrogate_observations = 0;
  std::string rng_state;
  bool dirty = true;
  bool needs_full_refit = false;
};

/// The result of one acquisition step.
struct Suggestion {
  Config config;
  /// EI of `config` under the current surrogate. 0 for the fallback and
  /// bootstrap sources (no surrogate was consulted, or nothing improves).
  double expected_improvement = 0.0;
  SuggestionSource source = SuggestionSource::kAcquisition;
};

class BayesOpt {
 public:
  BayesOpt(SearchSpace space, BayesOptConfig config = {});

  /// Records an evaluated configuration. Re-observing a config replaces the
  /// stored score (the latest measurement wins). Throws
  /// std::invalid_argument if the config is outside the space.
  void observe(const Config& config, double score);

  /// Fits the surrogate on all observations and returns the unobserved
  /// candidate with maximal expected improvement (source kAcquisition).
  /// Falls back to the best *observed* point when every candidate has
  /// EI == 0 (kBestObservedFallback), and to a random unobserved point when
  /// there are fewer than two observations (kRandomBootstrap). Throws
  /// std::logic_error with zero observations. EI scoring across the
  /// candidate batch is parallelised per config_.gp.threads; the returned
  /// suggestion is bit-identical at any thread count.
  [[nodiscard]] Suggestion suggest();

  /// Best observation so far; nullopt before any observe().
  [[nodiscard]] std::optional<Observation> best() const;

  /// Captures the optimiser's full mutable state; restore() on a BayesOpt
  /// built over the same space and config reproduces the future decision
  /// stream bit-for-bit (see BayesOptSnapshot).
  [[nodiscard]] BayesOptSnapshot snapshot() const;

  /// Reinstates a snapshot. Throws std::invalid_argument when an
  /// observation lies outside this optimiser's space or the RNG state
  /// string does not parse.
  void restore(const BayesOptSnapshot& snap);

  [[nodiscard]] const std::vector<Observation>& observations() const noexcept {
    return observations_;
  }
  [[nodiscard]] const SearchSpace& space() const noexcept { return space_; }
  [[nodiscard]] const gp::GpRegressor& surrogate() const noexcept {
    return surrogate_;
  }

 private:
  void refit_if_dirty();

  SearchSpace space_;
  BayesOptConfig config_;
  gp::GpRegressor surrogate_;
  std::vector<Observation> observations_;
  /// How many observations_ (a prefix) the surrogate was trained on; the
  /// incremental path feeds only the suffix through observe().
  std::size_t surrogate_obs_ = 0;
  /// Set when an existing observation's score was replaced — a rewrite the
  /// factor extension cannot express, so the next refit must be full.
  bool needs_full_refit_ = false;
  std::mt19937_64 rng_;
  bool dirty_ = true;
};

}  // namespace autra::bo
