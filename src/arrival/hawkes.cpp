#include "arrival/hawkes.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace autra::arrival {

std::vector<double> sample_hawkes_event_times(double mu, double branching,
                                              double decay_per_sec,
                                              double horizon_sec,
                                              std::mt19937_64& rng) {
  if (!(mu >= 0.0) || !std::isfinite(mu)) {
    throw std::invalid_argument("sample_hawkes_event_times: mu must be >= 0");
  }
  if (!(branching >= 0.0) || branching >= 1.0) {
    throw std::invalid_argument(
        "sample_hawkes_event_times: branching must be in [0, 1)");
  }
  if (!(decay_per_sec > 0.0)) {
    throw std::invalid_argument(
        "sample_hawkes_event_times: decay_per_sec must be > 0");
  }
  if (!(horizon_sec >= 0.0)) {
    throw std::invalid_argument(
        "sample_hawkes_event_times: horizon_sec must be >= 0");
  }

  std::vector<double> times;
  const double alpha = branching * decay_per_sec;
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  // Ogata thinning with the standard exponential-kernel shortcut: the
  // excess intensity S(t) = sum_i alpha * exp(-beta (t - t_i)) decays
  // multiplicatively between events, so lambda(t) = mu + S is bounded by
  // its value just after the previous candidate.
  double t = 0.0;
  double excess = 0.0;
  while (true) {
    const double bound = mu + excess;
    if (bound <= 0.0) break;  // mu == 0 and no history: nothing can fire.
    // Exponential(bound) via inversion on a uniform draw; 1-u avoids
    // log(0).
    const double wait = -std::log(1.0 - unit(rng)) / bound;
    t += wait;
    if (t >= horizon_sec) break;
    excess *= std::exp(-decay_per_sec * wait);
    if (unit(rng) * bound <= mu + excess) {
      times.push_back(t);
      excess += alpha;
    }
  }
  return times;
}

namespace {

void validate(const HawkesParams& p) {
  if (!(p.base_rate >= 0.0) || !std::isfinite(p.base_rate)) {
    throw std::invalid_argument("HawkesRate: base_rate must be >= 0");
  }
  if (!(p.records_per_burst >= 0.0) || !std::isfinite(p.records_per_burst)) {
    throw std::invalid_argument("HawkesRate: records_per_burst must be >= 0");
  }
  if (!(p.horizon_sec >= 1.0)) {
    throw std::invalid_argument("HawkesRate: horizon_sec must be >= 1");
  }
  // mu / branching / decay are validated by the sampler.
}

/// Integrates base + records_per_burst * beta * exp(-beta (t - t_i))
/// over each one-second bucket. A single pass keeps the decayed weight
/// D(s) = sum_{t_i < s} exp(-beta (s - t_i)); an event inside bucket s
/// contributes its partial-second mass directly and joins D afterwards.
std::vector<double> materialise(const HawkesParams& p,
                                const std::vector<double>& events) {
  const std::size_t horizon = static_cast<std::size_t>(p.horizon_sec);
  std::vector<double> table(horizon, p.base_rate);
  const double beta = p.decay_per_sec;
  const double step = std::exp(-beta);  // per-second decay factor

  std::size_t next = 0;
  double decayed = 0.0;  // D at the start of the current bucket
  for (std::size_t s = 0; s < horizon; ++s) {
    // Mass this second from all earlier events: integral of
    // D * beta * exp(-beta u) du over u in [0, 1).
    double mass = decayed * (1.0 - step);
    double carry = decayed * step;  // D at the start of the next bucket
    const double end = static_cast<double>(s + 1);
    while (next < events.size() && events[next] < end) {
      const double tail = std::exp(-beta * (end - events[next]));
      mass += 1.0 - tail;
      carry += tail;
      ++next;
    }
    table[s] += p.records_per_burst * mass;
    decayed = carry;
  }
  return table;
}

std::vector<double> sample(const HawkesParams& p, std::uint64_t seed) {
  validate(p);
  std::mt19937_64 rng(seed);
  return sample_hawkes_event_times(p.burst_onsets_per_sec, p.branching,
                                   p.decay_per_sec, p.horizon_sec, rng);
}

}  // namespace

HawkesRate::HawkesRate(HawkesParams params, std::uint64_t seed)
    : HawkesRate(params, sample(params, seed)) {}

HawkesRate::HawkesRate(HawkesParams params, std::vector<double> events)
    : TabulatedRate(materialise(params, events)),
      params_(std::move(params)),
      events_(std::move(events)) {}

double HawkesRate::mean_rate() const noexcept {
  return params_.base_rate + params_.records_per_burst *
                                 params_.burst_onsets_per_sec /
                                 (1.0 - params_.branching);
}

}  // namespace autra::arrival
