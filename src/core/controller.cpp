#include "core/controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace autra::core {

MetricAggregator::MetricAggregator(const sim::Topology& topology,
                                   double metric_interval_sec,
                                   double max_missing_fraction)
    : topology_(topology),
      metric_interval_sec_(metric_interval_sec),
      max_missing_fraction_(max_missing_fraction) {
  if (max_missing_fraction_ < 0.0 || max_missing_fraction_ > 1.0) {
    throw std::invalid_argument(
        "MetricAggregator: max_missing_fraction must be in [0, 1]");
  }
}

void MetricAggregator::grade(const runtime::MetricStore& db,
                             runtime::MetricId id, double t0, double t1,
                             WindowHealth& health) const {
  if (!id.valid()) {
    ++health.missing_series;
    return;
  }
  const auto [first, last] = db.range(id, t0, t1);
  const std::size_t n = last - first;
  if (n == 0) {
    ++health.missing_series;
    return;
  }
  if (metric_interval_sec_ > 0.0) {
    const double expected = (t1 - t0) / metric_interval_sec_;
    if (static_cast<double>(n) <
        expected * (1.0 - max_missing_fraction_) - 0.5) {
      ++health.sparse_series;
    }
  }
}

void MetricAggregator::bind(const runtime::MetricStore& db) const {
  namespace mn = runtime::metric_names;
  if (ids_.db != &db) {
    ids_ = ResolvedIds{};
    ids_.db = &db;
    ids_.true_rate.resize(topology_.num_operators());
    ids_.input_rate_per_op.resize(topology_.num_operators());
  }
  // A series only exists in the store after its first write, so early
  // aggregate() calls may precede some series; re-find any still missing.
  if (!ids_.input_rate.valid()) ids_.input_rate = db.find(mn::kInputRate);
  if (!ids_.throughput.valid()) ids_.throughput = db.find(mn::kThroughput);
  if (!ids_.latency_mean.valid()) ids_.latency_mean = db.find(mn::kLatencyMean);
  if (!ids_.kafka_lag.valid()) ids_.kafka_lag = db.find(mn::kKafkaLag);
  for (std::size_t i = 0; i < topology_.num_operators(); ++i) {
    const std::string& name = topology_.op(i).name;
    if (!ids_.true_rate[i].valid()) {
      ids_.true_rate[i] = db.find(mn::true_rate(name));
    }
    if (!ids_.input_rate_per_op[i].valid()) {
      ids_.input_rate_per_op[i] = db.find(mn::input_rate(name));
    }
  }
}

AggregatedMetrics MetricAggregator::aggregate(const runtime::MetricStore& db,
                                              double t0, double t1,
                                              WindowHealth* health) const {
  bind(db);
  if (health != nullptr) {
    // Grade every series a decision depends on. latency_mean is excluded:
    // its gauges legitimately thin out when few records complete.
    grade(db, ids_.input_rate, t0, t1, *health);
    grade(db, ids_.throughput, t0, t1, *health);
    grade(db, ids_.kafka_lag, t0, t1, *health);
    for (std::size_t i = 0; i < topology_.num_operators(); ++i) {
      grade(db, ids_.true_rate[i], t0, t1, *health);
      grade(db, ids_.input_rate_per_op[i], t0, t1, *health);
    }
  }
  AggregatedMetrics out;
  out.window_start = t0;
  out.window_end = t1;
  out.input_rate = db.mean(ids_.input_rate, t0, t1).value_or(0.0);
  out.throughput = db.mean(ids_.throughput, t0, t1).value_or(0.0);
  // Mean latency over gauges that actually saw completions, read straight
  // off the columnar series — no point-vector copy.
  if (ids_.latency_mean.valid()) {
    const runtime::MetricStore::SeriesView lat = db.series(ids_.latency_mean);
    const auto [lat_first, lat_last] = db.range(ids_.latency_mean, t0, t1);
    double lat_sum = 0.0;
    int lat_n = 0;
    for (std::size_t i = lat_first; i < lat_last; ++i) {
      if (lat.values[i] > 0.0) {
        lat_sum += lat.values[i];
        ++lat_n;
      }
    }
    out.latency_ms = lat_n > 0 ? lat_sum / lat_n * 1000.0 : 0.0;
  }
  if (ids_.kafka_lag.valid()) {
    if (const auto lag = db.last(ids_.kafka_lag)) out.kafka_lag = lag->value;
  }
  for (std::size_t i = 0; i < topology_.num_operators(); ++i) {
    out.true_rate.push_back(db.mean(ids_.true_rate[i], t0, t1).value_or(0.0));
    out.input_rate_per_op.push_back(
        db.mean(ids_.input_rate_per_op[i], t0, t1).value_or(0.0));
  }
  return out;
}

const char* to_string(ScalingTrigger trigger) noexcept {
  switch (trigger) {
    case ScalingTrigger::kNone:
      return "none";
    case ScalingTrigger::kThroughputViolation:
      return "throughput-violation";
    case ScalingTrigger::kLatencyViolation:
      return "latency-violation";
    case ScalingTrigger::kOverProvisioned:
      return "over-provisioned";
    case ScalingTrigger::kRateChanged:
      return "rate-changed";
    case ScalingTrigger::kLagDrain:
      return "lag-drain";
  }
  return "unknown";
}

AuTraScaleController::AuTraScaleController(
    sim::Topology topology,
    std::shared_ptr<const runtime::TrialService> trials,
    ControllerParams params)
    : topology_(std::move(topology)),
      trials_(std::move(trials)),
      params_(std::move(params)),
      aggregator_(topology_, params_.resilience.metric_interval_sec,
                  params_.resilience.max_missing_fraction) {
  if (trials_ == nullptr) {
    throw std::invalid_argument("AuTraScaleController: null trial service");
  }
  if (params_.policy_interval_sec <= 0.0 ||
      params_.policy_running_time_sec < params_.policy_interval_sec) {
    throw std::invalid_argument(
        "AuTraScaleController: policy running time must be at least the "
        "policy interval");
  }
  stats_.tenant = params_.tenant;
}

ScalingTrigger AuTraScaleController::analyze(
    const AggregatedMetrics& m, const runtime::Parallelism& current) const {
  if (model_rate_ > 0.0 && m.input_rate > 0.0 &&
      std::abs(m.input_rate - model_rate_) / model_rate_ >
          params_.rate_change_tolerance) {
    return ScalingTrigger::kRateChanged;
  }
  const double target = params_.steady.target_throughput > 0.0
                            ? params_.steady.target_throughput
                            : m.input_rate;
  if (m.throughput + target * params_.steady.throughput_tolerance < target) {
    return ScalingTrigger::kThroughputViolation;
  }
  if (m.latency_ms > params_.steady.target_latency_ms) {
    return ScalingTrigger::kLatencyViolation;
  }
  if (!base_.empty() && base_.size() == current.size()) {
    const double score =
        benefit_score(current, m.latency_ms,
                      {.target_latency_ms = params_.steady.target_latency_ms,
                       .alpha = params_.steady.alpha,
                       .base = base_});
    if (score < params_.steady.score_threshold) {
      return ScalingTrigger::kOverProvisioned;
    }
  } else {
    // No base configuration yet for this rate: fall back to a utilisation
    // heuristic — an operator with several instances mostly sitting idle is
    // over-provisioned.
    for (std::size_t i = 0; i < current.size() && i < m.true_rate.size();
         ++i) {
      if (current[i] <= 1 || m.true_rate[i] <= 0.0) continue;
      const double utilization =
          m.input_rate_per_op[i] / (m.true_rate[i] * current[i]);
      if (utilization < 0.5) return ScalingTrigger::kOverProvisioned;
    }
  }
  return ScalingTrigger::kNone;
}

ControlDecision AuTraScaleController::plan_and_execute(
    runtime::StreamingBackend& session, ScalingTrigger trigger, double rate) {
  ControlDecision decision;
  decision.time = session.now();
  decision.trigger = trigger;
  decision.tenant = params_.tenant;

  // The Plan stage evaluates candidates on fresh-start trials of the same
  // job at the current rate (each is one real job restart in the paper).
  const runtime::Evaluator evaluate =
      trials_->evaluator_at(rate, params_.policy_running_time_sec / 2.0,
                            params_.policy_running_time_sec / 2.0);
  const int max_parallelism = trials_->max_parallelism();

  // Base configuration k' for this rate via throughput optimisation.
  ThroughputOptParams topt = params_.throughput;
  topt.max_parallelism = max_parallelism;
  const ThroughputOptimizer optimizer(topology_, topt);
  const ThroughputOptResult base_result = optimizer.optimize(
      evaluate, runtime::Parallelism(topology_.num_operators(), 1));
  base_ = base_result.best;
  model_rate_ = rate;
  decision.evaluations += base_result.iterations;

  SteadyRateParams sp = params_.steady;
  sp.max_parallelism = max_parallelism;

  const BenefitModel* prior = library_.closest(rate);
  const bool use_transfer =
      prior != nullptr && !library_.has_model_for(rate) &&
      prior->base.size() == base_.size();

  if (use_transfer) {
    decision.algorithm = "algorithm2";
    TransferParams tp = params_.transfer;
    tp.steady = sp;
    TransferResult r = run_transfer(evaluate, base_, *prior, tp);
    decision.evaluations += r.real_evaluations;
    decision.applied = r.best;
    BenefitModel model;
    model.rate = rate;
    model.base = base_;
    model.kernel = sp.gp_kernel;
    model.threads = sp.threads;
    model.max_observations = sp.max_observations;
    model.samples = std::move(r.real_samples);
    model.fit();
    library_.add(std::move(model));
  } else {
    decision.algorithm = "algorithm1";
    // Always-on mode: when a model already covers this rate, seed
    // Algorithm 1 from it instead of re-paying the bootstrap, then fold
    // the new real samples back into it through the incremental GP path.
    BenefitModel* warm =
        params_.steady.incremental ? library_.find_for(rate) : nullptr;
    if (warm != nullptr && warm->base.size() != base_.size()) warm = nullptr;
    if (warm != nullptr) {
      const std::size_t n_seeds = warm->samples.size();
      const SteadyRateResult r = run_steady_rate(
          evaluate, base_, sp, warm->samples, /*skip_bootstrap=*/true);
      decision.evaluations += r.bootstrap_evaluations + r.bo_iterations;
      decision.applied = r.best;
      for (std::size_t i = n_seeds; i < r.history.size(); ++i) {
        if (!r.history[i].estimated()) warm->observe(r.history[i]);
      }
    } else {
      const SteadyRateResult r = run_steady_rate(evaluate, base_, sp);
      decision.evaluations += r.bootstrap_evaluations + r.bo_iterations;
      decision.applied = r.best;
      if (!library_.has_model_for(rate)) {
        library_.add(make_benefit_model(rate, base_, r, sp.gp_kernel,
                                        sp.threads, sp.max_observations));
      }
    }
  }

  // Execute with retry: a transient failure (runtime::RescaleFailed) is
  // waited out with capped exponential backoff — the job keeps running on
  // its old configuration meanwhile. Permanent errors propagate.
  double backoff = params_.resilience.rescale_backoff_initial_sec;
  for (int attempt = 0;; ++attempt) {
    try {
      session.reconfigure(decision.applied);
      break;
    } catch (const runtime::RescaleFailed&) {
      ++stats_.rescale_retries;
      ++decision.rescale_retries;
      if (attempt >= params_.resilience.max_rescale_retries) {
        ++stats_.rescale_aborts;
        decision.execute_failed = true;
        decision.applied = session.parallelism();
        break;
      }
      session.run_for(backoff);
      backoff = std::min(backoff * 2.0,
                         params_.resilience.rescale_backoff_max_sec);
    }
  }
  return decision;
}

void AuTraScaleController::maybe_start_lag_drain(
    runtime::StreamingBackend& session,
    std::vector<ControlDecision>& decisions) {
  if (params_.resilience.lag_drain_bound_sec <= 0.0 || lag_draining_) return;

  const runtime::Parallelism saved = session.parallelism();
  const int max_parallelism = trials_->max_parallelism();
  runtime::Parallelism boosted = saved;
  for (int& k : boosted) {
    k = std::min(max_parallelism,
                 static_cast<int>(std::ceil(
                     k * params_.resilience.lag_drain_boost)));
  }
  if (boosted == saved) return;  // Already at capacity: nothing to boost.

  ControlDecision decision;
  decision.time = session.now();
  decision.trigger = ScalingTrigger::kLagDrain;
  decision.algorithm = "lag-drain";
  decision.applied = boosted;
  decision.tenant = params_.tenant;
  // A single attempt only: the drain is an opportunistic optimisation, and
  // a cluster that cannot rescale right after a crash recovery should not
  // be hammered with retries for it.
  try {
    session.reconfigure(boosted);
  } catch (const runtime::RescaleFailed&) {
    ++stats_.rescale_retries;
    decision.rescale_retries = 1;
    decision.execute_failed = true;
    decision.applied = saved;
    decisions.push_back(std::move(decision));
    return;
  }
  decisions.push_back(std::move(decision));
  lag_draining_ = true;
  lag_drain_saved_ = saved;
  lag_drain_windows_left_ = params_.resilience.lag_drain_max_intervals;
  ++stats_.lag_drains;
}

bool AuTraScaleController::lag_drain_step(
    runtime::StreamingBackend& session, const AggregatedMetrics& m,
    std::vector<ControlDecision>& decisions) {
  if (!lag_draining_) return false;

  --lag_drain_windows_left_;
  const double rate = m.input_rate > 0.0
                          ? m.input_rate
                          : trials_->scheduled_rate_at(session.now());
  const double lag_bound = params_.resilience.lag_drain_bound_sec * rate;
  const bool drained = m.kafka_lag <= lag_bound;
  if (!drained && lag_drain_windows_left_ > 0) return true;

  // Restore the pre-drain configuration (single attempt, as above; on
  // failure the job simply keeps the boosted configuration and the
  // over-provisioned trigger will shrink it through the normal path).
  ControlDecision decision;
  decision.time = session.now();
  decision.trigger = ScalingTrigger::kLagDrain;
  decision.algorithm = "lag-drain-restore";
  decision.applied = lag_drain_saved_;
  decision.tenant = params_.tenant;
  try {
    session.reconfigure(lag_drain_saved_);
  } catch (const runtime::RescaleFailed&) {
    ++stats_.rescale_retries;
    decision.rescale_retries = 1;
    decision.execute_failed = true;
    decision.applied = session.parallelism();
  }
  decisions.push_back(std::move(decision));
  lag_draining_ = false;
  return true;
}

void AuTraScaleController::prime(runtime::StreamingBackend& session) {
  stable_since_ = session.now();
  known_restarts_ = session.restarts();
  session.retain_history(history_window_sec());
}

void AuTraScaleController::observe_window(
    runtime::StreamingBackend& session, double t0,
    std::vector<ControlDecision>& decisions) {
  const double t1 = session.now();
  ++stats_.windows;

  // A restart the controller did not command (crash recovery inside the
  // backend) contaminates this window and restarts the stabilisation
  // clock, with optional extra cooldown while the recovered job drains
  // the lag it accumulated during downtime. When the lag-drain trigger
  // is armed, the recovery also enters a temporary over-provisioned
  // configuration instead of waiting the lag out at steady state.
  if (session.restarts() != known_restarts_) {
    known_restarts_ = session.restarts();
    ++stats_.failure_restarts;
    ++stats_.unhealthy_windows;
    stable_since_ = t1 + params_.resilience.failure_cooldown_sec;
    maybe_start_lag_drain(session, decisions);
    known_restarts_ = session.restarts();  // The boost was commanded.
    return;  // Never decide on a window that overlaps the recovery.
  }
  // An active drain owns the loop (before the stabilisation gate: the
  // whole point is to act while the job would otherwise sit in cooldown)
  // and skips Analyze/Plan until the lag bound or interval cap hits.
  if (lag_draining_) {
    const AggregatedMetrics dm =
        aggregator_.aggregate(session.history(), t0, t1, nullptr);
    if (lag_drain_step(session, dm, decisions)) {
      if (!lag_draining_) {
        // Just restored: the commanded restart restabilises as usual.
        stable_since_ = session.now();
        known_restarts_ = session.restarts();
      }
      return;
    }
  }
  if (t1 - stable_since_ < params_.policy_running_time_sec) {
    return;  // Job still stabilising after the last restart.
  }

  // Window health is graded only when a gauge cadence is configured —
  // the guard costs nothing on a healthy deployment.
  WindowHealth health;
  const bool guard = params_.resilience.metric_interval_sec > 0.0;
  const AggregatedMetrics m = aggregator_.aggregate(
      session.history(), t0, t1, guard ? &health : nullptr);
  if (!health.healthy()) {
    ++stats_.unhealthy_windows;
    return;  // Never decide on a window the Monitor path corrupted.
  }
  const ScalingTrigger trigger = analyze(m, session.parallelism());
  if (trigger == ScalingTrigger::kNone) return;

  const double rate = m.input_rate > 0.0
                          ? m.input_rate
                          : trials_->scheduled_rate_at(session.now());
  decisions.push_back(plan_and_execute(session, trigger, rate));
  stable_since_ = session.now();
  known_restarts_ = session.restarts();
}

std::vector<ControlDecision> AuTraScaleController::run(
    runtime::StreamingBackend& session, double until_sec) {
  std::vector<ControlDecision> decisions;
  prime(session);

  while (runtime::before_horizon(session, until_sec)) {
    session.reset_window();
    const double t0 = session.now();
    session.run_for(
        std::min(params_.policy_interval_sec, until_sec - session.now()));
    observe_window(session, t0, decisions);
  }
  return decisions;
}

}  // namespace autra::core
