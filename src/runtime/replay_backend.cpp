#include "runtime/replay_backend.hpp"

#include <stdexcept>

namespace autra::runtime {

ReplayBackend::ReplayBackend(MetricStore trace,
                             std::vector<std::string> operators,
                             Parallelism initial)
    : trace_(std::move(trace)),
      operators_(std::move(operators)),
      parallelism_(std::move(initial)) {
  if (parallelism_.size() != operators_.size()) {
    throw std::invalid_argument(
        "ReplayBackend: parallelism size != operator count");
  }
  // Mirror every trace series into the history up front so all ids are
  // resolved exactly once; replaying is then pure id-indexed appends.
  const std::size_t n = trace_.registry().size();
  cursor_.assign(n, 0);
  history_ids_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    history_ids_.push_back(
        history_.resolve(trace_.registry().name(MetricId(
            static_cast<std::uint32_t>(i)))));
  }
}

void ReplayBackend::run_for(double sec) {
  if (sec < 0.0) {
    throw std::invalid_argument("ReplayBackend::run_for: negative duration");
  }
  now_ += sec;
  for (std::size_t i = 0; i < cursor_.size(); ++i) {
    const MetricStore::SeriesView v =
        trace_.series(MetricId(static_cast<std::uint32_t>(i)));
    std::size_t& c = cursor_[i];
    while (c < v.times.size() && v.times[c] <= now_) {
      history_.record(history_ids_[i], v.times[c], v.values[c]);
      ++c;
    }
  }
}

void ReplayBackend::reconfigure(const Parallelism& p, RescaleMode mode) {
  if (p == parallelism_) return;
  if (p.size() != parallelism_.size()) {
    throw std::invalid_argument(
        "ReplayBackend: parallelism size != operator count");
  }
  if (mode == RescaleMode::kHotScaleOut) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p[i] < parallelism_[i]) {
        throw std::invalid_argument(
            "ReplayBackend: hot scale-out cannot shrink an operator");
      }
    }
  }
  parallelism_ = p;
  ++restarts_;
  window_start_ = now_;
}

JobMetrics ReplayBackend::window_metrics() const {
  namespace mn = metric_names;
  const double t0 = window_start_;
  const double t1 = now_;
  const auto mean_of = [&](const std::string& name) {
    return history_.mean(history_.find(name), t0, t1).value_or(0.0);
  };
  JobMetrics m;
  m.parallelism = parallelism_;
  m.input_rate = mean_of(mn::kInputRate);
  m.throughput = mean_of(mn::kThroughput);
  m.latency_ms = mean_of(mn::kLatencyMean) * 1e3;
  m.event_latency_ms = mean_of(mn::kEventLatencyMean) * 1e3;
  m.busy_cores = mean_of(mn::kBusyCores);

  const MetricId lag_id = history_.find(mn::kKafkaLag);
  if (const auto lag = history_.last(lag_id)) m.kafka_lag = lag->value;
  const auto [first, last] = history_.range(lag_id, t0, t1);
  if (last - first >= 2) {
    const MetricStore::SeriesView lag = history_.series(lag_id);
    const double dt = lag.times[last - 1] - lag.times[first];
    if (dt > 0.0) {
      m.lag_growth_per_sec =
          (lag.values[last - 1] - lag.values[first]) / dt;
    }
  }

  for (std::size_t i = 0; i < operators_.size(); ++i) {
    OperatorRates r;
    r.parallelism = parallelism_[i];
    const std::string& op = operators_[i];
    r.true_rate_per_instance = mean_of(mn::true_rate(op));
    r.observed_rate_per_instance = mean_of(mn::observed_rate(op));
    r.total_input_rate = mean_of(mn::input_rate(op));
    r.total_output_rate = mean_of(mn::output_rate(op));
    if (const auto q = history_.last(history_.find(mn::queue_size(op)))) {
      r.queue_length = q->value;
    }
    m.operators.push_back(r);
  }
  return m;
}

bool ReplayBackend::exhausted() const {
  for (std::size_t i = 0; i < cursor_.size(); ++i) {
    if (cursor_[i] <
        trace_.series(MetricId(static_cast<std::uint32_t>(i))).times.size()) {
      return false;
    }
  }
  return true;
}

}  // namespace autra::runtime
