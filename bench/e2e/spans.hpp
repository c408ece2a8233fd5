// Outside-in tracing for autra_e2e: an in-memory span log and timing
// decorators around the two runtime interfaces the controller is compiled
// against (runtime::StreamingBackend, runtime::TrialService). Nothing under
// src/ knows it is being timed; every span is recorded by the benchmark's
// own code around a call into a layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/backend.hpp"

namespace autra::sim {
class ScalingSession;
}  // namespace autra::sim

namespace autra::e2e {

/// Nanoseconds since the first call in this process (steady clock).
[[nodiscard]] std::int64_t now_ns();

/// One timed interval at a layer boundary.
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root (window) span.
  std::int64_t window = -1;  ///< Id of the window span this belongs to.
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int thread = 0;  ///< Small per-process thread index (0 = first seen).

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Spans kept in memory until the run ends. open()/close() are called from
/// the driving thread only and nest as a stack; add() may be called from
/// any thread (Plan-stage trials run on exec pool workers) and attaches the
/// span to whatever the driving thread has open at that moment.
class SpanLog {
 public:
  /// Opens a span under the innermost open one (a root when none is open).
  void open(std::string name);
  /// Closes the innermost open span; a non-empty `rename` renames it (a
  /// decide span learns only at its end whether it produced a decision).
  void close(const std::string& rename = {});
  /// Records a finished span under the driving thread's innermost open one.
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span. Returns false on an I/O error.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  /// Appends a span under the innermost open one; mu_ must be held.
  Span& push(std::string name, std::int64_t start_ns);

  std::mutex mu_;  // Guards both vectors: add() runs on worker threads.
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // Indices of open spans.
};

/// Keeps a span open for its own lifetime, so the span closes on every
/// path out of the scope. A null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name) : log_(log) {
    if (log_ != nullptr) log_->open(std::move(name));
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(rename_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The name the span gets when it closes.
  void rename(std::string name) { rename_ = std::move(name); }

 private:
  SpanLog* log_;
  std::string rename_;
};

/// Counters the live-backend decorator collects around run_for().
struct LiveStats {
  double sim_sec = 0.0;  ///< Simulated seconds advanced.
  std::uint64_t ticks = 0;
  std::uint64_t operators_touched = 0;
  std::uint64_t full_refreshes = 0;
};

/// StreamingBackend decorator: times run_for() as `monitor.run_for` (or
/// `execute.backoff` when the controller waits inside a decision) and
/// reconfigure() as `execute`, and reads the simulator's epoch counters
/// around every run_for() when a ScalingSession is supplied.
class TimedBackend final : public runtime::StreamingBackend {
 public:
  TimedBackend(runtime::StreamingBackend& inner, SpanLog& log,
               sim::ScalingSession* session);

  void run_for(double sec) override;
  void reconfigure(const runtime::Parallelism& p,
                   runtime::RescaleMode mode =
                       runtime::RescaleMode::kColdRestart) override;
  [[nodiscard]] double now() const override { return inner_.now(); }
  [[nodiscard]] const runtime::Parallelism& parallelism() const override {
    return inner_.parallelism();
  }
  [[nodiscard]] runtime::JobMetrics window_metrics() const override {
    return inner_.window_metrics();
  }
  void reset_window() override { inner_.reset_window(); }
  [[nodiscard]] const runtime::MetricStore& history() const override {
    return inner_.history();
  }
  [[nodiscard]] int restarts() const override { return inner_.restarts(); }

  /// Set while the controller's observe_window() runs, so a run_for()
  /// issued from inside a decision is attributed to Execute's backoff.
  void set_deciding(bool deciding) { deciding_ = deciding; }
  [[nodiscard]] const LiveStats& stats() const { return stats_; }

 private:
  runtime::StreamingBackend& inner_;
  SpanLog& log_;
  sim::ScalingSession* session_;
  bool deciding_ = false;
  LiveStats stats_;
};

/// TrialService decorator: every evaluator call becomes a `trial` span.
class TimedTrials final : public runtime::TrialService {
 public:
  TimedTrials(std::shared_ptr<const runtime::TrialService> inner,
              SpanLog& log);

  [[nodiscard]] runtime::Evaluator evaluator_at(
      double rate, double warmup_sec, double measure_sec) const override;
  [[nodiscard]] int max_parallelism() const override {
    return inner_->max_parallelism();
  }
  [[nodiscard]] double scheduled_rate_at(double t) const override {
    return inner_->scheduled_rate_at(t);
  }

  /// Evaluator calls made so far, counted from outside the Plan stage.
  [[nodiscard]] std::int64_t calls() const { return calls_->load(); }

 private:
  std::shared_ptr<const runtime::TrialService> inner_;
  SpanLog& log_;
  std::shared_ptr<std::atomic<std::int64_t>> calls_ =
      std::make_shared<std::atomic<std::int64_t>>(0);
};

}  // namespace autra::e2e
