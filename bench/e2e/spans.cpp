#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "streamsim/job_runner.hpp"

namespace autra::e2e {

namespace {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

Span& SpanLog::push(std::string name, std::int64_t start_ns) {
  Span s;
  s.id = static_cast<std::int64_t>(spans_.size());
  if (!stack_.empty()) {
    const Span& top = spans_[stack_.back()];
    s.parent = top.id;
    s.window = top.window;
  } else {
    s.window = s.id;
  }
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.thread = thread_index();
  spans_.push_back(std::move(s));
  return spans_.back();
}

void SpanLog::open(std::string name) {
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  push(std::move(name), start);
  stack_.push_back(spans_.size() - 1);
}

void SpanLog::close(const std::string& rename) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[stack_.back()];
  s.end_ns = end;
  if (!rename.empty()) s.name = rename;
  stack_.pop_back();
}

void SpanLog::add(std::string name, std::int64_t start_ns,
                  std::int64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  push(std::move(name), start_ns).end_ns = end_ns;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"window\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"thread\":%d}\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.window), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread);
  }
  return std::fclose(f) == 0;
}

TimedBackend::TimedBackend(runtime::StreamingBackend& inner, SpanLog& log,
                           sim::ScalingSession* session)
    : inner_(inner), log_(log), session_(session) {}

void TimedBackend::run_for(double sec) {
  // A counter that went backwards means run_for() rebuilt the engine (a
  // crash-forced restart); the new engine's counters then start from 0.
  const auto delta = [](std::uint64_t before, std::uint64_t after) {
    return after >= before ? after - before : after;
  };
  sim::EngineEpochStats before;
  if (session_ != nullptr) before = session_->engine().epoch_stats();
  const double t0 = inner_.now();
  {
    const ScopedSpan span(&log_, deciding_ ? "execute.backoff"
                                           : "monitor.run_for");
    inner_.run_for(sec);
  }
  stats_.sim_sec += inner_.now() - t0;
  if (session_ != nullptr) {
    const sim::EngineEpochStats& after = session_->engine().epoch_stats();
    stats_.ticks += delta(before.ticks, after.ticks);
    stats_.operators_touched +=
        delta(before.operators_touched, after.operators_touched);
    stats_.full_refreshes += delta(before.full_refreshes, after.full_refreshes);
  }
}

void TimedBackend::reconfigure(const runtime::Parallelism& p,
                               runtime::RescaleMode mode) {
  const ScopedSpan span(&log_, "execute");
  inner_.reconfigure(p, mode);
}

TimedTrials::TimedTrials(std::shared_ptr<const runtime::TrialService> inner,
                         SpanLog& log)
    : inner_(std::move(inner)), log_(log) {}

runtime::Evaluator TimedTrials::evaluator_at(double rate, double warmup_sec,
                                             double measure_sec) const {
  runtime::Evaluator inner = inner_->evaluator_at(rate, warmup_sec, measure_sec);
  SpanLog* log = &log_;
  return [inner = std::move(inner), log,
          calls = calls_](const runtime::Parallelism& p) {
    const std::int64_t start = now_ns();
    runtime::JobMetrics m = inner(p);
    log->add("trial", start, now_ns());
    calls->fetch_add(1);
    return m;
  };
}

}  // namespace autra::e2e
