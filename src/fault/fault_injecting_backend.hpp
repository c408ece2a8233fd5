// FaultInjectingBackend: a StreamingBackend decorator that applies a
// FaultSchedule to any inner backend without the policy code knowing.
//
// Responsibilities are split by path:
//   - metric path (kMetricDropout / kMetricDelay): the decorator mirrors
//     the inner history into its own store, skipping dropped points and
//     withholding delayed ones until the pipeline "catches up" (points are
//     revealed in timestamp order, so a delay stalls the whole series —
//     exactly how a backed-up metrics pipeline behaves);
//   - Execute path (kRescaleFailure): reconfigure() throws
//     runtime::RescaleFailed while a failure window is active and its
//     failure budget lasts;
//   - engine level (machine down, slow node, service outage, ingest
//     stall): delivered once, at construction, to the inner backend via
//     the FaultHost interface.
//
// With an empty schedule the decorator is observationally transparent and
// zero-cost: every call forwards, and history() returns the inner store
// by reference (no mirroring).
//
// retain_history() bounds the mirror, which then holds only the window its
// readers declared. The declaration is not forwarded: the mirror is filled
// from the inner history by index, so the inner store must keep every
// point.
#pragma once

#include <vector>

#include "fault/fault_schedule.hpp"
#include "runtime/backend.hpp"

namespace autra::fault {

class FaultInjectingBackend final : public runtime::StreamingBackend {
 public:
  /// `inner` must outlive the decorator. Throws std::invalid_argument when
  /// the schedule contains engine-level events and `inner` does not
  /// implement FaultHost.
  FaultInjectingBackend(runtime::StreamingBackend& inner,
                        FaultSchedule schedule);

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
    return mirror_metrics_ ? mirror_ : inner_.history();
  }
  void retain_history(double seconds) override { mirror_.retain(seconds); }
  [[nodiscard]] int restarts() const override { return inner_.restarts(); }

  /// Points the faulted view holds; 0 without metric faults, when
  /// history() is the inner store itself.
  [[nodiscard]] std::size_t mirror_points() const noexcept {
    return mirror_.points_held();
  }

  [[nodiscard]] const FaultSchedule& schedule() const noexcept {
    return schedule_;
  }
  /// reconfigure() calls the schedule made fail so far.
  [[nodiscard]] int failed_rescales() const noexcept {
    return failed_rescales_;
  }

 private:
  /// A metric-fault window [at, end); `delay_sec` is how late a delay
  /// window's points arrive.
  struct MetricWindow {
    double at = 0.0;
    double end = 0.0;
    double delay_sec = 0.0;
  };

  void deliver_host_faults();
  void sync_history();
  /// Whether a point at `t` is dropped. `window` is the series' dropout
  /// cursor: series times never decrease, so windows it has passed can
  /// hold no later point.
  [[nodiscard]] bool dropped_at(double t, std::size_t& window) const noexcept;
  [[nodiscard]] double reveal_time(double t) const noexcept;

  runtime::StreamingBackend& inner_;
  FaultSchedule schedule_;
  bool mirror_metrics_ = false;

  /// The schedule's metric faults, split out once so the per-point scans
  /// walk no other event kind: dropout windows merged into disjoint
  /// ascending ones (a point is dropped iff it lies in their union), and
  /// delay windows in schedule order.
  std::vector<MetricWindow> dropouts_;
  std::vector<MetricWindow> delays_;

  /// Faulted view of the inner history (only maintained when the schedule
  /// contains metric faults).
  runtime::MetricStore mirror_;
  /// Per inner series: next point index to consider, first dropout window
  /// that may still hold it, and the id of the same series in mirror_.
  std::vector<std::size_t> cursor_;
  std::vector<std::size_t> dropout_cursor_;
  std::vector<runtime::MetricId> mirror_ids_;

  /// Remaining failures per kRescaleFailure event (-1 = unlimited within
  /// the window), indexed in schedule event order.
  std::vector<int> failure_budget_;
  int failed_rescales_ = 0;
};

}  // namespace autra::fault
