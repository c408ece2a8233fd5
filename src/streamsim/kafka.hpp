// Kafka stand-in: a partitioned log that producers append to at a scheduled
// rate and that job sources pull from at their processing capacity. The one
// observable AuTraScale needs from it is the consumer lag (paper Fig. 1(b))
// and the production timestamps that define event-time latency.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "streamsim/rates.hpp"

namespace autra::sim {

/// A cohort of records that entered the log together; the fluid engine
/// moves record *mass* rather than individual records, so production time is
/// tracked per cohort.
struct LogCohort {
  double mass = 0.0;          ///< Number of records (fractional).
  double produced_time = 0.0; ///< Simulation time the cohort was appended.
};

class KafkaLog {
 public:
  /// The log only reads the schedule, so it shares ownership with the
  /// JobSpec/workload that built it — no clone at engine construction.
  explicit KafkaLog(std::shared_ptr<const RateSchedule> schedule);

  /// Appends `schedule.rate_at(t) * dt` records produced during [t, t+dt).
  void produce(double t, double dt);

  /// Removes up to `want` records from the head of the log. Replaces the
  /// contents of `taken` with the cohorts taken (their total mass is
  /// <= want); a caller that reuses one vector consumes without allocating.
  void consume(double want, std::vector<LogCohort>& taken);

  /// Unconsumed records (the Kafka consumer lag metric).
  [[nodiscard]] double lag() const noexcept { return lag_; }

  [[nodiscard]] double total_produced() const noexcept {
    return total_produced_;
  }
  [[nodiscard]] double total_consumed() const noexcept {
    return total_consumed_;
  }
  [[nodiscard]] double rate_at(double t) const { return schedule_->rate_at(t); }

  /// Drops all pending records (used when a test resets the pipeline).
  void clear() noexcept;

 private:
  std::shared_ptr<const RateSchedule> schedule_;
  std::deque<LogCohort> cohorts_;
  double lag_ = 0.0;
  double total_produced_ = 0.0;
  double total_consumed_ = 0.0;
};

}  // namespace autra::sim
