#include "streamsim/kafka.hpp"

#include <stdexcept>

namespace autra::sim {

KafkaLog::KafkaLog(std::shared_ptr<const RateSchedule> schedule)
    : schedule_(std::move(schedule)) {
  if (!schedule_) {
    throw std::invalid_argument("KafkaLog: null schedule");
  }
}

void KafkaLog::produce(double t, double dt) {
  const double mass = schedule_->rate_at(t) * dt;
  if (mass <= 0.0) return;
  // Stamp the cohort with the middle of the production interval.
  cohorts_.push_back({mass, t + 0.5 * dt});
  lag_ += mass;
  total_produced_ += mass;
}

void KafkaLog::consume(double want, std::vector<LogCohort>& taken) {
  taken.clear();
  while (want > 1e-12 && !cohorts_.empty()) {
    LogCohort& head = cohorts_.front();
    if (head.mass <= want) {
      want -= head.mass;
      lag_ -= head.mass;
      total_consumed_ += head.mass;
      taken.push_back(head);
      cohorts_.pop_front();
    } else {
      taken.push_back({want, head.produced_time});
      head.mass -= want;
      lag_ -= want;
      total_consumed_ += want;
      want = 0.0;
    }
  }
  if (lag_ < 0.0) lag_ = 0.0;
}

void KafkaLog::clear() noexcept {
  cohorts_.clear();
  lag_ = 0.0;
}

}  // namespace autra::sim
