// Input-rate schedules: how fast the producers write into the Kafka log as
// a function of simulation time. The paper's cases use constant rates and
// staircase ramps (Fig. 1: 100k records/s + 50k every 10 minutes).
//
// A schedule is immutable once built and travels as a
// shared_ptr<const RateSchedule>: every restart, rescale and trial of a
// job reads the same object, so all of them see the same input.
#pragma once

#include <utility>
#include <vector>

namespace autra::sim {

/// Rate in records/second at simulation time t (seconds).
class RateSchedule {
 public:
  virtual ~RateSchedule() = default;
  [[nodiscard]] virtual double rate_at(double t) const = 0;
};

/// Constant rate.
class ConstantRate final : public RateSchedule {
 public:
  explicit ConstantRate(double rate);
  [[nodiscard]] double rate_at(double) const override { return rate_; }

 private:
  double rate_;
};

/// Staircase: starts at `base`, increases by `step` every `period` seconds.
class StaircaseRate final : public RateSchedule {
 public:
  StaircaseRate(double base, double step, double period);
  [[nodiscard]] double rate_at(double t) const override;

 private:
  double base_;
  double step_;
  double period_;
};

/// Piecewise-constant: sorted (start_time, rate) breakpoints.
class PiecewiseRate final : public RateSchedule {
 public:
  /// Throws std::invalid_argument if empty or times not strictly increasing
  /// starting at 0.
  explicit PiecewiseRate(std::vector<std::pair<double, double>> breakpoints);
  [[nodiscard]] double rate_at(double t) const override;

 private:
  std::vector<std::pair<double, double>> breakpoints_;
};

}  // namespace autra::sim
