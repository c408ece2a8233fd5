#include "gp/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace autra::gp {

Kernel::Kernel(KernelKind kind, double signal_variance, double length_scale)
    : kind_(kind),
      signal_variance_(signal_variance),
      length_scale_(length_scale) {
  if (signal_variance <= 0.0 || length_scale <= 0.0) {
    throw std::invalid_argument("Kernel: hyper-parameters must be positive");
  }
}

void Kernel::set_signal_variance(double v) {
  if (v <= 0.0) {
    throw std::invalid_argument("Kernel: signal variance must be positive");
  }
  signal_variance_ = v;
}

void Kernel::set_length_scale(double l) {
  if (l <= 0.0) {
    throw std::invalid_argument("Kernel: length scale must be positive");
  }
  length_scale_ = l;
}

linalg::Vector Kernel::cross(const linalg::Matrix& x,
                             std::span<const double> x_star) const {
  linalg::Vector out(x.rows());
  cross(x, x_star, out);
  return out;
}

void Kernel::cross(const linalg::Matrix& x, std::span<const double> points,
                   std::span<double> out) const {
  const std::size_t d = x.cols();
  const std::size_t m = d == 0 ? 0 : points.size() / d;
  if (points.size() != m * d || out.size() != x.rows() * m) {
    throw std::invalid_argument("Kernel::cross: size mismatch");
  }
  // The sums of linalg::squared_distance(X_i, point_c), term by term,
  // with the loop across points innermost. The first term adds to 0.0 in
  // the expression, not in a zero-filled row: a fill call per row made
  // this pass about 4x slower for one point against 1024 rows.
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const std::span<const double> xi = x.row(i);
    double* oi = out.data() + i * m;
    for (std::size_t j = 0; j < d; ++j) {
      const double xij = xi[j];
      const double* zj = points.data() + j * m;
      for (std::size_t c = 0; c < m; ++c) {
        const double diff = xij - zj[c];
        oi[c] = (j == 0 ? 0.0 : oi[c]) + diff * diff;
      }
    }
  }
  covariance_from_squared_distances(out);
}

void Kernel::covariance_from_squared_distances(
    std::span<double> values) const {
  constexpr std::size_t kChunk = 256;
  double decay[kChunk];
  for (std::size_t i0 = 0; i0 < values.size(); i0 += kChunk) {
    const std::span<double> part =
        values.subspan(i0, std::min(kChunk, values.size() - i0));
    shape_and_decay(part, {decay, part.size()});
    for (std::size_t i = 0; i < part.size(); ++i) {
      part[i] = covariance(part[i], decay[i]);
    }
  }
}

void Kernel::shape_and_decay(std::span<double> values,
                             std::span<double> decay) const {
  switch (kind_) {
    case KernelKind::kMatern52:
      // k = s2 (1 + sqrt5 r/l + 5 r^2 / (3 l^2)) exp(-sqrt5 r/l).
      for (std::size_t i = 0; i < values.size(); ++i) {
        const double r = std::sqrt(values[i]) / length_scale_;
        const double s = std::sqrt(5.0) * r;
        values[i] = 1.0 + s + s * s / 3.0;
        decay[i] = std::exp(-s);
      }
      return;
    case KernelKind::kMatern32:
      // k = s2 (1 + sqrt3 r/l) exp(-sqrt3 r/l).
      for (std::size_t i = 0; i < values.size(); ++i) {
        const double r = std::sqrt(values[i]) / length_scale_;
        const double s = std::sqrt(3.0) * r;
        values[i] = 1.0 + s;
        decay[i] = std::exp(-s);
      }
      return;
    case KernelKind::kRbf:
      // k = s2 exp(-r^2 / (2 l^2)); s2 * 1.0 is s2 exactly.
      for (std::size_t i = 0; i < values.size(); ++i) {
        decay[i] = std::exp(-values[i] / (2.0 * length_scale_ * length_scale_));
        values[i] = 1.0;
      }
      return;
  }
}

const char* to_string(KernelKind kind) noexcept {
  switch (kind) {
    case KernelKind::kMatern52:
      return "matern52";
    case KernelKind::kMatern32:
      return "matern32";
    case KernelKind::kRbf:
      return "rbf";
  }
  return "unknown";
}

KernelKind parse_kernel_kind(std::string_view name) {
  if (name == "matern52") return KernelKind::kMatern52;
  if (name == "matern32") return KernelKind::kMatern32;
  if (name == "rbf") return KernelKind::kRbf;
  throw std::invalid_argument("parse_kernel_kind: unknown kernel '" +
                              std::string(name) + "'");
}

}  // namespace autra::gp
