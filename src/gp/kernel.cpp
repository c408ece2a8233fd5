#include "gp/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autra::gp {

Kernel::Kernel(double signal_variance, double length_scale)
    : signal_variance_(signal_variance), length_scale_(length_scale) {
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

std::vector<double> Kernel::log_params() const {
  return {std::log(signal_variance_), std::log(length_scale_)};
}

void Kernel::set_log_params(std::span<const double> p) {
  if (p.size() != 2) {
    throw std::invalid_argument("Kernel::set_log_params: expected 2 params");
  }
  signal_variance_ = std::exp(p[0]);
  length_scale_ = std::exp(p[1]);
}

double Kernel::operator()(std::span<const double> a,
                          std::span<const double> b) const {
  double k = linalg::squared_distance(a, b);
  covariance_from_squared_distances({&k, 1});
  return k;
}

linalg::Matrix Kernel::gram(const linalg::Matrix& x) const {
  return gram_from_squared_distances(linalg::squared_distances(x));
}

linalg::Matrix Kernel::gram_from_squared_distances(linalg::Matrix d2) const {
  const std::size_t n = d2.rows();
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<double> left = d2.row(i).first(i);
    covariance_from_squared_distances(left);
    d2(i, i) = diagonal();
    for (std::size_t j = 0; j < i; ++j) d2(j, i) = left[j];
  }
  return d2;
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

// k = s2 (1 + sqrt5 r/l + 5 r^2 / (3 l^2)) exp(-sqrt5 r/l).
void Matern52::shape_and_decay(std::span<double> values,
                               std::span<double> decay) const {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double r = std::sqrt(values[i]) / length_scale_;
    const double s = std::sqrt(5.0) * r;
    values[i] = 1.0 + s + s * s / 3.0;
    decay[i] = std::exp(-s);
  }
}

// k = s2 (1 + sqrt3 r/l) exp(-sqrt3 r/l).
void Matern32::shape_and_decay(std::span<double> values,
                               std::span<double> decay) const {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double r = std::sqrt(values[i]) / length_scale_;
    const double s = std::sqrt(3.0) * r;
    values[i] = 1.0 + s;
    decay[i] = std::exp(-s);
  }
}

// k = s2 exp(-r^2 / (2 l^2)); s2 * 1.0 is s2 exactly.
void Rbf::shape_and_decay(std::span<double> values,
                          std::span<double> decay) const {
  for (std::size_t i = 0; i < values.size(); ++i) {
    decay[i] = std::exp(-values[i] / (2.0 * length_scale_ * length_scale_));
    values[i] = 1.0;
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

std::unique_ptr<Kernel> make_kernel(KernelKind kind, double signal_variance,
                                    double length_scale) {
  switch (kind) {
    case KernelKind::kMatern52:
      return std::make_unique<Matern52>(signal_variance, length_scale);
    case KernelKind::kMatern32:
      return std::make_unique<Matern32>(signal_variance, length_scale);
    case KernelKind::kRbf:
      return std::make_unique<Rbf>(signal_variance, length_scale);
  }
  throw std::invalid_argument("make_kernel: invalid kernel kind");
}

}  // namespace autra::gp
