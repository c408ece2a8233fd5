// Covariance kernels for Gaussian-process regression.
//
// AuTraScale (Sec. III-E) uses a Gaussian process with the Matern covariance
// kernel as the BO surrogate because of its extrapolation quality; Matern 5/2
// is the default here, with Matern 3/2 and RBF available for the kernel
// ablation study.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"

namespace autra::gp {

/// The covariance families the regressor supports. Typed configuration
/// lives on this enum; kernel *names* exist only at the I/O boundaries
/// (CLI flags, model files, bench labels) via to_string/parse_kernel_kind.
enum class KernelKind {
  kMatern52,  ///< The paper's choice (Sec. III-E).
  kMatern32,
  kRbf,
};

/// Canonical name of a kernel kind ("matern52" | "matern32" | "rbf").
[[nodiscard]] const char* to_string(KernelKind kind) noexcept;

/// Parses a kernel name at an I/O boundary; throws std::invalid_argument
/// on unknown names (so bad configuration fails at parse time, not inside
/// a fit() deep in the Plan stage).
[[nodiscard]] KernelKind parse_kernel_kind(std::string_view name);

/// A stationary covariance kernel k(x, x').
///
/// Hyper-parameters are exposed as a flat vector in *log space* so the
/// regressor's marginal-likelihood search can optimise them without bound
/// constraints. Layout: [log signal_variance, log length_scale].
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Covariance between two points of equal dimension.
  [[nodiscard]] double operator()(std::span<const double> a,
                                  std::span<const double> b) const;

  /// The kernel's formula, split so that a grid of signal variances can
  /// share its costly part: at squared distance d2 the covariance is
  /// (signal_variance() * shape) * decay, where shape and decay depend on
  /// d2 and the length scale only. Overwrites each d2 in `values` with its
  /// shape and writes its decay to the same index of `decay`.
  virtual void shape_and_decay(std::span<double> values,
                               std::span<double> decay) const = 0;

  /// The covariance from shape_and_decay()'s parts.
  [[nodiscard]] double covariance(double shape, double decay) const noexcept {
    return signal_variance_ * shape * decay;
  }

  /// Replaces each squared distance d2 in `values` by the covariance at
  /// distance sqrt(d2), with one virtual call per few hundred values.
  void covariance_from_squared_distances(std::span<double> values) const;

  /// k(x, x) for a stationary kernel is the signal variance.
  [[nodiscard]] double diagonal() const noexcept { return signal_variance_; }

  [[nodiscard]] double signal_variance() const noexcept {
    return signal_variance_;
  }
  [[nodiscard]] double length_scale() const noexcept { return length_scale_; }

  void set_signal_variance(double v);
  void set_length_scale(double l);

  /// Log-space hyper-parameters: [log sigma^2, log ell].
  [[nodiscard]] std::vector<double> log_params() const;
  void set_log_params(std::span<const double> p);

  [[nodiscard]] virtual KernelKind kind() const noexcept = 0;
  [[nodiscard]] std::string name() const { return to_string(kind()); }
  [[nodiscard]] virtual std::unique_ptr<Kernel> clone() const = 0;

  /// Cross-covariance vector [k(x_star, X_i)]_i.
  [[nodiscard]] linalg::Vector cross(const linalg::Matrix& x,
                                     std::span<const double> x_star) const;

  /// Cross-covariances of a block of m points against the rows of X:
  /// out[i * m + c] = k(X_i, point_c). The block is coordinate-major
  /// (coordinate j of point c at points[j * m + c]), so each distance sum
  /// runs over coordinates in order while the loop runs across points.
  /// Throws std::invalid_argument on a size mismatch.
  void cross(const linalg::Matrix& x, std::span<const double> points,
             std::span<double> out) const;

 protected:
  Kernel(double signal_variance, double length_scale);

  double signal_variance_;
  double length_scale_;
};

/// Matern 5/2: k(r) = s2 (1 + sqrt5 r/l + 5 r^2 / (3 l^2)) exp(-sqrt5 r/l).
class Matern52 final : public Kernel {
 public:
  explicit Matern52(double signal_variance = 1.0, double length_scale = 1.0)
      : Kernel(signal_variance, length_scale) {}
  void shape_and_decay(std::span<double> values,
                       std::span<double> decay) const override;
  [[nodiscard]] KernelKind kind() const noexcept override {
    return KernelKind::kMatern52;
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<Matern52>(*this);
  }
};

/// Matern 3/2: k(r) = s2 (1 + sqrt3 r/l) exp(-sqrt3 r/l).
class Matern32 final : public Kernel {
 public:
  explicit Matern32(double signal_variance = 1.0, double length_scale = 1.0)
      : Kernel(signal_variance, length_scale) {}
  void shape_and_decay(std::span<double> values,
                       std::span<double> decay) const override;
  [[nodiscard]] KernelKind kind() const noexcept override {
    return KernelKind::kMatern32;
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<Matern32>(*this);
  }
};

/// Squared exponential: k(r) = s2 exp(-r^2 / (2 l^2)).
class Rbf final : public Kernel {
 public:
  explicit Rbf(double signal_variance = 1.0, double length_scale = 1.0)
      : Kernel(signal_variance, length_scale) {}
  void shape_and_decay(std::span<double> values,
                       std::span<double> decay) const override;
  [[nodiscard]] KernelKind kind() const noexcept override {
    return KernelKind::kRbf;
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<Rbf>(*this);
  }
};

/// Factory by kind. Code that starts from a *name* (a CLI flag, a model
/// file) parses it first with parse_kernel_kind.
[[nodiscard]] std::unique_ptr<Kernel> make_kernel(KernelKind kind,
                                                  double signal_variance = 1.0,
                                                  double length_scale = 1.0);

}  // namespace autra::gp
