// Dense row-major matrix and vector types used by the Gaussian-process
// regressor. Deliberately small: the GP training sets in AuTraScale are tens
// of samples, so a cache-friendly plain implementation beats pulling in a
// full BLAS dependency.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

namespace autra::linalg {

/// Column vector backed by std::vector<double>.
using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
///
/// Invariants: data_.size() == rows_ * cols_ at all times.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Creates a matrix from nested initializer lists; all rows must have the
  /// same length. Throws std::invalid_argument otherwise.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; throws std::out_of_range.
  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// View of row r as a contiguous span.
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<double> data() noexcept { return data_; }
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

  /// Identity matrix of size n.
  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] Matrix transposed() const;

  /// Matrix product this * rhs. Throws std::invalid_argument on shape
  /// mismatch.
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;

  /// Matrix-vector product. Throws std::invalid_argument on shape mismatch.
  [[nodiscard]] Vector operator*(const Vector& v) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;

  [[nodiscard]] Matrix operator+(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator-(const Matrix& rhs) const;

  /// Adds `v` to every diagonal element (used for jitter / noise terms).
  void add_diagonal(double v) noexcept;

  /// Appends one row; `values` must match cols() (any length is accepted on
  /// an empty matrix, which then adopts it as the column count). Throws
  /// std::invalid_argument on mismatch. Used by the incremental GP to grow
  /// its observation window in O(cols).
  void append_row(std::span<const double> values);

  /// Removes the first row (the oldest observation of a sliding window).
  /// Throws std::logic_error on an empty matrix.
  void drop_first_row();

  [[nodiscard]] bool operator==(const Matrix& rhs) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dot product; throws std::invalid_argument on length mismatch.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
[[nodiscard]] double norm2(std::span<const double> a) noexcept;

/// Squared Euclidean distance between two equal-length vectors; throws
/// std::invalid_argument on length mismatch. Inline: the Gram and
/// one-point cross-covariance loops call it once per pair.
[[nodiscard]] inline double squared_distance(std::span<const double> a,
                                             std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("squared_distance: length mismatch");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Squared distances between the rows of `x`: entry (i, j) for j < i is
/// squared_distance(x.row(i), x.row(j)); the diagonal and the upper
/// triangle are zero.
[[nodiscard]] Matrix squared_distances(const Matrix& x);

}  // namespace autra::linalg
