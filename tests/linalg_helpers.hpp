// Matrix helpers only tests need: building symmetric positive-definite
// systems (B B^T + c I) and checking results against textbook values.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"

namespace autra::linalg::test_util {

/// Identity matrix of size n.
[[nodiscard]] inline Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

[[nodiscard]] inline Matrix transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  }
  return t;
}

/// Adds `v` to every diagonal element of `m`.
inline void add_diagonal(Matrix& m, double v) {
  const std::size_t n = m.rows() < m.cols() ? m.rows() : m.cols();
  for (std::size_t i = 0; i < n; ++i) m(i, i) += v;
}

/// Euclidean norm.
[[nodiscard]] inline double norm2(std::span<const double> a) {
  double s = 0.0;
  for (const double x : a) s += x * x;
  return std::sqrt(s);
}

}  // namespace autra::linalg::test_util
