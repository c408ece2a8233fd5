// Cholesky factorisation and solves for symmetric positive-definite systems.
// This is the numerical core of the GP regressor: K = L L^T, alpha = K^-1 y,
// and log|K| all come from here.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace autra::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
///
/// The factor lives in a square row-major buffer wider than the factor, with
/// entry (0, 0) at an origin on the buffer's diagonal: drop_first() moves the
/// origin down one row and column and append_row() writes the row after the
/// last, so a sliding observation window never rebuilds the factor.
class Cholesky {
 public:
  /// A buffer for an n x n symmetric matrix A, to be filled with A's lower
  /// triangle through lower_row() and then factorised by factor_in_place().
  /// Until that succeeds the object holds A, not a factor.
  explicit Cholesky(std::size_t n);

  /// Entries (i, 0..i) of row i: A's before factor_in_place(), L's after.
  [[nodiscard]] std::span<double> lower_row(std::size_t i) noexcept {
    return {row(i), i + 1};
  }

  /// Replaces A in the buffer by its factor L, row by row where it lies.
  /// Returns false if A is not positive definite; the buffer then holds
  /// neither, so a caller retrying (say, with jitter) refills every row.
  [[nodiscard]] bool factor_in_place() noexcept;

  /// Factorises `a` (must be square, symmetric, positive definite): its
  /// lower triangle copied into a buffer, then factor_in_place(). Returns
  /// std::nullopt if the matrix is not positive definite.
  [[nodiscard]] static std::optional<Cholesky> factor(const Matrix& a);

  /// Wraps an externally produced lower-triangular factor (e.g. one read
  /// back from a model snapshot). Entries above the diagonal are ignored.
  /// Throws std::invalid_argument unless `l` is square with strictly
  /// positive, finite diagonal entries.
  [[nodiscard]] static Cholesky from_lower(const Matrix& l);

  /// Rank-1 update: after the call this is the factor of A + v v^T, in
  /// O(n^2) (standard `cholupdate` Givens sweep). Throws
  /// std::invalid_argument on size mismatch.
  void update(const Vector& v);

  /// Rank-1 downdate: after the call this is the factor of A - v v^T, in
  /// O(n^2) (hyperbolic rotations). Throws std::invalid_argument on size
  /// mismatch and std::runtime_error — leaving the factor untouched — when
  /// A - v v^T is not positive definite (the result must never be a
  /// silently NaN-poisoned factor).
  void downdate(const Vector& v);

  /// Factor extension: after the call this is the factor of the bordered
  /// matrix [[A, cross], [cross^T, diag]] — a new observation appended
  /// without refactorising, in O(n^2) (one triangular solve written straight
  /// into the new row). Throws std::invalid_argument on size mismatch and
  /// std::runtime_error when the extended matrix is not positive definite
  /// (the factor is left untouched so the caller can fall back to a full
  /// refactorisation).
  void append_row(std::span<const double> cross, double diag);

  /// Removes the first row/column of A (the oldest point of a sliding
  /// observation window): the trailing (n-1)x(n-1) block is rank-1
  /// *updated* in place with the first column's sub-diagonal entries, in
  /// O(n^2). Throws std::logic_error when the factor has fewer than two
  /// rows.
  void drop_first();

  /// Solves L x = b (forward substitution).
  [[nodiscard]] Vector solve_lower(const Vector& b) const;

  /// Solves L X = B in place for `rhs` right-hand sides: `b` holds B as an
  /// n x rhs row-major block and receives X. Every entry is the sum
  /// solve_lower() forms, in the same order, so both agree bit for bit.
  /// Throws std::invalid_argument unless b.size() == n * rhs.
  void solve_lower_in_place(std::span<double> b, std::size_t rhs = 1) const;

  /// Solves L^T x = b (back substitution).
  [[nodiscard]] Vector solve_upper(const Vector& b) const;

  /// Solves the full system (L L^T) x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// solve() in place: `b` receives x, with the sums solve() forms, in the
  /// same order. Throws std::invalid_argument unless b.size() == size().
  void solve_in_place(std::span<double> b) const;

  /// log|A| = 2 * sum(log L_ii).
  [[nodiscard]] double log_determinant() const noexcept;

  /// The factor as a dense n x n matrix, zero above the diagonal.
  [[nodiscard]] Matrix lower() const;
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  /// A buffer holding the lower triangle of `m` (square).
  [[nodiscard]] static Cholesky copy_lower(const Matrix& m);

  /// Entries (i, 0..i) of row i, contiguous.
  [[nodiscard]] const double* row(std::size_t i) const noexcept {
    return buf_.data() + (org_ + i) * stride_ + org_;
  }
  [[nodiscard]] double* row(std::size_t i) noexcept {
    return buf_.data() + (org_ + i) * stride_ + org_;
  }

  /// Forward substitution of one right-hand side against rows [0, n):
  /// x[i] = (x[i] - sum_{k<i} L(i,k) x[k]) / L(i,i), each sum in ascending k.
  void forward_rows(std::size_t n, double* x) const noexcept;

  /// Back substitution against L^T, in place over x[0, n):
  /// x[i] = (x[i] - sum_{k>i} L(k,i) x[k]) / L(i,i), i from n - 1 down,
  /// each sum in ascending k.
  void back_rows(double* x) const noexcept;

  /// The Givens (update) or hyperbolic (downdate) sweep of L L^T +- v v^T,
  /// row by row; consumes `v`. Returns false, with the factor partly swept,
  /// when a downdate loses positive definiteness.
  bool rank1_sweep(Vector& v, bool downdate);

  /// Makes room for row and column n_ past the current origin.
  void reserve_next_row();

  std::vector<double> buf_;  ///< stride_ x stride_, row-major.
  std::size_t stride_ = 0;
  std::size_t org_ = 0;  ///< Buffer row and column of entry (0, 0).
  std::size_t n_ = 0;
};

}  // namespace autra::linalg
