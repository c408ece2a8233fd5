#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autra::linalg {

namespace {

/// Rows that share each x[k] in the row-blocked forward solve and sweep:
/// their sums are independent until the block's own triangle, so they run
/// side by side instead of as one latency-bound chain.
constexpr std::size_t kRowBlock = 8;

/// Rows by right-hand sides of one register tile of the many-right-hand-side
/// forward solve: 16 running sums, all in registers.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 4;

/// Rows and columns of room a factor of size n keeps past its last row, so
/// a sliding window compacts its buffer once per that many observations.
std::size_t growth_room(std::size_t n) { return n / 32 + 8; }

}  // namespace

Cholesky::Cholesky(std::size_t n)
    : buf_((n + growth_room(n)) * (n + growth_room(n)), 0.0),
      stride_(n + growth_room(n)),
      n_(n) {}

void Cholesky::forward_rows(std::size_t n, double* x) const noexcept {
  std::size_t i0 = 0;
  for (; i0 + kRowBlock <= n; i0 += kRowBlock) {
    const double* l[kRowBlock];
    double s[kRowBlock];
    for (std::size_t r = 0; r < kRowBlock; ++r) {
      l[r] = row(i0 + r);
      s[r] = x[i0 + r];
    }
    for (std::size_t k = 0; k < i0; ++k) {
      const double xk = x[k];
      for (std::size_t r = 0; r < kRowBlock; ++r) s[r] -= l[r][k] * xk;
    }
    // The block's own triangle: row r needs x of the rows above it.
    for (std::size_t r = 0; r < kRowBlock; ++r) {
      for (std::size_t k = i0; k < i0 + r; ++k) s[r] -= l[r][k] * x[k];
      x[i0 + r] = s[r] / l[r][i0 + r];
    }
  }
  for (std::size_t i = i0; i < n; ++i) {
    const double* li = row(i);
    double s = x[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * x[k];
    x[i] = s / li[i];
  }
}

bool Cholesky::factor_in_place() noexcept {
  for (std::size_t i = 0; i < n_; ++i) {
    // Row i left of the diagonal solves L[0:i, 0:i] l_i = a_i where it
    // lies; the products l(j,k) l(i,k) are those of the textbook loop,
    // summed in the same order.
    double* li = row(i);
    forward_rows(i, li);
    double s = li[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * li[k];
    if (s <= 0.0 || !std::isfinite(s)) return false;
    li[i] = std::sqrt(s);
  }
  return true;
}

Cholesky Cholesky::copy_lower(const Matrix& m) {
  Cholesky c(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const std::span<const double> mi = m.row(i).first(i + 1);
    std::copy(mi.begin(), mi.end(), c.row(i));
  }
  return c;
}

std::optional<Cholesky> Cholesky::factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Cholesky::factor: matrix must be square");
  }
  Cholesky c = copy_lower(a);
  if (!c.factor_in_place()) return std::nullopt;
  return c;
}

Cholesky Cholesky::from_lower(const Matrix& l) {
  if (l.rows() != l.cols() || l.rows() == 0) {
    throw std::invalid_argument(
        "Cholesky::from_lower: factor must be square and non-empty");
  }
  for (std::size_t i = 0; i < l.rows(); ++i) {
    if (!(l(i, i) > 0.0) || !std::isfinite(l(i, i))) {
      throw std::invalid_argument(
          "Cholesky::from_lower: diagonal must be positive and finite");
    }
  }
  return copy_lower(l);
}

Matrix Cholesky::lower() const {
  Matrix out(n_, n_);
  for (std::size_t i = 0; i < n_; ++i) {
    std::copy(row(i), row(i) + i + 1, out.row(i).begin());
  }
  return out;
}

bool Cholesky::rank1_sweep(Vector& v, bool downdate) {
  // The textbook sweep walks column k down all rows i > k. Row i only
  // needs column k's rotation (c_k, s_k) — fixed once row k reaches its
  // diagonal — and its own running v_i, so sweeping row by row applies
  // exactly the same operations to every entry in the same order, with
  // rows read contiguously and kRowBlock v_i chains in flight.
  const std::size_t n = n_;
  // Column k's rotation: l' = (l + a_k v) / c_k, v' = c_k v - s_k l', with
  // a_k = s_k (update) or -s_k (downdate; (-s) v is -(s v) exactly).
  Vector c(n), a(n), s(n);
  const auto diagonal = [&](double* li, double& vi, std::size_t i) {
    double r = 0.0;
    if (downdate) {
      const double r2 = (li[i] - vi) * (li[i] + vi);
      if (!(r2 > 0.0) || !std::isfinite(r2)) return false;
      r = std::sqrt(r2);
    } else {
      r = std::hypot(li[i], vi);
    }
    c[i] = r / li[i];
    s[i] = vi / li[i];
    a[i] = downdate ? -s[i] : s[i];
    li[i] = r;
    return true;
  };
  std::size_t i0 = 0;
  for (; i0 + kRowBlock <= n; i0 += kRowBlock) {
    double* l[kRowBlock];
    double w[kRowBlock];
    for (std::size_t r = 0; r < kRowBlock; ++r) {
      l[r] = row(i0 + r);
      w[r] = v[i0 + r];
    }
    for (std::size_t k = 0; k < i0; ++k) {
      const double ck = c[k], ak = a[k], sk = s[k];
      for (std::size_t r = 0; r < kRowBlock; ++r) {
        const double lk = (l[r][k] + ak * w[r]) / ck;
        l[r][k] = lk;
        w[r] = ck * w[r] - sk * lk;
      }
    }
    for (std::size_t r = 0; r < kRowBlock; ++r) {
      for (std::size_t k = i0; k < i0 + r; ++k) {
        const double lk = (l[r][k] + a[k] * w[r]) / c[k];
        l[r][k] = lk;
        w[r] = c[k] * w[r] - s[k] * lk;
      }
      if (!diagonal(l[r], w[r], i0 + r)) return false;
    }
  }
  for (std::size_t i = i0; i < n; ++i) {
    double* li = row(i);
    double wi = v[i];
    for (std::size_t k = 0; k < i; ++k) {
      const double lk = (li[k] + a[k] * wi) / c[k];
      li[k] = lk;
      wi = c[k] * wi - s[k] * lk;
    }
    if (!diagonal(li, wi, i)) return false;
  }
  return true;
}

void Cholesky::update(const Vector& v) {
  if (v.size() != size()) {
    throw std::invalid_argument("Cholesky::update: size mismatch");
  }
  Vector w = v;
  rank1_sweep(w, false);
}

void Cholesky::downdate(const Vector& v) {
  if (v.size() != size()) {
    throw std::invalid_argument("Cholesky::downdate: size mismatch");
  }
  // Dry-run the hyperbolic sweep on a copy: the factor must be left
  // untouched when A - v v^T loses positive definiteness.
  Cholesky swept = *this;
  Vector w = v;
  if (!swept.rank1_sweep(w, true)) {
    throw std::runtime_error(
        "Cholesky::downdate: matrix would lose positive definiteness");
  }
  *this = std::move(swept);
}

void Cholesky::reserve_next_row() {
  if (org_ + n_ + 1 <= stride_) return;
  const std::size_t want = n_ + 1 + growth_room(n_);
  if (stride_ >= want) {
    // Slide the factor back to the buffer's corner. Each row moves to an
    // earlier address than any row after it is read from.
    for (std::size_t i = 0; i < n_; ++i) {
      const double* from = row(i);
      std::copy(from, from + i + 1, buf_.data() + i * stride_);
    }
  } else {
    std::vector<double> grown(want * want, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      std::copy(row(i), row(i) + i + 1, grown.data() + i * want);
    }
    buf_ = std::move(grown);
    stride_ = want;
  }
  org_ = 0;
}

void Cholesky::append_row(std::span<const double> cross, double diag) {
  const std::size_t n = size();
  if (cross.size() != n) {
    throw std::invalid_argument("Cholesky::append_row: size mismatch");
  }
  reserve_next_row();
  // Row n is past the factor until it is committed, so a failure below
  // leaves the factor as it was.
  double* l_row = buf_.data() + (org_ + n) * stride_ + org_;
  std::copy(cross.begin(), cross.end(), l_row);
  forward_rows(n, l_row);
  const double d2 = diag - dot({l_row, n}, {l_row, n});
  if (!(d2 > 0.0) || !std::isfinite(d2)) {
    throw std::runtime_error(
        "Cholesky::append_row: extended matrix is not positive definite");
  }
  l_row[n] = std::sqrt(d2);
  ++n_;
}

void Cholesky::drop_first() {
  const std::size_t n = size();
  if (n < 2) {
    throw std::logic_error("Cholesky::drop_first: need at least two rows");
  }
  // With L = [[l00, 0], [l10, L11]], the trailing block of A satisfies
  // A22 = l10 l10^T + L11 L11^T, so chol(A22) is L11 rank-1 updated by l10.
  // L11 starts one row and one column past the origin: move the origin
  // there and sweep it in place.
  Vector v(n - 1);
  for (std::size_t i = 1; i < n; ++i) v[i - 1] = row(i)[0];
  ++org_;
  --n_;
  rank1_sweep(v, false);
}

Vector Cholesky::solve_lower(const Vector& b) const {
  Vector x = b;
  solve_lower_in_place(x);
  return x;
}

void Cholesky::solve_lower_in_place(std::span<double> b,
                                    std::size_t rhs) const {
  const std::size_t n = size();
  if (rhs == 0 || b.size() != n * rhs) {
    throw std::invalid_argument("Cholesky::solve_lower: size mismatch");
  }
  if (rhs == 1) {
    forward_rows(n, b.data());
    return;
  }
  // Many right-hand sides: a tile of kTileRows rows by kTileCols right-hand
  // sides keeps its running sums in registers while k runs over the rows
  // already solved, so a factor entry is loaded once per tile row and a
  // solved value once per tile. Every sum still subtracts in ascending k.
  double* x = b.data();
  const auto subtract = [&](std::size_t i, std::size_t k, std::size_t j0) {
    const double lik = row(i)[k];
    const double* xk = x + k * rhs;
    double* xi = x + i * rhs;
    for (std::size_t j = j0; j < rhs; ++j) xi[j] -= lik * xk[j];
  };
  const auto finish_row = [&](std::size_t i, std::size_t k0) {
    for (std::size_t k = k0; k < i; ++k) subtract(i, k, 0);
    const double lii = row(i)[i];
    double* xi = x + i * rhs;
    for (std::size_t j = 0; j < rhs; ++j) xi[j] /= lii;
  };
  std::size_t i0 = 0;
  for (; i0 + kTileRows <= n; i0 += kTileRows) {
    const double* l[kTileRows];
    for (std::size_t r = 0; r < kTileRows; ++r) l[r] = row(i0 + r);
    std::size_t j0 = 0;
    for (; j0 + kTileCols <= rhs; j0 += kTileCols) {
      double acc[kTileRows][kTileCols];
      for (std::size_t r = 0; r < kTileRows; ++r) {
        for (std::size_t c = 0; c < kTileCols; ++c) {
          acc[r][c] = x[(i0 + r) * rhs + j0 + c];
        }
      }
      for (std::size_t k = 0; k < i0; ++k) {
        const double* xk = x + k * rhs + j0;
        for (std::size_t r = 0; r < kTileRows; ++r) {
          const double lk = l[r][k];
          for (std::size_t c = 0; c < kTileCols; ++c) acc[r][c] -= lk * xk[c];
        }
      }
      for (std::size_t r = 0; r < kTileRows; ++r) {
        for (std::size_t c = 0; c < kTileCols; ++c) {
          x[(i0 + r) * rhs + j0 + c] = acc[r][c];
        }
      }
    }
    // Right-hand sides past the last full tile.
    for (std::size_t r = 0; r < kTileRows; ++r) {
      for (std::size_t k = 0; k < i0; ++k) subtract(i0 + r, k, j0);
    }
    // The tile rows' own triangle: row i needs the rows of the tile above.
    for (std::size_t i = i0; i < i0 + kTileRows; ++i) finish_row(i, i0);
  }
  for (std::size_t i = i0; i < n; ++i) finish_row(i, 0);
}

Vector Cholesky::solve_upper(const Vector& b) const {
  if (b.size() != size()) {
    throw std::invalid_argument("Cholesky::solve_upper: size mismatch");
  }
  Vector x = b;
  back_rows(x.data());
  return x;
}

void Cholesky::back_rows(double* x) const noexcept {
  const std::size_t n = size();
  for (std::size_t ii = n; ii-- > 0;) {
    // Column ii below the diagonal, one buffer row apart per entry.
    std::size_t at = (org_ + ii + 1) * stride_ + org_ + ii;
    double s = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k, at += stride_) {
      s -= buf_[at] * x[k];
    }
    x[ii] = s / row(ii)[ii];
  }
}

void Cholesky::solve_in_place(std::span<double> b) const {
  if (b.size() != size()) {
    throw std::invalid_argument("Cholesky::solve: size mismatch");
  }
  forward_rows(size(), b.data());
  back_rows(b.data());
}

Vector Cholesky::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

double Cholesky::log_determinant() const noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < size(); ++i) s += std::log(row(i)[i]);
  return 2.0 * s;
}

}  // namespace autra::linalg
