// Unit tests for the dense linear-algebra substrate.
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

#include <cmath>
#include <random>
#include <span>

#include <gtest/gtest.h>

#include "linalg_helpers.hpp"

namespace autra::linalg {
namespace {

using test_util::add_diagonal;
using test_util::identity;
using test_util::norm2;
using test_util::transposed;

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, SizedConstructorFills) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, Identity) {
  const Matrix i = identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, Transposed) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = transposed(m);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, MultiplyKnownValues) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, MatVec) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = a * Vector{1.0, 1.0};
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MatVecShapeMismatchThrows) {
  Matrix a(2, 3);
  EXPECT_THROW((void)(a * Vector{1.0, 1.0}), std::invalid_argument);
}

TEST(Matrix, AddSubtractScale) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  Matrix c = a + b;
  EXPECT_DOUBLE_EQ(c(1, 1), 5.0);
  c -= b;
  EXPECT_EQ(c, a);
  c *= 2.0;
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  const Matrix d = a - b;
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(Matrix, AddShapeMismatchThrows) {
  Matrix a(2, 2);
  Matrix b(3, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
}

TEST(Matrix, AddDiagonal) {
  Matrix a(3, 3, 1.0);
  add_diagonal(a, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
}

TEST(VectorOps, DotKnownValue) {
  EXPECT_DOUBLE_EQ(dot(Vector{1.0, 2.0, 3.0}, Vector{4.0, 5.0, 6.0}), 32.0);
}

TEST(VectorOps, DotLengthMismatchThrows) {
  EXPECT_THROW(dot(Vector{1.0}, Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(VectorOps, Norm2) {
  EXPECT_DOUBLE_EQ(norm2(Vector{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(norm2(Vector{}), 0.0);
}

TEST(VectorOps, SquaredDistance) {
  EXPECT_DOUBLE_EQ(squared_distance(Vector{0.0, 0.0}, Vector{3.0, 4.0}), 25.0);
  EXPECT_THROW(squared_distance(Vector{1.0}, Vector{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Cholesky, KnownFactorisation) {
  // A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const auto c = Cholesky::factor(a);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->lower()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(c->lower()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(c->lower()(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, NonSquareThrows) {
  EXPECT_THROW(Cholesky::factor(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, IndefiniteReturnsNullopt) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::factor(a).has_value());
}

/// Fills a 2 x 2 buffer with the lower triangle of `a` plus `jitter` on
/// the diagonal, as the GP's jitter ladder refills its buffer.
void fill_2x2(Cholesky& c, const Matrix& a, double jitter) {
  c.lower_row(0)[0] = a(0, 0) + jitter;
  c.lower_row(1)[0] = a(1, 0);
  c.lower_row(1)[1] = a(1, 1) + jitter;
}

TEST(Cholesky, JitterRecoversNearSingular) {
  // Rank-one matrix: singular, needs jitter. A failed in-place attempt
  // leaves a buffer that, refilled with jitter, factors.
  const Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  Cholesky c(2);
  fill_2x2(c, a, 0.0);
  EXPECT_FALSE(c.factor_in_place());
  fill_2x2(c, a, 1e-10);
  ASSERT_TRUE(c.factor_in_place());
  EXPECT_GT(c.lower()(1, 1), 0.0);
}

TEST(Cholesky, JitterGivesUpOnNegativeDefinite) {
  const Matrix a{{-5.0, 0.0}, {0.0, -5.0}};
  Cholesky c(2);
  for (const double jitter : {0.0, 1e-10, 1e-6, 1e-2}) {
    fill_2x2(c, a, jitter);
    EXPECT_FALSE(c.factor_in_place()) << "jitter " << jitter;
  }
}

TEST(Cholesky, InPlaceFactorMatchesCopyingFactor) {
  // factor(a) is factor_in_place() on a copy of a's lower triangle; a
  // buffer filled row by row gives the same bits, whatever lies above the
  // diagonal of a.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  constexpr std::size_t n = 13;
  Matrix b(n, n);
  for (double& v : b.data()) v = dist(rng);
  Matrix a = b * transposed(b);
  add_diagonal(a, 1.0);
  Cholesky c(n);
  EXPECT_EQ(c.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<double> row = c.lower_row(i);
    ASSERT_EQ(row.size(), i + 1);
    for (std::size_t j = 0; j <= i; ++j) row[j] = a(i, j);
    for (std::size_t j = i + 1; j < n; ++j) a(i, j) = 1e300;  // never read
  }
  ASSERT_TRUE(c.factor_in_place());
  const auto copied = Cholesky::factor(a);
  ASSERT_TRUE(copied);
  EXPECT_TRUE(c.lower() == copied->lower());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(c.lower_row(i).back(), c.lower()(i, i)) << "row " << i;
  }
}

TEST(Cholesky, SolveKnownSystem) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const auto c = Cholesky::factor(a);
  ASSERT_TRUE(c);
  const Vector x = c->solve(Vector{8.0, 7.0});
  // Verify A x = b.
  const Vector b = a * x;
  EXPECT_NEAR(b[0], 8.0, 1e-10);
  EXPECT_NEAR(b[1], 7.0, 1e-10);
}

TEST(Cholesky, SolveSizeMismatchThrows) {
  const auto c = Cholesky::factor(identity(2));
  ASSERT_TRUE(c);
  EXPECT_THROW(c->solve(Vector{1.0, 2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(c->solve_lower(Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(c->solve_upper(Vector{1.0}), std::invalid_argument);
}

TEST(Cholesky, LogDeterminantIdentity) {
  const auto c = Cholesky::factor(identity(4));
  ASSERT_TRUE(c);
  EXPECT_NEAR(c->log_determinant(), 0.0, 1e-12);
}

TEST(Cholesky, LogDeterminantDiagonal) {
  Matrix a = identity(3);
  a(0, 0) = 2.0;
  a(1, 1) = 3.0;
  a(2, 2) = 4.0;
  const auto c = Cholesky::factor(a);
  ASSERT_TRUE(c);
  EXPECT_NEAR(c->log_determinant(), std::log(24.0), 1e-12);
}

// Property: for random SPD systems A = B B^T + I of any size, the Cholesky
// solve reproduces b to high accuracy.
class CholeskyProperty : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyProperty, RandomSpdSolveResidualSmall) {
  const int n = GetParam();
  std::mt19937_64 rng(42 + static_cast<unsigned>(n));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix b(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (std::size_t r = 0; r < b.rows(); ++r) {
    for (std::size_t c = 0; c < b.cols(); ++c) b(r, c) = dist(rng);
  }
  Matrix a = b * transposed(b);
  add_diagonal(a, 1.0);

  Vector rhs(static_cast<std::size_t>(n));
  for (double& v : rhs) v = dist(rng);

  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol);
  const Vector x = chol->solve(rhs);
  const Vector reproduced = a * x;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    EXPECT_NEAR(reproduced[i], rhs[i], 1e-8) << "n=" << n << " i=" << i;
  }
  // log|A| must be finite and positive (all eigenvalues >= 1).
  EXPECT_GE(chol->log_determinant(), -1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

// --------------------------------------------------------------------------
// Rank-1 surgery: update/append_row/drop_first against freshly
// factored references on random SPD matrices.

Matrix random_spd(std::mt19937_64& rng, std::size_t n, double ridge) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = dist(rng);
  }
  Matrix a = b * transposed(b);
  add_diagonal(a, ridge);
  return a;
}

Matrix rank1(const Vector& v) {
  Matrix m(v.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = 0; j < v.size(); ++j) m(i, j) = v[i] * v[j];
  }
  return m;
}

void expect_lower_near(const Matrix& got, const Matrix& want, double tol) {
  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(got(i, j), want(i, j), tol) << "(" << i << "," << j << ")";
    }
  }
}

class CholeskyRank1Property : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRank1Property, UpdateMatchesFreshFactorOfAPlusVvT) {
  const auto n = static_cast<std::size_t>(GetParam());
  std::mt19937_64 rng(100 + n);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const Matrix a = random_spd(rng, n, 1.0);
  Vector v(n);
  for (double& x : v) x = dist(rng);

  auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol);
  chol->update(v);

  const auto fresh = Cholesky::factor(a + rank1(v));
  ASSERT_TRUE(fresh);
  expect_lower_near(chol->lower(), fresh->lower(), 1e-9);
  EXPECT_NEAR(chol->log_determinant(), fresh->log_determinant(), 1e-9);
}

TEST_P(CholeskyRank1Property, AppendRowMatchesFullFactorOfBorderedMatrix) {
  const auto n = static_cast<std::size_t>(GetParam());
  std::mt19937_64 rng(300 + n);
  const Matrix big = random_spd(rng, n + 1, 1.0);
  Matrix lead(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) lead(i, j) = big(i, j);
  }
  Vector cross(n);
  for (std::size_t i = 0; i < n; ++i) cross[i] = big(n, i);

  auto chol = Cholesky::factor(lead);
  ASSERT_TRUE(chol);
  chol->append_row(cross, big(n, n));
  ASSERT_EQ(chol->size(), n + 1);

  const auto fresh = Cholesky::factor(big);
  ASSERT_TRUE(fresh);
  expect_lower_near(chol->lower(), fresh->lower(), 1e-9);
  EXPECT_NEAR(chol->log_determinant(), fresh->log_determinant(), 1e-9);
}

TEST_P(CholeskyRank1Property, DropFirstMatchesFactorOfTrailingBlock) {
  const auto n = static_cast<std::size_t>(GetParam()) + 1;
  std::mt19937_64 rng(400 + n);
  const Matrix a = random_spd(rng, n, 1.0);
  Matrix trailing(n - 1, n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 1; j < n; ++j) trailing(i - 1, j - 1) = a(i, j);
  }

  auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol);
  if (n < 2) return;
  chol->drop_first();
  ASSERT_EQ(chol->size(), n - 1);

  const auto fresh = Cholesky::factor(trailing);
  ASSERT_TRUE(fresh);
  expect_lower_near(chol->lower(), fresh->lower(), 1e-9);
  EXPECT_NEAR(chol->log_determinant(), fresh->log_determinant(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyRank1Property,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(CholeskyRank1, NonPositiveAppendRowThrowsAndPreservesFactor) {
  auto chol = Cholesky::factor(identity(2));
  ASSERT_TRUE(chol);
  const Matrix before = chol->lower();
  // diag <= |cross|^2 makes the Schur complement non-positive.
  EXPECT_THROW(chol->append_row(Vector{1.0, 1.0}, 1.0), std::runtime_error);
  EXPECT_EQ(chol->size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(chol->lower()(i, j), before(i, j));
    }
  }
}

TEST(CholeskyRank1, SizeAndStateValidation) {
  auto chol = Cholesky::factor(identity(2));
  ASSERT_TRUE(chol);
  EXPECT_THROW(chol->update(Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(chol->append_row(Vector{1.0}, 2.0), std::invalid_argument);

  auto one = Cholesky::factor(identity(1));
  ASSERT_TRUE(one);
  EXPECT_THROW(one->drop_first(), std::logic_error);

  EXPECT_THROW(Cholesky::from_lower(Matrix(2, 3)), std::invalid_argument);
  Matrix bad = identity(2);
  bad(1, 1) = 0.0;
  EXPECT_THROW(Cholesky::from_lower(bad), std::invalid_argument);
}

TEST(CholeskyRank1, FromLowerZeroesUpperTriangleAndRoundTrips) {
  Matrix l{{2.0, 7.0}, {1.0, 3.0}};  // Junk above the diagonal.
  const Cholesky c = Cholesky::from_lower(l);
  EXPECT_EQ(c.lower()(0, 1), 0.0);
  EXPECT_EQ(c.lower()(0, 0), 2.0);
  EXPECT_EQ(c.lower()(1, 0), 1.0);
  EXPECT_EQ(c.lower()(1, 1), 3.0);
  // Solves treat it as the factor of A = L L^T = [[4, 2], [2, 10]].
  const Vector x = c.solve(Vector{4.0, 10.0});
  EXPECT_NEAR(4.0 * x[0] + 2.0 * x[1], 4.0, 1e-12);
  EXPECT_NEAR(2.0 * x[0] + 10.0 * x[1], 10.0, 1e-12);
}

TEST(Matrix, AppendAndDropRows) {
  Matrix m;
  m.append_row(Vector{1.0, 2.0});
  m.append_row(Vector{3.0, 4.0});
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_THROW(m.append_row(Vector{1.0}), std::invalid_argument);
  m.drop_first_row();
  ASSERT_EQ(m.rows(), 1u);
  EXPECT_EQ(m(0, 0), 3.0);
  EXPECT_EQ(m(0, 1), 4.0);
  m.drop_first_row();
  EXPECT_THROW(m.drop_first_row(), std::logic_error);
}


// --------------------------------------------------------------------------
// Bit-exact reference oracles: the textbook loops the factor used before it
// was row-blocked and stored in place. Every entry of the blocked code must
// equal them exactly (==, not a tolerance).

/// Textbook Cholesky: each entry a(i,j) - sum_k l(i,k) l(j,k), ascending k.
Matrix reference_factor(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = i == j ? std::sqrt(s) : s / l(j, j);
    }
  }
  return l;
}

/// One-row forward substitution.
Vector reference_solve_lower(const Matrix& l, const Vector& b) {
  Vector x(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

/// One-column back substitution against L^T, each sum in ascending k.
Vector reference_solve_upper(const Matrix& l, const Vector& b) {
  const std::size_t n = b.size();
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

/// Column-by-column Givens sweep of L L^T + v v^T.
void reference_update(Matrix& l, Vector v) {
  const std::size_t n = l.rows();
  for (std::size_t k = 0; k < n; ++k) {
    const double r = std::hypot(l(k, k), v[k]);
    const double c = r / l(k, k);
    const double s = v[k] / l(k, k);
    l(k, k) = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      l(i, k) = (l(i, k) + s * v[i]) / c;
      v[i] = c * v[i] - s * l(i, k);
    }
  }
}

/// Factor of the bordered matrix, built as a fresh (n+1)^2 matrix.
Matrix reference_append_row(const Matrix& l, const Vector& cross,
                            double diag) {
  const std::size_t n = l.rows();
  const Vector row = reference_solve_lower(l, cross);
  Matrix grown(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l(i, j);
  }
  for (std::size_t j = 0; j < n; ++j) grown(n, j) = row[j];
  grown(n, n) = std::sqrt(diag - dot(row, row));
  return grown;
}

/// Factor of the trailing block, built as a fresh (n-1)^2 matrix.
Matrix reference_drop_first(const Matrix& l) {
  const std::size_t n = l.rows();
  Vector v(n - 1);
  Matrix sub(n - 1, n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    v[i - 1] = l(i, 0);
    for (std::size_t j = 1; j <= i; ++j) sub(i - 1, j - 1) = l(i, j);
  }
  reference_update(sub, v);
  return sub;
}

constexpr std::size_t kOracleSizes[] = {1, 7, 8, 9, 64, 1000};

TEST(CholeskyOracle, BlockedFactorMatchesTextbookLoop) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{9}, std::size_t{64},
                              std::size_t{203}}) {
    std::mt19937_64 rng(500 + n);
    const Matrix a = random_spd(rng, n, 1.0);
    const auto chol = Cholesky::factor(a);
    ASSERT_TRUE(chol) << "n=" << n;
    EXPECT_TRUE(chol->lower() == reference_factor(a)) << "n=" << n;
  }
}

TEST(CholeskyOracle, BlockedForwardSolvesMatchOneRowLoop) {
  for (const std::size_t n : kOracleSizes) {
    std::mt19937_64 rng(600 + n);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    // Lower-triangular L with a dominant diagonal: solves stay O(1).
    Matrix l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) l(i, j) = dist(rng) / std::sqrt(n);
      l(i, i) = 1.5 + dist(rng);
    }
    const Cholesky chol = Cholesky::from_lower(l);
    // Right-hand-side counts that do not divide the 8-row block or n.
    for (const std::size_t rhs :
         {std::size_t{1}, std::size_t{3}, std::size_t{5}, std::size_t{32}}) {
      std::vector<Vector> columns(rhs, Vector(n));
      for (Vector& col : columns) {
        for (double& x : col) x = dist(rng);
      }
      Vector block(n * rhs);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < rhs; ++j) {
          block[i * rhs + j] = columns[j][i];
        }
      }
      chol.solve_lower_in_place(block, rhs);
      for (std::size_t j = 0; j < rhs; ++j) {
        const Vector want = reference_solve_lower(l, columns[j]);
        EXPECT_TRUE(chol.solve_lower(columns[j]) == want)
            << "n=" << n << " rhs=" << rhs << " column " << j;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(block[i * rhs + j], want[i])
              << "n=" << n << " rhs=" << rhs << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(CholeskyOracle, RowSweepsMatchColumnSweeps) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{9}, std::size_t{64},
                              std::size_t{203}}) {
    std::mt19937_64 rng(700 + n);
    std::uniform_real_distribution<double> dist(-0.3, 0.3);
    const Matrix a = random_spd(rng, n, 2.0);
    Vector v(n);
    for (double& x : v) x = dist(rng);

    auto chol = Cholesky::factor(a);
    ASSERT_TRUE(chol);
    Matrix want = chol->lower();
    chol->update(v);
    reference_update(want, v);
    EXPECT_TRUE(chol->lower() == want) << "update n=" << n;
  }
}

TEST(CholeskyOracle, InPlaceWindowMatchesFreshMatrices) {
  // A sliding window (drop the oldest point, append a new one) for the
  // first half, long enough that the buffer compacts several times, then a
  // growing one (append only), long enough that it reallocates. Solves read
  // the factor by column as well as by row, so they are checked too.
  constexpr std::size_t kPoints = 300;
  std::mt19937_64 rng(800);
  const Matrix big = random_spd(rng, kPoints, 1.0);
  const auto entry = [&](std::size_t i, std::size_t j) { return big(i, j); };
  for (const std::size_t window : {std::size_t{1}, std::size_t{9},
                                   std::size_t{64}}) {
    Matrix lead(window, window);
    for (std::size_t i = 0; i < window; ++i) {
      for (std::size_t j = 0; j < window; ++j) lead(i, j) = entry(i, j);
    }
    auto chol = Cholesky::factor(lead);
    ASSERT_TRUE(chol);
    Matrix want = reference_factor(lead);
    std::size_t first = 0;
    for (std::size_t next = window; next < kPoints; ++next) {
      if (want.rows() > 1 && next < kPoints / 2) {
        chol->drop_first();
        want = reference_drop_first(want);
        ++first;
      }
      Vector cross(next - first);
      for (std::size_t i = 0; i < cross.size(); ++i) {
        cross[i] = entry(next, first + i);
      }
      chol->append_row(cross, entry(next, next));
      want = reference_append_row(want, cross, entry(next, next));
      ASSERT_TRUE(chol->lower() == want)
          << "window " << window << " after point " << next;
      // The new point's row of A as a right-hand side.
      Vector b(chol->size());
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = entry(next, first + i);
      ASSERT_TRUE(chol->solve_upper(b) == reference_solve_upper(want, b))
          << "window " << window << " after point " << next;
      ASSERT_TRUE(chol->solve(b) ==
                  reference_solve_upper(want, reference_solve_lower(want, b)))
          << "window " << window << " after point " << next;
    }
    EXPECT_GT(chol->size(), window);  // the window grew as well as slid
  }
}

}  // namespace
}  // namespace autra::linalg
