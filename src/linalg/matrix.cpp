#include "linalg/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace autra::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at: index out of range");
  }
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at: index out of range");
  }
  return (*this)(r, c);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix::operator*: shape mismatch");
  }
  Matrix out(rows_, rhs.cols_);
  // ikj loop order keeps the inner loop contiguous in both operands.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += a * rhs(k, j);
      }
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  if (cols_ != v.size()) {
    throw std::invalid_argument("Matrix::operator*(Vector): shape mismatch");
  }
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    out[i] = dot(row(i), v);
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::operator+=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::operator-=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  Matrix out = *this;
  out += rhs;
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  Matrix out = *this;
  out -= rhs;
  return out;
}

void Matrix::append_row(std::span<const double> values) {
  if (data_.empty() && rows_ == 0) {
    cols_ = values.size();
  } else if (values.size() != cols_) {
    throw std::invalid_argument("Matrix::append_row: length mismatch");
  }
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

void Matrix::drop_first_row() {
  if (rows_ == 0) {
    throw std::logic_error("Matrix::drop_first_row: empty matrix");
  }
  data_.erase(data_.begin(),
              data_.begin() + static_cast<std::ptrdiff_t>(cols_));
  --rows_;
}

void Matrix::add_diagonal(double v) noexcept {
  const std::size_t n = rows_ < cols_ ? rows_ : cols_;
  for (std::size_t i = 0; i < n; ++i) (*this)(i, i) += v;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: length mismatch");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) noexcept {
  double s = 0.0;
  for (double x : a) s += x * x;
  return std::sqrt(s);
}

Matrix squared_distances(const Matrix& x) {
  const std::size_t n = x.rows();
  Matrix d2(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      d2(i, j) = squared_distance(x.row(i), x.row(j));
    }
  }
  return d2;
}

}  // namespace autra::linalg
