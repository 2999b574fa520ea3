#pragma once

/// \file matrix.hpp
/// Dense row-major matrix and the small set of BLAS-like operations AEQP
/// needs. Sizes in this library are modest (basis dimensions of a few
/// thousand at most per process), so clarity wins over blocking tricks;
/// the inner loops are still written cache-friendly (ikj order).

#include <cstddef>
#include <span>
#include <vector>

namespace aeqp::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// n-by-n identity.
  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  const double& operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }
  [[nodiscard]] std::span<double> row(std::size_t i) {
    return {data_.data() + i * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }

  /// this += alpha * other (same shape required).
  void axpy(double alpha, const Matrix& other);

  /// Scale all elements.
  void scale(double alpha);

  /// Transposed copy.
  [[nodiscard]] Matrix transposed() const;

  /// (this + this^T) / 2, for cleaning up numerically asymmetric integrals.
  void symmetrize();

  /// Max |a_ij - b_ij| over all elements; shapes must match.
  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

  /// Max |a_ij|.
  [[nodiscard]] double max_abs() const;

  /// Sum_i a_ii (square only).
  [[nodiscard]] double trace() const;

  /// Bytes of payload held (used by the memory-model experiments).
  [[nodiscard]] std::size_t bytes() const { return data_.size() * sizeof(double); }

private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B.
Matrix matmul_tn(const Matrix& a, const Matrix& b);

/// C = A * B^T.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// y = A * x.
Vector matvec(const Matrix& a, const Vector& x);

/// y = A^T * x.
Vector matvec_t(const Matrix& a, const Vector& x);

/// Dot product of equally sized vectors.
double dot(std::span<const double> a, std::span<const double> b);

/// tr(A * B) for equally-shaped square matrices (uses A_ij * B_ji).
double trace_product(const Matrix& a, const Matrix& b);

}  // namespace aeqp::linalg
