#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"

namespace aeqp::linalg {

namespace {
/// Below this many multiply-adds a matmul runs serially; the pool hand-off
/// costs more than it saves on the small DIIS/Sternheimer systems.
constexpr std::size_t kParallelFlopCutoff = 1u << 18;

/// Rows per scheduling block for the pool-parallel products. Each block of
/// output rows is owned by exactly one worker, so the per-element
/// accumulation order never depends on the thread count.
constexpr std::size_t kRowBlock = 8;
}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::axpy(double alpha, const Matrix& other) {
  AEQP_CHECK(rows_ == other.rows_ && cols_ == other.cols_, "axpy shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::scale(double alpha) {
  for (auto& v : data_) v *= alpha;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

void Matrix::symmetrize() {
  AEQP_CHECK(rows_ == cols_, "symmetrize requires a square matrix");
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j) {
      const double avg = 0.5 * ((*this)(i, j) + (*this)(j, i));
      (*this)(i, j) = avg;
      (*this)(j, i) = avg;
    }
}

double Matrix::max_abs_diff(const Matrix& other) const {
  AEQP_CHECK(rows_ == other.rows_ && cols_ == other.cols_, "shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  return m;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Matrix::trace() const {
  AEQP_CHECK(rows_ == cols_, "trace requires a square matrix");
  double s = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) s += (*this)(i, i);
  return s;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  AEQP_CHECK(a.cols() == b.rows(), "matmul shape mismatch");
  Matrix c(a.rows(), b.cols());
  const std::size_t work = a.rows() * a.cols() * b.cols();
  const std::size_t grain = work >= kParallelFlopCutoff ? kRowBlock : a.rows();
  exec::parallel_for_ranges(
      0, a.rows(), std::max<std::size_t>(grain, 1),
      [&](std::size_t ib, std::size_t ie) {
        for (std::size_t i = ib; i < ie; ++i)
          for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            if (aik == 0.0) continue;
            const double* brow = b.data() + k * b.cols();
            double* crow = c.data() + i * c.cols();
            for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
          }
      });
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  AEQP_CHECK(a.rows() == b.rows(), "matmul_tn shape mismatch");
  Matrix c(a.cols(), b.cols());
  const std::size_t work = a.rows() * a.cols() * b.cols();
  const std::size_t grain = work >= kParallelFlopCutoff ? kRowBlock : a.cols();
  // Output-row-major order (each C row walks k ascending) so row blocks are
  // independent; the k accumulation order per element matches the serial
  // k-outer loop exactly.
  exec::parallel_for_ranges(
      0, a.cols(), std::max<std::size_t>(grain, 1),
      [&](std::size_t ib, std::size_t ie) {
        for (std::size_t i = ib; i < ie; ++i) {
          double* crow = c.data() + i * c.cols();
          for (std::size_t k = 0; k < a.rows(); ++k) {
            const double aki = a(k, i);
            if (aki == 0.0) continue;
            const double* brow = b.data() + k * b.cols();
            for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
          }
        }
      });
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  AEQP_CHECK(a.cols() == b.cols(), "matmul_nt shape mismatch");
  Matrix c(a.rows(), b.rows());
  const std::size_t work = a.rows() * a.cols() * b.rows();
  const std::size_t grain = work >= kParallelFlopCutoff ? kRowBlock : a.rows();
  exec::parallel_for_ranges(
      0, a.rows(), std::max<std::size_t>(grain, 1),
      [&](std::size_t ib, std::size_t ie) {
        for (std::size_t i = ib; i < ie; ++i)
          for (std::size_t j = 0; j < b.rows(); ++j)
            c(i, j) = dot(a.row(i), b.row(j));
      });
  return c;
}

Vector matvec(const Matrix& a, const Vector& x) {
  AEQP_CHECK(a.cols() == x.size(), "matvec shape mismatch");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) y[i] = dot(a.row(i), x);
  return y;
}

Vector matvec_t(const Matrix& a, const Vector& x) {
  AEQP_CHECK(a.rows() == x.size(), "matvec_t shape mismatch");
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* arow = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * arow[j];
  }
  return y;
}

double dot(std::span<const double> a, std::span<const double> b) {
  AEQP_ASSERT(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double trace_product(const Matrix& a, const Matrix& b) {
  AEQP_CHECK(a.rows() == b.cols() && a.cols() == b.rows(), "trace_product shape");
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * b(j, i);
  return s;
}

}  // namespace aeqp::linalg
