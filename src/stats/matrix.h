// Dense row-major matrix of doubles and free-function vector algebra.
//
// Sized for this library's workloads: synthetic-control donor panels
// (hundreds x dozens), regression design matrices, DAG adjacency work.
// No expression templates — clarity over micro-optimization; the perf
// benches (bench/perf_linalg) document actual throughput.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace sisyphus::stats {

using Vector = std::vector<double>;

/// Dense row-major matrix.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, all entries `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// From nested initializer list: Matrix{{1,2},{3,4}}.
  /// Precondition: all rows have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(std::size_t n);

  /// Column vector (n x 1) from data.
  static Matrix ColumnVector(std::span<const double> data);

  /// Builds a matrix from columns, each of equal length.
  static Matrix FromColumns(const std::vector<Vector>& columns);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row r.
  std::span<double> Row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> Row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// Copy of column c.
  Vector Column(std::size_t c) const;
  void SetColumn(std::size_t c, std::span<const double> values);
  void SetRow(std::size_t r, std::span<const double> values);

  Matrix Transposed() const;

  /// Submatrix of rows [r0, r1) and cols [c0, c1).
  Matrix Block(std::size_t r0, std::size_t r1, std::size_t c0,
               std::size_t c1) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Largest |entry| difference against other (same shape required).
  double MaxAbsDiff(const Matrix& other) const;

  friend Matrix operator+(const Matrix& a, const Matrix& b);
  friend Matrix operator-(const Matrix& a, const Matrix& b);
  friend Matrix operator*(const Matrix& a, const Matrix& b);
  friend Matrix operator*(double scalar, const Matrix& m);

  /// Matrix * vector. Precondition: x.size() == cols().
  Vector Apply(std::span<const double> x) const;

  /// Transpose(this) * vector. Precondition: x.size() == rows().
  Vector ApplyTransposed(std::span<const double> x) const;

  /// Multi-line text form for debugging/tests.
  std::string ToText(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- Multiply variants ----------------------------------------------------

/// Reference naive ikj multiply (the pre-blocking kernel). Kept for
/// equality tests and the kernel-vs-reference comparison in
/// bench/perf_linalg; operator* is the production kernel (register-tiled
/// AVX2 where the CPU has it, one scalar accumulator per element
/// otherwise — both accumulate each element over k in ascending order
/// without FMA contraction, so all three kernels agree to the last bit).
Matrix MultiplyReference(const Matrix& a, const Matrix& b);

/// A^T * B without materializing the transpose. Accumulation order matches
/// a.Transposed() * b exactly (Gram matrices: MultiplyAtB(x, x)).
Matrix MultiplyAtB(const Matrix& a, const Matrix& b);

/// A * B^T without materializing the transpose. Accumulation order matches
/// a * b.Transposed() exactly.
Matrix MultiplyAbT(const Matrix& a, const Matrix& b);

// ---- Free-function vector algebra -----------------------------------------

double Dot(std::span<const double> a, std::span<const double> b);
double Norm2(std::span<const double> a);
/// a + s*b, elementwise. Precondition: equal sizes.
Vector Axpy(std::span<const double> a, double s, std::span<const double> b);
Vector Scale(double s, std::span<const double> a);
Vector Subtract(std::span<const double> a, std::span<const double> b);
Vector Add(std::span<const double> a, std::span<const double> b);

/// Euclidean projection of v onto the probability simplex
/// {w : w_i >= 0, sum w_i = 1} (Duchi et al. 2008). Used by the classical
/// synthetic-control weight solver.
Vector ProjectToSimplex(std::span<const double> v);

}  // namespace sisyphus::stats
