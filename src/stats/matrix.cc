#include "stats/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "core/error.h"

namespace sisyphus::stats {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    SISYPHUS_REQUIRE(row.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::ColumnVector(std::span<const double> data) {
  Matrix m(data.size(), 1);
  for (std::size_t i = 0; i < data.size(); ++i) m(i, 0) = data[i];
  return m;
}

Matrix Matrix::FromColumns(const std::vector<Vector>& columns) {
  if (columns.empty()) return {};
  const std::size_t n = columns.front().size();
  Matrix m(n, columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    SISYPHUS_REQUIRE(columns[c].size() == n, "FromColumns: ragged columns");
    for (std::size_t r = 0; r < n; ++r) m(r, c) = columns[c][r];
  }
  return m;
}

Vector Matrix::Column(std::size_t c) const {
  SISYPHUS_REQUIRE(c < cols_, "Column: index out of range");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::SetColumn(std::size_t c, std::span<const double> values) {
  SISYPHUS_REQUIRE(c < cols_ && values.size() == rows_,
                   "SetColumn: shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

void Matrix::SetRow(std::size_t r, std::span<const double> values) {
  SISYPHUS_REQUIRE(r < rows_ && values.size() == cols_,
                   "SetRow: shape mismatch");
  std::copy(values.begin(), values.end(), Row(r).begin());
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

Matrix Matrix::Block(std::size_t r0, std::size_t r1, std::size_t c0,
                     std::size_t c1) const {
  SISYPHUS_REQUIRE(r0 <= r1 && r1 <= rows_ && c0 <= c1 && c1 <= cols_,
                   "Block: bad range");
  Matrix out(r1 - r0, c1 - c0);
  for (std::size_t r = r0; r < r1; ++r)
    for (std::size_t c = c0; c < c1; ++c) out(r - r0, c - c0) = (*this)(r, c);
  return out;
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double x : data_) sum += x * x;
  return std::sqrt(sum);
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  SISYPHUS_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                   "MaxAbsDiff: shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  return worst;
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  SISYPHUS_REQUIRE(a.rows_ == b.rows_ && a.cols_ == b.cols_, "+: shape");
  Matrix out = a;
  for (std::size_t i = 0; i < out.data_.size(); ++i) out.data_[i] += b.data_[i];
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  SISYPHUS_REQUIRE(a.rows_ == b.rows_ && a.cols_ == b.cols_, "-: shape");
  Matrix out = a;
  for (std::size_t i = 0; i < out.data_.size(); ++i) out.data_[i] -= b.data_[i];
  return out;
}

Matrix MultiplyReference(const Matrix& a, const Matrix& b) {
  SISYPHUS_REQUIRE(a.cols() == b.rows(), "*: inner dimension mismatch");
  Matrix out(a.rows(), b.cols());
  // ikj order for row-major cache friendliness.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

// out(i, j) for rows [i0, i1) and columns [j0, n): one scalar accumulator
// per element, summed from 0.0 over k in ascending order with separate
// multiply and add — the order MultiplyReference sums in, so the two agree
// to the last bit (but for the sign of an exact zero, as the reference
// skips zero a(i, k) terms). The AVX2 kernel runs it over the rows and
// columns its tiles leave, and a CPU without AVX2 over the whole product.
static void MultiplyScalar(const double* ad, const double* bd, double* od,
                           std::size_t i0, std::size_t i1, std::size_t j0,
                           std::size_t inner, std::size_t n) {
  for (std::size_t i = i0; i < i1; ++i) {
    const double* arow = ad + i * inner;
    for (std::size_t j = j0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < inner; ++k) acc += arow[k] * bd[k * n + j];
      od[i * n + j] = acc;
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define SISYPHUS_HAVE_AVX2_KERNEL 1
// Register-tiled AVX2 microkernel: a 4x8 output tile lives in 8 ymm
// accumulators across the full k extent and is stored exactly once.
// Every out(i,j) is a single accumulator summed over k in ascending
// order with separate multiply and add (target("avx2") without "fma",
// so GCC cannot contract a*b+c into one rounding) — bit-identical to
// MultiplyReference, as MultiplyScalar is.
__attribute__((target("avx2"))) static void MultiplyTiledAvx2(
    const double* ad, const double* bd, double* od, std::size_t m,
    std::size_t inner, std::size_t n) {
  constexpr std::size_t kTileI = 4;
  constexpr std::size_t kTileJ = 8;
  const std::size_t m4 = m - m % kTileI;
  const std::size_t n8 = n - n % kTileJ;
  for (std::size_t i0 = 0; i0 < m4; i0 += kTileI) {
    const double* a0 = ad + i0 * inner;
    const double* a1 = a0 + inner;
    const double* a2 = a1 + inner;
    const double* a3 = a2 + inner;
    for (std::size_t j0 = 0; j0 < n8; j0 += kTileJ) {
      __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
      __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
      __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
      __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
      const double* br = bd + j0;
      for (std::size_t k = 0; k < inner; ++k, br += n) {
        const __m256d b0 = _mm256_loadu_pd(br);
        const __m256d b1 = _mm256_loadu_pd(br + 4);
        const __m256d v0 = _mm256_broadcast_sd(a0 + k);
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(v0, b0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(v0, b1));
        const __m256d v1 = _mm256_broadcast_sd(a1 + k);
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(v1, b0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(v1, b1));
        const __m256d v2 = _mm256_broadcast_sd(a2 + k);
        c20 = _mm256_add_pd(c20, _mm256_mul_pd(v2, b0));
        c21 = _mm256_add_pd(c21, _mm256_mul_pd(v2, b1));
        const __m256d v3 = _mm256_broadcast_sd(a3 + k);
        c30 = _mm256_add_pd(c30, _mm256_mul_pd(v3, b0));
        c31 = _mm256_add_pd(c31, _mm256_mul_pd(v3, b1));
      }
      double* orow = od + i0 * n + j0;
      _mm256_storeu_pd(orow, c00);
      _mm256_storeu_pd(orow + 4, c01);
      _mm256_storeu_pd(orow + n, c10);
      _mm256_storeu_pd(orow + n + 4, c11);
      _mm256_storeu_pd(orow + 2 * n, c20);
      _mm256_storeu_pd(orow + 2 * n + 4, c21);
      _mm256_storeu_pd(orow + 3 * n, c30);
      _mm256_storeu_pd(orow + 3 * n + 4, c31);
    }
  }
  // Remainder columns (j >= n8) for the tiled rows, and remainder rows
  // (i >= m4) in full.
  MultiplyScalar(ad, bd, od, 0, m4, n8, inner, n);
  MultiplyScalar(ad, bd, od, m4, m, 0, inner, n);
}
#endif  // SISYPHUS_HAVE_AVX2_KERNEL

Matrix operator*(const Matrix& a, const Matrix& b) {
  SISYPHUS_REQUIRE(a.cols_ == b.rows_, "*: inner dimension mismatch");
  Matrix out(a.rows_, b.cols_);
  const std::size_t m = a.rows_;
  const std::size_t inner = a.cols_;
  const std::size_t n = b.cols_;
  if (m == 0 || inner == 0 || n == 0) return out;
#if SISYPHUS_HAVE_AVX2_KERNEL
  static const bool have_avx2 = __builtin_cpu_supports("avx2");
  if (have_avx2) {
    MultiplyTiledAvx2(a.data_.data(), b.data_.data(), out.data_.data(), m,
                      inner, n);
    return out;
  }
#endif
  MultiplyScalar(a.data_.data(), b.data_.data(), out.data_.data(), 0, m, 0,
                 inner, n);
  return out;
}

Matrix MultiplyAtB(const Matrix& a, const Matrix& b) {
  SISYPHUS_REQUIRE(a.rows() == b.rows(), "MultiplyAtB: row count mismatch");
  Matrix out(a.cols(), b.cols());
  const std::size_t n = b.cols();
  // Rank-1 accumulation streaming the rows of A and B once: out(c1,c2) =
  // sum_r a(r,c1) b(r,c2) with r ascending — the exact accumulation order
  // (and exact-zero skip) of Transposed()*b, without materializing A^T.
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto arow = a.Row(r);
    const double* brow = b.Row(r).data();
    for (std::size_t c1 = 0; c1 < a.cols(); ++c1) {
      const double v = arow[c1];
      if (v == 0.0) continue;
      double* orow = out.Row(c1).data();
      for (std::size_t c2 = 0; c2 < n; ++c2) orow[c2] += v * brow[c2];
    }
  }
  return out;
}

Matrix MultiplyAbT(const Matrix& a, const Matrix& b) {
  SISYPHUS_REQUIRE(a.cols() == b.cols(), "MultiplyAbT: col count mismatch");
  Matrix out(a.rows(), b.rows());
  // Both operands are streamed along contiguous rows; each entry is a dot
  // with k ascending, matching a * b.Transposed() without the materialized
  // transpose.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto arow = a.Row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      out(i, j) = Dot(arow, b.Row(j));
    }
  }
  return out;
}

Matrix operator*(double scalar, const Matrix& m) {
  Matrix out = m;
  for (double& x : out.data_) x *= scalar;
  return out;
}

Vector Matrix::Apply(std::span<const double> x) const {
  SISYPHUS_REQUIRE(x.size() == cols_, "Apply: size mismatch");
  Vector out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = Dot(Row(r), x);
  return out;
}

Vector Matrix::ApplyTransposed(std::span<const double> x) const {
  SISYPHUS_REQUIRE(x.size() == rows_, "ApplyTransposed: size mismatch");
  Vector out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    auto row = Row(r);
    for (std::size_t c = 0; c < cols_; ++c) out[c] += xr * row[c];
  }
  return out;
}

std::string Matrix::ToText(int precision) const {
  std::string out;
  char buffer[64];
  for (std::size_t r = 0; r < rows_; ++r) {
    out += "[ ";
    for (std::size_t c = 0; c < cols_; ++c) {
      std::snprintf(buffer, sizeof(buffer), "%.*f ", precision, (*this)(r, c));
      out += buffer;
    }
    out += "]\n";
  }
  return out;
}

double Dot(std::span<const double> a, std::span<const double> b) {
  SISYPHUS_REQUIRE(a.size() == b.size(), "Dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double Norm2(std::span<const double> a) { return std::sqrt(Dot(a, a)); }

Vector Axpy(std::span<const double> a, double s, std::span<const double> b) {
  SISYPHUS_REQUIRE(a.size() == b.size(), "Axpy: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + s * b[i];
  return out;
}

Vector Scale(double s, std::span<const double> a) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = s * a[i];
  return out;
}

Vector Subtract(std::span<const double> a, std::span<const double> b) {
  return Axpy(a, -1.0, b);
}

Vector Add(std::span<const double> a, std::span<const double> b) {
  return Axpy(a, 1.0, b);
}

Vector ProjectToSimplex(std::span<const double> v) {
  SISYPHUS_REQUIRE(!v.empty(), "ProjectToSimplex: empty input");
  Vector sorted(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double running = 0.0;
  double threshold = 0.0;
  std::size_t support = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    running += sorted[i];
    const double candidate =
        (running - 1.0) / static_cast<double>(i + 1);
    if (sorted[i] - candidate > 0.0) {
      threshold = candidate;
      support = i + 1;
    }
  }
  SISYPHUS_REQUIRE(support > 0, "ProjectToSimplex: degenerate input");
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = std::max(0.0, v[i] - threshold);
  return out;
}

}  // namespace sisyphus::stats
