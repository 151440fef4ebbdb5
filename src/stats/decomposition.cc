#include "stats/decomposition.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "core/error.h"
#include "obs/metrics.h"

namespace sisyphus::stats {

using core::Error;
using core::ErrorCode;
using core::Result;

namespace {

// Rejects NaN/Inf up front, naming the first offending entry: a non-finite
// entry would otherwise run every Jacobi sweep and surface as a misleading
// non-convergence error, or flow silently through QR into NaN results.
core::Status CheckFinite(const Matrix& a, const char* who) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.Row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (!std::isfinite(row[c])) {
        return Error(ErrorCode::kInvalidArgument,
                     std::string(who) + ": non-finite entry at (" +
                         std::to_string(r) + ", " + std::to_string(c) + ")");
      }
    }
  }
  return core::Status::Ok();
}

// Householder thin QR of a checked (finite, rows >= cols) matrix.
QrDecomposition HouseholderQr(const Matrix& a) {
  SISYPHUS_METRIC_COUNT("stats.qr.calls", 1);
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  // Householder on a working copy; accumulate reflectors to form thin Q.
  Matrix r = a;
  std::vector<Vector> reflectors;  // v for each column, length m-k
  reflectors.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder vector for column k below the diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    Vector v(m - k, 0.0);
    if (norm == 0.0) {
      reflectors.push_back(std::move(v));  // zero column: identity reflector
      continue;
    }
    const double alpha = r(k, k) >= 0.0 ? -norm : norm;
    for (std::size_t i = k; i < m; ++i) v[i - k] = r(i, k);
    v[0] -= alpha;
    const double vnorm = Norm2(v);
    if (vnorm == 0.0) {
      reflectors.push_back(Vector(m - k, 0.0));
      continue;
    }
    for (double& x : v) x /= vnorm;
    // Apply H = I - 2 v v^T to the trailing block of R. Two row-streaming
    // passes (w = v^T R, then the rank-1 update) instead of per-column
    // strided dots: each w[j] still accumulates over i ascending and the
    // update rounds the same real product, so results are bit-identical to
    // the column-at-a-time form — just contiguous along rows.
    Vector w(n - k, 0.0);
    for (std::size_t i = k; i < m; ++i) {
      const double vi = v[i - k];
      const auto row = r.Row(i);
      for (std::size_t j = k; j < n; ++j) w[j - k] += vi * row[j];
    }
    for (std::size_t i = k; i < m; ++i) {
      const double vi2 = 2.0 * v[i - k];
      const auto row = r.Row(i);
      for (std::size_t j = k; j < n; ++j) row[j] -= vi2 * w[j - k];
    }
    reflectors.push_back(std::move(v));
  }
  // Thin Q: apply reflectors in reverse to the first n columns of I.
  Matrix q(m, n);
  for (std::size_t j = 0; j < n; ++j) q(j, j) = 1.0;
  for (std::size_t k = n; k-- > 0;) {
    const Vector& v = reflectors[k];
    if (v.empty()) continue;
    bool zero = true;
    for (double x : v)
      if (x != 0.0) {
        zero = false;
        break;
      }
    if (zero) continue;
    // Same row-streaming two-pass application as the R update above.
    Vector w(n, 0.0);
    for (std::size_t i = k; i < m; ++i) {
      const double vi = v[i - k];
      const auto row = q.Row(i);
      for (std::size_t j = 0; j < n; ++j) w[j] += vi * row[j];
    }
    for (std::size_t i = k; i < m; ++i) {
      const double vi2 = 2.0 * v[i - k];
      const auto row = q.Row(i);
      for (std::size_t j = 0; j < n; ++j) row[j] -= vi2 * w[j];
    }
  }
  QrDecomposition out;
  out.q = std::move(q);
  out.r = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) out.r(i, j) = r(i, j);
  return out;
}

}  // namespace

Result<QrDecomposition> QrDecompose(const Matrix& a) {
  if (a.rows() < a.cols()) {
    return Error(ErrorCode::kInvalidArgument,
                 "QrDecompose: need rows >= cols for thin QR");
  }
  if (auto s = CheckFinite(a, "QrDecompose"); !s.ok()) return s.error();
  return HouseholderQr(a);
}

Result<Vector> SolveLeastSquares(const Matrix& a, std::span<const double> b) {
  SISYPHUS_REQUIRE(b.size() == a.rows(), "SolveLeastSquares: size mismatch");
  auto qr = QrDecompose(a);
  if (!qr.ok()) return qr.error();
  const std::size_t n = a.cols();
  // Tolerance scaled by the largest diagonal magnitude.
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_diag = std::max(max_diag, std::abs(qr.value().r(i, i)));
  const double tol = std::max(1e-300, max_diag * 1e-12);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(qr.value().r(i, i)) < tol) {
      return Error(ErrorCode::kNumericalFailure,
                   "SolveLeastSquares: rank-deficient design matrix");
    }
  }
  // x = R^{-1} Q^T b by back substitution.
  Vector qtb = qr.value().q.ApplyTransposed(b);
  Vector x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = qtb[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= qr.value().r(i, j) * x[j];
    x[i] = sum / qr.value().r(i, i);
  }
  return x;
}

Matrix SvdDecomposition::Reconstruct() const {
  return TruncatedReconstruct(singular_values.size());
}

Matrix SvdDecomposition::TruncatedReconstruct(std::size_t k) const {
  SISYPHUS_REQUIRE(k <= singular_values.size(),
                   "TruncatedReconstruct: k exceeds rank");
  // (U diag(s)) V^T through the blocked A*B^T kernel; per-entry accumulation
  // stays (u*s)*v with i ascending, matching the former triple loop bit for
  // bit while streaming both factors along contiguous rows.
  Matrix us(u.rows(), k);
  for (std::size_t r = 0; r < u.rows(); ++r)
    for (std::size_t i = 0; i < k; ++i) us(r, i) = u(r, i) * singular_values[i];
  return MultiplyAbT(us, v.Block(0, v.rows(), 0, k));
}

std::size_t SvdDecomposition::RankAbove(double threshold) const {
  std::size_t rank = 0;
  for (double s : singular_values)
    if (s > threshold) ++rank;
  return rank;
}

namespace {

// Jacobi's sweep cap and thresholds, shared by the scalar and lockstep
// kernels.
constexpr int kMaxSweeps = 60;
constexpr double kTol = 1e-14;
constexpr double kDeflate = 1e-14;

// The SVD a Jacobi run leaves once its sweeps end, from its working copy
// W (held transposed: column j is row j of `wt`) and rotation accumulator
// V (likewise `vt`): s_j = ||W_j||, U_j = W_j / s_j (zero when s_j = 0),
// sorted by descending s. Counts the run in stats.svd.*.
Result<SvdDecomposition> JacobiResult(const Matrix& wt, const Matrix& vt,
                                      int sweeps, bool converged) {
  const std::size_t m = wt.cols();
  const std::size_t n = wt.rows();
  // One count per decomposition, never per rotation: the sweep total is a
  // deterministic work measure for metrics.json.
  SISYPHUS_METRIC_COUNT("stats.svd.calls", 1);
  SISYPHUS_METRIC_COUNT("stats.svd.sweeps", static_cast<std::uint64_t>(sweeps));
  if (!converged) {
    return Error(ErrorCode::kNumericalFailure,
                 "SvdDecompose: Jacobi sweeps did not converge");
  }
  SvdDecomposition out;
  out.singular_values.assign(n, 0.0);
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  // Column norms = singular values; sort descending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Vector norms(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double sum = 0.0;
    for (double x : wt.Row(j)) sum += x * x;
    norms[j] = std::sqrt(sum);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return norms[x] > norms[y]; });
  for (std::size_t dst = 0; dst < n; ++dst) {
    const std::size_t src = order[dst];
    const double s = norms[src];
    out.singular_values[dst] = s;
    for (std::size_t i = 0; i < m; ++i)
      out.u(i, dst) = s > 0.0 ? wt(src, i) / s : 0.0;
    for (std::size_t i = 0; i < n; ++i) out.v(i, dst) = vt(src, i);
  }
  return out;
}

// One-sided Jacobi on A (m x n), m >= n, applied to A itself: rotates
// column pairs of a working copy W until all pairs are numerically
// orthogonal, with V accumulating the rotations. W and V are held
// transposed so that every column is one contiguous row; each sum still
// runs over i ascending.
Result<SvdDecomposition> OneSidedJacobi(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix wt = a.Transposed();
  Matrix vt = Matrix::Identity(n);
  const auto rotate = [](double* x, double* y, std::size_t len, double c,
                         double s) {
    for (std::size_t i = 0; i < len; ++i) {
      const double xi = x[i];
      const double yi = y[i];
      x[i] = c * xi - s * yi;
      y[i] = s * xi + c * yi;
    }
  };
  int sweeps = 0;
  bool converged = false;
  while (!converged && sweeps < kMaxSweeps) {
    ++sweeps;
    converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      double* wp = wt.Row(p).data();
      for (std::size_t q = p + 1; q < n; ++q) {
        double* wq = wt.Row(q).data();
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += wp[i] * wp[i];
          beta += wq[i] * wq[i];
          gamma += wp[i] * wq[i];
        }
        if (std::abs(gamma) <= kTol * std::sqrt(alpha * beta) ||
            gamma == 0.0) {
          continue;
        }
        // A column at the rounding level of its partner is what rotating
        // (near-)equal columns leaves behind, e.g. R's rows below the first
        // for a pool of identical donors: its direction is noise, and
        // rotating it against its partner only redraws that noise, so the
        // sweeps never settle. Deflate it to exactly zero, as the rotation
        // would in exact arithmetic.
        if (std::min(alpha, beta) <=
            kDeflate * kDeflate * std::max(alpha, beta)) {
          double* tiny = alpha < beta ? wp : wq;
          std::fill(tiny, tiny + m, 0.0);
          converged = false;
          continue;
        }
        converged = false;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t =
            (zeta >= 0.0 ? 1.0 : -1.0) /
            (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        rotate(wp, wq, m, c, s);
        rotate(vt.Row(p).data(), vt.Row(q).data(), n, c, s);
      }
    }
  }
  return JacobiResult(wt, vt, sweeps, converged);
}

#if defined(__x86_64__) && defined(__GNUC__)
#define SISYPHUS_HAVE_AVX2_JACOBI 1
// x[i], y[i] <- c x[i] - s y[i], s x[i] + c y[i] over `len` rows of one
// column pair in the lockstep layout, in the lanes of `mask` only (in all
// lanes without kBlend).
template <bool kBlend>
__attribute__((target("avx2"))) inline void RotateLanes(
    double* x, double* y, std::size_t len, __m256d c, __m256d s,
    __m256d mask) {
  for (std::size_t i = 0; i < len * kJacobiBatchLanes;
       i += kJacobiBatchLanes) {
    const __m256d xi = _mm256_load_pd(x + i);
    const __m256d yi = _mm256_load_pd(y + i);
    __m256d xr = _mm256_sub_pd(_mm256_mul_pd(c, xi), _mm256_mul_pd(s, yi));
    __m256d yr = _mm256_add_pd(_mm256_mul_pd(s, xi), _mm256_mul_pd(c, yi));
    if (kBlend) {
      xr = _mm256_blendv_pd(xi, xr, mask);
      yr = _mm256_blendv_pd(yi, yr, mask);
    }
    _mm256_store_pd(x + i, xr);
    _mm256_store_pd(y + i, yr);
  }
}

// OneSidedJacobi's sweeps over the first `lanes` (<= 4) lanes of the
// lockstep layout: w holds the working columns and v the rotation
// accumulator's, both as [column][row][lane] (n columns of m and of n
// rows), 32-byte aligned. Every lane computes OneSidedJacobi's values in
// its order, with separate multiplies and adds (target "avx2" without
// "fma", so nothing is contracted), correctly rounded division and sqrt,
// and ordered compares that are false on NaN, as C++'s are. A lane's data
// changes only in the pairs it rotates or deflates. Writes each lane's
// sweep count and convergence to sweeps[l] and converged[l].
__attribute__((target("avx2"))) void LockstepJacobiSweeps(
    double* w, double* v, std::size_t m, std::size_t n, std::size_t lanes,
    int* sweeps, bool* converged) {
  constexpr std::size_t kL = kJacobiBatchLanes;
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d minus_one = _mm256_set1_pd(-1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d tol = _mm256_set1_pd(kTol);
  const __m256d deflate = _mm256_set1_pd(kDeflate * kDeflate);
  // Lanes still sweeping: a lane leaves once a sweep moves nothing in it,
  // or at the sweep cap.
  __m256d active = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(lanes)),
      _mm256_setr_epi64x(0, 1, 2, 3)));
  const int unused = 0xf & ~_mm256_movemask_pd(active);
  for (int sweep = 1; _mm256_movemask_pd(active) != 0; ++sweep) {
    __m256d moved = zero;  // lanes that rotated or deflated a pair
    for (std::size_t p = 0; p + 1 < n; ++p) {
      double* wp = w + p * m * kL;
      for (std::size_t q = p + 1; q < n; ++q) {
        double* wq = w + q * m * kL;
        __m256d alpha = zero, beta = zero, gamma = zero;
        for (std::size_t i = 0; i < m * kL; i += kL) {
          const __m256d x = _mm256_load_pd(wp + i);
          const __m256d y = _mm256_load_pd(wq + i);
          alpha = _mm256_add_pd(alpha, _mm256_mul_pd(x, x));
          beta = _mm256_add_pd(beta, _mm256_mul_pd(y, y));
          gamma = _mm256_add_pd(gamma, _mm256_mul_pd(x, y));
        }
        const __m256d orthogonal = _mm256_or_pd(
            _mm256_cmp_pd(
                _mm256_andnot_pd(sign_bit, gamma),
                _mm256_mul_pd(tol, _mm256_sqrt_pd(_mm256_mul_pd(alpha, beta))),
                _CMP_LE_OQ),
            _mm256_cmp_pd(gamma, zero, _CMP_EQ_OQ));
        const __m256d work = _mm256_andnot_pd(orthogonal, active);
        if (_mm256_movemask_pd(work) == 0) continue;
        moved = _mm256_or_pd(moved, work);
        // std::min(alpha, beta) and std::max(alpha, beta): min_pd(x, y)
        // and max_pd(x, y) return y unless x compares less (greater).
        const __m256d tiny = _mm256_cmp_pd(
            _mm256_min_pd(beta, alpha),
            _mm256_mul_pd(deflate, _mm256_max_pd(beta, alpha)), _CMP_LE_OQ);
        const __m256d deflated = _mm256_and_pd(work, tiny);
        if (_mm256_movemask_pd(deflated) != 0) {
          const __m256d p_tiny = _mm256_cmp_pd(alpha, beta, _CMP_LT_OQ);
          const __m256d zero_p = _mm256_and_pd(deflated, p_tiny);
          const __m256d zero_q = _mm256_andnot_pd(p_tiny, deflated);
          for (std::size_t i = 0; i < m * kL; i += kL) {
            _mm256_store_pd(wp + i,
                            _mm256_andnot_pd(zero_p, _mm256_load_pd(wp + i)));
            _mm256_store_pd(wq + i,
                            _mm256_andnot_pd(zero_q, _mm256_load_pd(wq + i)));
          }
        }
        const __m256d rotated = _mm256_andnot_pd(tiny, work);
        if (_mm256_movemask_pd(rotated) == 0) continue;
        const __m256d zeta = _mm256_div_pd(_mm256_sub_pd(beta, alpha),
                                           _mm256_mul_pd(two, gamma));
        const __m256d sign = _mm256_blendv_pd(
            minus_one, one, _mm256_cmp_pd(zeta, zero, _CMP_GE_OQ));
        const __m256d t = _mm256_div_pd(
            sign,
            _mm256_add_pd(_mm256_andnot_pd(sign_bit, zeta),
                          _mm256_sqrt_pd(_mm256_add_pd(
                              one, _mm256_mul_pd(zeta, zeta)))));
        const __m256d c = _mm256_div_pd(
            one, _mm256_sqrt_pd(_mm256_add_pd(one, _mm256_mul_pd(t, t))));
        const __m256d s = _mm256_mul_pd(c, t);
        // No blend when every lane that holds a matrix rotates.
        if ((_mm256_movemask_pd(rotated) | unused) == 0xf) {
          RotateLanes<false>(wp, wq, m, c, s, rotated);
          RotateLanes<false>(v + p * n * kL, v + q * n * kL, n, c, s, rotated);
        } else {
          RotateLanes<true>(wp, wq, m, c, s, rotated);
          RotateLanes<true>(v + p * n * kL, v + q * n * kL, n, c, s, rotated);
        }
      }
    }
    const int active_bits = _mm256_movemask_pd(active);
    const int moved_bits = _mm256_movemask_pd(moved);
    for (std::size_t l = 0; l < lanes; ++l) {
      if ((active_bits >> l & 1) == 0) continue;
      sweeps[l] = sweep;
      converged[l] = (moved_bits >> l & 1) == 0;
    }
    active = sweep < kMaxSweeps ? _mm256_and_pd(active, moved) : zero;
  }
}

// JacobiSvd of `count` (<= 4) checked matrices of one shape in one
// lockstep run.
std::vector<Result<SvdDecomposition>> LockstepJacobi(
    const Matrix* const* as, std::size_t count) {
  constexpr std::size_t kL = kJacobiBatchLanes;
  const std::size_t m = as[0]->rows();
  const std::size_t n = as[0]->cols();
  // Both arrays in one buffer, aligned so every ⟨row, lanes⟩ group is one
  // aligned load.
  std::vector<double> buffer((m + n) * n * kL + kL, 0.0);
  double* w = buffer.data();
  while (reinterpret_cast<std::uintptr_t>(w) % (kL * sizeof(double)) != 0) ++w;
  double* v = w + m * n * kL;
  for (std::size_t l = 0; l < count; ++l) {
    for (std::size_t i = 0; i < m; ++i) {
      const auto row = as[l]->Row(i);
      for (std::size_t j = 0; j < n; ++j) w[(j * m + i) * kL + l] = row[j];
    }
    for (std::size_t j = 0; j < n; ++j) v[(j * n + j) * kL + l] = 1.0;
  }
  int sweeps[kL] = {};
  bool converged[kL] = {};
  LockstepJacobiSweeps(w, v, m, n, count, sweeps, converged);
  std::vector<Result<SvdDecomposition>> out;
  out.reserve(count);
  Matrix wt(n, m);
  Matrix vt(n, n);
  for (std::size_t l = 0; l < count; ++l) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < m; ++i) wt(j, i) = w[(j * m + i) * kL + l];
      for (std::size_t i = 0; i < n; ++i) vt(j, i) = v[(j * n + i) * kL + l];
    }
    out.push_back(JacobiResult(wt, vt, sweeps[l], converged[l]));
  }
  return out;
}
#endif  // SISYPHUS_HAVE_AVX2_JACOBI

// SVD of a checked matrix with rows >= cols. Square input goes to Jacobi
// directly. Taller input is QR-preconditioned (Drmač–Veselić): A = Q R,
// Jacobi on the n x n factor R = U_R S V^T, then U = Q U_R. Every rotation
// then costs O(n) instead of O(m), and no Gram matrix is formed, so the
// condition number is not squared (DESIGN.md §4).
Result<SvdDecomposition> TallSvd(const Matrix& a) {
  if (a.rows() == a.cols()) return OneSidedJacobi(a);
  QrDecomposition qr = HouseholderQr(a);
  auto svd = OneSidedJacobi(qr.r);
  if (!svd.ok()) return svd.error();
  svd.value().u = qr.q * svd.value().u;
  return svd;
}

// What JacobiSvd refuses before its sweeps.
core::Status CheckJacobiInput(const Matrix& a) {
  if (a.empty() || a.rows() < a.cols()) {
    return Error(ErrorCode::kInvalidArgument,
                 "JacobiSvd: need a non-empty matrix with rows >= cols");
  }
  return CheckFinite(a, "JacobiSvd");
}

}  // namespace

Result<SvdDecomposition> JacobiSvd(const Matrix& a) {
  if (auto s = CheckJacobiInput(a); !s.ok()) return s.error();
  return OneSidedJacobi(a);
}

std::vector<Result<SvdDecomposition>> JacobiSvdBatch(
    std::span<const Matrix> batch) {
  std::vector<Result<SvdDecomposition>> out;
  out.reserve(batch.size());
#if SISYPHUS_HAVE_AVX2_JACOBI
  static const bool have_avx2 = __builtin_cpu_supports("avx2");
  if (have_avx2) {
    // Refused matrices get their error in place; the accepted ones, in
    // order, fill lockstep groups of one shape.
    std::vector<std::size_t> accepted;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const core::Status s = CheckJacobiInput(batch[k]);
      if (s.ok()) {
        accepted.push_back(k);
        out.push_back(SvdDecomposition{});
      } else {
        out.push_back(s.error());
      }
    }
    const Matrix* group[kJacobiBatchLanes];
    for (std::size_t begin = 0; begin < accepted.size();) {
      const Matrix& first = batch[accepted[begin]];
      std::size_t count = 0;
      while (count < kJacobiBatchLanes && begin + count < accepted.size()) {
        const Matrix& a = batch[accepted[begin + count]];
        if (a.rows() != first.rows() || a.cols() != first.cols()) break;
        group[count++] = &a;
      }
      auto results = LockstepJacobi(group, count);
      for (std::size_t l = 0; l < count; ++l) {
        out[accepted[begin + l]] = std::move(results[l]);
      }
      begin += count;
    }
    return out;
  }
#endif
  for (const Matrix& a : batch) out.push_back(JacobiSvd(a));
  return out;
}

Result<SvdDecomposition> SvdDecompose(const Matrix& a) {
  if (a.empty()) {
    return Error(ErrorCode::kInvalidArgument, "SvdDecompose: empty matrix");
  }
  if (auto s = CheckFinite(a, "SvdDecompose"); !s.ok()) return s.error();
  if (a.rows() >= a.cols()) return TallSvd(a);
  // Wide matrix: decompose the transpose and swap U <-> V.
  auto svd = TallSvd(a.Transposed());
  if (!svd.ok()) return svd.error();
  SvdDecomposition out;
  out.u = std::move(svd.value().v);
  out.v = std::move(svd.value().u);
  out.singular_values = std::move(svd.value().singular_values);
  return out;
}

Result<Vector> SvdSolveLeastSquares(const Matrix& a, std::span<const double> b,
                                    double rcond) {
  SISYPHUS_REQUIRE(b.size() == a.rows(), "SvdSolveLeastSquares: size");
  auto svd = SvdDecompose(a);
  if (!svd.ok()) return svd.error();
  const auto& d = svd.value();
  const double smax =
      d.singular_values.empty() ? 0.0 : d.singular_values.front();
  const double cutoff = smax * rcond;
  // x = V diag(1/s) U^T b over retained components.
  Vector utb = d.u.ApplyTransposed(b);
  Vector x(a.cols(), 0.0);
  for (std::size_t k = 0; k < d.singular_values.size(); ++k) {
    const double s = d.singular_values[k];
    if (s <= cutoff || s == 0.0) continue;
    const double coeff = utb[k] / s;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += coeff * d.v(i, k);
  }
  return x;
}

Result<Matrix> PseudoInverse(const Matrix& a, double rcond) {
  auto svd = SvdDecompose(a);
  if (!svd.ok()) return svd.error();
  const auto& d = svd.value();
  const double smax =
      d.singular_values.empty() ? 0.0 : d.singular_values.front();
  const double cutoff = smax * rcond;
  // Gather the retained components, then (V diag(1/s)) U^T via the blocked
  // A*B^T kernel. Retained-k order and the (v*(1/s))*u rounding sequence
  // match the former accumulation loop exactly.
  std::vector<std::size_t> kept;
  for (std::size_t k = 0; k < d.singular_values.size(); ++k) {
    const double s = d.singular_values[k];
    if (s <= cutoff || s == 0.0) continue;
    kept.push_back(k);
  }
  Matrix vs(a.cols(), kept.size());
  Matrix uk(a.rows(), kept.size());
  for (std::size_t idx = 0; idx < kept.size(); ++idx) {
    const std::size_t k = kept[idx];
    const double inv_s = 1.0 / d.singular_values[k];
    for (std::size_t i = 0; i < a.cols(); ++i) vs(i, idx) = d.v(i, k) * inv_s;
    for (std::size_t j = 0; j < a.rows(); ++j) uk(j, idx) = d.u(j, k);
  }
  return MultiplyAbT(vs, uk);
}

Result<Matrix> HardThreshold(const Matrix& a, double threshold) {
  auto svd = SvdDecompose(a);
  if (!svd.ok()) return svd.error();
  const std::size_t k = svd.value().RankAbove(threshold);
  return svd.value().TruncatedReconstruct(k);
}

double DefaultSingularValueThreshold(const SvdDecomposition& svd,
                                     std::size_t rows, std::size_t cols) {
  // Estimate the noise level from the median singular value (the signal
  // occupies only the top few), then apply the (sqrt(m)+sqrt(n)) * sigma
  // universal threshold shape of Gavish–Donoho.
  const auto& s = svd.singular_values;
  if (s.empty()) return 0.0;
  Vector sorted = s;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  const double scale =
      std::sqrt(static_cast<double>(rows)) + std::sqrt(static_cast<double>(cols));
  // Median singular value of pure noise ~ 0.6 * sigma * (sqrt(m)+sqrt(n))/2.
  const double sigma_hat = median / (0.6 * scale / 2.0 + 1e-30);
  return sigma_hat * scale * 0.5;
}

}  // namespace sisyphus::stats
