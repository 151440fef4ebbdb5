#include "stats/decomposition.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

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

// One-sided Jacobi on A (m x n), m >= n, applied to A itself: rotates
// column pairs of a working copy W until all pairs are numerically
// orthogonal. Then s_j = ||W_j||, U_j = W_j / s_j (zero when s_j = 0), and
// V accumulates the rotations. W and V are held transposed so that every
// column is one contiguous row; each sum still runs over i ascending.
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
  const int kMaxSweeps = 60;
  const double kTol = 1e-14;
  const double kDeflate = 1e-14;
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

}  // namespace

Result<SvdDecomposition> JacobiSvd(const Matrix& a) {
  if (a.empty() || a.rows() < a.cols()) {
    return Error(ErrorCode::kInvalidArgument,
                 "JacobiSvd: need a non-empty matrix with rows >= cols");
  }
  if (auto s = CheckFinite(a, "JacobiSvd"); !s.ok()) return s.error();
  return OneSidedJacobi(a);
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
