// Matrix decompositions: Householder QR, one-sided Jacobi SVD (one matrix
// at a time, or up to four same-shape matrices in AVX2 lockstep with
// byte-identical results), and the solvers built on them (least squares,
// pseudo-inverse, low-rank approximation for robust synthetic control).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/result.h"
#include "stats/matrix.h"

namespace sisyphus::stats {

/// Householder QR factorization A = Q R with A (m x n), m >= n.
/// Q is m x n with orthonormal columns (thin QR); R is n x n upper
/// triangular.
struct QrDecomposition {
  Matrix q;
  Matrix r;
};

/// Computes the thin QR of `a`. Fails (kInvalidArgument) if rows < cols or
/// an entry is NaN or infinite.
core::Result<QrDecomposition> QrDecompose(const Matrix& a);

/// Solves min_x ||A x - b||_2 via QR. Fails (kNumericalFailure) if A is
/// rank-deficient to working precision (|R_ii| below tolerance); callers
/// who want minimum-norm solutions over rank-deficient systems should use
/// SvdSolveLeastSquares.
core::Result<Vector> SolveLeastSquares(const Matrix& a,
                                       std::span<const double> b);

/// Singular value decomposition A = U S V^T, A (m x n) with m >= n
/// (transpose first otherwise). U is m x n, V is n x n, singular values are
/// returned in non-increasing order.
struct SvdDecomposition {
  Matrix u;
  Vector singular_values;
  Matrix v;

  /// Reconstructs U * diag(s) * V^T (for tests/diagnostics).
  Matrix Reconstruct() const;

  /// Rank-k truncation U_k S_k V_k^T. Precondition: k <= s.size().
  Matrix TruncatedReconstruct(std::size_t k) const;

  /// Number of singular values strictly above `threshold`.
  std::size_t RankAbove(double threshold) const;
};

/// QR-preconditioned one-sided Jacobi SVD. Chosen over Golub–Kahan for
/// simplicity and high relative accuracy at this library's panel sizes
/// (see DESIGN.md §4; scaling measured in bench/perf_linalg). Tall input
/// is factored A = Q R and Jacobi runs on the small R; square input goes
/// to Jacobi directly. Works for any m, n (internally transposes if
/// m < n). Fails (kInvalidArgument) on an empty matrix or a NaN/infinite
/// entry, (kNumericalFailure) if Jacobi sweeps do not converge.
core::Result<SvdDecomposition> SvdDecompose(const Matrix& a);

/// One-sided Jacobi applied to `a` itself (rows >= cols), with no QR
/// preconditioning: the kernel SvdDecompose runs on square input and on
/// the R factor of tall input, and the reference the tests hold the
/// preconditioned path to. Callers that already hold R factors (the
/// placebo engine) take their spectra through JacobiSvdBatch. Same failure
/// contract as SvdDecompose; wide input is kInvalidArgument.
core::Result<SvdDecomposition> JacobiSvd(const Matrix& a);

/// Matrices JacobiSvdBatch's lockstep kernel factors at once: one per
/// double of an AVX2 vector.
inline constexpr std::size_t kJacobiBatchLanes = 4;

/// JacobiSvd of every matrix of `batch`: result k is byte for byte what
/// JacobiSvd(batch[k]) returns (U, singular values and V, or the failure's
/// code and message), and each factorization counts in stats.svd.calls
/// and stats.svd.sweeps as that call would. Where the CPU has AVX2, runs
/// of up to kJacobiBatchLanes consecutive accepted matrices of one shape
/// share one lockstep kernel, a matrix per vector lane. Each lane does
/// JacobiSvd's arithmetic in JacobiSvd's order (separate multiply and add,
/// never a fused one) and keeps its own sweep count and convergence; a
/// lane that skips or deflates a pair, or has converged, is held by blends
/// rather than rotated by the identity, which could flip the sign of a
/// zero. Elsewhere it loops over JacobiSvd (DESIGN.md §4).
std::vector<core::Result<SvdDecomposition>> JacobiSvdBatch(
    std::span<const Matrix> batch);

/// Minimum-norm least squares via SVD with relative cutoff `rcond` on
/// singular values (like LAPACK gelsd).
core::Result<Vector> SvdSolveLeastSquares(const Matrix& a,
                                          std::span<const double> b,
                                          double rcond = 1e-12);

/// Moore–Penrose pseudo-inverse via SVD.
core::Result<Matrix> PseudoInverse(const Matrix& a, double rcond = 1e-12);

/// Hard-thresholded low-rank approximation: keep singular values
/// > `threshold`, zero the rest. This is the denoising step of robust
/// synthetic control (Amjad, Shah & Shen 2018).
core::Result<Matrix> HardThreshold(const Matrix& a, double threshold);

/// Universal singular-value threshold of Gavish–Donoho flavor used by RSC
/// when the caller does not supply one: sigma * (sqrt(m) + sqrt(n)), with
/// sigma estimated from the median singular value.
double DefaultSingularValueThreshold(const SvdDecomposition& svd,
                                     std::size_t rows, std::size_t cols);

}  // namespace sisyphus::stats
