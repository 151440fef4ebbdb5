// Tests for QR / SVD decompositions, including property-style sweeps over
// random matrices (TEST_P): orthogonality, reconstruction, solver
// correctness against known systems.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/rng.h"
#include "obs/metrics.h"
#include "stats/decomposition.h"

namespace sisyphus::stats {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, core::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.Gaussian();
  return m;
}

bool IsOrthonormalColumns(const Matrix& q, double tol = 1e-9) {
  const Matrix gram = q.Transposed() * q;
  return gram.MaxAbsDiff(Matrix::Identity(q.cols())) < tol;
}

// ---- QR ---------------------------------------------------------------------

TEST(QrTest, ReconstructsInput) {
  const Matrix a{{1, 2}, {3, 4}, {5, 6}};
  auto qr = QrDecompose(a);
  ASSERT_TRUE(qr.ok());
  const Matrix back = qr.value().q * qr.value().r;
  EXPECT_LT(back.MaxAbsDiff(a), 1e-10);
  EXPECT_TRUE(IsOrthonormalColumns(qr.value().q));
}

TEST(QrTest, RIsUpperTriangular) {
  core::Rng rng(1);
  const Matrix a = RandomMatrix(6, 4, rng);
  auto qr = QrDecompose(a);
  ASSERT_TRUE(qr.ok());
  for (std::size_t r = 1; r < 4; ++r)
    for (std::size_t c = 0; c < r; ++c)
      EXPECT_NEAR(qr.value().r(r, c), 0.0, 1e-12);
}

TEST(QrTest, WideMatrixRejected) {
  const Matrix a(2, 3);
  EXPECT_FALSE(QrDecompose(a).ok());
}

// NaN/Inf must come back as a Status naming the entry before any sweep
// runs; unchecked, a NaN costs every Jacobi sweep and then reads as
// non-convergence.
TEST(NonFiniteInputTest, DecompositionsRejectNanAndInf) {
  core::Rng rng(11);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix a = RandomMatrix(224, 30, rng);
    a(57, 4) = bad;
    auto svd = SvdDecompose(a);
    ASSERT_FALSE(svd.ok());
    EXPECT_EQ(svd.error().code(), core::ErrorCode::kInvalidArgument);
    EXPECT_NE(svd.error().message().find("(57, 4)"), std::string::npos);
    auto qr = QrDecompose(a);
    ASSERT_FALSE(qr.ok());
    EXPECT_EQ(qr.error().code(), core::ErrorCode::kInvalidArgument);
    EXPECT_NE(qr.error().message().find("(57, 4)"), std::string::npos);
    auto jacobi = JacobiSvd(a);
    ASSERT_FALSE(jacobi.ok());
    EXPECT_EQ(jacobi.error().code(), core::ErrorCode::kInvalidArgument);
    // Wide input goes through the transpose; the check covers it too.
    EXPECT_FALSE(SvdDecompose(a.Transposed()).ok());
  }
}

TEST(LeastSquaresTest, ExactSystem) {
  // y = 2 + 3x at x = 0,1,2 with design [1, x].
  const Matrix a{{1, 0}, {1, 1}, {1, 2}};
  const Vector b{2, 5, 8};
  auto x = SolveLeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 2.0, 1e-10);
  EXPECT_NEAR(x.value()[1], 3.0, 1e-10);
}

TEST(LeastSquaresTest, OverdeterminedMinimizesResidual) {
  const Matrix a{{1, 0}, {1, 1}, {1, 2}, {1, 3}};
  const Vector b{0, 1, 1, 2};
  auto x = SolveLeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  // Normal-equation solution: slope 0.6, intercept 0.1.
  EXPECT_NEAR(x.value()[0], 0.1, 1e-10);
  EXPECT_NEAR(x.value()[1], 0.6, 1e-10);
}

TEST(LeastSquaresTest, RankDeficientFails) {
  const Matrix a{{1, 2}, {2, 4}, {3, 6}};  // col2 = 2*col1
  const Vector b{1, 2, 3};
  auto x = SolveLeastSquares(a, b);
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.error().code(), core::ErrorCode::kNumericalFailure);
}

// ---- SVD --------------------------------------------------------------------

TEST(SvdTest, DiagonalMatrix) {
  const Matrix a{{3, 0}, {0, 4}, {0, 0}};
  auto svd = SvdDecompose(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd.value().singular_values[0], 4.0, 1e-10);
  EXPECT_NEAR(svd.value().singular_values[1], 3.0, 1e-10);
}

TEST(SvdTest, SingularValuesSortedDescending) {
  core::Rng rng(2);
  const Matrix a = RandomMatrix(8, 5, rng);
  auto svd = SvdDecompose(a);
  ASSERT_TRUE(svd.ok());
  const auto& s = svd.value().singular_values;
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LE(s[i], s[i - 1] + 1e-12);
}

TEST(SvdTest, WideMatrixHandledByTranspose) {
  core::Rng rng(3);
  const Matrix a = RandomMatrix(3, 7, rng);
  auto svd = SvdDecompose(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_LT(svd.value().Reconstruct().MaxAbsDiff(a), 1e-9);
}

TEST(SvdTest, EmptyMatrixRejected) {
  EXPECT_FALSE(SvdDecompose(Matrix{}).ok());
}

TEST(SvdTest, RankAboveCountsCorrectly) {
  const Matrix a{{5, 0}, {0, 1e-14}};
  auto svd = SvdDecompose(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_EQ(svd.value().RankAbove(1e-8), 1u);
  EXPECT_EQ(svd.value().RankAbove(10.0), 0u);
}

TEST(SvdTest, TruncationGivesBestLowRankApproximation) {
  // Rank-1 matrix plus small noise: rank-1 truncation should recover the
  // dominant component much better than the noise level.
  core::Rng rng(4);
  Matrix a(10, 6);
  for (std::size_t r = 0; r < 10; ++r)
    for (std::size_t c = 0; c < 6; ++c)
      a(r, c) = (1.0 + static_cast<double>(r)) *
                    (1.0 + static_cast<double>(c)) +
                0.01 * rng.Gaussian();
  auto svd = SvdDecompose(a);
  ASSERT_TRUE(svd.ok());
  const Matrix rank1 = svd.value().TruncatedReconstruct(1);
  EXPECT_LT((rank1 - a).FrobeniusNorm() / a.FrobeniusNorm(), 0.01);
}

// Property sweep: SVD invariants on random shapes.
class SvdPropertyTest : public ::testing::TestWithParam<
                            std::tuple<std::size_t, std::size_t, int>> {};

TEST_P(SvdPropertyTest, DecompositionInvariantsHold) {
  const auto [rows, cols, seed] = GetParam();
  core::Rng rng(static_cast<std::uint64_t>(seed));
  const Matrix a = RandomMatrix(rows, cols, rng);
  auto svd = SvdDecompose(a);
  ASSERT_TRUE(svd.ok());
  const auto& d = svd.value();
  // Reconstruction.
  EXPECT_LT(d.Reconstruct().MaxAbsDiff(a), 1e-8);
  // Orthonormal factors.
  EXPECT_TRUE(IsOrthonormalColumns(d.u, 1e-8));
  EXPECT_TRUE(IsOrthonormalColumns(d.v, 1e-8));
  // Non-negative singular values.
  for (double s : d.singular_values) EXPECT_GE(s, 0.0);
  // Frobenius norm preserved: ||A||_F^2 = sum s_i^2.
  double sum2 = 0.0;
  for (double s : d.singular_values) sum2 += s * s;
  EXPECT_NEAR(std::sqrt(sum2), a.FrobeniusNorm(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdPropertyTest,
    ::testing::Values(std::make_tuple(4, 4, 1), std::make_tuple(10, 3, 2),
                      std::make_tuple(3, 10, 3), std::make_tuple(20, 7, 4),
                      std::make_tuple(7, 20, 5), std::make_tuple(50, 10, 6),
                      std::make_tuple(1, 5, 7), std::make_tuple(5, 1, 8)));

// ---- QR-preconditioned tall path vs the unpreconditioned oracle -------------

// Columns of U with a positive singular value are orthonormal; columns for
// an exactly zero singular value are zero.
void ExpectLeftFactorContract(const SvdDecomposition& d, double tol) {
  const Matrix gram = d.u.Transposed() * d.u;
  for (std::size_t i = 0; i < d.u.cols(); ++i) {
    for (std::size_t j = 0; j < d.u.cols(); ++j) {
      double expected = 0.0;
      if (i == j && d.singular_values[i] > 0.0) expected = 1.0;
      EXPECT_NEAR(gram(i, j), expected, tol) << "U^T U at " << i << "," << j;
    }
  }
}

void ExpectMatchesOracle(const Matrix& a) {
  ASSERT_GT(a.rows(), a.cols());
  auto svd = SvdDecompose(a);
  auto oracle = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  ASSERT_TRUE(oracle.ok());
  const auto& d = svd.value();
  const double norm = a.FrobeniusNorm();
  ASSERT_EQ(d.singular_values.size(), a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    EXPECT_NEAR(d.singular_values[i], oracle.value().singular_values[i],
                1e-12 * norm)
        << "singular value " << i;
  }
  ExpectLeftFactorContract(d, 1e-12);
  EXPECT_TRUE(IsOrthonormalColumns(d.v, 1e-12));
  EXPECT_LE(d.Reconstruct().MaxAbsDiff(a), 1e-12 * norm);
}

TEST(PreconditionedSvdTest, MatchesOracleOnRandomInput) {
  core::Rng rng(31);
  ExpectMatchesOracle(RandomMatrix(40, 9, rng));
  ExpectMatchesOracle(RandomMatrix(9, 1, rng));
}

TEST(PreconditionedSvdTest, MatchesOracleOnTableOnePanelShape) {
  // 224 periods x 30 donors, RTT-like levels and a shared diurnal factor.
  core::Rng rng(32);
  Matrix a(224, 30);
  for (std::size_t t = 0; t < a.rows(); ++t) {
    const double cycle = std::sin(2.0 * M_PI * static_cast<double>(t) / 4.0);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(t, j) = 20.0 + 0.3 * static_cast<double>(j) +
                (1.0 + 0.05 * static_cast<double>(j)) * cycle +
                rng.Gaussian();
    }
  }
  ExpectMatchesOracle(a);
}

TEST(PreconditionedSvdTest, MatchesOracleOnDuplicateColumns) {
  // Rank-deficient, as a donor pool with a duplicated donor is.
  core::Rng rng(33);
  Matrix a = RandomMatrix(60, 8, rng);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    a(r, 5) = a(r, 2);
    a(r, 7) = a(r, 2);
  }
  ExpectMatchesOracle(a);
  auto svd = SvdDecompose(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_EQ(svd.value().RankAbove(1e-9 * a.FrobeniusNorm()), 6u);
}

TEST(PreconditionedSvdTest, MatchesOracleOnIdenticalDonorPools) {
  // A 224-period pool of n copies of one donor: R's rows below the first
  // are rounding noise, which Jacobi on R must deflate rather than rotate
  // forever (it reported "Jacobi sweeps did not converge" from n = 9 on).
  core::Rng rng(35);
  for (const std::size_t n : {8u, 9u, 10u, 16u, 30u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Matrix a(224, n);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      const double rtt = 20.0 + rng.Gaussian();
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rtt;
    }
    ExpectMatchesOracle(a);
    auto svd = SvdDecompose(a);
    ASSERT_TRUE(svd.ok());
    EXPECT_EQ(svd.value().RankAbove(1e-9 * a.FrobeniusNorm()), 1u);
  }
}

TEST(PreconditionedSvdTest, ZeroSingularValuesKeepZeroLeftVectors) {
  const Matrix zeros(50, 6);
  ExpectMatchesOracle(zeros);
  auto svd = SvdDecompose(zeros);
  ASSERT_TRUE(svd.ok());
  for (double s : svd.value().singular_values) EXPECT_EQ(s, 0.0);
  EXPECT_EQ(svd.value().u.FrobeniusNorm(), 0.0);

  // One all-zero column: exactly one zero singular value, zero U column.
  core::Rng rng(34);
  Matrix a = RandomMatrix(50, 6, rng);
  for (std::size_t r = 0; r < a.rows(); ++r) a(r, 3) = 0.0;
  ExpectMatchesOracle(a);
  auto with_zero = SvdDecompose(a);
  ASSERT_TRUE(with_zero.ok());
  EXPECT_EQ(with_zero.value().singular_values.back(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    EXPECT_EQ(with_zero.value().u(r, a.cols() - 1), 0.0);
  }
}

// Column scales from 1 down to 1e-10: one-sided Jacobi keeps high
// relative accuracy on such graded matrices, and the QR step must not
// lose it (no Gram matrix, so the condition number is not squared).
class GradedSvdTest : public ::testing::TestWithParam<int> {};

TEST_P(GradedSvdTest, SingularValuesMatchOracleToRelativeAccuracy) {
  core::Rng rng(static_cast<std::uint64_t>(40 + GetParam()));
  const std::size_t n = 11;
  Matrix a = RandomMatrix(80 + 20 * static_cast<std::size_t>(GetParam()), n,
                          rng);
  for (std::size_t c = 0; c < n; ++c) {
    const double scale = std::pow(10.0, -static_cast<double>(c));
    for (std::size_t r = 0; r < a.rows(); ++r) a(r, c) *= scale;
  }
  auto svd = SvdDecompose(a);
  auto oracle = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  ASSERT_TRUE(oracle.ok());
  const auto& s = svd.value().singular_values;
  const auto& o = oracle.value().singular_values;
  EXPECT_LT(o.back(), 1e-9 * o.front());  // really graded
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(s[i], o[i], 1e-12 * o[i]) << "singular value " << i;
  }
  EXPECT_TRUE(IsOrthonormalColumns(svd.value().u, 1e-12));
  EXPECT_TRUE(IsOrthonormalColumns(svd.value().v, 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradedSvdTest, ::testing::Range(0, 4));

TEST(PreconditionedSvdTest, OracleRejectsWideInput) {
  core::Rng rng(35);
  auto svd = JacobiSvd(RandomMatrix(3, 5, rng));
  ASSERT_FALSE(svd.ok());
  EXPECT_EQ(svd.error().code(), core::ErrorCode::kInvalidArgument);
}

// ---- Lockstep batch vs one matrix at a time -----------------------------------

/// Same shape and the same bits in every entry (so 0.0 and -0.0 differ).
bool SameBits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.Row(r).data(), b.Row(r).data(),
                    a.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct SvdCounts {
  std::uint64_t calls = 0;
  std::uint64_t sweeps = 0;
};

SvdCounts ReadSvdCounts() {
  const obs::Registry& registry = obs::Registry::Global();
  return {registry.CounterValue("stats.svd.calls"),
          registry.CounterValue("stats.svd.sweeps")};
}

/// JacobiSvd of each matrix of `batch`, with each call's sweep count.
struct SingleRun {
  core::Result<SvdDecomposition> svd;
  std::uint64_t sweeps;
};

std::vector<SingleRun> JacobiOneByOne(const std::vector<Matrix>& batch) {
  std::vector<SingleRun> runs;
  for (const Matrix& a : batch) {
    const std::uint64_t before = ReadSvdCounts().sweeps;
    core::Result<SvdDecomposition> svd = JacobiSvd(a);
    runs.push_back({std::move(svd), ReadSvdCounts().sweeps - before});
  }
  return runs;
}

/// JacobiSvdBatch must return, for every matrix of `batch`, what JacobiSvd
/// returns for it — U, singular values and V bit for bit, or the same
/// failure — and count the calls and sweeps those calls count. Returns the
/// single calls' sweep counts.
std::vector<std::uint64_t> ExpectBatchMatchesSingles(
    const std::vector<Matrix>& batch) {
  obs::Registry::Enable(true);
  const SvdCounts before = ReadSvdCounts();
  const std::vector<SingleRun> singles = JacobiOneByOne(batch);
  const SvdCounts middle = ReadSvdCounts();
  const auto batched = JacobiSvdBatch(batch);
  const SvdCounts after = ReadSvdCounts();
  obs::Registry::Enable(false);
  EXPECT_EQ(after.calls - middle.calls, middle.calls - before.calls);
  EXPECT_EQ(after.sweeps - middle.sweeps, middle.sweeps - before.sweeps);
  std::vector<std::uint64_t> sweeps;
  EXPECT_EQ(batched.size(), batch.size());
  for (std::size_t k = 0; k < std::min(batched.size(), batch.size()); ++k) {
    SCOPED_TRACE("matrix " + std::to_string(k) + " of " +
                 std::to_string(batch.size()));
    sweeps.push_back(singles[k].sweeps);
    const core::Result<SvdDecomposition>& want = singles[k].svd;
    const core::Result<SvdDecomposition>& got = batched[k];
    EXPECT_EQ(got.ok(), want.ok());
    if (got.ok() != want.ok()) continue;
    if (!want.ok()) {
      EXPECT_EQ(got.error().code(), want.error().code());
      EXPECT_EQ(got.error().message(), want.error().message());
      continue;
    }
    EXPECT_TRUE(SameBits(got.value().u, want.value().u)) << "U";
    EXPECT_TRUE(SameBits(Matrix::ColumnVector(got.value().singular_values),
                         Matrix::ColumnVector(want.value().singular_values)))
        << "singular values";
    EXPECT_TRUE(SameBits(got.value().v, want.value().v)) << "V";
  }
  return sweeps;
}

Matrix WithoutColumn(const Matrix& m, std::size_t j) {
  Matrix out(m.rows(), m.cols() - 1);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0, dst = 0; c < m.cols(); ++c) {
      if (c != j) out(r, dst++) = m(r, c);
    }
  }
  return out;
}

/// The placebo engine's leave-one-out factors of `pool`: its R factor
/// without column j, for every j.
std::vector<Matrix> LeaveOneOutFactors(const Matrix& pool) {
  auto qr = QrDecompose(pool);
  EXPECT_TRUE(qr.ok());
  std::vector<Matrix> factors;
  for (std::size_t j = 0; j < pool.cols(); ++j) {
    factors.push_back(WithoutColumn(qr.value().r, j));
  }
  return factors;
}

/// A 224-period pool of RTT-like donors sharing a diurnal factor.
Matrix RttPool(std::size_t donors, core::Rng& rng) {
  Matrix a(224, donors);
  for (std::size_t t = 0; t < a.rows(); ++t) {
    const double cycle = std::sin(2.0 * M_PI * static_cast<double>(t) / 4.0);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(t, j) = 20.0 + 0.3 * static_cast<double>(j) +
                (1.0 + 0.05 * static_cast<double>(j)) * cycle +
                rng.Gaussian();
    }
  }
  return a;
}

TEST(JacobiSvdBatchTest, LeaveOneOutFactorsMatchInEveryBatchSize) {
  core::Rng rng(36);
  const std::vector<Matrix> factors = LeaveOneOutFactors(RttPool(30, rng));
  for (const std::size_t size : {1u, 2u, 3u, 4u, 5u, 30u}) {
    SCOPED_TRACE("batches of " + std::to_string(size));
    for (std::size_t begin = 0; begin < factors.size(); begin += size) {
      const std::size_t end = std::min(factors.size(), begin + size);
      ExpectBatchMatchesSingles(
          std::vector<Matrix>(factors.begin() + begin, factors.begin() + end));
    }
  }
}

TEST(JacobiSvdBatchTest, IdenticalDonorPoolsDeflateBesideRotatingLanes) {
  // The leave-one-out factors of a pool of n copies of one donor are
  // rounding noise below their first row, which Jacobi deflates; they
  // alternate with a dense pool's factors, so deflating lanes share their
  // vectors with rotating ones.
  core::Rng rng(37);
  for (const std::size_t n : {8u, 9u, 10u, 16u, 30u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Matrix copies(224, n);
    for (std::size_t r = 0; r < copies.rows(); ++r) {
      const double rtt = 20.0 + rng.Gaussian();
      for (std::size_t c = 0; c < n; ++c) copies(r, c) = rtt;
    }
    const std::vector<Matrix> flat = LeaveOneOutFactors(copies);
    const std::vector<Matrix> dense = LeaveOneOutFactors(RttPool(n, rng));
    std::vector<Matrix> batch;
    for (std::size_t j = 0; j < n; ++j) {
      batch.push_back(flat[j]);
      batch.push_back(dense[j]);
    }
    ExpectBatchMatchesSingles(batch);
    ExpectBatchMatchesSingles(flat);
  }
}

TEST(JacobiSvdBatchTest, AllZeroMatrixBesideDenseOnes) {
  core::Rng rng(38);
  const Matrix zeros(30, 29);
  ExpectBatchMatchesSingles({zeros});
  ExpectBatchMatchesSingles(
      {RandomMatrix(30, 29, rng), zeros, RandomMatrix(30, 29, rng)});
}

TEST(JacobiSvdBatchTest, LanesConvergeSweepsApart) {
  // The identity is orthogonal from the start: one sweep, against the
  // dense lanes' several. Its off-diagonal zeros are -0.0, which a
  // rotation by c = 1, s = 0 would turn into +0.0 where a held lane keeps
  // them.
  core::Rng rng(39);
  Matrix identity = Matrix::Identity(29);
  for (std::size_t r = 0; r < identity.rows(); ++r) {
    for (std::size_t c = 0; c < identity.cols(); ++c) {
      if (r != c) identity(r, c) = -0.0;
    }
  }
  const std::vector<std::uint64_t> sweeps = ExpectBatchMatchesSingles(
      {identity, RandomMatrix(29, 29, rng), RandomMatrix(29, 29, rng)});
  ASSERT_EQ(sweeps.size(), 3u);
  EXPECT_EQ(sweeps[0], 1u);
  EXPECT_GT(sweeps[1], 3u);
  EXPECT_GT(sweeps[2], 3u);
}

TEST(JacobiSvdBatchTest, RefusedMatricesFailAloneInTheirSlot) {
  // A NaN fails its own matrix with JacobiSvd's message; the finite
  // matrices around it, and those after a wide, an empty or a
  // different-shape matrix, still match.
  core::Rng rng(40);
  Matrix with_nan = RandomMatrix(30, 29, rng);
  with_nan(5, 3) = std::numeric_limits<double>::quiet_NaN();
  ExpectBatchMatchesSingles({RandomMatrix(30, 29, rng), with_nan,
                             RandomMatrix(30, 29, rng),
                             RandomMatrix(30, 29, rng),
                             RandomMatrix(30, 29, rng)});
  ExpectBatchMatchesSingles({RandomMatrix(30, 29, rng), RandomMatrix(3, 5, rng),
                             Matrix{}, RandomMatrix(30, 29, rng),
                             RandomMatrix(12, 7, rng),
                             RandomMatrix(30, 29, rng)});
  const auto batched = JacobiSvdBatch(std::vector<Matrix>{with_nan});
  ASSERT_EQ(batched.size(), 1u);
  ASSERT_FALSE(batched[0].ok());
  EXPECT_EQ(batched[0].error().code(), core::ErrorCode::kInvalidArgument);
  EXPECT_NE(batched[0].error().message().find("(5, 3)"), std::string::npos);
  EXPECT_TRUE(JacobiSvdBatch({}).empty());
}

// ---- SVD solvers -------------------------------------------------------------

TEST(SvdSolveTest, MatchesQrOnFullRank) {
  core::Rng rng(5);
  const Matrix a = RandomMatrix(12, 4, rng);
  Vector b(12);
  for (auto& x : b) x = rng.Gaussian();
  auto qr = SolveLeastSquares(a, b);
  auto svd = SvdSolveLeastSquares(a, b);
  ASSERT_TRUE(qr.ok());
  ASSERT_TRUE(svd.ok());
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(qr.value()[i], svd.value()[i], 1e-8);
}

TEST(SvdSolveTest, RankDeficientGivesMinimumNorm) {
  const Matrix a{{1, 2}, {2, 4}, {3, 6}};
  const Vector b{1, 2, 3};
  auto x = SvdSolveLeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  // Solutions satisfy x1 + 2 x2 = 1; the min-norm one is (0.2, 0.4).
  EXPECT_NEAR(x.value()[0], 0.2, 1e-9);
  EXPECT_NEAR(x.value()[1], 0.4, 1e-9);
}

TEST(PseudoInverseTest, InvertsFullRankSquare) {
  const Matrix a{{2, 0}, {0, 5}};
  auto pinv = PseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  EXPECT_LT((pinv.value() * a).MaxAbsDiff(Matrix::Identity(2)), 1e-10);
}

TEST(PseudoInverseTest, MoorePenroseConditions) {
  core::Rng rng(6);
  const Matrix a = RandomMatrix(6, 3, rng);
  auto pinv = PseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  const Matrix& p = pinv.value();
  EXPECT_LT((a * p * a).MaxAbsDiff(a), 1e-8);       // A A+ A = A
  EXPECT_LT((p * a * p).MaxAbsDiff(p), 1e-8);       // A+ A A+ = A+
}

TEST(HardThresholdTest, DropsSmallComponents) {
  const Matrix a{{10, 0}, {0, 0.1}};
  auto denoised = HardThreshold(a, 1.0);
  ASSERT_TRUE(denoised.ok());
  EXPECT_NEAR(denoised.value()(0, 0), 10.0, 1e-9);
  EXPECT_NEAR(denoised.value()(1, 1), 0.0, 1e-9);
}

TEST(HardThresholdTest, ZeroThresholdKeepsEverything) {
  core::Rng rng(7);
  const Matrix a = RandomMatrix(5, 4, rng);
  auto denoised = HardThreshold(a, 0.0);
  ASSERT_TRUE(denoised.ok());
  EXPECT_LT(denoised.value().MaxAbsDiff(a), 1e-9);
}

TEST(DefaultThresholdTest, SeparatesSignalFromNoise) {
  // Low-rank signal + noise: the default threshold should retain a small
  // rank (1-3), not the full 8.
  core::Rng rng(8);
  Matrix a(60, 8);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      a(r, c) = 20.0 * std::sin(0.2 * static_cast<double>(r)) *
                    (1.0 + 0.1 * static_cast<double>(c)) +
                rng.Gaussian();
  auto svd = SvdDecompose(a);
  ASSERT_TRUE(svd.ok());
  const double threshold =
      DefaultSingularValueThreshold(svd.value(), a.rows(), a.cols());
  const std::size_t rank = svd.value().RankAbove(threshold);
  EXPECT_GE(rank, 1u);
  EXPECT_LE(rank, 3u);
}

}  // namespace
}  // namespace sisyphus::stats
