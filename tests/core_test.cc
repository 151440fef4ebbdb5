// Tests for sisyphus::core — Result/Status, strong IDs, Rng determinism
// and distribution sanity, SimTime arithmetic, logging levels, binio
// vector decoding.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>
#include <vector>

#include "core/binio.h"
#include "core/error.h"
#include "core/ids.h"
#include "core/logging.h"
#include "core/result.h"
#include "core/rng.h"
#include "core/sim_time.h"

namespace sisyphus::core {
namespace {

// ---- Result / Status -------------------------------------------------------

Result<int> ParsePositive(int x) {
  if (x <= 0) return Error(ErrorCode::kInvalidArgument, "not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  auto r = ParsePositive(4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 4);
  EXPECT_EQ(r.value_or(-1), 4);
}

TEST(ResultTest, HoldsError) {
  auto r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.error().message(), "not positive");
  EXPECT_EQ(r.value_or(-7), -7);
}

TEST(ResultTest, ValueOnErrorThrows) {
  auto r = ParsePositive(0);
  EXPECT_THROW(r.value(), std::logic_error);
}

TEST(ResultTest, ErrorOnSuccessThrows) {
  auto r = ParsePositive(1);
  EXPECT_THROW(r.error(), std::logic_error);
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_THROW(s.error(), std::logic_error);
}

TEST(StatusTest, CarriesError) {
  Status s = Error(ErrorCode::kNotFound, "missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().ToText(), "not_found: missing");
}

TEST(ErrorTest, CodeNamesAreStable) {
  EXPECT_STREQ(ToString(ErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(ToString(ErrorCode::kNotIdentifiable), "not_identifiable");
  EXPECT_STREQ(ToString(ErrorCode::kNumericalFailure), "numerical_failure");
}

// ---- Strong IDs -------------------------------------------------------------

TEST(StrongIdTest, ComparesByValue) {
  Asn a{3741}, b{3741}, c{37053};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

TEST(StrongIdTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<Asn, LinkId>);
  static_assert(!std::is_same_v<CityId, NodeId>);
}

TEST(StrongIdTest, Hashable) {
  std::unordered_set<Asn> set;
  set.insert(Asn{1});
  set.insert(Asn{1});
  set.insert(Asn{2});
  EXPECT_EQ(set.size(), 2u);
}

// ---- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GE(differing, 9);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::array<int, 6> counts{};
  const int n = 60000;
  for (int i = 0; i < n; ++i) counts[rng.UniformInt(0, 5)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, n / 6.0, 5.0 * std::sqrt(n / 6.0));
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(9, 9), 9);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(123);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(RngTest, GaussianScaleShift) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, ParetoRespectsMinimum) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.Pareto(2.0, 3.0), 2.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, PoissonSmallAndLargeMean) {
  Rng rng(19);
  double sum_small = 0.0, sum_large = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum_small += rng.Poisson(3.0);
  for (int i = 0; i < n; ++i) sum_large += rng.Poisson(120.0);
  EXPECT_NEAR(sum_small / n, 3.0, 0.1);
  EXPECT_NEAR(sum_large / n, 120.0, 0.5);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(23);
  EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Split();
  // The child stream should differ from the parent's continuation.
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (parent.Next() != child.Next()) ++differing;
  }
  EXPECT_GE(differing, 9);
}

TEST(RngTest, PreconditionViolationsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.Uniform(2.0, 1.0), std::logic_error);
  EXPECT_THROW(rng.Gaussian(0.0, -1.0), std::logic_error);
  EXPECT_THROW(rng.Exponential(0.0), std::logic_error);
  EXPECT_THROW(rng.Bernoulli(1.5), std::logic_error);
}

// ---- SimTime ----------------------------------------------------------------

TEST(SimTimeTest, ConstructorsAgree) {
  EXPECT_EQ(SimTime::FromHours(2.0).minutes(), 120);
  EXPECT_EQ(SimTime::FromDays(1.0).minutes(), 24 * 60);
  EXPECT_DOUBLE_EQ(SimTime(90).hours(), 1.5);
}

TEST(SimTimeTest, HourOfDayWraps) {
  EXPECT_DOUBLE_EQ(SimTime::FromHours(25.0).HourOfDay(), 1.0);
  EXPECT_DOUBLE_EQ(SimTime::FromHours(0.0).HourOfDay(), 0.0);
  EXPECT_DOUBLE_EQ(SimTime::FromHours(23.5).HourOfDay(), 23.5);
}

TEST(SimTimeTest, DayIndex) {
  EXPECT_EQ(SimTime::FromDays(0.0).DayIndex(), 0);
  EXPECT_EQ(SimTime::FromDays(2.5).DayIndex(), 2);
  EXPECT_EQ(SimTime::FromHours(47.9).DayIndex(), 1);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::FromHours(3.0);
  const SimTime b = SimTime::FromHours(1.0);
  EXPECT_EQ((a + b).minutes(), 240);
  EXPECT_EQ((a - b).minutes(), 120);
  EXPECT_LT(b, a);
  EXPECT_LE(a, a);
  EXPECT_GT(a, b);
}

TEST(SimTimeTest, ToTextFormat) {
  EXPECT_EQ(SimTime::FromDays(12.0).ToText().substr(0, 3), "d12");
  EXPECT_EQ(SimTime(12 * 24 * 60 + 390).ToText(), "d12 06:30");
}

// ---- Logging ----------------------------------------------------------------

TEST(LoggingTest, LevelFilterRoundTrips) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SISYPHUS_LOG(kDebug) << "should be filtered";  // must not crash
  SetLogLevel(before);
}

// ---- binio ------------------------------------------------------------------

// A vector count the remaining bytes cannot hold is malformed input: the
// reader must fail, not hand back an empty vector and go on decoding the
// elements as the fields that follow.
TEST(BinioTest, OversizedVectorCountFailsTheReader) {
  for (const bool doubles : {false, true}) {
    binio::Writer w;
    w.PutU64(3);   // claims three elements...
    w.PutU64(41);  // ...but only two words follow
    w.PutU64(42);
    binio::Reader r(w.buffer());
    const std::size_t size = doubles ? binio::GetDoubleVector(r).size()
                                     : binio::GetU64Vector(r).size();
    EXPECT_EQ(size, 0u);
    EXPECT_FALSE(r.ok()) << (doubles ? "GetDoubleVector" : "GetU64Vector");
    EXPECT_EQ(r.GetU64(), 0u);
    EXPECT_FALSE(r.ok());
  }
}

}  // namespace
}  // namespace sisyphus::core
