// Tests for obs::Registry — counter/gauge/histogram semantics, the
// disabled fast path, idempotent registration, and snapshot determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/json.h"
#include "obs/metrics.h"

namespace sisyphus::obs {
namespace {

/// Every test runs against the global registry (that is what the macros
/// use), so reset state around each one.
class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::Enable(true);
    Registry::Global().ResetAll();
  }
  void TearDown() override {
    Registry::Global().ResetAll();
    Registry::Enable(false);
  }
};

TEST_F(RegistryTest, CounterAccumulates) {
  Counter* counter = Registry::Global().GetCounter("test.counter.a");
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->value(), 42u);
  EXPECT_EQ(Registry::Global().CounterValue("test.counter.a"), 42u);
  EXPECT_EQ(Registry::Global().CounterValue("test.counter.absent"), 0u);
}

TEST_F(RegistryTest, RegistrationIsIdempotentWithStablePointers) {
  Counter* first = Registry::Global().GetCounter("test.counter.same");
  first->Add(5);
  Counter* second = Registry::Global().GetCounter("test.counter.same");
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->value(), 5u);
}

TEST_F(RegistryTest, GaugeKeepsLastValue) {
  Gauge* gauge = Registry::Global().GetGauge("test.gauge.depth");
  gauge->Set(3.0);
  gauge->Set(7.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 7.5);
}

TEST_F(RegistryTest, HistogramBucketsByUpperBound) {
  Histogram* histogram =
      Registry::Global().GetHistogram("test.hist.latency", {1.0, 10.0, 100.0});
  histogram->Observe(0.5);    // <= 1
  histogram->Observe(1.0);    // <= 1 (inclusive upper bound)
  histogram->Observe(5.0);    // <= 10
  histogram->Observe(1000.0); // overflow
  histogram->Observe(std::nan(""));  // dropped
  ASSERT_EQ(histogram->bucket_counts().size(), 4u);
  EXPECT_EQ(histogram->bucket_counts()[0], 2u);
  EXPECT_EQ(histogram->bucket_counts()[1], 1u);
  EXPECT_EQ(histogram->bucket_counts()[2], 0u);
  EXPECT_EQ(histogram->bucket_counts()[3], 1u);
  EXPECT_EQ(histogram->count(), 4u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 1006.5);
}

// Quantiles interpolate linearly inside the bucket holding the q-th
// observation; a pure function of the bucket counts, so identical across
// thread counts and kill/resume.
TEST_F(RegistryTest, HistogramQuantilesInterpolateWithinBuckets) {
  Histogram* histogram =
      Registry::Global().GetHistogram("test.hist.quantile", {10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(histogram->Quantile(0.5), 0.0);  // empty

  for (int i = 0; i < 10; ++i) histogram->Observe(5.0);   // bucket [0, 10]
  EXPECT_DOUBLE_EQ(histogram->Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(histogram->Quantile(1.0), 10.0);

  for (int i = 0; i < 10; ++i) histogram->Observe(15.0);  // bucket (10, 20]
  EXPECT_DOUBLE_EQ(histogram->Quantile(0.5), 10.0);   // boundary
  EXPECT_DOUBLE_EQ(histogram->Quantile(0.75), 15.0);  // mid second bucket

  // Overflow observations clamp to the last bound rather than invent an
  // upper edge.
  for (int i = 0; i < 5; ++i) histogram->Observe(1000.0);
  EXPECT_DOUBLE_EQ(histogram->Quantile(0.99), 40.0);
  EXPECT_DOUBLE_EQ(histogram->Quantile(0.0), 0.0);
}

// The snapshot surfaces p50/p95/p99 for every histogram.
TEST_F(RegistryTest, SnapshotCarriesHistogramQuantiles) {
  Registry::Global().GetHistogram("test.hist.snapq")->Observe(3.0);
  auto parsed = core::json::Parse(Registry::Global().SnapshotJson());
  ASSERT_TRUE(parsed.ok());
  const auto* histogram =
      parsed.value().Find("histograms")->Find("test.hist.snapq");
  ASSERT_NE(histogram, nullptr);
  for (const char* key : {"p50", "p95", "p99"}) {
    ASSERT_NE(histogram->Find(key), nullptr) << key;
    EXPECT_TRUE(histogram->Find(key)->is_number()) << key;
  }
}

TEST_F(RegistryTest, DisabledRegistryIsANoOp) {
  Registry::Enable(false);
  Counter* counter = Registry::Global().GetCounter("test.counter.off");
  Gauge* gauge = Registry::Global().GetGauge("test.gauge.off");
  counter->Add(10);
  gauge->Set(1.0);
  SISYPHUS_METRIC_COUNT("test.counter.off", 3);
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
}

TEST_F(RegistryTest, ResetAllZeroesValuesKeepingRegistrations) {
  Counter* counter = Registry::Global().GetCounter("test.counter.reset");
  Histogram* histogram = Registry::Global().GetHistogram("test.hist.reset");
  counter->Add(9);
  histogram->Observe(2.0);
  Registry::Global().ResetAll();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(histogram->count(), 0u);
  EXPECT_EQ(Registry::Global().GetCounter("test.counter.reset"), counter);
}

TEST_F(RegistryTest, MacrosRecordThroughTheGlobalRegistry) {
  SISYPHUS_METRIC_COUNT("test.macro.count", 2);
  SISYPHUS_METRIC_COUNT("test.macro.count", 1);
  SISYPHUS_METRIC_GAUGE("test.macro.gauge", 4.0);
  SISYPHUS_METRIC_OBSERVE("test.macro.hist", 3.0);
  EXPECT_EQ(Registry::Global().CounterValue("test.macro.count"), 3u);
}

TEST_F(RegistryTest, SnapshotIsDeterministicAndSorted) {
  // Register in non-sorted order; the snapshot must not care.
  Registry::Global().GetCounter("test.z.last")->Add(1);
  Registry::Global().GetCounter("test.a.first")->Add(2);
  const std::string snapshot_a = Registry::Global().SnapshotJson();

  Registry::Global().ResetAll();
  Registry::Global().GetCounter("test.a.first")->Add(2);
  Registry::Global().GetCounter("test.z.last")->Add(1);
  const std::string snapshot_b = Registry::Global().SnapshotJson();
  EXPECT_EQ(snapshot_a, snapshot_b);

  EXPECT_LT(snapshot_a.find("test.a.first"), snapshot_a.find("test.z.last"));
}

TEST_F(RegistryTest, SnapshotIsValidJsonWithSchema) {
  Registry::Global().GetCounter("test.snapshot.counter")->Add(7);
  Registry::Global().GetHistogram("test.snapshot.hist")->Observe(3.0);
  auto parsed = core::json::Parse(Registry::Global().SnapshotJson());
  ASSERT_TRUE(parsed.ok());
  const auto& root = parsed.value();
  EXPECT_EQ(root.Find("schema")->string, "sisyphus.metrics/1");
  EXPECT_DOUBLE_EQ(
      root.Find("counters")->Find("test.snapshot.counter")->number, 7.0);
  const auto* histogram =
      root.Find("histograms")->Find("test.snapshot.hist");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->Find("bucket_counts")->array.size(),
            histogram->Find("upper_bounds")->array.size() + 1);
}

}  // namespace
}  // namespace sisyphus::obs
