// Tests for panel construction from raw measurements.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "measure/panel.h"
#include "measure/platform.h"

namespace sisyphus::measure {
namespace {

using core::SimTime;

/// One record as the panel sees it: the unit "<asn> / <city>", the time
/// and the RTT.
SpeedTestRecord MakeRecord(const std::string& unit_asn,
                           const std::string& city, SimTime time,
                           double rtt) {
  SpeedTestRecord record;
  record.unit = Unit::Intern(
      core::Asn(static_cast<std::uint32_t>(std::stoul(unit_asn))), city);
  record.time = time;
  record.rtt_ms = rtt;
  return record;
}

/// Ingests `records` in order as one batch, ids 1, 2, ..., through a
/// campaign and builds the panel from its store.
Panel BuildPanel(const std::vector<SpeedTestRecord>& records,
                 const PanelOptions& options) {
  StreamingCampaign campaign({}, {options});
  std::vector<PendingRecord> batch;
  for (const SpeedTestRecord& record : records) {
    batch.push_back({record});
    batch.back().record.id = core::MeasurementId(batch.size());
  }
  campaign.IngestBatch(batch);
  return campaign.FinalizePanel();
}

TEST(PanelTest, BucketedMediansPerUnit) {
  std::vector<SpeedTestRecord> records;
  // Unit A: rtt 10 in bucket 0, 20 in bucket 1.
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(1), 9));
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(2), 10));
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(3), 11));
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(7), 20));
  // Unit B: constant 30.
  records.push_back(MakeRecord("200", "Y", SimTime::FromHours(1), 30));
  records.push_back(MakeRecord("200", "Y", SimTime::FromHours(8), 30));

  PanelOptions options;
  options.bucket = SimTime::FromHours(6);
  options.periods = 2;
  const Panel panel = BuildPanel(records, options);
  ASSERT_EQ(panel.units.size(), 2u);
  auto a = panel.Find("100 / X");
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(panel.units[a.value()].values[0], 10.0);
  EXPECT_DOUBLE_EQ(panel.units[a.value()].values[1], 20.0);
  EXPECT_FALSE(panel.Find("300 / Z").ok());
}

TEST(PanelTest, SparseUnitsDropped) {
  std::vector<SpeedTestRecord> records;
  // Unit with data only in 1 of 8 buckets (87% missing > 25% cap).
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(1), 10));
  PanelOptions options;
  options.bucket = SimTime::FromHours(6);
  options.periods = 8;
  const Panel panel = BuildPanel(records, options);
  EXPECT_TRUE(panel.units.empty());
}

TEST(PanelTest, InterpolationFillsGaps) {
  std::vector<SpeedTestRecord> records;
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(1), 10));
  // bucket 1 empty
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(13), 30));
  PanelOptions options;
  options.bucket = SimTime::FromHours(6);
  options.periods = 3;
  options.max_missing_fraction = 0.5;
  const Panel panel = BuildPanel(records, options);
  ASSERT_EQ(panel.units.size(), 1u);
  EXPECT_DOUBLE_EQ(panel.units[0].values[1], 20.0);  // midpoint
  EXPECT_NEAR(panel.units[0].missing_fraction, 1.0 / 3.0, 1e-12);
}

std::vector<SpeedTestRecord> MakeRecordsOfUnits(
    const std::vector<std::string>& asns, std::size_t periods, double base) {
  std::vector<SpeedTestRecord> records;
  for (std::size_t u = 0; u < asns.size(); ++u) {
    for (std::size_t t = 0; t < periods; ++t) {
      records.push_back(MakeRecord(
          asns[u], "City", SimTime::FromHours(6.0 * t + 1.0),
          base + static_cast<double>(u) + 0.1 * static_cast<double>(t)));
    }
  }
  return records;
}

TEST(SyntheticControlInputBuilderTest, AssemblesTreatedAndDonors) {
  const auto records =
      MakeRecordsOfUnits({"100", "200", "300", "400"}, 10, 20.0);
  PanelOptions options;
  options.bucket = SimTime::FromHours(6);
  options.periods = 10;
  const Panel panel = BuildPanel(records, options);
  std::vector<std::string> skipped;
  auto input = MakeSyntheticControlInput(
      panel, "100 / City", {"200 / City", "300 / City", "ghost / City"},
      SimTime::FromHours(36), &skipped);
  ASSERT_TRUE(input.ok());
  EXPECT_EQ(input.value().donors.cols(), 2u);
  EXPECT_EQ(input.value().pre_periods, 6u);
  EXPECT_EQ(input.value().treated.size(), 10u);
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_EQ(skipped[0], "ghost / City");
  // Treated unit in the donor list is ignored, not used as its own donor.
  auto self_input = MakeSyntheticControlInput(
      panel, "100 / City", {"100 / City", "200 / City", "300 / City"},
      SimTime::FromHours(36));
  ASSERT_TRUE(self_input.ok());
  EXPECT_EQ(self_input.value().donors.cols(), 2u);
}

TEST(SyntheticControlInputBuilderTest, ErrorsSurface) {
  const auto records = MakeRecordsOfUnits({"100", "200"}, 10, 20.0);
  PanelOptions options;
  options.bucket = SimTime::FromHours(6);
  options.periods = 10;
  const Panel panel = BuildPanel(records, options);
  // Unknown treated unit.
  EXPECT_FALSE(MakeSyntheticControlInput(panel, "nope / X", {"200 / City"},
                                         SimTime::FromHours(36))
                   .ok());
  // No usable donors.
  EXPECT_FALSE(MakeSyntheticControlInput(panel, "100 / City", {"ghost / X"},
                                         SimTime::FromHours(36))
                   .ok());
  // Treatment before origin.
  EXPECT_FALSE(MakeSyntheticControlInput(panel, "100 / City", {"200 / City"},
                                         SimTime::FromHours(0))
                   .ok());
  // Treatment beyond the panel: no post periods -> Validate fails.
  EXPECT_FALSE(MakeSyntheticControlInput(panel, "100 / City", {"200 / City"},
                                         SimTime::FromHours(600))
                   .ok());
}

TEST(PanelTest, DroppedUnitFindNamesSparsityCause) {
  std::vector<SpeedTestRecord> records;
  // One healthy unit and one sparse unit (1 of 8 buckets observed).
  for (int t = 0; t < 8; ++t) {
    records.push_back(
        MakeRecord("100", "X", SimTime::FromHours(6.0 * t + 1), 10));
  }
  records.push_back(MakeRecord("200", "Y", SimTime::FromHours(1), 30));
  PanelOptions options;
  options.bucket = SimTime::FromHours(6);
  options.periods = 8;
  const Panel panel = BuildPanel(records, options);
  ASSERT_EQ(panel.units.size(), 1u);
  ASSERT_EQ(panel.dropped.size(), 1u);
  EXPECT_EQ(panel.dropped[0].unit, "200 / Y");
  EXPECT_NEAR(panel.dropped[0].missing_fraction, 7.0 / 8.0, 1e-12);

  auto found = panel.Find("200 / Y");
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.error().code(), core::ErrorCode::kNotFound);
  EXPECT_NE(found.error().message().find("max_missing_fraction"),
            std::string::npos);
  EXPECT_NE(found.error().message().find("sparsity"), std::string::npos);
  // A unit that never existed gets the plain not-found message.
  auto ghost = panel.Find("300 / Z");
  ASSERT_FALSE(ghost.ok());
  EXPECT_EQ(ghost.error().message().find("max_missing_fraction"),
            std::string::npos);
}

TEST(PanelTest, ObservedMaskMarksInterpolatedBuckets) {
  std::vector<SpeedTestRecord> records;
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(1), 10));
  // bucket 1 empty -> interpolated
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(13), 30));
  PanelOptions options;
  options.bucket = SimTime::FromHours(6);
  options.periods = 3;
  options.max_missing_fraction = 0.5;
  const Panel panel = BuildPanel(records, options);
  ASSERT_EQ(panel.units.size(), 1u);
  const auto& unit = panel.units[0];
  ASSERT_EQ(unit.observed.size(), 3u);
  EXPECT_TRUE(unit.observed[0]);
  EXPECT_FALSE(unit.observed[1]);
  EXPECT_TRUE(unit.observed[2]);
}

TEST(PanelTest, OutOfOrderRecordsAreSortedBeforeBucketing) {
  // Clock-skewed / retried records arrive out of time order; the panel
  // builder must tolerate that rather than tripping the time-series
  // monotonicity requirement.
  std::vector<SpeedTestRecord> records;
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(13), 30));
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(1), 10));
  records.push_back(MakeRecord("100", "X", SimTime::FromHours(7), 20));
  PanelOptions options;
  options.bucket = SimTime::FromHours(6);
  options.periods = 3;
  const Panel panel = BuildPanel(records, options);
  ASSERT_EQ(panel.units.size(), 1u);
  EXPECT_DOUBLE_EQ(panel.units[0].values[0], 10.0);
  EXPECT_DOUBLE_EQ(panel.units[0].values[1], 20.0);
  EXPECT_DOUBLE_EQ(panel.units[0].values[2], 30.0);
}

TEST(SyntheticControlInputBuilderTest, MissingnessMaskPropagates) {
  std::vector<SpeedTestRecord> records;
  // Treated: fully observed. Donor: bucket 1 of 4 missing.
  for (int t = 0; t < 4; ++t) {
    records.push_back(
        MakeRecord("100", "X", SimTime::FromHours(6.0 * t + 1), 20));
    if (t != 1) {
      records.push_back(
          MakeRecord("200", "Y", SimTime::FromHours(6.0 * t + 1), 30));
    }
  }
  records.push_back(MakeRecord("300", "Z", SimTime::FromHours(1), 25));
  records.push_back(MakeRecord("300", "Z", SimTime::FromHours(7), 25));
  records.push_back(MakeRecord("300", "Z", SimTime::FromHours(13), 25));
  records.push_back(MakeRecord("300", "Z", SimTime::FromHours(19), 25));
  PanelOptions options;
  options.bucket = SimTime::FromHours(6);
  options.periods = 4;
  options.max_missing_fraction = 0.5;
  const Panel panel = BuildPanel(records, options);
  auto input = MakeSyntheticControlInput(panel, "100 / X",
                                         {"200 / Y", "300 / Z"},
                                         SimTime::FromHours(14));
  ASSERT_TRUE(input.ok());
  ASSERT_TRUE(input.value().HasMask());
  ASSERT_EQ(input.value().treated_observed.size(), 4u);
  for (double v : input.value().treated_observed) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
  const auto& donor_mask = input.value().donor_observed;
  ASSERT_EQ(donor_mask.rows(), 4u);
  ASSERT_EQ(donor_mask.cols(), 2u);
  EXPECT_DOUBLE_EQ(donor_mask(1, 0), 0.0);  // 200 / Y missing bucket 1
  EXPECT_DOUBLE_EQ(donor_mask(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(donor_mask(1, 1), 1.0);  // 300 / Z fully observed
  EXPECT_NEAR(input.value().DonorObservedFraction(), 7.0 / 8.0, 1e-12);
}

}  // namespace
}  // namespace sisyphus::measure
