// Campaign ingest units: the sharded columnar store's validation and
// quarantine accounting, and an incremental panel builder that reproduces
// a single-shard, in-order fold cell-for-cell no matter how records are
// sharded or in what order they arrive — the property the end-to-end
// byte-identity fixtures (stream_parity_test) lean on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "measure/export.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "measure/store.h"
#include "obs/metrics.h"

namespace sisyphus {
namespace {

measure::SpeedTestRecord MakeRecord(std::uint64_t id, std::uint32_t asn,
                                    const std::string& city,
                                    std::int64_t minutes, double rtt_ms) {
  measure::SpeedTestRecord r;
  r.id = core::MeasurementId(id);
  r.time = core::SimTime(minutes);
  r.unit = measure::Unit::Intern(core::Asn(asn), city);
  r.vantage_pop = static_cast<netsim::PopIndex>(asn % 7);
  r.rtt_ms = rtt_ms;
  r.loss_rate = 0.01;
  r.throughput_mbps = 40.0;
  r.intent = (id % 3 == 0) ? measure::Intent::kUserInitiated
                           : measure::Intent::kBaseline;
  return r;
}

/// Appends one record copy to its unit's shard through the bulk call, as
/// a one-entry shard slice; true when the copy was archived.
bool AppendOne(measure::ShardedMeasurementStore& store,
               const measure::SpeedTestRecord& record) {
  const measure::PendingRecord pending{record};
  const std::uint32_t entry = 0;
  std::vector<std::uint8_t> archived;
  store.AppendShard(store.ShardOf(record.UnitKey()), {&pending, 1},
                    {&entry, 1}, archived);
  return archived.at(0) != 0;
}

/// A column's rows, in order.
template <typename T>
std::vector<T> Rows(const measure::SegmentedColumn<T>& column) {
  std::vector<T> rows;
  for (std::size_t i = 0; i < column.size(); ++i) rows.push_back(column[i]);
  return rows;
}

// ---- ShardedMeasurementStore ----------------------------------------------

TEST(ShardedStoreTest, ValidatesAndTagsQuarantine) {
  measure::ShardedMeasurementStore sharded;
  std::vector<measure::SpeedTestRecord> records;
  for (std::uint64_t i = 1; i <= 40; ++i) {
    records.push_back(MakeRecord(i, 3741 + static_cast<std::uint32_t>(i % 5),
                                 "City" + std::to_string(i % 5),
                                 static_cast<std::int64_t>(i * 60),
                                 15.0 + static_cast<double>(i)));
  }
  records.push_back(MakeRecord(41, 3741, "City0", 60, -4.0));  // bad rtt
  auto bad_time = MakeRecord(42, 3742, "City1", 60, 20.0);
  bad_time.time = core::SimTime(-5);
  records.push_back(bad_time);

  std::size_t archived = 0;
  std::uint64_t baseline = 0;
  for (const auto& r : records) {
    if (AppendOne(sharded, r)) {
      ++archived;
      if (r.intent == measure::Intent::kBaseline) ++baseline;
    }
  }

  EXPECT_EQ(archived, 40u);
  EXPECT_EQ(sharded.size(), 40u);
  EXPECT_EQ(sharded.quarantined(), 2u);
  const std::vector<std::string> units = {
      "3741 / City0", "3742 / City1", "3743 / City2", "3744 / City3",
      "3745 / City4"};
  EXPECT_EQ(sharded.Units(), units);
  EXPECT_EQ(sharded.CountByIntent(measure::Intent::kBaseline), baseline);
  const std::map<std::string, std::uint64_t> reasons = {{"rtt", 1},
                                                        {"timestamp", 1}};
  EXPECT_EQ(sharded.QuarantineReasonCounts(), reasons);
}

TEST(ShardedStoreTest, ShardOfPartitionsUnitsDeterministically) {
  measure::ShardedMeasurementStore store;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    const auto r = MakeRecord(i, 1000 + static_cast<std::uint32_t>(i), "U",
                              60, 10.0);
    const std::size_t shard = store.ShardOf(r.UnitKey());
    EXPECT_EQ(shard, store.ShardOf(r.UnitKey()));
    ASSERT_LT(shard, store.shard_count());
    ASSERT_TRUE(AppendOne(store, r));
  }
  // Every unit's arena entry lives in exactly one shard.
  std::size_t interned = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    interned += store.shard(s).unit_names.size();
  }
  EXPECT_EQ(interned, store.Units().size());
}

TEST(ShardedStoreTest, InternsUnitsAndClampsAttempts) {
  measure::ShardedMeasurementStore store;
  auto r = MakeRecord(1, 3741, "East London", 60, 12.0);
  r.attempts = 1000;
  ASSERT_TRUE(AppendOne(store, r));
  r.id = core::MeasurementId(2);
  r.attempts = 3;
  ASSERT_TRUE(AppendOne(store, r));
  const auto& columns = store.shard(store.ShardOf(r.UnitKey()));
  ASSERT_EQ(columns.size(), 2u);
  EXPECT_EQ(columns.unit[0], columns.unit[1]);  // interned once
  EXPECT_EQ(columns.unit_names.size(), 1u);
  EXPECT_EQ(columns.attempts[0], 255);
  EXPECT_EQ(columns.attempts[1], 3);
}

TEST(ShardedStoreTest, AppendShardArchivesEntriesInOrderOnce) {
  const bool metrics_were_enabled = obs::Registry::enabled();
  obs::Registry::Enable(true);
  const obs::Registry& registry = obs::Registry::Global();
  const std::uint64_t archived_before =
      registry.CounterValue("measure.store.archived");
  const std::uint64_t quarantined_before =
      registry.CounterValue("measure.store.quarantined");

  // Units A, c and d share a shard; e lives in another one.
  measure::ShardedMeasurementStore store;
  const auto unit = [](const std::string& city) {
    return MakeRecord(1, 3741, city, 60, 10.0);
  };
  const std::size_t shard = store.ShardOf(unit("A").UnitKey());
  std::vector<std::string> same_shard, other_shard;
  for (int i = 0; same_shard.size() < 2 || other_shard.empty(); ++i) {
    const std::string city = "C" + std::to_string(i);
    (store.ShardOf(unit(city).UnitKey()) == shard ? same_shard : other_shard)
        .push_back(city);
  }
  const std::string c = same_shard[0], d = same_shard[1], e = other_shard[0];
  const auto pending = [](measure::SpeedTestRecord record,
                          bool duplicate = false) {
    return measure::PendingRecord{record, duplicate};
  };

  auto bad_rtt = MakeRecord(1, 3741, d, 60, 10.0);
  bad_rtt.rtt_ms = std::numeric_limits<double>::quiet_NaN();
  auto many_attempts = MakeRecord(2, 3741, "A", 61, 11.0);
  many_attempts.attempts = 1000;
  auto bad_time = MakeRecord(4, 3741, "A", 62, 12.0);
  bad_time.time = core::SimTime(-5);
  auto bad_loss = MakeRecord(6, 3741, "A", 64, 14.0);
  bad_loss.loss_rate = 2.0;
  const std::vector<measure::PendingRecord> first = {
      pending(bad_rtt),                              // d: quarantined
      pending(many_attempts),                        // A: row 0
      pending(MakeRecord(3, 3741, e, 60, 10.0)),     // another shard
      pending(bad_time),                             // A: quarantined
      pending(MakeRecord(5, 3741, "A", 63, 13.0), true),  // A: rows 1, 2
      pending(bad_loss, true),                       // A: quarantined twice
      pending(MakeRecord(7, 3741, c, 65, 15.0)),     // c: row 3
  };
  std::vector<std::uint8_t> archived;
  store.AppendShard(shard, first, std::vector<std::uint32_t>{0, 1, 3, 4, 5, 6},
                    archived);
  EXPECT_EQ(archived, (std::vector<std::uint8_t>{0, 1, 0, 1, 0, 1}));

  // The second call continues c's run, then archives d's first copies.
  const std::vector<measure::PendingRecord> second = {
      pending(MakeRecord(8, 3741, c, 66, 16.0)),        // c: row 4
      pending(MakeRecord(9, 3741, d, 67, 17.0), true),  // d: rows 5, 6
  };
  store.AppendShard(shard, second, std::vector<std::uint32_t>{0, 1},
                    archived);
  EXPECT_EQ(archived, (std::vector<std::uint8_t>{1, 1}));

  const measure::ShardedMeasurementStore::Columns& columns =
      store.shard(shard);
  EXPECT_EQ(Rows(columns.id),
            (std::vector<std::uint64_t>{2, 5, 5, 7, 8, 9, 9}));
  EXPECT_EQ(Rows(columns.time_minutes),
            (std::vector<std::int64_t>{61, 63, 63, 65, 66, 67, 67}));
  EXPECT_EQ(Rows(columns.rtt_ms),
            (std::vector<double>{11.0, 13.0, 13.0, 15.0, 16.0, 17.0, 17.0}));
  EXPECT_EQ(Rows(columns.unit),
            (std::vector<std::uint32_t>{0, 0, 0, 1, 1, 2, 2}));
  const std::vector<std::string> names = {
      unit("A").UnitKey(), unit(c).UnitKey(), unit(d).UnitKey()};
  EXPECT_EQ(columns.unit_names, names);
  EXPECT_EQ(Rows(columns.attempts),
            (std::vector<std::uint8_t>{255, 1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(columns.loss_rate.size(), 7u);
  EXPECT_EQ(columns.throughput_mbps.size(), 7u);
  EXPECT_EQ(columns.intent.size(), 7u);
  EXPECT_EQ(columns.vantage_pop.size(), 7u);
  EXPECT_EQ(columns.ixp_crossing.size(), 7u);
  EXPECT_EQ(store.size(), 7u);
  EXPECT_EQ(store.shard(store.ShardOf(unit(e).UnitKey())).size(), 0u);

  EXPECT_EQ(store.quarantined(), 4u);
  const std::map<std::string, std::uint64_t> reasons = {
      {"loss_rate", 2}, {"rtt", 1}, {"timestamp", 1}};
  EXPECT_EQ(store.QuarantineReasonCounts(), reasons);
  EXPECT_EQ(registry.CounterValue("measure.store.archived") - archived_before,
            7u);
  EXPECT_EQ(
      registry.CounterValue("measure.store.quarantined") - quarantined_before,
      4u);
  obs::Registry::Enable(metrics_were_enabled);
}

TEST(ShardedStoreTest, RowsNeverMoveAcrossSegmentBoundaries) {
  constexpr std::size_t kFirst =
      measure::SegmentedColumn<std::uint64_t>::kFirstSegmentRows;
  // Units A, B and C share one shard, so every call lands in one arena.
  measure::ShardedMeasurementStore store;
  const auto key = [](const std::string& city) {
    return measure::Unit::Intern(core::Asn(3741), city).key();
  };
  const std::size_t shard = store.ShardOf(key("A"));
  std::vector<std::string> cities = {"A"};
  for (int i = 0; cities.size() < 3; ++i) {
    const std::string city = "S" + std::to_string(i);
    if (store.ShardOf(key(city)) == shard) cities.push_back(city);
  }

  // Every field varies with the id; the unit switches every 100 ids.
  std::uint64_t next_id = 1;
  const auto record = [&] {
    const std::uint64_t id = next_id++;
    measure::SpeedTestRecord r =
        MakeRecord(id, 3741, cities[(id / 100) % cities.size()],
                   static_cast<std::int64_t>(id),
                   10.0 + static_cast<double>(id) * 1e-3);
    r.loss_rate = static_cast<double>(id % 50) * 1e-3;
    r.throughput_mbps = 20.0 + static_cast<double>(id % 13);
    r.attempts = static_cast<std::uint32_t>(id % 300);
    r.vantage_pop = static_cast<netsim::PopIndex>(id % 11);
    r.ixp_crossing = id % 5 == 0 ? 3 : measure::kNoIxpCrossing;
    return measure::PendingRecord{r};
  };
  const auto quarantined = [&] {
    measure::PendingRecord pending = record();
    pending.record.rtt_ms = -1.0;
    return pending;
  };
  const auto duplicate = [&] {
    measure::PendingRecord pending = record();
    pending.duplicate = true;
    return pending;
  };

  // The archive the offered entries should leave, one element per row.
  std::vector<measure::SpeedTestRecord> expected;
  std::uint64_t expected_quarantined = 0;
  const auto append = [&](const std::vector<measure::PendingRecord>& batch) {
    std::vector<std::uint32_t> entries(batch.size());
    for (std::uint32_t k = 0; k < entries.size(); ++k) entries[k] = k;
    std::vector<std::uint8_t> archived;
    store.AppendShard(shard, batch, entries, archived);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const std::size_t copies = batch[k].duplicate ? 2 : 1;
      const bool valid = batch[k].record.rtt_ms > 0.0;
      EXPECT_EQ(archived[k] != 0, valid) << "entry " << k;
      if (!valid) expected_quarantined += copies;
      for (std::size_t copy = 0; valid && copy < copies; ++copy) {
        expected.push_back(batch[k].record);
      }
    }
  };

  // 1. Rows 0 .. kFirst - 2: inside the first segment.
  std::vector<measure::PendingRecord> batch;
  for (std::size_t i = 0; i + 1 < kFirst; ++i) batch.push_back(record());
  append(batch);
  const measure::ShardedMeasurementStore::Columns& columns = store.shard(shard);
  ASSERT_EQ(columns.size(), kFirst - 1);
  const std::vector<const void*> row0 = {
      &columns.id[0],           &columns.time_minutes[0],
      &columns.unit[0],         &columns.rtt_ms[0],
      &columns.loss_rate[0],    &columns.throughput_mbps[0],
      &columns.intent[0],       &columns.attempts[0],
      &columns.vantage_pop[0],  &columns.ixp_crossing[0]};

  // 2. A quarantined entry just before the boundary, then a duplicate
  // whose two rows the boundary splits.
  append({quarantined(), duplicate()});
  ASSERT_EQ(columns.size(), kFirst + 1);

  // 3. One call whose rows cover the rest of the second segment, all of
  // the third and the start of the fourth, with duplicates and quarantined
  // entries (some of them duplicates) among them.
  batch.clear();
  for (std::size_t i = 0; i < 6300; ++i) {
    if (i % 89 == 0) {
      batch.push_back(quarantined());
      batch.back().duplicate = i % 2 == 0;
    } else {
      batch.push_back(i % 97 == 0 ? duplicate() : record());
    }
  }
  append(batch);
  ASSERT_GT(columns.size(), 7 * kFirst);  // past the third segment's end

  // 4. Past the fourth segment's end, straddling it.
  batch.clear();
  for (std::size_t i = 0; i < 8300; ++i) {
    batch.push_back(i % 101 == 0 ? duplicate() : record());
  }
  append(batch);
  ASSERT_GT(columns.size(), 15 * kFirst);

  ASSERT_EQ(columns.size(), expected.size());
  EXPECT_EQ(store.size(), expected.size());
  EXPECT_EQ(store.quarantined(), expected_quarantined);
  const std::map<std::string, std::uint64_t> reasons = {
      {"rtt", expected_quarantined}};
  EXPECT_EQ(store.QuarantineReasonCounts(), reasons);
  ASSERT_EQ(columns.unit_names.size(), cities.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const measure::SpeedTestRecord& r = expected[i];
    ASSERT_EQ(columns.id[i], r.id.value()) << "row " << i;
    ASSERT_EQ(columns.time_minutes[i], r.time.minutes()) << "row " << i;
    ASSERT_EQ(columns.unit_names[columns.unit[i]], r.UnitKey()) << "row " << i;
    ASSERT_EQ(columns.rtt_ms[i], r.rtt_ms) << "row " << i;
    ASSERT_EQ(columns.loss_rate[i], r.loss_rate) << "row " << i;
    ASSERT_EQ(columns.throughput_mbps[i], r.throughput_mbps) << "row " << i;
    ASSERT_EQ(columns.intent[i], static_cast<std::uint8_t>(r.intent))
        << "row " << i;
    ASSERT_EQ(columns.attempts[i], std::min<std::uint32_t>(r.attempts, 255))
        << "row " << i;
    ASSERT_EQ(columns.vantage_pop[i], r.vantage_pop) << "row " << i;
    ASSERT_EQ(columns.ixp_crossing[i], r.ixp_crossing) << "row " << i;
  }

  // Growing never moved a row, and the unused capacity stays below the
  // rows stored plus one first segment.
  const std::vector<const void*> row0_after = {
      &columns.id[0],           &columns.time_minutes[0],
      &columns.unit[0],         &columns.rtt_ms[0],
      &columns.loss_rate[0],    &columns.throughput_mbps[0],
      &columns.intent[0],       &columns.attempts[0],
      &columns.vantage_pop[0],  &columns.ixp_crossing[0]};
  EXPECT_EQ(row0_after, row0);
  EXPECT_LT(columns.id.capacity() - columns.size(), columns.size() + kFirst);
}

TEST(ShardedStoreTest, ToCsvIsDeterministic) {
  auto fill = [](measure::ShardedMeasurementStore& store) {
    for (std::uint64_t i = 1; i <= 30; ++i) {
      const auto r = MakeRecord(i, 3741 + static_cast<std::uint32_t>(i % 4),
                                "City" + std::to_string(i % 4),
                                static_cast<std::int64_t>(i * 30),
                                10.0 + static_cast<double>(i) * 0.25);
      AppendOne(store, r);
    }
  };
  measure::ShardedMeasurementStore a, b;
  fill(a);
  fill(b);
  const std::string csv = a.ToCsv();
  EXPECT_EQ(csv, b.ToCsv());
  EXPECT_NE(csv.find("shard,id,time_minutes,unit"), std::string::npos);
}

// ---- IncrementalPanelBuilder ------------------------------------------------

std::vector<measure::SpeedTestRecord> PanelFixtureRecords() {
  std::vector<measure::SpeedTestRecord> records;
  std::uint64_t id = 1;
  // Two dense units, one sparse (dropped), one entirely out of horizon
  // (empty). Horizon below: 8 periods of 6h = 2880 minutes.
  for (int unit = 0; unit < 2; ++unit) {
    for (int t = 0; t < 48; ++t) {
      records.push_back(MakeRecord(
          id++, 3741 + static_cast<std::uint32_t>(unit), "Dense", t * 60,
          20.0 + unit * 3.0 + 0.1 * static_cast<double>(t % 7)));
    }
  }
  for (int t = 0; t < 3; ++t) {  // sparse: 3 of 8 buckets observed
    records.push_back(
        MakeRecord(id++, 3750, "Sparse", t * 360, 30.0 + t));
  }
  for (int t = 0; t < 4; ++t) {  // beyond period 8
    records.push_back(MakeRecord(id++, 3760, "Late", 3000 + t * 60, 25.0));
  }
  return records;
}

measure::PanelOptions FixtureOptions() {
  measure::PanelOptions options;
  options.bucket = core::SimTime::FromHours(6);
  options.periods = 8;
  return options;
}

TEST(IncrementalPanelBuilderTest, ShardedScrambledMatchesInOrderFold) {
  const auto records = PanelFixtureRecords();
  measure::IncrementalPanelBuilder in_order(FixtureOptions(), 1);
  for (const auto& r : records) {
    in_order.Observe(0, r.UnitKey(), r.time, r.rtt_ms, r.id.value());
  }
  const measure::Panel batch = in_order.Finalize();

  // Four shards, records arriving in scrambled order.
  auto scrambled = records;
  std::shuffle(scrambled.begin(), scrambled.end(),
               std::mt19937(20260808));
  measure::IncrementalPanelBuilder builder(FixtureOptions(), 4);
  for (const auto& r : scrambled) {
    builder.Observe(builder.ShardOf(r.UnitKey()), r.UnitKey(), r.time,
                    r.rtt_ms, r.id.value());
  }
  const measure::Panel streamed = builder.Finalize();

  EXPECT_EQ(measure::PanelToCsv(streamed), measure::PanelToCsv(batch));
  ASSERT_EQ(streamed.units.size(), batch.units.size());
  ASSERT_EQ(streamed.dropped.size(), batch.dropped.size());
  for (std::size_t u = 0; u < batch.units.size(); ++u) {
    EXPECT_EQ(streamed.units[u].unit, batch.units[u].unit);
    EXPECT_EQ(streamed.units[u].observed, batch.units[u].observed);
    EXPECT_EQ(streamed.units[u].values, batch.units[u].values);
  }
  // The all-out-of-horizon unit is empty: neither kept nor listed as a
  // sparsity drop.
  for (const auto& unit : streamed.units) EXPECT_NE(unit.unit, "3760 / Late");
  for (const auto& drop : streamed.dropped) EXPECT_NE(drop.unit, "3760 / Late");
}

TEST(IncrementalPanelBuilderTest, ArrivalOrderIsIrrelevant) {
  const auto records = PanelFixtureRecords();
  std::string reference;
  for (unsigned seed : {1u, 2u, 3u}) {
    auto scrambled = records;
    std::shuffle(scrambled.begin(), scrambled.end(), std::mt19937(seed));
    measure::IncrementalPanelBuilder builder(FixtureOptions(), 3);
    for (const auto& r : scrambled) {
      builder.Observe(builder.ShardOf(r.UnitKey()), r.UnitKey(), r.time,
                      r.rtt_ms, r.id.value());
    }
    const std::string csv = measure::PanelToCsv(builder.Finalize());
    if (reference.empty()) reference = csv;
    EXPECT_EQ(csv, reference) << "seed " << seed;
  }
}

TEST(IncrementalPanelBuilderTest, CountsObservedInHorizonOnly) {
  measure::IncrementalPanelBuilder builder(FixtureOptions(), 1);
  builder.Observe(0, "3741 / Dense", core::SimTime(60), 20.0, 1);
  builder.Observe(0, "3741 / Dense", core::SimTime(5000), 20.0, 2);  // late
  EXPECT_EQ(builder.observed(), 1u);
}

}  // namespace
}  // namespace sisyphus
