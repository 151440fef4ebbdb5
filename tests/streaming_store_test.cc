// Campaign ingest units: the sharded columnar store's validation and
// quarantine accounting, and the panel a campaign builds from its store,
// which matches an in-order ingest cell for cell however records are
// sharded or in what order they arrive — the property the end-to-end
// byte-identity fixtures (stream_parity_test) lean on — together with the
// running means and lineage verdicts ingest keeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "measure/export.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "measure/store.h"
#include "obs/lineage.h"
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

// ---- Panels built from the campaign's store --------------------------------

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

/// Ingests `records` through a fresh campaign in batches of at most
/// `batch_size` entries, in the order given, and builds its panel.
measure::Panel IngestAndFinalize(
    const std::vector<measure::SpeedTestRecord>& records,
    std::size_t batch_size) {
  measure::StreamingCampaign campaign({}, {FixtureOptions()});
  for (std::size_t first = 0; first < records.size(); first += batch_size) {
    std::vector<measure::PendingRecord> batch;
    for (std::size_t i = first;
         i < std::min(records.size(), first + batch_size); ++i) {
      batch.push_back({records[i]});
    }
    campaign.IngestBatch(batch);
  }
  return campaign.FinalizePanel();
}

/// Lineage on, with an empty ledger, for one scope; a campaign reads the
/// flag when it is constructed, so construct it inside.
struct ScopedLineage {
  ScopedLineage() {
    obs::Lineage::Enable(true);
    obs::Lineage::Global().Reset();
  }
  ~ScopedLineage() {
    obs::Lineage::Global().Reset();
    obs::Lineage::Enable(false);
  }
};

/// What finalize wrote to the ledger's one run, as text: each unit's
/// PanelUnitKept or PanelUnitDropped entry with its cells' (or, dropped,
/// its copies') id sets, and the PanelUnitEmpty count.
std::string PanelLedgerText() {
  std::string text;
  const auto ids = [&text](const obs::IdRunSet& set) {
    for (std::uint64_t id : set.Expand()) text += " " + std::to_string(id);
  };
  obs::Lineage::Global().VisitRuns(
      [&](const std::vector<obs::Lineage::RunLedger>& runs) {
        if (runs.size() != 1) {
          text = std::to_string(runs.size()) + " runs";
          return;
        }
        for (const auto& [unit, ledger] : runs[0].units) {
          text += unit + (ledger.dropped ? " dropped" : " kept") +
                  " missing " + std::to_string(ledger.missing_fraction) +
                  " observed " + std::to_string(ledger.observed_cells) +
                  " masked " + std::to_string(ledger.masked_cells) + "\n";
          for (const obs::Lineage::CellEntry& cell : ledger.cells) {
            text += "  cell " + std::to_string(cell.period) + ":";
            ids(cell.ids);
            text += "\n";
          }
          if (ledger.dropped) {
            text += "  copies:";
            ids(ledger.dropped_ids);
            text += "\n";
          }
        }
        text += "empty " + std::to_string(runs[0].empty_units) + "\n";
      });
  return text;
}

TEST(CampaignPanelTest, ShardScrambledArrivalMatchesInOrderIngest) {
  const auto records = PanelFixtureRecords();
  const measure::Panel in_order = IngestAndFinalize(records, records.size());

  // Records arriving in scrambled order, a few per step: each unit's rows
  // reach its shard out of time order, over many steps.
  auto scrambled = records;
  std::shuffle(scrambled.begin(), scrambled.end(),
               std::mt19937(20260808));
  const measure::Panel streamed = IngestAndFinalize(scrambled, 7);

  EXPECT_EQ(measure::PanelToCsv(streamed), measure::PanelToCsv(in_order));
  ASSERT_EQ(streamed.units.size(), 2u);
  ASSERT_EQ(streamed.units.size(), in_order.units.size());
  ASSERT_EQ(streamed.dropped.size(), in_order.dropped.size());
  for (std::size_t u = 0; u < in_order.units.size(); ++u) {
    EXPECT_EQ(streamed.units[u].unit, in_order.units[u].unit);
    EXPECT_EQ(streamed.units[u].observed, in_order.units[u].observed);
    EXPECT_EQ(streamed.units[u].values, in_order.units[u].values);
  }
  // The all-out-of-horizon unit is empty: neither kept nor listed as a
  // sparsity drop.
  ASSERT_EQ(streamed.dropped.size(), 1u);
  EXPECT_EQ(streamed.dropped[0].unit, "3750 / Sparse");
  for (const auto& unit : streamed.units) EXPECT_NE(unit.unit, "3760 / Late");
}

TEST(CampaignPanelTest, ArrivalOrderIsIrrelevant) {
  const auto records = PanelFixtureRecords();
  const std::string reference =
      measure::PanelToCsv(IngestAndFinalize(records, records.size()));
  for (unsigned seed : {1u, 2u, 3u}) {
    auto scrambled = records;
    std::shuffle(scrambled.begin(), scrambled.end(), std::mt19937(seed));
    EXPECT_EQ(measure::PanelToCsv(IngestAndFinalize(scrambled, 2 + seed)),
              reference)
        << "seed " << seed;
  }

  // With lineage on the ledger's panel entries match the in-order run's
  // too. Scrambled batches archive a unit's copies out of id order, so
  // each cell's ids leave the scatter unsorted.
  const ScopedLineage lineage;
  EXPECT_EQ(measure::PanelToCsv(IngestAndFinalize(records, records.size())),
            reference);
  const std::string in_order = PanelLedgerText();
  for (const char* entry :
       {"3741 / Dense kept", "3742 / Dense kept", "  cell 7:",
        "3750 / Sparse dropped", "  copies: 97 98 99", "empty 1"}) {
    EXPECT_NE(in_order.find(entry), std::string::npos) << entry;
  }
  for (unsigned seed : {1u, 2u, 3u}) {
    obs::Lineage::Global().Reset();
    auto scrambled = records;
    std::shuffle(scrambled.begin(), scrambled.end(), std::mt19937(seed));
    EXPECT_EQ(measure::PanelToCsv(IngestAndFinalize(scrambled, 2 + seed)),
              reference)
        << "seed " << seed;
    EXPECT_EQ(PanelLedgerText(), in_order) << "seed " << seed;
  }
}

TEST(CampaignPanelTest, AllLateUnitIsEmptyWithLineageOn) {
  // Every copy lies past the horizon, so the unit's shard has no copy in
  // any cell; finalize still writes its PanelUnitEmpty and counts it.
  const bool metrics_were_enabled = obs::Registry::enabled();
  obs::Registry::Enable(true);
  obs::Registry::Global().ResetAll();
  std::vector<measure::SpeedTestRecord> records;
  for (const auto& r : PanelFixtureRecords()) {
    if (r.UnitKey() == "3760 / Late") records.push_back(r);
  }
  ASSERT_EQ(records.size(), 4u);
  {
    const ScopedLineage lineage;
    const measure::Panel panel = IngestAndFinalize(records, records.size());
    EXPECT_TRUE(panel.units.empty());
    EXPECT_TRUE(panel.dropped.empty());
    EXPECT_EQ(PanelLedgerText(), "empty 1\n");
    EXPECT_EQ(
        obs::Registry::Global().CounterValue("measure.panel.units_empty"),
        1u);
  }
  obs::Registry::Global().ResetAll();
  obs::Registry::Enable(metrics_were_enabled);
}

TEST(CampaignPanelTest, QuarantinedAndLateCopiesReachNoCell) {
  std::vector<measure::SpeedTestRecord> records;
  for (int t = 0; t < 7; ++t) {
    records.push_back(MakeRecord(records.size() + 1, 3741, "Dense",
                                 t * 360 + 60, 20.0));
  }
  records.push_back(MakeRecord(8, 3741, "Dense", 7 * 360 + 60, -1.0));
  records.push_back(MakeRecord(9, 3741, "Dense", 5000, 20.0));  // late
  measure::StreamingCampaign campaign({}, {FixtureOptions()});
  std::vector<measure::PendingRecord> batch;
  for (const auto& r : records) batch.push_back({r});
  campaign.IngestBatch(batch);
  EXPECT_EQ(campaign.store().size(), 8u);
  EXPECT_EQ(campaign.store().quarantined(), 1u);

  // Only the seven in-horizon archived copies count toward the running
  // mean, and the quarantined copy's cell stays unobserved.
  std::vector<std::string> visited;
  campaign.VisitRunningMeans(
      [&](std::string_view unit, std::uint64_t count, double sum) {
        visited.emplace_back(unit);
        EXPECT_EQ(count, 7u);
        EXPECT_EQ(sum, 140.0);
      });
  EXPECT_EQ(visited, std::vector<std::string>{"3741 / Dense"});
  const measure::Panel panel = campaign.FinalizePanel();
  ASSERT_EQ(panel.units.size(), 1u);
  EXPECT_EQ(panel.units[0].observed,
            (std::vector<bool>{true, true, true, true, true, true, true,
                               false}));
  EXPECT_DOUBLE_EQ(panel.units[0].missing_fraction, 1.0 / 8.0);
}

/// The reference running sum: Neumaier-compensated, in the order given.
struct ReferenceSum {
  std::uint64_t count = 0;
  double sum = 0.0;
  double comp = 0.0;
  void Add(double x) {
    const double t = sum + x;
    if (std::abs(sum) >= std::abs(x)) {
      comp += (sum - t) + x;
    } else {
      comp += (x - t) + sum;
    }
    sum = t;
    ++count;
  }
};

/// The reference cell median: sort a copy and interpolate between the two
/// middle values, the arithmetic the panel's median promises.
double SortedMedian(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double pos = 0.5 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

TEST(CampaignPanelTest, ShardPastSegmentBoundaryMatchesBruteForce) {
  constexpr std::size_t kFirst =
      measure::SegmentedColumn<std::uint64_t>::kFirstSegmentRows;
  const measure::PanelOptions options = FixtureOptions();
  const std::int64_t horizon = 8 * 360;
  // Three units and a fourth whose copies are all quarantined share one
  // shard of the default layout, which the campaign's store has too; a
  // fifth unit, in another shard, has only out-of-horizon copies.
  measure::ShardedMeasurementStore layout;
  const auto key = [](const std::string& city) {
    return measure::Unit::Intern(core::Asn(3741), city).key();
  };
  const std::size_t shard = layout.ShardOf(key("A"));
  std::vector<std::string> cities = {"A"};
  std::string late;
  for (int i = 0; cities.size() < 4 || late.empty(); ++i) {
    const std::string city = "S" + std::to_string(i);
    if (layout.ShardOf(key(city)) == shard) {
      if (cities.size() < 4) cities.push_back(city);
    } else if (late.empty()) {
      late = city;
    }
  }
  const std::string quarantined_city = cities[3];

  const ScopedLineage lineage;
  measure::StreamingCampaign campaign({}, {options});

  // Offered entries, and per unit the running sum ingest should keep.
  std::vector<measure::PendingRecord> offered;
  std::map<std::string, ReferenceSum> running;
  std::mt19937 rng(20261020);
  std::uint64_t next_id = 1;
  for (int step = 0; step < 6; ++step) {
    std::vector<measure::PendingRecord> batch;
    for (int i = 0; i < 260; ++i) {
      const std::uint64_t id = next_id++;
      const std::string& city = i % 50 == 49 ? quarantined_city
                                : i % 40 == 39 ? late
                                               : cities[(i / 30) % 3];
      // Mostly inside the horizon, with copies past it and a timestamp
      // the store refuses.
      std::int64_t minutes =
          static_cast<std::int64_t>(rng() % (horizon + 600));
      if (city == late) minutes = horizon + minutes % 300;
      if (id % 97 == 0) minutes = -5;
      double rtt = 10.0 + static_cast<double>(rng() % 10'000) * 1e-3;
      if (city == quarantined_city || id % 61 == 0) rtt = -1.0;
      measure::PendingRecord pending{
          MakeRecord(id, 3741, city, minutes, rtt)};
      pending.duplicate = id % 7 == 0;
      batch.push_back(pending);
    }
    // Entries arrive in runs of one unit, as a vantage-ordered merge
    // delivers them; ids stay in offer order within the step.
    std::stable_sort(batch.begin(), batch.end(), [](const auto& a,
                                                    const auto& b) {
      return a.record.UnitKey() < b.record.UnitKey();
    });
    campaign.IngestBatch(batch);
    for (const measure::PendingRecord& pending : batch) {
      offered.push_back(pending);
      const measure::SpeedTestRecord& r = pending.record;
      if (!measure::ValidateRecord(r).ok()) continue;
      ReferenceSum& sum = running[r.UnitKey()];
      if (measure::PanelCellOf(options, r.time) < 0) continue;
      for (int copy = 0; copy < (pending.duplicate ? 2 : 1); ++copy) {
        sum.Add(r.rtt_ms);
      }
    }
    std::vector<std::string> visited;
    campaign.VisitRunningMeans(
        [&](std::string_view unit, std::uint64_t count, double sum) {
          visited.emplace_back(unit);
          const ReferenceSum& expected = running.at(std::string(unit));
          EXPECT_EQ(count, expected.count) << unit << ", step " << step;
          EXPECT_EQ(sum, expected.sum + expected.comp)
              << unit << ", step " << step;
        });
    std::vector<std::string> expected_units;
    for (const auto& [unit, sum] : running) expected_units.push_back(unit);
    EXPECT_EQ(visited, expected_units) << "step " << step;
  }
  ASSERT_GT(campaign.store().shard(shard).size(), kFirst);

  // Brute force over the offered entries: each unit's archived
  // in-horizon copies by cell, and each record's expected terminal.
  std::map<std::string, std::vector<std::vector<double>>> cells;
  std::map<std::string, std::vector<std::vector<std::uint64_t>>> cell_ids;
  for (const measure::PendingRecord& pending : offered) {
    const measure::SpeedTestRecord& r = pending.record;
    const std::int64_t cell = measure::PanelCellOf(options, r.time);
    if (!measure::ValidateRecord(r).ok() || cell < 0) continue;
    auto& unit_cells = cells[r.UnitKey()];
    auto& unit_ids = cell_ids[r.UnitKey()];
    unit_cells.resize(options.periods);
    unit_ids.resize(options.periods);
    for (int copy = 0; copy < (pending.duplicate ? 2 : 1); ++copy) {
      unit_cells[static_cast<std::size_t>(cell)].push_back(r.rtt_ms);
    }
    unit_ids[static_cast<std::size_t>(cell)].push_back(r.id.value());
  }
  const measure::Panel panel = campaign.FinalizePanel();
  ASSERT_EQ(panel.units.size(), 3u);
  EXPECT_TRUE(panel.dropped.empty());
  for (const measure::UnitSeries& series : panel.units) {
    const auto& expected = cells.at(series.unit);
    for (std::size_t t = 0; t < options.periods; ++t) {
      ASSERT_EQ(series.observed[t], !expected[t].empty())
          << series.unit << ", cell " << t;
      if (!expected[t].empty()) {
        EXPECT_EQ(series.values[t], SortedMedian(expected[t]))
            << series.unit << ", cell " << t;
      }
    }
  }

  obs::Lineage::Global().VisitRuns(
      [&](const std::vector<obs::Lineage::RunLedger>& runs) {
        ASSERT_EQ(runs.size(), 1u);
        const obs::Lineage::RunLedger& run = runs[0];
        EXPECT_EQ(run.empty_units, 1u);  // Late
        ASSERT_EQ(run.units.size(), 3u);
        for (const auto& [unit, ledger] : run.units) {
          std::vector<std::vector<std::uint64_t>> expected =
              cell_ids.at(unit);
          std::size_t observed = 0;
          for (std::size_t t = 0; t < expected.size(); ++t) {
            if (expected[t].empty()) continue;
            std::sort(expected[t].begin(), expected[t].end());
            ASSERT_LT(observed, ledger.cells.size()) << unit;
            const obs::Lineage::CellEntry& cell = ledger.cells[observed++];
            EXPECT_EQ(cell.period, t) << unit;
            EXPECT_EQ(cell.ids.Expand(), expected[t])
                << unit << ", cell " << t;
          }
          EXPECT_EQ(ledger.cells.size(), observed) << unit;
        }
        ASSERT_EQ(run.records.size(), offered.size());
        for (const measure::PendingRecord& pending : offered) {
          const measure::SpeedTestRecord& r = pending.record;
          const obs::LineageStage expected =
              !measure::ValidateRecord(r).ok()
                  ? obs::LineageStage::kQuarantined
              : measure::PanelCellOf(options, r.time) < 0
                  ? obs::LineageStage::kOutOfPanel
                  : obs::LineageStage::kAggregated;
          EXPECT_EQ(run.records[r.id.value() - 1].stage, expected)
              << "id " << r.id.value();
        }
      });
}

}  // namespace
}  // namespace sisyphus
