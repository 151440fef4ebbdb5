// Tests for the indexed audit store (src/audit): the binary artifact
// must answer every query with exactly the numbers the in-memory lineage
// ledger holds (round-trip through a real multi-campaign fault run),
// reject hostile counts in its schema loudly, and stay byte-identical
// across thread counts and across a durable stop/resume — the contract the
// ledger itself carries (DESIGN.md §12). Truncation, corruption and the
// container's hostile fields are section_file_test's.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "audit/format.h"
#include "audit/reader.h"
#include "audit/writer.h"
#include "causal/placebo.h"
#include "causal/robust_synthetic_control.h"
#include "core/hash.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "durable/service.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "section_file_test.h"
#include "stats/decomposition.h"

namespace sisyphus {
namespace {

namespace fs = std::filesystem;
using namespace section_file_test;  // NOLINT
using obs::Lineage;

/// RAII lineage enable/reset, as in lineage_test.
struct ScopedLineage {
  ScopedLineage() {
    Lineage::Enable(true);
    Lineage::Global().Reset();
  }
  ~ScopedLineage() { Lineage::Enable(false); }
};

/// How RunCampaign fits the first treated unit.
enum class Fit { kRobust, kPlacebo };

/// One small ZA campaign under `plan`, panel + one fit — the full
/// emit -> panel -> estimate lineage path (mirrors lineage_test). The
/// records go through the sharded ingest fan-out, whose tasks write their
/// lineage verdicts in place. A placebo analysis fits its donor rotations
/// in pool tasks, which write their fit marks straight into the ledger.
void RunCampaign(const measure::FaultPlan& plan, Fit fit = Fit::kRobust) {
  netsim::ScenarioZaOptions options;
  options.donor_units = 6;
  options.treatment_time = core::SimTime::FromDays(3);
  options.horizon = core::SimTime::FromDays(6);
  auto scenario = netsim::BuildScenarioZa(options);
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  measure::Platform platform(*scenario.simulator, platform_options);
  measure::FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0;
  vantage.user_tests_per_day = 3.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (auto donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }
  core::Rng rng(29);
  measure::PanelOptions panel_options;
  panel_options.bucket = core::SimTime::FromHours(6);
  panel_options.periods = 4 * 6;
  panel_options.max_missing_fraction = 0.9;
  measure::StreamingOptions streaming_options;
  streaming_options.panel = panel_options;
  measure::StreamingCampaign stream(platform_options.validation,
                                    streaming_options);
  platform.Run(options.horizon, rng, stream);
  const measure::Panel panel = stream.FinalizePanel();
  auto input = measure::MakeSyntheticControlInput(
      panel, scenario.treated[0].name, scenario.donor_names,
      options.treatment_time);
  if (fit == Fit::kPlacebo) {
    ASSERT_TRUE(input.ok()) << input.error().message();
    // More donors than one lockstep group: the rotations take more than
    // one pool task, so at several lanes they run in a multi-lane region.
    ASSERT_GT(input.value().donors.cols(), stats::kJacobiBatchLanes);
    const auto placebo = causal::RunPlaceboAnalysis(input.value());
    ASSERT_TRUE(placebo.ok()) << placebo.error().message();
    Lineage::Global().AddEstimate(
        "audit.placebo.unit0", scenario.treated[0].name, scenario.donor_names,
        placebo.value().treated_fit.average_effect, placebo.value().p_value);
  } else if (input.ok()) {
    auto robust = causal::FitRobustSyntheticControl(input.value());
    // Register the estimate the way the shipped benches do, so the
    // artifact carries a real estimate entry with composition pools.
    if (robust.ok()) {
      Lineage::Global().AddEstimate(
          "audit.robust.unit0", scenario.treated[0].name,
          scenario.donor_names, robust.value().base.average_effect,
          std::numeric_limits<double>::quiet_NaN());
    }
  }
}

/// Two campaigns with different fault plans under one ledger: a
/// multi-run artifact with faults, drops, duplicates, and estimates.
void RunTwoCampaigns() {
  measure::FaultPlan plan_a;
  plan_a.seed = 23;
  plan_a.probe_loss_probability = 0.1;
  plan_a.duplicate_probability = 0.1;
  plan_a.corruption_probability = 0.05;
  plan_a.max_clock_skew = core::SimTime(3);
  measure::FaultPlan plan_b;
  plan_b.seed = 31;
  plan_b.probe_loss_probability = 0.2;
  plan_b.traceroute_truncation_probability = 0.2;
  plan_b.truncation_min_hops = 2;
  Lineage::Global().BeginRun("campaign-a");
  RunCampaign(plan_a);
  Lineage::Global().BeginRun("campaign-b");
  RunCampaign(plan_b);
}

/// Facet oracle: string-keyed counters added record by record, the way
/// the writer counted before its counters became dense. The artifact's
/// facet maps must equal these exactly.
struct Facets {
  std::map<std::string, std::uint64_t> intents;
  std::map<std::string, std::uint64_t> faults;
  std::map<std::string, std::uint64_t> vantages;

  void Add(const Lineage::RecordEntry& entry) {
    ++intents[obs::LineageIntentName(entry.intent)];
    ++vantages[std::to_string(entry.vantage)];
    for (std::size_t bit = 0; bit < obs::kLineageFaultNames.size(); ++bit) {
      if (entry.fault_mask & (1u << bit)) {
        ++faults[obs::kLineageFaultNames[bit]];
      }
    }
  }
};

void ExpectFacets(const audit::FacetCounts& got, const Facets& want,
                  const std::string& where) {
  EXPECT_EQ(got.intents, want.intents) << where;
  EXPECT_EQ(got.faults, want.faults) << where;
  EXPECT_EQ(got.vantages, want.vantages) << where;
}

/// Composition oracle straight from the ledger: records and cells counted
/// over every in-range id of the named kept units' cells, in list order
/// (a repeated unit counts again), digest = FNV over the concatenated cell
/// digests, facets over seen records only.
struct Composition {
  std::uint64_t records = 0;
  std::uint64_t cells = 0;
  std::uint64_t digest = 0;
  Facets facets;
};

Composition Compose(const Lineage::RunLedger& run,
                    const std::vector<std::string>& units) {
  Composition comp;
  std::string digests;
  for (const std::string& name : units) {
    const auto it = run.units.find(name);
    if (it == run.units.end() || it->second.dropped) continue;
    for (const Lineage::CellEntry& cell : it->second.cells) {
      ++comp.cells;
      const std::uint64_t digest = cell.ids.digest();
      digests.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
      for (std::uint64_t id : cell.ids.Expand()) {
        if (id == 0 || id > run.records.size()) continue;
        const Lineage::RecordEntry& entry = run.records[id - 1];
        ++comp.records;
        if (entry.seen) comp.facets.Add(entry);
      }
    }
  }
  comp.digest = core::Fnv1a64(digests);
  return comp;
}

void ExpectComposition(const audit::CompositionInfo& got,
                       const Composition& want, const std::string& where) {
  EXPECT_EQ(got.records, want.records) << where;
  EXPECT_EQ(got.cells, want.cells) << where;
  EXPECT_EQ(got.digest, want.digest) << where;
  ExpectFacets(got.facets, want.facets, where);
}

/// Builds audit.bin from the global ledger and checks every query the
/// reader answers against the ledger itself and the oracles above. With
/// `all_tracked`, every record row must also be seen, so each run header's
/// terminal counts cover the whole per-row histogram.
void ExpectArtifactMatchesLedger(const std::string& file_name,
                                 bool all_tracked) {
  const std::string artifact = audit::BuildAuditArtifact(Lineage::Global());
  const std::string path = TempPath(file_name);
  WriteFile(path, artifact);

  audit::AuditReader reader;
  const auto open = reader.Open(path);
  ASSERT_TRUE(open.ok()) << open.error().message();
  EXPECT_TRUE(reader.VerifyAll().ok());

  // The run headers sum to the totals the manifest's lineage block carries
  // (the pair obscheck cross-checks).
  const obs::LineageWaterfall totals = Lineage::Global().Totals();
  obs::LineageWaterfall sums;
  for (std::size_t i = 0; i < reader.run_count(); ++i) {
    sums += reader.run(i).waterfall;
  }
  EXPECT_EQ(sums.emitted, totals.emitted);
  EXPECT_EQ(sums.terminal, totals.terminal);
  EXPECT_GT(totals.emitted, 0u);

  Lineage::Global().VisitRuns([&](const std::vector<Lineage::RunLedger>& runs) {
    ASSERT_EQ(runs.size(), reader.run_count());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const Lineage::RunLedger& ledger = runs[i];
      const std::vector<obs::LineageStage> stages =
          Lineage::ResolveStages(ledger);
      const audit::RunSummary& run = reader.run(i);
      EXPECT_EQ(run.label, ledger.label);
      EXPECT_GT(run.waterfall.emitted, 0u);

      // Columnar records: every column equals the ledger entry, with the
      // stage resolved.
      const auto columns = reader.Records(i);
      ASSERT_TRUE(columns.ok());
      ASSERT_EQ(columns.value().count, ledger.records.size());
      std::vector<std::uint64_t> histogram(obs::kLineageStageCount, 0);
      obs::LineageWaterfall want;
      for (std::uint64_t r = 0; r < columns.value().count; ++r) {
        const Lineage::RecordEntry& entry = ledger.records[r];
        EXPECT_EQ(columns.value().stage[r],
                  static_cast<std::uint8_t>(stages[r]));
        EXPECT_EQ(columns.value().vantage[r], entry.vantage);
        EXPECT_EQ(columns.value().intent[r], entry.intent);
        EXPECT_EQ(columns.value().attempts[r], entry.attempts);
        EXPECT_EQ(columns.value().fault_mask[r], entry.fault_mask);
        EXPECT_EQ(columns.value().copies[r], entry.copies);
        EXPECT_EQ(columns.value().seen[r], entry.seen ? 1 : 0);
        ++histogram[columns.value().stage[r]];
        if (columns.value().seen[r] == 0) {
          ++want.untracked;
          continue;
        }
        ++want.emitted;
        ++want.terminal[columns.value().stage[r]];
        want.delivered += columns.value().copies[r];
        if (columns.value().stage[r] ==
            static_cast<std::uint8_t>(obs::LineageStage::kQuarantined)) {
          want.quarantined_copies += columns.value().copies[r];
        }
      }

      // The run header, checked against this run's own columns and ledger
      // rather than against Lineage::RunWaterfall, which wrote it.
      for (const auto& [reason, count] : ledger.probe_failures) {
        want.probes_failed += count;
      }
      for (const auto& [name, unit] : ledger.units) {
        ++(unit.dropped ? want.units_dropped : want.units_kept);
        want.cells_observed += unit.observed_cells;
        want.cells_masked += unit.masked_cells;
      }
      EXPECT_EQ(run.waterfall.emitted, want.emitted);
      EXPECT_EQ(run.waterfall.untracked, want.untracked);
      if (all_tracked) {
        EXPECT_EQ(run.waterfall.untracked, 0u) << ledger.label;
      }
      EXPECT_EQ(run.waterfall.delivered, want.delivered);
      EXPECT_EQ(run.waterfall.quarantined_copies, want.quarantined_copies);
      EXPECT_EQ(run.waterfall.archived_copies,
                want.delivered - want.quarantined_copies);
      EXPECT_EQ(run.waterfall.probes_failed, want.probes_failed);
      EXPECT_EQ(run.waterfall.probes_attempted,
                want.emitted + want.probes_failed);
      EXPECT_EQ(run.waterfall.failure_reasons, ledger.probe_failures);
      EXPECT_EQ(run.waterfall.units_kept, want.units_kept);
      EXPECT_EQ(run.waterfall.units_dropped, want.units_dropped);
      EXPECT_EQ(run.waterfall.units_empty, ledger.empty_units);
      EXPECT_EQ(run.waterfall.cells_observed, want.cells_observed);
      EXPECT_EQ(run.waterfall.cells_masked, want.cells_masked);

      // Terminal posting lists: count per stage == per-row histogram
      // (untracked rows included), the run header's count == the seen
      // rows', the decoded id set really holds ids with that resolved
      // stage, and the facets count exactly those rows.
      std::vector<Facets> stage_facets(obs::kLineageStageCount);
      for (std::size_t r = 0; r < ledger.records.size(); ++r) {
        stage_facets[static_cast<std::size_t>(stages[r])].Add(
            ledger.records[r]);
      }
      for (std::size_t s = 0; s < obs::kLineageStageCount; ++s) {
        const auto slice =
            reader.Terminal(i, static_cast<obs::LineageStage>(s));
        ASSERT_TRUE(slice.ok());
        EXPECT_EQ(slice.value().count, histogram[s]) << "stage " << s;
        EXPECT_EQ(run.waterfall.terminal[s], want.terminal[s])
            << "stage " << s;
        const auto ids =
            obs::IdRunSet::FromEncoded(slice.value().id_runs).Expand();
        ASSERT_EQ(ids.size(), histogram[s]);
        for (std::uint64_t id : ids) {
          EXPECT_EQ(columns.value().stage[id - 1], s);
        }
        ExpectFacets(slice.value().facets, stage_facets[s],
                     ledger.label + " stage " + std::to_string(s));
      }

      // Every panel unit answers identically to the ledger.
      EXPECT_FALSE(ledger.units.empty());
      for (const auto& [name, want] : ledger.units) {
        const auto unit = reader.FindUnit(i, name);
        ASSERT_TRUE(unit.ok());
        ASSERT_TRUE(unit.value().found) << name;
        EXPECT_EQ(unit.value().dropped, want.dropped);
        EXPECT_DOUBLE_EQ(unit.value().missing_fraction, want.missing_fraction);
        EXPECT_EQ(unit.value().observed_cells, want.observed_cells);
        EXPECT_EQ(unit.value().masked_cells, want.masked_cells);
        EXPECT_EQ(unit.value().used_treated, want.used_treated);
        EXPECT_EQ(unit.value().used_donor, want.used_donor);
        ASSERT_EQ(unit.value().cells.size(), want.cells.size());
        for (std::size_t c = 0; c < want.cells.size(); ++c) {
          EXPECT_EQ(unit.value().cells[c].period, want.cells[c].period);
          EXPECT_EQ(unit.value().cells[c].count, want.cells[c].ids.size());
          EXPECT_EQ(unit.value().cells[c].digest, want.cells[c].ids.digest());
          EXPECT_EQ(unit.value().cells[c].runs, want.cells[c].ids.encoded());
        }
      }
      const auto missing = reader.FindUnit(i, "no such unit");
      ASSERT_TRUE(missing.ok());
      EXPECT_FALSE(missing.value().found);

      // Estimates: both composition pools match the oracle over the
      // ledger's cells, facets included. A lookup answers the first
      // estimate registered under a label.
      EXPECT_EQ(run.estimate_count, ledger.estimates.size());
      EXPECT_GT(run.estimate_count, 0u);
      std::set<std::string> labels;
      for (const Lineage::EstimateEntry& want : ledger.estimates) {
        if (!labels.insert(want.label).second) continue;
        const auto estimate = reader.FindEstimate(i, want.label);
        ASSERT_TRUE(estimate.ok());
        ASSERT_TRUE(estimate.value().found) << want.label;
        EXPECT_EQ(estimate.value().treated, want.treated);
        EXPECT_EQ(estimate.value().donors, want.donors);
        EXPECT_DOUBLE_EQ(estimate.value().effect, want.effect);
        ExpectComposition(estimate.value().treated_comp,
                          Compose(ledger, {want.treated}),
                          want.label + " treated");
        ExpectComposition(estimate.value().donor_comp,
                          Compose(ledger, want.donors),
                          want.label + " donors");
      }
      const auto absent = reader.FindEstimate(i, "no such estimate");
      ASSERT_TRUE(absent.ok());
      EXPECT_FALSE(absent.value().found);
    }
  });
}

TEST(AuditStoreTest, RoundTripMatchesLedger) {
  ScopedLineage scoped;
  RunTwoCampaigns();
  ExpectArtifactMatchesLedger("audit-roundtrip.bin", /*all_tracked=*/true);
  EXPECT_EQ(Lineage::Global().run_count(), 2u);
}

// ---------------------------------------------------------------------------
// Hostile counts in the schema: each file below carries one oversized count
// with every checksum recomputed, so the count reaches the decoder instead
// of tripping a checksum. Each must come back as a Status naming the check
// that caught it — never a crash, a wrapped size, an allocation the file
// cannot back, or a checksum failure (which would mean a stale seal kept
// the count from the decoder). The container's own hostile cases are in
// section_file_test.

/// Writes `bytes` to a temp file and opens it.
core::Status OpenCrafted(audit::AuditReader& reader, const std::string& bytes,
                         const std::string& name) {
  const std::string path = TempPath(name);
  WriteFile(path, bytes);
  return reader.Open(path);
}

TEST(AuditHostileCountTest, RunCountBeyondTheSectionTable) {
  std::string bad = SmallAuditArtifact();
  // Meta = string schema (u64 length + bytes), then u64 run count.
  const std::uint64_t meta = SectionOf(bad, audit::SectionKind::kMeta);
  PutU64At(bad, meta + 8 + GetU64At(bad, meta), std::uint64_t{1} << 62);
  Reseal(bad);
  audit::AuditReader reader;
  ExpectParseError(OpenCrafted(reader, bad, "audit-runs.bin"),
                   "run count exceeds the section table");
}

TEST(AuditHostileCountTest, DirectoryCountsAndSpansThatWrap) {
  const std::string good = SmallAuditArtifact();
  const std::uint64_t dir = SectionOf(good, audit::SectionKind::kUnitIndex);
  const std::uint64_t slots = GetU64At(good, dir);
  ASSERT_EQ(slots, 2u);
  // Slot fields are {name_off, name_len, payload_off, payload_len}; each
  // variant makes 8 + count * 32, or an offset + length, wrap to 8.
  const auto slot_field = [&](std::uint64_t slot, std::uint64_t field) {
    return dir + 8 + slot * 32 + field * 8;
  };
  std::vector<std::string> variants;
  variants.push_back(good);
  PutU64At(variants.back(), dir, std::uint64_t{1} << 59);
  for (const std::uint64_t field : {std::uint64_t{1}, std::uint64_t{3}}) {
    variants.push_back(good);
    for (std::uint64_t slot = 0; slot < slots; ++slot) {
      const std::uint64_t off = GetU64At(good, slot_field(slot, field - 1));
      PutU64At(variants.back(), slot_field(slot, field), 8 - off);
    }
  }
  for (std::size_t v = 0; v < variants.size(); ++v) {
    Reseal(variants[v]);
    audit::AuditReader reader;
    ASSERT_TRUE(OpenCrafted(reader, variants[v], "audit-dir.bin").ok());
    const auto unit = reader.FindUnit(0, "unit-b");
    ExpectParseError(unit, v == 0 ? "directory slot table out of bounds"
                                  : "directory entry out of bounds");
  }
}

TEST(AuditHostileCountTest, RecordCountThatWrapsTheColumnSizes) {
  std::string bad = SmallAuditArtifact();
  // 2^63 rows: 4n wraps to 0 and 6 * pad8(n) to 0, so the columns would
  // seem to need 8 bytes.
  PutU64At(bad, SectionOf(bad, audit::SectionKind::kRecords),
           std::uint64_t{1} << 63);
  Reseal(bad);
  audit::AuditReader reader;
  ASSERT_TRUE(OpenCrafted(reader, bad, "audit-records.bin").ok());
  const auto columns = reader.Records(0);
  ExpectParseError(columns, "records section truncated");
}

// ---------------------------------------------------------------------------
// Cross-commit byte pin. The other identity fixtures compare two paths of
// one build, and Table 1's vantages are all two-digit PoPs with no faults,
// so a writer that rendered or ordered facet keys differently would pass
// them all. This two-run ledger hits the cases they miss: vantage ids 2, 3
// and 10 ("10" sorts before "2" as a string), an intent code without a
// canonical name, every fault bit, duplicated, shed, out-of-panel and
// untracked records, a dropped unit, and donor lists that repeat a unit and
// name unknown and dropped ones. The masked constant is the FNV-1a of the
// artifact with its version word and every checksum zeroed; it was first
// taken from the string-keyed facet writer this format shipped with, and
// it held when version 2 replaced FNV-1a checksums with Checksum64. The
// full-file constant pins those words too.

obs::LineageRecordInfo EdgeRecord(std::uint64_t id, std::uint32_t vantage,
                                  std::uint8_t intent,
                                  std::uint8_t fault_mask) {
  obs::LineageRecordInfo info;
  info.id = id;
  info.vantage = vantage;
  info.intent = intent;
  info.attempts = static_cast<std::uint8_t>(1 + id % 3);
  info.fault_mask = fault_mask;
  info.copies = (fault_mask & obs::kLineageFaultDuplicated) != 0 ? 2 : 1;
  info.archived = (fault_mask & obs::kLineageFaultCorrupted) == 0;
  return info;
}

/// Fills the (reset, enabled) global ledger with the edge-case runs.
void BuildEdgeCaseLedger() {
  Lineage& lineage = Lineage::Global();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto ids = [](std::vector<std::uint64_t> sorted) {
    return obs::IdRunSet::FromSorted(sorted);
  };

  lineage.BeginRun("edge-a");
  const std::uint32_t vantages[] = {10, 2, 3};
  const std::uint8_t intents[] = {0, 1, 2, 5};
  for (std::uint64_t id = 1; id <= 16; ++id) {
    lineage.RecordEmitted(EdgeRecord(id, vantages[id % 3], intents[id % 4],
                                     static_cast<std::uint8_t>(id % 16)));
  }
  lineage.RecordShed(EdgeRecord(17, 3, 5, obs::kLineageFaultDuplicated));
  lineage.RecordOutOfPanel(2);
  lineage.RecordProbeFailure("probe_loss", 3);
  lineage.RecordProbeFailure("unreachable");
  lineage.PanelUnitKept("unit-a", 0.25, 3, 1);
  lineage.PanelCell("unit-a", 0, ids({1, 3}));
  lineage.PanelCell("unit-a", 2, ids({5, 6, 7}));
  lineage.PanelUnitKept("unit-b", 0.0, 2, 0);
  lineage.PanelCell("unit-b", 0, ids({8, 9}));
  lineage.PanelCell("unit-b", 1, ids({10, 11, 24}));  // 24 is untracked
  lineage.PanelUnitKept("unit-c", 0.5, 1, 1);
  lineage.PanelCell("unit-c", 1, ids({13, 15, 16}));
  lineage.PanelUnitDropped("unit-d", 0.9, 1, 9, ids({12, 14}));
  lineage.PanelUnitEmpty("unit-e");
  lineage.MarkTreated("unit-a");
  lineage.MarkDonor("unit-b");
  lineage.MarkDonor("unit-c");
  lineage.MarkTreated("unit-d");  // dropped: no effect
  lineage.MarkDonor("ghost");     // unknown: no effect
  lineage.AddEstimate("est.b", "unit-a",
                      {"unit-b", "ghost", "unit-c", "unit-b", "unit-d"}, -1.5,
                      0.25);
  lineage.AddEstimate("est.a", "unit-c", {"unit-a"}, 2.0, nan);
  lineage.AddEstimate("est.b", "unit-b", {}, 0.5, 1.0);  // duplicate label

  lineage.BeginRun("edge-b");
  lineage.RecordEmitted(EdgeRecord(1, 10, 5, obs::kLineageFaultSkewed));
  lineage.RecordEmitted(EdgeRecord(2, 10, 0, 0));
  lineage.RecordEmitted(EdgeRecord(3, 2, 2, obs::kLineageFaultTruncated));
  lineage.RecordEmitted(EdgeRecord(4, 3, 1, obs::kLineageFaultCorrupted));
  lineage.PanelUnitKept("unit-z", 0.0, 1, 0);
  lineage.PanelCell("unit-z", 0, ids({1, 2, 3}));
  lineage.MarkDonor("unit-z");
  lineage.AddEstimate("est.z", "ghost", {"unit-z", "unit-z"}, 0.0, 0.0);
}

TEST(AuditStoreTest, EdgeCaseLedgerBytesArePinned) {
  ScopedLineage scoped;
  BuildEdgeCaseLedger();
  const std::string artifact = audit::BuildAuditArtifact(Lineage::Global());
  EXPECT_EQ(artifact.size(), 6952u);
  EXPECT_EQ(core::Fnv1a64(artifact), 0xa0e90671fd32197aull);

  std::string masked = artifact;
  const std::uint64_t count = GetU64At(masked, 16);
  const std::uint64_t table = GetU64At(masked, 24);
  masked.replace(8, 4, 4, '\0');    // version word
  masked.replace(40, 8, 8, '\0');   // header checksum
  for (std::uint64_t i = 0; i < count; ++i) {
    masked.replace(table + i * kEntrySize + 32, 8, 8, '\0');
  }
  masked.replace(table + count * kEntrySize, 8, 8, '\0');
  EXPECT_EQ(core::Fnv1a64(masked), 0x35ae449cd688017aull);
}

TEST(AuditStoreTest, EdgeCaseLedgerMatchesOracle) {
  ScopedLineage scoped;
  BuildEdgeCaseLedger();
  ExpectArtifactMatchesLedger("audit-edge.bin", /*all_tracked=*/false);
}

TEST(AuditStoreTest, ByteIdenticalAt1And8Lanes) {
  // Skew of up to two hours pushes early and late records outside the
  // panel's range, so the shard tasks write out_of_panel
  // verdicts as well as emitted ones.
  measure::FaultPlan plan;
  plan.seed = 31;
  plan.probe_loss_probability = 0.1;
  plan.duplicate_probability = 0.1;
  plan.corruption_probability = 0.02;
  plan.max_clock_skew = core::SimTime::FromHours(2);
  std::uint64_t out_of_panel = 0;
  const auto run = [&](std::size_t lanes) {
    core::ThreadPool::SetGlobalThreadCount(lanes);
    ScopedLineage scoped;
    Lineage::Global().BeginRun("identity");
    RunCampaign(plan);
    std::string artifact = audit::BuildAuditArtifact(Lineage::Global());
    out_of_panel = Lineage::Global().Totals().terminal[static_cast<std::size_t>(
        obs::LineageStage::kOutOfPanel)];
    core::ThreadPool::SetGlobalThreadCount(0);
    return artifact;
  };
  const std::string serial = run(1);
  EXPECT_GT(out_of_panel, 0u);
  // The audit artifact is a pure function of the final ledger. The ledger
  // is lane-count invariant: the shard tasks write each record's verdict in
  // place at its own id, and every other write is serial. So the whole
  // indexed file, checksums and all, is byte-identical at any lane count.
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
  EXPECT_GT(out_of_panel, 0u);
  EXPECT_GT(serial.size(), core::section_file::kHeaderSize);
}

TEST(AuditStoreTest, PlaceboFitMarksFromTasksAreLaneCountInvariant) {
  // At 4 and 8 lanes the placebo rotations (one pool task per group of four
  // donors) write their fit marks from the tasks of a multi-lane region, in
  // whatever order the lanes reach them. A mark sets a unit's flag once, so
  // the ledger and its artifact must equal the serial run's bytes.
  measure::FaultPlan plan;
  plan.seed = 37;
  plan.probe_loss_probability = 0.1;
  plan.duplicate_probability = 0.1;
  std::uint64_t donor_records = 0;
  const auto run = [&](std::size_t lanes) {
    core::ThreadPool::SetGlobalThreadCount(lanes);
    ScopedLineage scoped;
    Lineage::Global().BeginRun("placebo");
    RunCampaign(plan, Fit::kPlacebo);
    std::string artifact = audit::BuildAuditArtifact(Lineage::Global());
    donor_records = Lineage::Global().Totals().terminal[static_cast<
        std::size_t>(obs::LineageStage::kDonor)];
    core::ThreadPool::SetGlobalThreadCount(0);
    return artifact;
  };
  const std::string serial = run(1);
  EXPECT_GT(donor_records, 0u);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
  EXPECT_GT(donor_records, 0u);
}

// ---------------------------------------------------------------------------
// Durable stop/resume identity (compact copy of the durable_stream_test
// harness): a run stopped mid-campaign and resumed at a different lane
// count must emit the exact bytes of the uninterrupted run's audit.bin.

struct DurableSpec {
  std::string dir;
  bool resume = false;
  std::size_t threads = 1;
  std::uint64_t stop_after = 0;
};

/// Runs the small durable campaign; returns the audit artifact bytes for
/// completed runs, empty for stopped ones.
std::string RunDurableAudit(const DurableSpec& spec) {
  core::ThreadPool::SetGlobalThreadCount(spec.threads);
  obs::Registry::Global().ResetAll();
  Lineage::Global().Reset();
  Lineage::Global().BeginRun("durable");

  netsim::ScenarioZaOptions scenario_options;
  scenario_options.donor_units = 6;
  scenario_options.treatment_time = core::SimTime::FromDays(1);
  scenario_options.horizon = core::SimTime::FromDays(2);
  netsim::ScenarioZa scenario = netsim::BuildScenarioZa(scenario_options);

  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  measure::Platform platform(*scenario.simulator, platform_options);
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0;
  vantage.user_tests_per_day = 4.0;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (netsim::PopIndex donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }
  measure::FaultPlan plan;
  plan.seed = 42;
  plan.probe_loss_probability = 0.15;
  plan.duplicate_probability = 0.02;
  plan.corruption_probability = 0.01;
  plan.max_clock_skew = core::SimTime(3);
  measure::FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  measure::PanelOptions panel_options;
  panel_options.bucket = core::SimTime::FromHours(6);
  panel_options.periods = static_cast<std::size_t>(
      scenario_options.horizon.minutes() / panel_options.bucket.minutes());
  measure::StreamingOptions streaming_options;
  streaming_options.panel = panel_options;
  measure::StreamingCampaign stream(platform_options.validation,
                                    streaming_options);

  durable::DurableOptions durable_options;
  durable_options.dir = spec.dir;
  durable_options.snapshot_every = 5;
  durable_options.fsync_every = 3;
  durable_options.stop_after_steps = spec.stop_after;
  durable::DurableStreamingService service(platform, stream, durable_options);
  core::Rng rng(scenario_options.seed);
  const auto run = spec.resume
                       ? service.Resume(scenario_options.horizon, rng)
                       : service.Run(scenario_options.horizon, rng);
  EXPECT_TRUE(run.ok()) << (run.ok() ? "" : run.error().message());
  std::string artifact;
  if (run.ok() &&
      run.value().outcome == durable::RunOutcome::kCompleted) {
    artifact = audit::BuildAuditArtifact(Lineage::Global());
  }
  core::ThreadPool::SetGlobalThreadCount(0);
  return artifact;
}

TEST(AuditStoreTest, StopResumeEmitsIdenticalArtifact) {
  const bool metrics_were_enabled = obs::Registry::enabled();
  obs::Registry::Enable(true);
  Lineage::Enable(true);

  const auto make_dir = [](const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  };

  DurableSpec reference;
  reference.dir = make_dir("audit-durable-reference");
  const std::string clean = RunDurableAudit(reference);
  ASSERT_FALSE(clean.empty());

  DurableSpec crash;
  crash.dir = make_dir("audit-durable-crash");
  crash.stop_after = 20;
  ASSERT_TRUE(RunDurableAudit(crash).empty());  // stopped mid-campaign
  DurableSpec resume;
  resume.dir = crash.dir;
  resume.resume = true;
  resume.threads = 8;
  const std::string resumed = RunDurableAudit(resume);

  // The resumed ledger is restored from snapshot + verified journal
  // replay, so the audit index built from it matches the clean run's
  // bytes exactly — same sections, same checksums.
  EXPECT_EQ(clean, resumed);

  obs::Registry::Global().ResetAll();
  Lineage::Global().Reset();
  obs::Registry::Enable(metrics_were_enabled);
  Lineage::Enable(false);
}

}  // namespace
}  // namespace sisyphus
