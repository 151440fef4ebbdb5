// P3 — network-simulator microbenchmarks: BGP convergence scaling, route
// cache behaviour, latency evaluation, and end-to-end measurement
// campaign throughput on the Table 1 scenario.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "audit/reader.h"
#include "audit/writer.h"
#include "bench_util.h"
#include "causal/robust_synthetic_control.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "measure/faults.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"

namespace {

using namespace sisyphus;
using core::Asn;

/// Random 3-tier topology with ~n PoPs.
netsim::Topology RandomTopology(std::size_t access_count,
                                std::uint64_t seed) {
  core::Rng rng(seed);
  netsim::Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 0});
  std::uint32_t asn = 1;
  std::vector<netsim::PopIndex> tier1, tier2;
  for (int i = 0; i < 4; ++i) {
    tier1.push_back(
        topo.AddPop(Asn{asn++}, city, netsim::AsRole::kTransit).value());
  }
  for (std::size_t i = 0; i < tier1.size(); ++i)
    for (std::size_t j = i + 1; j < tier1.size(); ++j)
      (void)topo.AddLink(tier1[i], tier1[j],
                         netsim::Relationship::kPeerToPeer);
  const std::size_t tier2_count = std::max<std::size_t>(4, access_count / 8);
  for (std::size_t i = 0; i < tier2_count; ++i) {
    const auto node =
        topo.AddPop(Asn{asn++}, city, netsim::AsRole::kTransit).value();
    tier2.push_back(node);
    (void)topo.AddLink(
        node, tier1[static_cast<std::size_t>(rng.UniformInt(0, 3))],
        netsim::Relationship::kCustomerToProvider);
  }
  for (std::size_t i = 0; i < access_count; ++i) {
    const auto node =
        topo.AddPop(Asn{asn++}, city, netsim::AsRole::kAccess).value();
    (void)topo.AddLink(
        node,
        tier2[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(tier2.size()) - 1))],
        netsim::Relationship::kCustomerToProvider);
  }
  return topo;
}

void BM_BgpConvergence(benchmark::State& state) {
  const auto topo =
      RandomTopology(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    netsim::BgpSimulator bgp(topo);
    benchmark::DoNotOptimize(bgp.RoutesTo(0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BgpConvergence)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

void BM_CachedRouteLookup(benchmark::State& state) {
  const auto topo = RandomTopology(128, 8);
  netsim::BgpSimulator bgp(topo);
  (void)bgp.RoutesTo(0);  // warm the cache
  netsim::PopIndex src = static_cast<netsim::PopIndex>(topo.PopCount() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp.Route(src, 0));
  }
}
BENCHMARK(BM_CachedRouteLookup);

void BM_PathRttEvaluation(benchmark::State& state) {
  const auto topo = RandomTopology(128, 9);
  netsim::BgpSimulator bgp(topo);
  netsim::LatencyModel latency(topo);
  auto route = bgp.Route(static_cast<netsim::PopIndex>(topo.PopCount() - 1),
                         0);
  const core::SimTime t = core::SimTime::FromHours(20.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(latency.PathRttMs(route.value(), t));
  }
}
BENCHMARK(BM_PathRttEvaluation);

// Parallel per-destination convergence (BgpSimulator::WarmRoutes) swept
// over thread counts: every access PoP as a destination on a 128-access
// topology. Cache contents are thread-count-independent (DESIGN.md §7).
void BM_WarmRoutesThreads(benchmark::State& state) {
  core::ThreadPool::SetGlobalThreadCount(
      static_cast<std::size_t>(state.range(0)));
  const auto topo = RandomTopology(128, 10);
  std::vector<netsim::PopIndex> destinations;
  for (netsim::PopIndex p = 0; p < topo.PopCount(); ++p) {
    destinations.push_back(p);
  }
  for (auto _ : state) {
    netsim::BgpSimulator bgp(topo);
    bgp.WarmRoutes(destinations);
    benchmark::DoNotOptimize(bgp.Route(destinations.back(), 0));
  }
  core::ThreadPool::SetGlobalThreadCount(0);  // back to the default
}
BENCHMARK(BM_WarmRoutesThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Event reconvergence at ZA scenario scale: one link flap (down + up)
// absorbed either incrementally (ApplyLinkEvent frontier repair, arg 1)
// or by the pre-§14 baseline (InvalidateCache + full rewarm, arg 0),
// with every PoP's table warm — the state an event-dense campaign is in
// when the event lands. The ratio of the two rows is the tentpole
// speedup figure (EXPERIMENTS.md "Event-dense reconvergence").
void BM_EventReconvergence(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  auto scenario = netsim::BuildScenarioZa();
  auto& sim = *scenario.simulator;
  auto& topo = sim.topology();
  std::vector<netsim::PopIndex> destinations;
  for (netsim::PopIndex p = 0; p < topo.PopCount(); ++p) {
    destinations.push_back(p);
  }
  sim.WarmRoutes(destinations);
  const core::LinkId link{0};
  for (auto _ : state) {
    for (const bool up : {false, true}) {
      topo.MutableLink(link).up = up;
      if (incremental) {
        sim.bgp().ApplyLinkEvent(link);
      } else {
        sim.bgp().InvalidateCache();
        sim.bgp().WarmRoutes(destinations);
      }
    }
    benchmark::DoNotOptimize(sim.bgp().CachedTableCount());
  }
  state.SetLabel(incremental ? "incremental" : "full");
}
BENCHMARK(BM_EventReconvergence)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The same flap-absorption comparison swept over random-topology size:
// full rewarm pays O(n) tables × O(n·links) convergence per event while
// the frontier repair touches only the changed cone, so the gap widens
// with n. Flaps the last access uplink (a leaf: small down-cone, making
// link-up's confirm-converged scan the dominant incremental cost — the
// conservative end of the speedup range).
void BM_IncrementalVsFullWarm(benchmark::State& state) {
  const bool incremental = state.range(1) != 0;
  auto topo = RandomTopology(static_cast<std::size_t>(state.range(0)), 11);
  netsim::BgpSimulator bgp(topo);
  std::vector<netsim::PopIndex> destinations;
  for (netsim::PopIndex p = 0; p < topo.PopCount(); ++p) {
    destinations.push_back(p);
  }
  bgp.WarmRoutes(destinations);
  const core::LinkId link{static_cast<std::uint32_t>(topo.LinkCount() - 1)};
  for (auto _ : state) {
    for (const bool up : {false, true}) {
      topo.MutableLink(link).up = up;
      if (incremental) {
        bgp.ApplyLinkEvent(link);
      } else {
        bgp.InvalidateCache();
        bgp.WarmRoutes(destinations);
      }
    }
    benchmark::DoNotOptimize(bgp.CachedTableCount());
  }
  state.SetLabel(incremental ? "incremental" : "full");
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IncrementalVsFullWarm)
    ->ArgsProduct({{64, 128, 256}, {0, 1}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_ScenarioZaBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(netsim::BuildScenarioZa());
  }
}
BENCHMARK(BM_ScenarioZaBuild);

void BM_CampaignDayThroughput(benchmark::State& state) {
  // One simulated day of the Table 1 measurement campaign through
  // Platform::Run (generation plus the campaign's sharded ingest).
  for (auto _ : state) {
    state.PauseTiming();
    netsim::ScenarioZaOptions options;
    options.donor_units = 30;
    auto scenario = netsim::BuildScenarioZa(options);
    measure::PlatformOptions platform_options;
    platform_options.server = scenario.content_jnb;
    measure::Platform platform(*scenario.simulator, platform_options);
    measure::VantageConfig vantage;
    vantage.baseline_tests_per_day = 10.0;
    for (const auto& unit : scenario.treated) {
      vantage.pop = unit.access_pop;
      platform.AddVantage(vantage);
    }
    for (auto donor : scenario.donors) {
      vantage.pop = donor;
      platform.AddVantage(vantage);
    }
    measure::StreamingCampaign campaign(platform_options.validation, {});
    core::Rng rng(1);
    state.ResumeTiming();
    platform.Run(core::SimTime::FromDays(1), rng, campaign);
    benchmark::DoNotOptimize(campaign.store().size());
  }
}
BENCHMARK(BM_CampaignDayThroughput)->Unit(benchmark::kMillisecond);

/// Registers table1's vantages (treated units, then donors) at `scale`
/// times its default test rates.
void AddTable1Vantages(measure::Platform& platform,
                       const netsim::ScenarioZa& scenario, double scale) {
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0 * scale;
  vantage.user_tests_per_day = 4.0 * scale;
  for (const auto& unit : scenario.treated) {
    vantage.pop = unit.access_pop;
    platform.AddVantage(vantage);
  }
  for (auto donor : scenario.donors) {
    vantage.pop = donor;
    platform.AddVantage(vantage);
  }
}

/// table1's panel geometry: 6-hour buckets over the scenario's horizon.
measure::StreamingOptions Table1Streaming(
    const netsim::ScenarioZaOptions& options) {
  measure::StreamingOptions streaming;
  streaming.panel.bucket = core::SimTime::FromHours(6);
  streaming.panel.periods = static_cast<std::size_t>(
      options.horizon.minutes() / streaming.panel.bucket.minutes());
  return streaming;
}

// The streaming counterpart of BM_CampaignDayThroughput: one simulated day
// of the Table 1 campaign at 40x the default test rates (table1's --scale
// 40), each step through GenerateStep and StreamingCampaign::IngestBatch —
// the loop perfbench's stream, audited and durable workloads run. items/s
// is records generated and ingested.
void BM_StreamingDayThroughput(benchmark::State& state) {
  const core::SimTime until = core::SimTime::FromDays(1);
  std::int64_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const netsim::ScenarioZaOptions options;
    auto scenario = netsim::BuildScenarioZa(options);
    measure::PlatformOptions platform_options;
    platform_options.server = scenario.content_jnb;
    platform_options.step = core::SimTime::FromHours(1);
    measure::Platform platform(*scenario.simulator, platform_options);
    AddTable1Vantages(platform, scenario, 40.0);
    measure::StreamingCampaign campaign(platform_options.validation,
                                        Table1Streaming(options));
    core::Rng rng(options.seed);
    state.ResumeTiming();
    while (platform.Now() < until) {
      const measure::StepOutput step = platform.GenerateStep(until, rng);
      campaign.IngestBatch(step.records);
    }
    records += static_cast<std::int64_t>(campaign.ingested());
    benchmark::DoNotOptimize(campaign.store().size());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_StreamingDayThroughput)->Unit(benchmark::kMillisecond);

// Shard ingest alone: range(0) days of the Table 1 campaign at table1's
// --scale 40 rates (24 hourly steps a day, about 22.8K records) are
// generated once, outside the timed loop, and each iteration ingests all
// of those steps through StreamingCampaign::IngestBatch into a fresh
// campaign, built and torn down with the timer paused. A longer campaign
// grows the arenas further, which is where column growth costs show.
// items/s is records ingested.
void BM_IngestBatch(benchmark::State& state) {
  const core::SimTime until = core::SimTime::FromDays(state.range(0));
  const netsim::ScenarioZaOptions options;
  auto scenario = netsim::BuildScenarioZa(options);
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  measure::Platform platform(*scenario.simulator, platform_options);
  AddTable1Vantages(platform, scenario, 40.0);
  core::Rng rng(options.seed);
  std::vector<std::vector<measure::PendingRecord>> steps;
  std::int64_t campaign_records = 0;
  while (platform.Now() < until) {
    steps.push_back(platform.GenerateStep(until, rng).records);
    campaign_records += static_cast<std::int64_t>(steps.back().size());
  }
  std::optional<measure::StreamingCampaign> campaign;
  for (auto _ : state) {
    state.PauseTiming();
    campaign.emplace(platform_options.validation, Table1Streaming(options));
    state.ResumeTiming();
    for (const auto& step : steps) campaign->IngestBatch(step);
    benchmark::DoNotOptimize(campaign->store().size());
  }
  state.SetItemsProcessed(campaign_records *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IngestBatch)->Arg(1)->Arg(14)->Unit(benchmark::kMillisecond);

// Panel finalize alone: range(0) days of the Table 1 campaign at table1's
// --scale 40 rates are generated and ingested once, outside the timed
// loop, and each iteration builds the panel from that campaign's store
// through StreamingCampaign::FinalizePanel (lineage off): a counting sort
// of each shard's in-horizon copies by unit and cell, then a median per
// observed cell. items/s is archived record copies.
void BM_FinalizePanel(benchmark::State& state) {
  const core::SimTime until = core::SimTime::FromDays(state.range(0));
  const netsim::ScenarioZaOptions options;
  auto scenario = netsim::BuildScenarioZa(options);
  measure::PlatformOptions platform_options;
  platform_options.server = scenario.content_jnb;
  platform_options.step = core::SimTime::FromHours(1);
  measure::Platform platform(*scenario.simulator, platform_options);
  AddTable1Vantages(platform, scenario, 40.0);
  measure::StreamingCampaign campaign(platform_options.validation,
                                      Table1Streaming(options));
  core::Rng rng(options.seed);
  while (platform.Now() < until) {
    campaign.IngestBatch(platform.GenerateStep(until, rng).records);
  }
  for (auto _ : state) {
    const measure::Panel panel = campaign.FinalizePanel();
    benchmark::DoNotOptimize(panel.units.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(campaign.store().size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FinalizePanel)->Arg(14)->Arg(56)->Unit(benchmark::kMillisecond);

// One step's path resolution: ResolveProbePath for each of the Table 1
// campaign's 38 vantages towards the measurement server, on a warm route
// cache, as GenerateStep's serial prewarm does. items/s is paths resolved.
void BM_ResolveProbePath(benchmark::State& state) {
  const netsim::ScenarioZaOptions options;
  auto scenario = netsim::BuildScenarioZa(options);
  std::vector<netsim::PopIndex> vantages;
  for (const auto& unit : scenario.treated) vantages.push_back(unit.access_pop);
  vantages.insert(vantages.end(), scenario.donors.begin(),
                  scenario.donors.end());
  netsim::NetworkSimulator& simulator = *scenario.simulator;
  simulator.AdvanceTo(core::SimTime::FromHours(20));
  simulator.WarmRoutes({scenario.content_jnb});
  for (auto _ : state) {
    for (const netsim::PopIndex vantage : vantages) {
      benchmark::DoNotOptimize(
          measure::ResolveProbePath(simulator, vantage, scenario.content_jnb));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(vantages.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ResolveProbePath);

// Write-ahead journal append throughput at representative step-batch
// payload sizes (a scale-1 table1 step serializes to a few KiB). The cost
// is dominated by the fsync every 8 frames — the durability tax the
// streaming service pays per step (DESIGN.md §11).
void BM_JournalAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "sisyphus-bench-journal";
  fs::create_directories(dir);
  const std::string path = (dir / "journal.bin").string();
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  durable::Journal journal;
  journal.Open(path, 0, /*fsync_every=*/8);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(journal.Append(++seq, payload));
  }
  journal.Close();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  fs::remove_all(dir);
}
BENCHMARK(BM_JournalAppend)->Arg(512)->Arg(4096);

// Atomic snapshot write (frame + tmp + fsync + rename) at payload sizes
// bracketing the scale-1 table1 snapshot (~1 MiB of arenas + aggregates).
void BM_SnapshotWrite(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "sisyphus-bench-snap";
  fs::create_directories(dir);
  const std::string path = durable::SnapshotPath(dir.string(), 1);
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(durable::WriteSnapshotFile(path, payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  fs::remove_all(dir);
}
BENCHMARK(BM_SnapshotWrite)->Arg(1 << 16)->Arg(1 << 20);

// Shared fixture for the audit-store benches: populates the global
// lineage ledger ONCE with a faulted two-week ZA campaign (panel + robust
// fit + registered estimate — the full record→estimate waterfall), then
// turns recording back off so the later campaign benches are unaffected.
// The treated unit name is kept for the query bench.
struct AuditLedgerFixture {
  std::string treated_unit;
  AuditLedgerFixture() {
    obs::Lineage::Enable(true);
    obs::Lineage::Global().Reset();
    obs::Lineage::Global().BeginRun("bench");
    netsim::ScenarioZaOptions options;
    options.donor_units = 20;
    options.treatment_time = core::SimTime::FromDays(7);
    options.horizon = core::SimTime::FromDays(14);
    auto scenario = netsim::BuildScenarioZa(options);
    treated_unit = scenario.treated[0].name;
    measure::PlatformOptions platform_options;
    platform_options.server = scenario.content_jnb;
    measure::Platform platform(*scenario.simulator, platform_options);
    measure::FaultPlan plan;
    plan.seed = 11;
    plan.probe_loss_probability = 0.1;
    plan.duplicate_probability = 0.05;
    plan.corruption_probability = 0.02;
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
    measure::StreamingOptions campaign_options;
    campaign_options.panel.bucket = core::SimTime::FromHours(6);
    campaign_options.panel.periods = 14 * 4;
    measure::StreamingCampaign campaign(platform_options.validation,
                                        campaign_options);
    core::Rng rng(17);
    platform.Run(options.horizon, rng, campaign);
    const auto panel = campaign.FinalizePanel();
    auto input = measure::MakeSyntheticControlInput(
        panel, treated_unit, scenario.donor_names, options.treatment_time);
    if (input.ok()) {
      auto fit = causal::FitRobustSyntheticControl(input.value());
      if (fit.ok()) {
        obs::Lineage::Global().AddEstimate(
            "bench.robust.unit0", treated_unit, scenario.donor_names,
            fit.value().base.average_effect,
            std::numeric_limits<double>::quiet_NaN());
      }
    }
    obs::Lineage::Enable(false);
  }
};

const AuditLedgerFixture& AuditLedger() {
  static const AuditLedgerFixture fixture;
  return fixture;
}

// Serializing the indexed audit artifact from a populated ledger: the
// per-run cost ObsRun::Finish adds on top of the JSON artifacts.
void BM_AuditWrite(benchmark::State& state) {
  const auto& fixture = AuditLedger();
  (void)fixture;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string artifact =
        audit::BuildAuditArtifact(obs::Lineage::Global());
    bytes = artifact.size();
    benchmark::DoNotOptimize(artifact.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_AuditWrite)->Unit(benchmark::kMillisecond);

/// Writes the fixture ledger's audit.bin into `dir`; returns its path, or
/// an empty string when the write fails.
std::string WriteAuditFixture(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  if (!audit::WriteAuditArtifact(dir.string(), obs::Lineage::Global()).ok()) {
    return std::string();
  }
  return (dir / audit::kAuditFileName).string();
}

// One interactive lineageq round against a reader kept open, as in
// `--serve`: waterfall + unit lookup + estimate lookup + terminal slice +
// rankings, amortized per query. This is the latency budget behind the
// <100ms acceptance bar. Open is excluded, and a reader verifies each
// section's checksum once, on first access, so only the first iteration
// pays for checksums; BM_AuditOpenFindUnit measures that cold path.
void BM_AuditQuery(benchmark::State& state) {
  namespace fs = std::filesystem;
  const auto& fixture = AuditLedger();
  const fs::path dir = fs::temp_directory_path() / "sisyphus-bench-audit";
  const std::string path = WriteAuditFixture(dir);
  if (path.empty()) {
    state.SkipWithError("audit artifact write failed");
    return;
  }
  audit::AuditReader reader;
  if (!reader.Open(path).ok()) {
    state.SkipWithError("audit artifact open failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reader.run(0).waterfall.emitted);
    auto unit = reader.FindUnit(0, fixture.treated_unit);
    benchmark::DoNotOptimize(unit.ok() && unit.value().found);
    auto estimate = reader.FindEstimate(0, "bench.robust.unit0");
    benchmark::DoNotOptimize(estimate.ok() && estimate.value().found);
    auto slice = reader.Terminal(0, obs::LineageStage::kAggregated);
    benchmark::DoNotOptimize(slice.ok() ? slice.value().count : 0);
    auto ranked = reader.Ranked(0);
    benchmark::DoNotOptimize(ranked.ok() ? ranked.value().units.size() : 0);
  }
  fs::remove_all(dir);  // safe while mapped; the mapping outlives the name
}
BENCHMARK(BM_AuditQuery);

// The query a one-shot `lineageq --unit` pays: Open (header and table
// checksums, meta and run headers) plus one FindUnit, which verifies the
// run's whole unit-index section before it binary-searches it.
void BM_AuditOpenFindUnit(benchmark::State& state) {
  namespace fs = std::filesystem;
  const auto& fixture = AuditLedger();
  const fs::path dir = fs::temp_directory_path() / "sisyphus-bench-audit-cold";
  const std::string path = WriteAuditFixture(dir);
  if (path.empty()) {
    state.SkipWithError("audit artifact write failed");
    return;
  }
  for (auto _ : state) {
    audit::AuditReader reader;
    if (!reader.Open(path).ok()) {
      state.SkipWithError("audit artifact open failed");
      break;
    }
    auto unit = reader.FindUnit(0, fixture.treated_unit);
    benchmark::DoNotOptimize(unit.ok() && unit.value().found);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_AuditOpenFindUnit)->Unit(benchmark::kMicrosecond);

}  // namespace

// Console output for humans plus BENCH_netsim.json (google-benchmark JSON
// schema) in the working directory for CI artifact upload and diffing.
// An explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  sisyphus::bench::ApplyThreadsFlag(argc, argv);
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_netsim.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) std::printf("wrote BENCH_netsim.json\n");
  return 0;
}
