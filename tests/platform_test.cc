// Tests for the measurement platform: baseline scheduling, endogenous
// user-triggered testing (the collider mechanism), conditional
// activation, intent tagging, and fault-injected campaigns (probe loss,
// retries, outage windows, deterministic replay).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <type_traits>
#include <vector>

#include "core/parallel.h"
#include "measure/platform.h"
#include "netsim/scenario_random.h"
#include "netsim/scenario_za.h"
#include "obs/metrics.h"

namespace sisyphus::measure {
namespace {

using core::Asn;
using core::SimTime;
using netsim::AsRole;
using netsim::NetworkEvent;
using netsim::NetworkSimulator;
using netsim::Relationship;
using netsim::Topology;

/// The archive a campaign left, read back from the store's columns in id
/// order (a duplicate's copies side by side). The columns keep no server
/// or address family, so those fields hold their defaults.
std::vector<SpeedTestRecord> Archived(const ShardedMeasurementStore& store) {
  std::vector<SpeedTestRecord> records;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    const ShardedMeasurementStore::Columns& arena = store.shard(s);
    for (std::size_t i = 0; i < arena.size(); ++i) {
      SpeedTestRecord record;
      record.id = core::MeasurementId(arena.id[i]);
      record.time = SimTime(arena.time_minutes[i]);
      record.vantage_pop = arena.vantage_pop[i];
      record.rtt_ms = arena.rtt_ms[i];
      record.loss_rate = arena.loss_rate[i];
      record.throughput_mbps = arena.throughput_mbps[i];
      record.intent = static_cast<Intent>(arena.intent[i]);
      record.attempts = arena.attempts[i];
      record.ixp_crossing = arena.ixp_crossing[i];
      records.push_back(record);
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const SpeedTestRecord& a, const SpeedTestRecord& b) {
                     return a.id < b.id;
                   });
  return records;
}

struct Fixture {
  std::unique_ptr<NetworkSimulator> sim;
  netsim::PopIndex user = 0, server = 0;
  core::LinkId primary, backup;

  Fixture() {
    Topology topo;
    const auto city = topo.cities().Add({"X", {0, 0}, 2.0});
    user = topo.AddPop(Asn{100}, city, AsRole::kAccess).value();
    const auto t1 = topo.AddPop(Asn{2}, city, AsRole::kTransit).value();
    const auto t2 = topo.AddPop(Asn{3}, city, AsRole::kTransit).value();
    server = topo.AddPop(Asn{4}, city, AsRole::kMeasurement).value();
    primary = topo.AddLink(user, t1, Relationship::kCustomerToProvider,
                           std::nullopt, 0.5)
                  .value();
    backup = topo.AddLink(user, t2, Relationship::kCustomerToProvider,
                          std::nullopt, 3.0)
                 .value();
    EXPECT_TRUE(topo.AddLink(server, t1, Relationship::kCustomerToProvider,
                             std::nullopt, 0.3)
                    .ok());
    EXPECT_TRUE(topo.AddLink(server, t2, Relationship::kCustomerToProvider,
                             std::nullopt, 0.3)
                    .ok());
    sim = std::make_unique<NetworkSimulator>(std::move(topo));
  }
};

TEST(PlatformTest, BaselineRateApproximatelyHonored) {
  Fixture f;
  PlatformOptions options;
  options.server = f.server;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 24.0;
  platform.AddVantage(vantage);
  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(1);
  platform.Run(SimTime::FromDays(10), rng, campaign);
  // Expect ~240 tests, Poisson sd ~ 15.5.
  EXPECT_NEAR(static_cast<double>(campaign.store().size()), 240.0, 60.0);
  EXPECT_EQ(campaign.store().CountByIntent(Intent::kBaseline),
            campaign.store().size());
}

TEST(PlatformTest, UserTestingRateRisesWithDegradation) {
  // Two identical vantages; halfway through, a congestion shock degrades
  // the path. User-initiated volume after the shock should exceed before.
  Fixture f;
  const auto primary = f.primary;
  PlatformOptions options;
  options.server = f.server;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 0.0;
  vantage.user_tests_per_day = 20.0;
  vantage.dissatisfaction_gain = 10.0;
  platform.AddVantage(vantage);

  NetworkEvent shock;
  shock.time = SimTime::FromDays(5);
  shock.type = netsim::EventType::kCongestionShock;
  shock.link = primary;
  shock.shock_end = SimTime::FromDays(10);
  shock.shock_extra = 0.55;
  f.sim->schedule().Add(shock);

  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(2);
  platform.Run(SimTime::FromDays(10), rng, campaign);

  std::size_t before = 0, after = 0;
  for (const auto& record : Archived(campaign.store())) {
    (record.time < SimTime::FromDays(5) ? before : after)++;
  }
  EXPECT_GT(after, before + before / 4);
}

TEST(PlatformTest, ConditionalActivationFiresOnRouteChange) {
  Fixture f;
  const auto primary = f.primary;
  PlatformOptions options;
  options.server = f.server;
  options.conditional_activation = true;
  options.event_burst_tests = 6;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 0.0;
  platform.AddVantage(vantage);

  NetworkEvent down;
  down.time = SimTime::FromDays(1);
  down.type = netsim::EventType::kLinkDown;
  down.exogenous = true;
  down.description = "maintenance";
  down.link = primary;
  f.sim->schedule().Add(down);

  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(3);
  platform.Run(SimTime::FromDays(2), rng, campaign);
  EXPECT_EQ(campaign.store().CountByIntent(Intent::kEventTriggered), 6u);
  // All triggered tests happened at/after the event.
  for (const auto& record : Archived(campaign.store())) {
    if (record.intent == Intent::kEventTriggered) {
      EXPECT_GE(record.time, SimTime::FromDays(1));
    }
  }
}

TEST(PlatformTest, NoConditionalActivationWithoutEvents) {
  Fixture f;
  PlatformOptions options;
  options.server = f.server;
  options.conditional_activation = true;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 5.0;
  platform.AddVantage(vantage);
  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(4);
  platform.Run(SimTime::FromDays(3), rng, campaign);
  EXPECT_EQ(campaign.store().CountByIntent(Intent::kEventTriggered), 0u);
}

TEST(PlatformTest, MultipleVantagesProduceDistinctUnits) {
  Fixture f;
  // Second user AS.
  auto& topo = f.sim->topology();
  const auto city2 = topo.cities().Add({"Y", {1, 1}, 2.0});
  const auto user2 = topo.AddPop(Asn{200}, city2, AsRole::kAccess).value();
  ASSERT_TRUE(topo.AddLink(user2, 1 /* t1 */,
                           Relationship::kCustomerToProvider)
                  .ok());
  PlatformOptions options;
  options.server = f.server;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.baseline_tests_per_day = 12.0;
  vantage.pop = f.user;
  platform.AddVantage(vantage);
  vantage.pop = user2;
  platform.AddVantage(vantage);
  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(5);
  platform.Run(SimTime::FromDays(4), rng, campaign);
  EXPECT_EQ(campaign.store().Units().size(), 2u);
}


TEST(PlatformTest, EdgeSteeringRoutesTestsAcrossSites) {
  Fixture f;
  // Second measurement site behind the backup transit, reached across an
  // IXP LAN: a probe steered there crosses the IXP, one to the configured
  // server does not.
  auto& topo = f.sim->topology();
  const auto city2 = topo.cities().Add({"Z", {2, 2}, 2.0});
  const auto site2 =
      topo.AddPop(Asn{5}, city2, AsRole::kMeasurement).value();
  const core::IxpId ixp = topo.AddIxp("IX-Z", city2).value();
  ASSERT_TRUE(topo.AddLink(site2, 2 /* t2 */,
                           Relationship::kCustomerToProvider, ixp)
                  .ok());

  PlatformOptions options;
  options.server = f.server;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 48.0;
  platform.AddVantage(vantage);

  EdgeSteering steering(*f.sim, {f.server, site2});
  steering.SetMode(SteeringMode::kRandomSite);
  platform.SetEdgeSteering(&steering);
  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(9);
  platform.Run(SimTime::FromDays(5), rng, campaign);

  // Each record carries the crossing of the path to the site it was
  // steered to (one decision per record, in merge order).
  const auto records = Archived(campaign.store());
  ASSERT_EQ(steering.decisions().size(), records.size());
  std::size_t steered_to_site2 = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const bool site2_chosen = steering.decisions()[i].server == site2;
    if (site2_chosen) ++steered_to_site2;
    EXPECT_EQ(records[i].ixp_crossing == ixp.value(), site2_chosen) << i;
  }
  EXPECT_GT(steered_to_site2, 0u);
  EXPECT_LT(steered_to_site2, records.size());

  // Reverting steering pins back to the configured server.
  platform.SetEdgeSteering(nullptr);
  platform.Run(SimTime::FromDays(5) + SimTime::FromHours(6), rng, campaign);
  const auto all = Archived(campaign.store());
  ASSERT_GT(all.size(), records.size());
  EXPECT_EQ(steering.decisions().size(), records.size());
  EXPECT_EQ(all.back().ixp_crossing, kNoIxpCrossing);
}

TEST(PlatformTest, RecordsCarryTheProbePathsIxpCrossing) {
  // A vantage whose path to the server crosses an IXP LAN at hop 1: every
  // record GenerateStep produces carries that IXP, and the hop-matching
  // rule on the path's simulated traceroute agrees.
  static_assert(std::is_trivially_copyable_v<PendingRecord>);
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 2.0});
  const auto user = topo.AddPop(Asn{100}, city, AsRole::kAccess).value();
  const auto server =
      topo.AddPop(Asn{4}, city, AsRole::kMeasurement).value();
  const core::IxpId ixp = topo.AddIxp("IX", city).value();
  ASSERT_TRUE(
      topo.AddLink(user, server, Relationship::kPeerToPeer, ixp).ok());
  NetworkSimulator sim(std::move(topo));

  const auto path = ResolveProbePath(sim, user, server);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value().ixp_crossing, ixp.value());
  EXPECT_EQ(path.value().ixp_hop, 1u);
  const auto route = sim.RouteBetween(user, server);
  ASSERT_TRUE(route.ok());
  const auto detected = DetectIxpCrossings(
      sim.topology(), SimulateTraceroute(sim.topology(), route.value()));
  ASSERT_EQ(detected.size(), 1u);
  EXPECT_EQ(detected[0], ixp);

  PlatformOptions options;
  options.server = server;
  Platform platform(sim, options);
  VantageConfig vantage;
  vantage.pop = user;
  vantage.baseline_tests_per_day = 24.0;
  platform.AddVantage(vantage);
  core::Rng rng(12);
  std::size_t records = 0;
  const SimTime until = SimTime::FromDays(2);
  while (platform.Now() < until) {
    for (const PendingRecord& pending :
         platform.GenerateStep(until, rng).records) {
      EXPECT_EQ(pending.record.ixp_crossing, ixp.value());
      ++records;
    }
  }
  EXPECT_GT(records, 20u);
}

/// Runs a campaign of `vantages` probing `server` step by step and checks
/// every path it resolves: a path's IXP crossing and hop are where
/// DetectIxpCrossings, on the path's simulated traceroute, first finds an
/// IXP LAN (none when it finds none), and every record carries its path's
/// crossing. Returns the IXPs the crossing paths cross.
std::set<std::uint16_t> ExpectCrossingsFollowHopMatching(
    NetworkSimulator& sim, netsim::PopIndex server,
    const std::vector<netsim::PopIndex>& vantages, SimTime until) {
  PlatformOptions options;
  options.server = server;
  Platform platform(sim, options);
  VantageConfig vantage;
  vantage.baseline_tests_per_day = 2.0;
  for (const netsim::PopIndex pop : vantages) {
    vantage.pop = pop;
    platform.AddVantage(vantage);
  }
  const Topology& topology = sim.topology();
  std::set<std::uint16_t> crossed;
  core::Rng rng(41);
  while (platform.Now() < until) {
    const StepOutput step = platform.GenerateStep(until, rng);
    // The network holds still until the next step: these are the paths
    // the step resolved.
    std::map<netsim::PopIndex, std::uint16_t> crossing_of;
    for (const netsim::PopIndex pop : vantages) {
      const auto path = ResolveProbePath(sim, pop, server);
      if (!path.ok()) continue;
      const auto route = sim.RouteBetween(pop, server);
      EXPECT_TRUE(route.ok());
      if (!route.ok()) continue;
      const Traceroute traceroute = SimulateTraceroute(topology, route.value());
      const auto detected = DetectIxpCrossings(topology, traceroute);
      if (detected.empty()) {
        EXPECT_EQ(path.value().ixp_crossing, kNoIxpCrossing);
      } else {
        crossed.insert(path.value().ixp_crossing);
        EXPECT_EQ(path.value().ixp_crossing, detected.front().value());
        EXPECT_LT(path.value().ixp_hop, traceroute.hops.size());
        if (path.value().ixp_hop >= traceroute.hops.size()) continue;
        core::IxpId at_hop;
        EXPECT_TRUE(topology.IsIxpAddress(
            traceroute.hops[path.value().ixp_hop].address, &at_hop));
        EXPECT_EQ(at_hop, detected.front());
        for (std::size_t hop = 0; hop < path.value().ixp_hop; ++hop) {
          EXPECT_FALSE(topology.IsIxpAddress(traceroute.hops[hop].address));
        }
      }
      crossing_of[pop] = path.value().ixp_crossing;
    }
    for (const PendingRecord& pending : step.records) {
      EXPECT_EQ(pending.record.ixp_crossing,
                crossing_of.at(pending.record.vantage_pop));
    }
  }
  return crossed;
}

TEST(PlatformTest, ZaPathCrossingsFollowHopMatching) {
  netsim::ScenarioZaOptions options;
  options.donor_units = 10;
  netsim::ScenarioZa scenario = netsim::BuildScenarioZa(options);
  std::vector<netsim::PopIndex> vantages;
  for (const auto& unit : scenario.treated) vantages.push_back(unit.access_pop);
  vantages.insert(vantages.end(), scenario.donors.begin(),
                  scenario.donors.end());
  // Eight treated units cross NAPAfrica-JNB from day 28 on.
  const std::set<std::uint16_t> napafrica = {
      static_cast<std::uint16_t>(scenario.napafrica_jnb.value())};
  EXPECT_EQ(ExpectCrossingsFollowHopMatching(*scenario.simulator,
                                             scenario.content_jnb, vantages,
                                             options.horizon),
            napafrica);
}

TEST(PlatformTest, RandomInternetPathCrossingsFollowHopMatching) {
  netsim::RandomInternetOptions options;
  options.content_count = 4;
  options.city_count = 4;
  options.ixp_count = 4;
  options.ixp_membership_probability = 0.8;
  // A campaign per content network: each peers at its own city's IXP.
  std::set<std::uint16_t> crossed;
  for (std::size_t server = 0; server < options.content_count; ++server) {
    netsim::RandomInternet internet = netsim::BuildRandomInternet(options);
    ASSERT_EQ(internet.ixps.size(), 4u);
    const auto seen = ExpectCrossingsFollowHopMatching(
        *internet.simulator, internet.content[server], internet.access,
        SimTime::FromDays(2));
    crossed.insert(seen.begin(), seen.end());
  }
  // Every IXP shows up as some path's first crossing.
  EXPECT_EQ(crossed.size(), 4u);
}

// ---- Fault-injected campaigns ---------------------------------------------

TEST(PlatformFaultTest, CertainProbeLossLogsFailuresWithProvenance) {
  Fixture f;
  PlatformOptions options;
  options.server = f.server;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 24.0;
  platform.AddVantage(vantage);

  FaultPlan plan;
  plan.probe_loss_probability = 1.0;
  FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(21);
  platform.Run(SimTime::FromDays(2), rng, campaign);
  EXPECT_EQ(campaign.store().size(), 0u);
  ASSERT_GT(platform.failures().size(), 10u);
  for (const auto& failure : platform.failures()) {
    EXPECT_EQ(failure.reason, ProbeFault::kProbeLoss);
    EXPECT_EQ(failure.attempts, options.retry.max_attempts);
    EXPECT_EQ(failure.vantage, f.user);
  }
}

TEST(PlatformFaultTest, TruncationClearsTheCrossingItCutsOff) {
  // The server sits across an IXP LAN at hop 1 of a 2-hop path: a certain
  // truncation keeps only the vantage's own hop, so every archived record
  // loses its crossing.
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 2.0});
  const auto user = topo.AddPop(Asn{100}, city, AsRole::kAccess).value();
  const auto server =
      topo.AddPop(Asn{4}, city, AsRole::kMeasurement).value();
  const core::IxpId ixp = topo.AddIxp("IX", city).value();
  ASSERT_TRUE(
      topo.AddLink(user, server, Relationship::kPeerToPeer, ixp).ok());
  NetworkSimulator sim(std::move(topo));
  PlatformOptions options;
  options.server = server;
  Platform platform(sim, options);
  VantageConfig vantage;
  vantage.pop = user;
  vantage.baseline_tests_per_day = 24.0;
  platform.AddVantage(vantage);

  FaultPlan plan;
  plan.traceroute_truncation_probability = 1.0;
  FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);
  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(22);
  platform.Run(SimTime::FromDays(2), rng, campaign);

  ASSERT_GT(campaign.store().size(), 10u);
  for (const auto& record : Archived(campaign.store())) {
    EXPECT_EQ(record.ixp_crossing, kNoIxpCrossing);
  }
  EXPECT_EQ(injector.stats().traceroutes_truncated, campaign.store().size());
  EXPECT_FALSE(campaign.store().FirstIxpCrossing("100 / X", ixp).has_value());
}

TEST(PlatformFaultTest, RetriesRecoverFromTransientLoss) {
  Fixture f;
  PlatformOptions options;
  options.server = f.server;
  options.retry.max_attempts = 6;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 48.0;
  platform.AddVantage(vantage);

  FaultPlan plan;
  plan.seed = 23;
  plan.probe_loss_probability = 0.5;
  FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(22);
  platform.Run(SimTime::FromDays(3), rng, campaign);
  const auto records = Archived(campaign.store());
  ASSERT_GT(records.size(), 50u);
  std::size_t retried = 0;
  for (const auto& record : records) {
    EXPECT_GE(record.attempts, 1u);
    EXPECT_LE(record.attempts, 6u);
    if (record.attempts > 1) ++retried;
  }
  // At 50% per-attempt loss, roughly half of surviving records were
  // rescued by a retry.
  EXPECT_GT(retried, records.size() / 5);
  // Final failures need ~6 consecutive losses: rare but accounted for.
  EXPECT_LT(platform.failures().size(), records.size() / 10);
}

TEST(PlatformFaultTest, VantageOutageWindowSuppressesRecords) {
  Fixture f;
  PlatformOptions options;
  options.server = f.server;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 24.0;
  platform.AddVantage(vantage);

  FaultPlan plan;
  plan.vantage_outages.push_back(
      {f.user, {{SimTime::FromDays(1), SimTime::FromDays(2)}}});
  FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(23);
  platform.Run(SimTime::FromDays(3), rng, campaign);
  // Retries back off by minutes; a day-long window swallows all attempts.
  for (const auto& record : Archived(campaign.store())) {
    EXPECT_TRUE(record.time < SimTime::FromDays(1) ||
                record.time >= SimTime::FromDays(2));
  }
  std::size_t outage_failures = 0;
  for (const auto& failure : platform.failures()) {
    if (failure.reason == ProbeFault::kVantageOutage) ++outage_failures;
  }
  EXPECT_GT(outage_failures, 5u);
}

TEST(PlatformFaultTest, CollectorOutageAffectsAllVantages) {
  Fixture f;
  PlatformOptions options;
  options.server = f.server;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 24.0;
  platform.AddVantage(vantage);

  FaultPlan plan;
  plan.collector_outages.push_back(
      {SimTime::FromDays(1), SimTime::FromDays(2)});
  FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(24);
  platform.Run(SimTime::FromDays(3), rng, campaign);
  for (const auto& record : Archived(campaign.store())) {
    EXPECT_TRUE(record.time < SimTime::FromDays(1) ||
                record.time >= SimTime::FromDays(2));
  }
  std::size_t collector_failures = 0;
  for (const auto& failure : platform.failures()) {
    if (failure.reason == ProbeFault::kCollectorOutage) ++collector_failures;
  }
  EXPECT_GT(collector_failures, 5u);
}

TEST(PlatformFaultTest, CorruptRecordsAreQuarantinedNotArchived) {
  Fixture f;
  PlatformOptions options;
  options.server = f.server;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 48.0;
  platform.AddVantage(vantage);

  FaultPlan plan;
  plan.seed = 29;
  plan.corruption_probability = 0.3;
  FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(25);
  platform.Run(SimTime::FromDays(3), rng, campaign);
  EXPECT_GT(campaign.store().quarantined(), 10u);
  // Everything that made it into the archive still validates.
  for (const auto& record : Archived(campaign.store())) {
    EXPECT_TRUE(ValidateRecord(record, options.validation).ok());
  }
  std::uint64_t tagged = 0;
  for (const auto& [tag, count] : campaign.store().QuarantineReasonCounts()) {
    EXPECT_NE(tag, "other");
    tagged += count;
  }
  EXPECT_EQ(tagged, campaign.store().quarantined());
}

TEST(PlatformFaultTest, SameFaultSeedReplaysByteIdenticalStream) {
  FaultPlan plan;
  plan.seed = 31;
  plan.probe_loss_probability = 0.2;
  plan.duplicate_probability = 0.05;
  plan.max_clock_skew = SimTime(2);

  auto run_campaign = [&plan]() {
    Fixture f;
    PlatformOptions options;
    options.server = f.server;
    Platform platform(*f.sim, options);
    VantageConfig vantage;
    vantage.pop = f.user;
    vantage.baseline_tests_per_day = 24.0;
    platform.AddVantage(vantage);
    FaultInjector injector(plan);
    platform.SetFaultInjector(&injector);
    StreamingCampaign campaign(options.validation, {});
    core::Rng rng(26);
    platform.Run(SimTime::FromDays(4), rng, campaign);
    return campaign.store().ToCsv();
  };
  const std::string first = run_campaign();
  const std::string second = run_campaign();
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);
}

// ---- Probe counters -------------------------------------------------------

/// The measure.probes.* counter deltas of a two-day ZA campaign at
/// `threads` lanes, beside the tallies of its step outputs they must equal.
struct ProbeCounts {
  std::uint64_t attempted = 0;
  std::uint64_t retried = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t records = 0;
  std::uint64_t failures = 0;
  std::uint64_t exhausted = 0;   ///< failures that used every attempt
  std::uint64_t duplicates = 0;
  std::uint64_t extra_attempts = 0;  ///< sum of attempts - 1
};

/// Registers table1's vantages at its default test rates: the treated
/// units, then the donors.
void AddZaVantages(Platform& platform, const netsim::ScenarioZa& scenario) {
  VantageConfig vantage;
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
}

ProbeCounts RunZaProbeCampaign(std::size_t threads) {
  core::ThreadPool::SetGlobalThreadCount(threads);
  const obs::Registry& registry = obs::Registry::Global();
  const std::uint64_t attempted = registry.CounterValue(
      "measure.probes.attempted");
  const std::uint64_t retried = registry.CounterValue("measure.probes.retried");
  const std::uint64_t succeeded =
      registry.CounterValue("measure.probes.succeeded");

  netsim::ScenarioZa scenario = netsim::BuildScenarioZa();
  PlatformOptions options;
  options.server = scenario.content_jnb;
  Platform platform(*scenario.simulator, options);
  AddZaVantages(platform, scenario);
  FaultPlan plan;
  plan.seed = 37;
  plan.probe_loss_probability = 0.4;
  plan.duplicate_probability = 0.05;
  FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  ProbeCounts out;
  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(41);
  const SimTime until = SimTime::FromDays(2);
  while (platform.Now() < until) {
    const StepOutput step = platform.GenerateStep(until, rng);
    for (const PendingRecord& pending : step.records) {
      ++out.records;
      if (pending.duplicate) ++out.duplicates;
      out.extra_attempts += pending.record.attempts - 1;
    }
    for (const ProbeFailure& failure : step.failures) {
      ++out.failures;
      if (failure.attempts == options.retry.max_attempts) ++out.exhausted;
      out.extra_attempts += failure.attempts - 1;
    }
    campaign.IngestBatch(step.records);
    platform.CommitFailures(step.failures);
  }
  out.attempted =
      registry.CounterValue("measure.probes.attempted") - attempted;
  out.retried = registry.CounterValue("measure.probes.retried") - retried;
  out.succeeded =
      registry.CounterValue("measure.probes.succeeded") - succeeded;
  return out;
}

TEST(PlatformProbeCounterTest, StepTalliesMatchRecordsAndFailures) {
  const bool metrics_were_enabled = obs::Registry::enabled();
  obs::Registry::Enable(true);
  const ProbeCounts one = RunZaProbeCampaign(1);
  const ProbeCounts four = RunZaProbeCampaign(4);
  core::ThreadPool::SetGlobalThreadCount(0);
  obs::Registry::Enable(metrics_were_enabled);

  // The plan forces retries, exhausted retries and duplicates.
  EXPECT_GT(one.extra_attempts, 0u);
  EXPECT_GT(one.exhausted, 0u);
  EXPECT_GT(one.duplicates, 0u);
  for (const ProbeCounts* run : {&one, &four}) {
    EXPECT_EQ(run->attempted, run->records + run->failures);
    EXPECT_EQ(run->succeeded, run->records);
    EXPECT_EQ(run->retried, run->extra_attempts);
  }
  EXPECT_EQ(four.attempted, one.attempted);
  EXPECT_EQ(four.retried, one.retried);
  EXPECT_EQ(four.succeeded, one.succeeded);
  EXPECT_EQ(four.records, one.records);
}

// ingested() counts batch entries, the records the steps generated: a
// duplicate's two copies are one entry, so under duplicates it falls
// short of the copies archived and quarantined.
TEST(StreamingCampaignTest, IngestedCountsBatchEntries) {
  netsim::ScenarioZa scenario = netsim::BuildScenarioZa();
  PlatformOptions options;
  options.server = scenario.content_jnb;
  Platform platform(*scenario.simulator, options);
  AddZaVantages(platform, scenario);
  FaultPlan plan;
  plan.seed = 53;
  plan.duplicate_probability = 0.05;
  FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);

  StreamingCampaign campaign(options.validation, {});
  core::Rng rng(43);
  std::uint64_t entries = 0, duplicates = 0;
  const SimTime until = SimTime::FromDays(2);
  while (platform.Now() < until) {
    const StepOutput step = platform.GenerateStep(until, rng);
    entries += step.records.size();
    for (const PendingRecord& pending : step.records) {
      if (pending.duplicate) ++duplicates;
    }
    campaign.IngestBatch(step.records);
  }
  const std::uint64_t copies =
      campaign.store().size() + campaign.store().quarantined();
  EXPECT_GT(duplicates, 0u);
  EXPECT_EQ(campaign.ingested(), entries);
  EXPECT_LT(campaign.ingested(), copies);
  EXPECT_EQ(copies, entries + duplicates);
}

}  // namespace
}  // namespace sisyphus::measure
