// Tests for the measurement platform: baseline scheduling, endogenous
// user-triggered testing (the collider mechanism), conditional
// activation, intent tagging, and fault-injected campaigns (probe loss,
// retries, outage windows, deterministic replay).
#include <gtest/gtest.h>

#include <type_traits>

#include "measure/export.h"
#include "measure/platform.h"

namespace sisyphus::measure {
namespace {

using core::Asn;
using core::SimTime;
using netsim::AsRole;
using netsim::NetworkEvent;
using netsim::NetworkSimulator;
using netsim::Relationship;
using netsim::Topology;

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
  core::Rng rng(1);
  platform.Run(SimTime::FromDays(10), rng);
  // Expect ~240 tests, Poisson sd ~ 15.5.
  EXPECT_NEAR(static_cast<double>(platform.store().size()), 240.0, 60.0);
  EXPECT_EQ(platform.CountByIntent(Intent::kBaseline),
            platform.store().size());
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

  core::Rng rng(2);
  platform.Run(SimTime::FromDays(10), rng);

  std::size_t before = 0, after = 0;
  for (const auto& record : platform.store().records()) {
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

  core::Rng rng(3);
  platform.Run(SimTime::FromDays(2), rng);
  EXPECT_EQ(platform.CountByIntent(Intent::kEventTriggered), 6u);
  // All triggered tests happened at/after the event.
  for (const auto& record : platform.store().records()) {
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
  core::Rng rng(4);
  platform.Run(SimTime::FromDays(3), rng);
  EXPECT_EQ(platform.CountByIntent(Intent::kEventTriggered), 0u);
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
  core::Rng rng(5);
  platform.Run(SimTime::FromDays(4), rng);
  EXPECT_EQ(platform.store().Units().size(), 2u);
}


TEST(PlatformTest, EdgeSteeringRoutesTestsAcrossSites) {
  Fixture f;
  // Second measurement site behind the backup transit.
  auto& topo = f.sim->topology();
  const auto city2 = topo.cities().Add({"Z", {2, 2}, 2.0});
  const auto site2 =
      topo.AddPop(Asn{5}, city2, AsRole::kMeasurement).value();
  ASSERT_TRUE(
      topo.AddLink(site2, 2 /* t2 */, Relationship::kCustomerToProvider)
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
  core::Rng rng(9);
  platform.Run(SimTime::FromDays(5), rng);

  // Each record carries the path to the site it was steered to.
  const auto to_server = f.sim->RouteBetween(f.user, f.server);
  const auto to_site2 = f.sim->RouteBetween(f.user, site2);
  ASSERT_TRUE(to_server.ok());
  ASSERT_TRUE(to_site2.ok());
  ASSERT_NE(to_server.value().asn_path, to_site2.value().asn_path);
  std::size_t steered_to_site2 = 0;
  for (const auto& record : platform.store().records()) {
    const bool site2_chosen = record.server_pop == site2;
    if (site2_chosen) ++steered_to_site2;
    const netsim::BgpRoute& route =
        site2_chosen ? to_site2.value() : to_server.value();
    EXPECT_EQ(record.asn_path, route.asn_path);
    EXPECT_EQ(record.traceroute.ToText(),
              SimulateTraceroute(f.sim->topology(), route).ToText());
  }
  EXPECT_GT(steered_to_site2, 0u);
  EXPECT_LT(steered_to_site2, platform.store().size());
  EXPECT_EQ(steering.decisions().size(), platform.store().size());

  // Reverting steering pins back to the configured server.
  platform.SetEdgeSteering(nullptr);
  platform.Run(SimTime::FromDays(5) + SimTime::FromHours(6), rng);
  const auto& records = platform.store().records();
  EXPECT_EQ(records.back().server_pop, f.server);
}

TEST(PlatformTest, OnlyTheBatchStoreGetsTraceroutesAndAsPaths) {
  const SimTime until = SimTime::FromDays(2);
  PlatformOptions options;
  VantageConfig vantage;
  vantage.baseline_tests_per_day = 24.0;

  // Streaming, durable and direct GenerateStep callers get scalar records:
  // a PendingRecord has no route to fill.
  static_assert(std::is_trivially_copyable_v<PendingRecord>);
  Fixture stepped;
  options.server = stepped.server;
  vantage.pop = stepped.user;
  Platform step_platform(*stepped.sim, options);
  step_platform.AddVantage(vantage);
  core::Rng step_rng(12);
  std::vector<SpeedTestRecord> step_records;
  while (step_platform.Now() < until) {
    for (const PendingRecord& pending :
         step_platform.GenerateStep(until, step_rng).records) {
      step_records.push_back(pending.record);
    }
  }

  // The batch store keeps the probed route's AS path and traceroute.
  Fixture batched;
  Platform batch_platform(*batched.sim, options);
  batch_platform.AddVantage(vantage);
  core::Rng batch_rng(12);
  batch_platform.Run(until, batch_rng);
  const auto route = batched.sim->RouteBetween(batched.user, batched.server);
  ASSERT_TRUE(route.ok());
  const std::string traceroute =
      SimulateTraceroute(batched.sim->topology(), route.value()).ToText();

  const auto& records = batch_platform.store().records();
  ASSERT_GT(records.size(), 20u);
  ASSERT_EQ(records.size(), step_records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].asn_path, route.value().asn_path);
    EXPECT_EQ(records[i].traceroute.hops.size(),
              route.value().pop_path.size());
    EXPECT_EQ(records[i].traceroute.ToText(), traceroute);
    // Keeping the route changes nothing else about a record.
    EXPECT_EQ(records[i].id, step_records[i].id);
    EXPECT_TRUE(records[i].unit == step_records[i].unit);
    EXPECT_EQ(records[i].time, step_records[i].time);
    EXPECT_EQ(records[i].rtt_ms, step_records[i].rtt_ms);
    EXPECT_EQ(records[i].loss_rate, step_records[i].loss_rate);
    EXPECT_EQ(records[i].throughput_mbps, step_records[i].throughput_mbps);
  }
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

  core::Rng rng(21);
  platform.Run(SimTime::FromDays(2), rng);
  EXPECT_EQ(platform.store().size(), 0u);
  ASSERT_GT(platform.failures().size(), 10u);
  for (const auto& failure : platform.failures()) {
    EXPECT_EQ(failure.reason, ProbeFault::kProbeLoss);
    EXPECT_EQ(failure.attempts, options.retry.max_attempts);
    EXPECT_EQ(failure.vantage, f.user);
  }
}

TEST(PlatformFaultTest, TruncationCutsTheBatchStoresTraceroutes) {
  // The batch store keeps each record's traceroute, so a certain
  // truncation fault cuts every one below the path's hop count. The AS
  // path stays whole.
  Fixture f;
  PlatformOptions options;
  options.server = f.server;
  Platform platform(*f.sim, options);
  VantageConfig vantage;
  vantage.pop = f.user;
  vantage.baseline_tests_per_day = 24.0;
  platform.AddVantage(vantage);

  FaultPlan plan;
  plan.traceroute_truncation_probability = 1.0;
  FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);
  core::Rng rng(22);
  platform.Run(SimTime::FromDays(2), rng);

  const auto route = f.sim->RouteBetween(f.user, f.server);
  ASSERT_TRUE(route.ok());
  ASSERT_GT(platform.store().size(), 10u);
  for (const RoutedRecord& record : platform.store().records()) {
    EXPECT_GE(record.traceroute.hops.size(), plan.truncation_min_hops);
    EXPECT_LT(record.traceroute.hops.size(), route.value().pop_path.size());
    EXPECT_EQ(record.asn_path, route.value().asn_path);
  }
  EXPECT_EQ(injector.stats().traceroutes_truncated, platform.store().size());
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

  core::Rng rng(22);
  platform.Run(SimTime::FromDays(3), rng);
  ASSERT_GT(platform.store().size(), 50u);
  std::size_t retried = 0;
  for (const auto& record : platform.store().records()) {
    EXPECT_GE(record.attempts, 1u);
    EXPECT_LE(record.attempts, 6u);
    if (record.attempts > 1) ++retried;
  }
  // At 50% per-attempt loss, roughly half of surviving records were
  // rescued by a retry.
  EXPECT_GT(retried, platform.store().size() / 5);
  // Final failures need ~6 consecutive losses: rare but accounted for.
  EXPECT_LT(platform.failures().size(), platform.store().size() / 10);
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

  core::Rng rng(23);
  platform.Run(SimTime::FromDays(3), rng);
  // Retries back off by minutes; a day-long window swallows all attempts.
  for (const auto& record : platform.store().records()) {
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

  core::Rng rng(24);
  platform.Run(SimTime::FromDays(3), rng);
  for (const auto& record : platform.store().records()) {
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

  core::Rng rng(25);
  platform.Run(SimTime::FromDays(3), rng);
  EXPECT_GT(platform.store().quarantine().size(), 10u);
  // Everything that made it into the archive still validates.
  for (const auto& record : platform.store().records()) {
    EXPECT_TRUE(ValidateRecord(record, options.validation).ok());
  }
  for (const auto& entry : platform.store().quarantine()) {
    EXPECT_FALSE(entry.reason.empty());
  }
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
    core::Rng rng(26);
    platform.Run(SimTime::FromDays(4), rng);
    return StoreToCsv(platform.store());
  };
  const std::string first = run_campaign();
  const std::string second = run_campaign();
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace sisyphus::measure
