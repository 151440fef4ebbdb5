// Tests for speed-test execution and the campaign store.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "measure/store.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"

namespace sisyphus::measure {
namespace {

using core::Asn;
using core::SimTime;
using netsim::AsRole;
using netsim::NetworkSimulator;
using netsim::Relationship;
using netsim::Topology;

/// Appends one record copy to its unit's shard, as a one-entry slice of
/// the bulk call campaign ingest makes; true when it was archived.
bool Add(ShardedMeasurementStore& store, const SpeedTestRecord& record) {
  const PendingRecord pending{record};
  const std::uint32_t entry = 0;
  std::vector<std::uint8_t> archived;
  store.AppendShard(store.ShardOf(record.UnitKey()), {&pending, 1},
                    {&entry, 1}, archived);
  return archived.at(0) != 0;
}

struct Fixture {
  std::unique_ptr<NetworkSimulator> sim;
  netsim::PopIndex user = 0, server = 0;
  core::LinkId peering;
  core::IxpId ixp;

  Fixture() {
    Topology topo;
    const auto jnb = topo.cities().Add({"Johannesburg", {-26.2, 28.0}, 2.0});
    user = topo.AddPop(Asn{3741}, jnb, AsRole::kAccess).value();
    const auto transit = topo.AddPop(Asn{2}, jnb, AsRole::kTransit).value();
    server = topo.AddPop(Asn{3}, jnb, AsRole::kMeasurement).value();
    ixp = topo.AddIxp("NAPAfrica-JNB", jnb).value();
    EXPECT_TRUE(
        topo.AddLink(user, transit, Relationship::kCustomerToProvider).ok());
    EXPECT_TRUE(
        topo.AddLink(server, transit, Relationship::kCustomerToProvider)
            .ok());
    peering =
        topo.AddLink(user, server, Relationship::kPeerToPeer, ixp).value();
    topo.MutableLink(peering).up = false;
    sim = std::make_unique<NetworkSimulator>(std::move(topo));
  }
};

TEST(SpeedTestTest, RecordFieldsPopulated) {
  Fixture f;
  core::Rng rng(1);
  auto record =
      RunSpeedTest(*f.sim, f.user, f.server, Intent::kBaseline, rng);
  ASSERT_TRUE(record.ok());
  const auto& r = record.value();
  EXPECT_EQ(r.unit.asn(), Asn{3741});
  EXPECT_EQ(r.unit.city(), "Johannesburg");
  EXPECT_EQ(r.UnitKey(), "3741 / Johannesburg");
  EXPECT_GT(r.rtt_ms, 0.0);
  EXPECT_GT(r.throughput_mbps, 0.0);
  EXPECT_LT(r.throughput_mbps, 150.0);
  EXPECT_EQ(r.intent, Intent::kBaseline);
  // The peering link is down: the probe goes user -> transit -> server and
  // crosses no IXP.
  EXPECT_EQ(r.ixp_crossing, kNoIxpCrossing);
  const auto path = ResolveProbePath(*f.sim, f.user, f.server);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value().hop_count, 3u);
  const auto route = f.sim->RouteBetween(f.user, f.server);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().asn_path.size(), 3u);
}

TEST(SpeedTestTest, RttIncludesLastMileOverhead) {
  Fixture f;
  core::Rng rng(2);
  auto route = f.sim->RouteBetween(f.user, f.server);
  ASSERT_TRUE(route.ok());
  const double path_rtt =
      f.sim->latency().PathRttMs(route.value(), f.sim->Now());
  double sum = 0.0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    auto record =
        RunSpeedTest(*f.sim, f.user, f.server, Intent::kBaseline, rng);
    ASSERT_TRUE(record.ok());
    sum += record.value().rtt_ms;
  }
  // Mean last-mile overhead ~2 ms plus occasional spikes.
  EXPECT_GT(sum / n, path_rtt + 1.0);
  EXPECT_LT(sum / n, path_rtt + 6.0);
}

TEST(SpeedTestTest, ThroughputDecreasesWithRtt) {
  SpeedTestModelOptions options;
  // Compare two fixtures: one direct, one with a long link.
  Fixture fast;
  core::Rng rng(3);
  // Slow path: add shock... simpler: compare model formula monotonicity
  // through samples at different path RTTs by toggling peering (shorter).
  fast.sim->topology().MutableLink(fast.peering).up = true;
  fast.sim->bgp().InvalidateCache();
  double fast_sum = 0.0, slow_sum = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    auto record = RunSpeedTest(*fast.sim, fast.user, fast.server,
                               Intent::kBaseline, rng, options);
    ASSERT_TRUE(record.ok());
    fast_sum += record.value().throughput_mbps;
  }
  fast.sim->topology().MutableLink(fast.peering).up = false;
  fast.sim->bgp().InvalidateCache();
  for (int i = 0; i < n; ++i) {
    auto record = RunSpeedTest(*fast.sim, fast.user, fast.server,
                               Intent::kBaseline, rng, options);
    ASSERT_TRUE(record.ok());
    slow_sum += record.value().throughput_mbps;
  }
  EXPECT_GT(fast_sum, slow_sum);
}

TEST(SpeedTestTest, UnreachableDestinationFails) {
  Fixture f;
  // Partition the user.
  for (core::LinkId link : f.sim->topology().LinksOf(f.user)) {
    f.sim->topology().MutableLink(link).up = false;
  }
  f.sim->bgp().InvalidateCache();
  core::Rng rng(4);
  auto record =
      RunSpeedTest(*f.sim, f.user, f.server, Intent::kUserInitiated, rng);
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.error().code(), core::ErrorCode::kNotFound);
}

// ResolveProbePath reads its route in place and takes RTT and loss from
// one walk over the route's links: the bits must be those of the per-link
// queries in link order, under a shock that pushes a link past the
// congestion-loss onset as well as without it.
TEST(ProbePathTest, OneWalkMatchesPerLinkQueries) {
  Topology topo;
  const auto jnb = topo.cities().Add({"Johannesburg", {-26.2, 28.0}, 2.0});
  const auto user = topo.AddPop(Asn{3741}, jnb, AsRole::kAccess).value();
  const auto transit = topo.AddPop(Asn{2}, jnb, AsRole::kTransit).value();
  const auto server = topo.AddPop(Asn{3}, jnb, AsRole::kMeasurement).value();
  const auto island = topo.AddPop(Asn{4}, jnb, AsRole::kAccess).value();
  const core::LinkId access =
      topo.AddLink(user, transit, Relationship::kCustomerToProvider).value();
  ASSERT_TRUE(
      topo.AddLink(server, transit, Relationship::kCustomerToProvider).ok());
  NetworkSimulator sim(std::move(topo));
  sim.latency().AddUtilizationShock(access, SimTime::FromHours(16),
                                    SimTime::FromHours(22), 0.45);
  const netsim::LatencyModel& latency = sim.latency();
  const auto route = sim.RouteBetween(user, server);
  ASSERT_TRUE(route.ok());
  ASSERT_EQ(route.value().links.size(), 2u);

  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  bool past_onset = false;
  for (const double hour : {4.0, 11.0, 17.5, 20.5, 23.0}) {
    const SimTime time = SimTime::FromHours(hour);
    sim.AdvanceTo(time);
    ASSERT_EQ(sim.Now(), time);
    const auto path = ResolveProbePath(sim, user, server);
    ASSERT_TRUE(path.ok());
    double delivered = 1.0;
    for (const core::LinkId link : route.value().links) {
      const double survive = 1.0 - latency.LinkLossRate(link, time);
      delivered *= survive * survive;
      past_onset = past_onset || latency.LinkUtilization(link, time) >
                                     latency.options().congestion_loss_onset;
    }
    EXPECT_TRUE(same_bits(path.value().mean_rtt_ms,
                          latency.PathRttMs(route.value(), time)))
        << "hour " << hour;
    EXPECT_TRUE(same_bits(path.value().loss_rate, 1.0 - delivered))
        << "hour " << hour;
    EXPECT_EQ(path.value().hop_count, route.value().pop_path.size());
  }
  EXPECT_TRUE(past_onset);

  // An unreachable pair fails with Route's error after one cache read.
  const bool metrics_were_enabled = obs::Registry::enabled();
  obs::Registry::Enable(true);
  const obs::Registry& registry = obs::Registry::Global();
  const std::uint64_t hits =
      registry.CounterValue("netsim.bgp.route_cache_hits");
  const std::uint64_t misses =
      registry.CounterValue("netsim.bgp.route_cache_misses");
  const auto unreachable = ResolveProbePath(sim, island, server);
  EXPECT_EQ(registry.CounterValue("netsim.bgp.route_cache_hits") - hits, 1u);
  EXPECT_EQ(registry.CounterValue("netsim.bgp.route_cache_misses"), misses);
  obs::Registry::Enable(metrics_were_enabled);
  ASSERT_FALSE(unreachable.ok());
  const auto expected = sim.RouteBetween(island, server);
  ASSERT_FALSE(expected.ok());
  EXPECT_EQ(unreachable.error().code(), core::ErrorCode::kNotFound);
  EXPECT_EQ(unreachable.error().message(), expected.error().message());
}

TEST(UnitTest, EqualPairsInternToOneEntry) {
  const Unit a = Unit::Intern(Asn{3741}, "East London");
  EXPECT_TRUE(a == Unit::Intern(Asn{3741}, std::string("East ") + "London"));
  EXPECT_FALSE(a == Unit::Intern(Asn{3741}, "Johannesburg"));
  EXPECT_FALSE(a == Unit::Intern(Asn{37411}, "East London"));
  EXPECT_EQ(a.asn(), Asn{3741});
  EXPECT_EQ(a.city(), "East London");
  EXPECT_EQ(a.key(), "3741 / East London");
  // A record built without a platform holds the empty unit, which is the
  // interned ⟨0, ""⟩ like any other.
  const SpeedTestRecord record;
  EXPECT_TRUE(record.unit == Unit::Intern(Asn{0}, ""));
  EXPECT_EQ(record.UnitKey(), "0 / ");
}

TEST(IntentTest, NamesStable) {
  EXPECT_STREQ(ToString(Intent::kBaseline), "baseline");
  EXPECT_STREQ(ToString(Intent::kUserInitiated), "user_initiated");
  EXPECT_STREQ(ToString(Intent::kEventTriggered), "event_triggered");
}

TEST(StoreTest, UnitsIndexedAndOrdered) {
  Fixture f;
  core::Rng rng(5);
  ShardedMeasurementStore store;
  for (int i = 0; i < 5; ++i) {
    f.sim->AdvanceTo(SimTime::FromHours(static_cast<double>(i + 1)));
    auto record = RunSpeedTest(*f.sim, f.user, f.server,
                               i % 2 == 0 ? Intent::kBaseline
                                          : Intent::kUserInitiated,
                               rng);
    ASSERT_TRUE(record.ok());
    EXPECT_TRUE(Add(store, record.value()));
  }
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.CountByIntent(Intent::kBaseline), 3u);
  EXPECT_EQ(store.CountByIntent(Intent::kUserInitiated), 2u);
  ASSERT_EQ(store.Units().size(), 1u);
  EXPECT_EQ(store.Units()[0], "3741 / Johannesburg");
  const auto [arena, rows] = store.RowsOf("3741 / Johannesburg");
  ASSERT_EQ(rows.size(), 5u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(arena->time_minutes[rows[i - 1]], arena->time_minutes[rows[i]]);
  }
  EXPECT_TRUE(store.RowsOf("nope").rows.empty());
}

TEST(StoreTest, FirstIxpCrossingDetectsTreatmentOnset) {
  Fixture f;
  core::Rng rng(7);
  ShardedMeasurementStore store;
  // Two pre-treatment tests.
  for (int i = 0; i < 2; ++i) {
    f.sim->AdvanceTo(SimTime::FromHours(static_cast<double>(i + 1)));
    auto record =
        RunSpeedTest(*f.sim, f.user, f.server, Intent::kBaseline, rng);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().ixp_crossing, kNoIxpCrossing);
    Add(store, record.value());
  }
  // Peering turns up at t = 3h.
  f.sim->AdvanceTo(SimTime::FromHours(3.0));
  f.sim->topology().MutableLink(f.peering).up = true;
  f.sim->bgp().InvalidateCache();
  for (int i = 0; i < 2; ++i) {
    f.sim->AdvanceTo(SimTime::FromHours(4.0 + i));
    auto record =
        RunSpeedTest(*f.sim, f.user, f.server, Intent::kBaseline, rng);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().ixp_crossing, f.ixp.value());
    Add(store, record.value());
  }
  const auto first = store.FirstIxpCrossing("3741 / Johannesburg", f.ixp);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, SimTime::FromHours(4.0));
  EXPECT_FALSE(store.FirstIxpCrossing("nope", f.ixp).has_value());
  // Crossing share: 0 before, 1 after.
  EXPECT_DOUBLE_EQ(store.IxpCrossingShare("3741 / Johannesburg", f.ixp,
                                          SimTime(0), SimTime::FromHours(3.0)),
                   0.0);
  EXPECT_DOUBLE_EQ(
      store.IxpCrossingShare("3741 / Johannesburg", f.ixp,
                             SimTime::FromHours(3.5), SimTime::FromHours(6.0)),
      1.0);
  // Empty window: share 0.
  EXPECT_DOUBLE_EQ(
      store.IxpCrossingShare("3741 / Johannesburg", f.ixp,
                             SimTime::FromHours(50), SimTime::FromHours(60)),
      0.0);
  // The CSV export carries the crossing: empty for none, else the IXP id.
  const std::string csv = store.ToCsv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "shard,id,time_minutes,unit,intent,attempts,vantage_pop,rtt_ms,"
            "loss_rate,throughput_mbps,ixp_crossing");
  std::size_t none = 0, crossing = 0;
  for (std::size_t end = csv.find('\n'); end + 1 < csv.size();) {
    const std::size_t next = csv.find('\n', end + 1);
    const std::string row = csv.substr(end + 1, next - end - 1);
    if (row.back() == ',') ++none;
    if (row.substr(row.rfind(',')) == ",0") ++crossing;
    end = next;
  }
  EXPECT_EQ(none, 2u);
  EXPECT_EQ(crossing, 2u);
}

// ---- Validating ingest / quarantine ---------------------------------------

SpeedTestRecord PlausibleRecord() {
  SpeedTestRecord record;
  record.time = SimTime::FromHours(3);
  record.unit = Unit::Intern(Asn{100}, "X");
  record.rtt_ms = 20.0;
  record.loss_rate = 0.01;
  record.throughput_mbps = 50.0;
  return record;
}

TEST(StoreValidationTest, ValidateRecordCatchesEachDefect) {
  EXPECT_TRUE(ValidateRecord(PlausibleRecord()).ok());

  auto negative_rtt = PlausibleRecord();
  negative_rtt.rtt_ms = -5.0;
  EXPECT_FALSE(ValidateRecord(negative_rtt).ok());

  auto huge_rtt = PlausibleRecord();
  huge_rtt.rtt_ms = 1e9;
  EXPECT_FALSE(ValidateRecord(huge_rtt).ok());

  auto impossible_loss = PlausibleRecord();
  impossible_loss.loss_rate = 2.0;
  EXPECT_FALSE(ValidateRecord(impossible_loss).ok());

  auto nan_throughput = PlausibleRecord();
  nan_throughput.throughput_mbps =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateRecord(nan_throughput).ok());

  auto pre_epoch = PlausibleRecord();
  pre_epoch.time = SimTime(-10);
  EXPECT_FALSE(ValidateRecord(pre_epoch).ok());

  StoreValidationOptions window;
  window.max_time = SimTime::FromHours(1);
  EXPECT_FALSE(ValidateRecord(PlausibleRecord(), window).ok());
}

TEST(StoreValidationTest, CorruptRecordsQuarantinedWithReason) {
  ShardedMeasurementStore store;
  EXPECT_TRUE(Add(store, PlausibleRecord()));

  auto negative_rtt = PlausibleRecord();
  negative_rtt.rtt_ms = -1.0;
  EXPECT_FALSE(Add(store, negative_rtt));

  auto pre_epoch = PlausibleRecord();
  pre_epoch.time = SimTime(-99);
  EXPECT_FALSE(Add(store, pre_epoch));

  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.quarantined(), 2u);
  const std::map<std::string, std::uint64_t> reasons = {{"rtt", 1},
                                                        {"timestamp", 1}};
  EXPECT_EQ(store.QuarantineReasonCounts(), reasons);
  // Quarantined copies never surface in queries.
  const auto [arena, rows] = store.RowsOf(PlausibleRecord().UnitKey());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(arena->rtt_ms[rows[0]], 20.0);
}

TEST(StoreValidationTest, CustomBoundsRespected) {
  StoreValidationOptions validation;
  validation.max_rtt_ms = 100.0;
  validation.min_time = SimTime::FromHours(1);
  validation.max_time = SimTime::FromHours(10);
  ShardedMeasurementStore store(validation);

  Add(store, PlausibleRecord());

  auto slow = PlausibleRecord();
  slow.rtt_ms = 500.0;  // valid by default bounds, not by these
  Add(store, slow);

  auto late = PlausibleRecord();
  late.time = SimTime::FromHours(11);
  Add(store, late);

  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.quarantined(), 2u);
}

}  // namespace
}  // namespace sisyphus::measure
