// Tests for edge steering (resolver-rotation knob) and CSV export.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "measure/edge_steering.h"
#include "measure/export.h"
#include "measure/speedtest.h"

namespace sisyphus::measure {
namespace {

using core::Asn;
using core::SimTime;
using netsim::AsRole;
using netsim::NetworkSimulator;
using netsim::Relationship;
using netsim::Topology;

struct Fixture {
  std::unique_ptr<NetworkSimulator> sim;
  netsim::PopIndex user = 0, near_site = 0, far_site = 0;
  core::LinkId near_link, far_link;

  Fixture() {
    Topology topo;
    const auto city = topo.cities().Add({"X", {0, 0}, 0});
    user = topo.AddPop(Asn{100}, city, AsRole::kAccess).value();
    const auto transit = topo.AddPop(Asn{2}, city, AsRole::kTransit).value();
    near_site = topo.AddPop(Asn{36444}, city, AsRole::kMeasurement).value();
    far_site = topo.AddPop(Asn{36445}, city, AsRole::kMeasurement).value();
    EXPECT_TRUE(topo.AddLink(user, transit,
                             Relationship::kCustomerToProvider, std::nullopt,
                             0.3)
                    .ok());
    near_link = topo.AddLink(near_site, transit,
                             Relationship::kCustomerToProvider, std::nullopt,
                             0.3)
                    .value();
    far_link = topo.AddLink(far_site, transit,
                            Relationship::kCustomerToProvider, std::nullopt,
                            5.0)
                   .value();
    sim = std::make_unique<NetworkSimulator>(std::move(topo));
  }
};

TEST(EdgeSteeringTest, NearestPicksLowerRttSite) {
  Fixture f;
  EdgeSteering steering(*f.sim, {f.near_site, f.far_site});
  core::Rng rng(1);
  auto chosen = steering.ChooseServer(f.user, rng);
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(chosen.value(), f.near_site);
  ASSERT_EQ(steering.decisions().size(), 1u);
  EXPECT_EQ(steering.decisions()[0].mode, SteeringMode::kNearest);
}

TEST(EdgeSteeringTest, RandomModeVisitsBothSites) {
  Fixture f;
  EdgeSteering steering(*f.sim, {f.near_site, f.far_site});
  steering.SetMode(SteeringMode::kRandomSite);
  core::Rng rng(2);
  std::size_t far_count = 0;
  for (int i = 0; i < 200; ++i) {
    auto chosen = steering.ChooseServer(f.user, rng);
    ASSERT_TRUE(chosen.ok());
    if (chosen.value() == f.far_site) ++far_count;
  }
  EXPECT_GT(far_count, 60u);
  EXPECT_LT(far_count, 140u);
}

TEST(EdgeSteeringTest, PinForcesSite) {
  Fixture f;
  EdgeSteering steering(*f.sim, {f.near_site, f.far_site});
  steering.Pin(f.far_site);
  EXPECT_EQ(steering.mode(), SteeringMode::kPinned);
  core::Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    auto chosen = steering.ChooseServer(f.user, rng);
    ASSERT_TRUE(chosen.ok());
    EXPECT_EQ(chosen.value(), f.far_site);
  }
  EXPECT_THROW(steering.Pin(f.user), std::logic_error);  // not a site
}

TEST(EdgeSteeringTest, UnreachableSitesSkippedOrFail) {
  Fixture f;
  const auto far_link = f.far_link;
  f.sim->topology().MutableLink(far_link).up = false;
  f.sim->bgp().InvalidateCache();
  EdgeSteering steering(*f.sim, {f.far_site});
  core::Rng rng(4);
  auto chosen = steering.ChooseServer(f.user, rng);
  ASSERT_FALSE(chosen.ok());
  EXPECT_EQ(chosen.error().code(), core::ErrorCode::kNotFound);
  // With both sites configured, the reachable one is used.
  EdgeSteering fallback(*f.sim, {f.near_site, f.far_site});
  fallback.SetMode(SteeringMode::kRandomSite);
  for (int i = 0; i < 20; ++i) {
    auto pick = fallback.ChooseServer(f.user, rng);
    ASSERT_TRUE(pick.ok());
    EXPECT_EQ(pick.value(), f.near_site);
  }
}

TEST(EdgeSteeringTest, ModeNamesStable) {
  EXPECT_STREQ(ToString(SteeringMode::kNearest), "nearest");
  EXPECT_STREQ(ToString(SteeringMode::kPinned), "pinned");
}

// ---- CSV export -----------------------------------------------------------------

TEST(ExportTest, PanelCsvWideFormat) {
  Panel panel;
  panel.units.resize(2);
  panel.units[0].unit = "100 / X";
  panel.units[0].values = {1.0, 2.0};
  panel.units[1].unit = "200 / Y";
  panel.units[1].values = {3.0, 4.0};
  const std::string csv = PanelToCsv(panel);
  EXPECT_EQ(csv, "period,100 / X,200 / Y\n0,1,3\n1,2,4\n");
}

TEST(ExportTest, DatasetCsvAndQuoting) {
  causal::Dataset data;
  ASSERT_TRUE(data.AddColumn("plain", {1.5}).ok());
  ASSERT_TRUE(data.AddColumn("with,comma", {2.0}).ok());
  const std::string csv = DatasetToCsv(data);
  EXPECT_EQ(csv, "plain,\"with,comma\"\n1.5,2\n");
}

TEST(ExportTest, WriteTextFileRoundTrip) {
  const std::string path = "/tmp/sisyphus_export_test.csv";
  ASSERT_TRUE(WriteTextFile(path, "a,b\n1,2\n").ok());
  std::ifstream file(path);
  std::string line;
  std::getline(file, line);
  EXPECT_EQ(line, "a,b");
  std::remove(path.c_str());
}

TEST(ExportTest, WriteTextFileBadPathFails) {
  EXPECT_FALSE(WriteTextFile("/nonexistent_dir_xyz/file.csv", "x").ok());
}

}  // namespace
}  // namespace sisyphus::measure
