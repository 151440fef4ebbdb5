// Tests for the packet-loss model and its effect on speed-test
// throughput (Mathis limit).
#include <gtest/gtest.h>

#include <memory>

#include "measure/speedtest.h"
#include "netsim/simulator.h"

namespace sisyphus::netsim {
namespace {

using core::Asn;
using core::SimTime;

struct Fixture {
  Topology topo;
  PopIndex a = 0, b = 0;
  core::LinkId link;

  Fixture() {
    const auto city = topo.cities().Add({"X", {0, 0}, 0});
    a = topo.AddPop(Asn{1}, city, AsRole::kAccess).value();
    b = topo.AddPop(Asn{2}, city, AsRole::kContent).value();
    link = topo.AddLink(a, b, Relationship::kPeerToPeer, std::nullopt, 2.0)
               .value();
  }
};

TEST(LossModelTest, FloorAtLowUtilization) {
  Fixture f;
  LatencyModel model(f.topo);
  // Base utilization 0.3 at the trough: loss = base only.
  EXPECT_NEAR(model.LinkLossRate(f.link, SimTime::FromHours(4.0)),
              model.options().base_loss, 1e-9);
}

TEST(LossModelTest, CongestionLossKicksInAboveOnset) {
  Fixture f;
  LatencyModel model(f.topo);
  model.AddUtilizationShock(f.link, SimTime(0), SimTime::FromHours(24), 0.6);
  const double congested =
      model.LinkLossRate(f.link, SimTime::FromHours(20.5));
  EXPECT_GT(congested, 10.0 * model.options().base_loss);
  EXPECT_LE(congested, 1.0);
}

TEST(LossModelTest, LossMonotoneInUtilization) {
  Fixture f;
  LatencyModel model(f.topo);
  double previous = -1.0;
  for (double extra : {0.0, 0.2, 0.4, 0.6}) {
    LatencyModel fresh(f.topo);
    fresh.AddUtilizationShock(f.link, SimTime(0), SimTime::FromHours(24),
                              extra);
    const double loss = fresh.LinkLossRate(f.link, SimTime::FromHours(20.5));
    EXPECT_GE(loss, previous);
    previous = loss;
  }
}

TEST(LossModelTest, PathLossCombinesBothDirections) {
  Fixture f;
  LatencyModel model(f.topo);
  BgpSimulator bgp(f.topo);
  auto route = bgp.Route(f.a, f.b);
  ASSERT_TRUE(route.ok());
  const SimTime t = SimTime::FromHours(4.0);
  const double link_loss = model.LinkLossRate(f.link, t);
  const double expected = 1.0 - (1.0 - link_loss) * (1.0 - link_loss);
  EXPECT_NEAR(model.PathRttAndLoss(route.value(), t).loss_rate, expected,
              1e-12);
}

TEST(LossModelTest, SpeedTestRecordsLossAndThroughputDrops) {
  Fixture f;
  auto sim = std::make_unique<NetworkSimulator>(std::move(f.topo));
  core::Rng rng(1);
  auto clean = measure::RunSpeedTest(*sim, f.a, f.b,
                                     measure::Intent::kBaseline, rng);
  ASSERT_TRUE(clean.ok());
  EXPECT_GT(clean.value().loss_rate, 0.0);
  EXPECT_LT(clean.value().loss_rate, 0.01);

  // Saturate the link: loss jumps, throughput collapses.
  sim->latency().AddUtilizationShock(f.link, SimTime(0),
                                     SimTime::FromHours(24), 0.7);
  double clean_sum = 0.0, lossy_sum = 0.0;
  for (int i = 0; i < 100; ++i) {
    lossy_sum += measure::RunSpeedTest(*sim, f.a, f.b,
                                       measure::Intent::kBaseline, rng)
                     .value()
                     .throughput_mbps;
  }
  sim->latency().ClearShocks();
  for (int i = 0; i < 100; ++i) {
    clean_sum += measure::RunSpeedTest(*sim, f.a, f.b,
                                       measure::Intent::kBaseline, rng)
                     .value()
                     .throughput_mbps;
  }
  EXPECT_LT(lossy_sum, 0.5 * clean_sum);
}

TEST(LossModelTest, MathisLimitScalesWithRttAndLoss) {
  // Two fixtures differing only in propagation: longer RTT -> lower
  // single-flow throughput at equal loss.
  Fixture near;
  Fixture far;
  far.topo.MutableLink(far.link).propagation_ms = 40.0;
  auto near_sim = std::make_unique<NetworkSimulator>(std::move(near.topo));
  auto far_sim = std::make_unique<NetworkSimulator>(std::move(far.topo));
  core::Rng rng(2);
  double near_sum = 0.0, far_sum = 0.0;
  for (int i = 0; i < 200; ++i) {
    near_sum += measure::RunSpeedTest(*near_sim, near.a, near.b,
                                      measure::Intent::kBaseline, rng)
                    .value()
                    .throughput_mbps;
    far_sum += measure::RunSpeedTest(*far_sim, far.a, far.b,
                                     measure::Intent::kBaseline, rng)
                   .value()
                   .throughput_mbps;
  }
  EXPECT_GT(near_sum, 1.5 * far_sum);
}

}  // namespace
}  // namespace sisyphus::netsim
