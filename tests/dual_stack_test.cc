// Tests for dual-stack routing: the IPv6 topology is the subgraph of
// v6-enabled links, so toggling the address family alters AS paths —
// the paper's §4 "toggle IPv4 vs IPv6" knob.
#include <gtest/gtest.h>

#include <memory>

#include "measure/speedtest.h"
#include "netsim/simulator.h"

namespace sisyphus::netsim {
namespace {

using core::Asn;

/// src multihomed to P1 (v4-only peering with dst's side) and P2
/// (dual stack). v4 prefers P1 (shorter prop/tiebreak); v6 must use P2.
struct Fixture {
  std::unique_ptr<NetworkSimulator> sim;
  PopIndex src = 0, dst = 0;
  core::LinkId src_p1, src_p2;

  Fixture() {
    Topology topo;
    const auto city = topo.cities().Add({"X", {0, 0}, 0});
    src = topo.AddPop(Asn{10}, city, AsRole::kAccess).value();
    const auto p1 = topo.AddPop(Asn{20}, city, AsRole::kTransit).value();
    const auto p2 = topo.AddPop(Asn{30}, city, AsRole::kTransit).value();
    dst = topo.AddPop(Asn{40}, city, AsRole::kContent).value();
    src_p1 = topo.AddLink(src, p1, Relationship::kCustomerToProvider).value();
    src_p2 = topo.AddLink(src, p2, Relationship::kCustomerToProvider).value();
    auto p1_dst = topo.AddLink(dst, p1, Relationship::kCustomerToProvider);
    EXPECT_TRUE(topo.AddLink(dst, p2, Relationship::kCustomerToProvider).ok());
    // P1's side never turned on v6.
    topo.MutableLink(src_p1).ipv6 = false;
    topo.MutableLink(p1_dst.value()).ipv6 = false;
    sim = std::make_unique<NetworkSimulator>(std::move(topo));
  }
};

TEST(DualStackTest, FamiliesConvergeOntoDifferentPaths) {
  Fixture f;
  auto v4 = f.sim->RouteBetween(f.src, f.dst, AddressFamily::kIpv4);
  auto v6 = f.sim->RouteBetween(f.src, f.dst, AddressFamily::kIpv6);
  ASSERT_TRUE(v4.ok());
  ASSERT_TRUE(v6.ok());
  EXPECT_TRUE(v4.value().CrossesAsn(Asn{20}));   // tiebreak: lower PoP
  EXPECT_TRUE(v6.value().CrossesAsn(Asn{30}));   // forced around v4-only
  EXPECT_NE(v4.value().asn_path, v6.value().asn_path);
}

TEST(DualStackTest, DefaultLinksAreDualStack) {
  Fixture f;
  // dst -> p2 path identical in both families (all links dual-stack).
  auto v4 = f.sim->bgp().Route(f.src, f.dst, AddressFamily::kIpv4);
  ASSERT_TRUE(v4.ok());
  // Disable the v4-only alternative entirely: now both families agree.
  f.sim->topology().MutableLink(f.src_p1).up = false;
  f.sim->bgp().InvalidateCache();
  auto v4b = f.sim->bgp().Route(f.src, f.dst, AddressFamily::kIpv4);
  auto v6b = f.sim->bgp().Route(f.src, f.dst, AddressFamily::kIpv6);
  ASSERT_TRUE(v4b.ok());
  ASSERT_TRUE(v6b.ok());
  EXPECT_EQ(v4b.value().asn_path, v6b.value().asn_path);
}

TEST(DualStackTest, V6OnlyPartitionReturnsNotFound) {
  Fixture f;
  // Kill v6 on the remaining dual-stack access link: v6 unreachable, v4
  // fine.
  f.sim->topology().MutableLink(f.src_p2).ipv6 = false;
  f.sim->bgp().InvalidateCache();
  EXPECT_TRUE(f.sim->RouteBetween(f.src, f.dst, AddressFamily::kIpv4).ok());
  auto v6 = f.sim->RouteBetween(f.src, f.dst, AddressFamily::kIpv6);
  ASSERT_FALSE(v6.ok());
  EXPECT_EQ(v6.error().code(), core::ErrorCode::kNotFound);
}

TEST(DualStackTest, CachesArePerFamily) {
  Fixture f;
  (void)f.sim->bgp().RoutesTo(f.dst, AddressFamily::kIpv4);
  (void)f.sim->bgp().RoutesTo(f.dst, AddressFamily::kIpv6);
  // Poisoning invalidates both family caches for that destination.
  f.sim->bgp().SetPoisonedAsns(f.dst, {Asn{30}});
  auto v4 = f.sim->bgp().Route(f.src, f.dst, AddressFamily::kIpv4);
  ASSERT_TRUE(v4.ok());
  EXPECT_FALSE(v4.value().CrossesAsn(Asn{30}));
  // v6 needed ASN 30 (its only v6 path): now unreachable.
  EXPECT_FALSE(f.sim->bgp().Route(f.src, f.dst, AddressFamily::kIpv6).ok());
}

TEST(DualStackTest, SpeedTestCarriesFamilyAndPath) {
  Fixture f;
  core::Rng rng(1);
  auto v4 = measure::RunSpeedTest(*f.sim, f.src, f.dst,
                                  measure::Intent::kBaseline, rng, {},
                                  AddressFamily::kIpv4);
  auto v6 = measure::RunSpeedTest(*f.sim, f.src, f.dst,
                                  measure::Intent::kBaseline, rng, {},
                                  AddressFamily::kIpv6);
  ASSERT_TRUE(v4.ok());
  ASSERT_TRUE(v6.ok());
  EXPECT_EQ(v4.value().address_family, AddressFamily::kIpv4);
  EXPECT_EQ(v6.value().address_family, AddressFamily::kIpv6);
  // The two families probe over different AS paths.
  const auto v4_route = f.sim->RouteBetween(f.src, f.dst, AddressFamily::kIpv4);
  const auto v6_route = f.sim->RouteBetween(f.src, f.dst, AddressFamily::kIpv6);
  ASSERT_TRUE(v4_route.ok());
  ASSERT_TRUE(v6_route.ok());
  EXPECT_NE(v4_route.value().asn_path, v6_route.value().asn_path);
}

TEST(DualStackTest, FamilyToggleActsAsInstrument) {
  // The paper's use case: per-test random AF assignment induces exogenous
  // path variation. Confirm the two families see different mean RTTs
  // when the v6 path is longer.
  Fixture f;
  f.sim->topology().MutableLink(f.src_p2).propagation_ms = 3.0;
  core::Rng rng(2);
  double v4_sum = 0.0, v6_sum = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    v4_sum += f.sim->SampleRtt(f.src, f.dst, rng,
                               AddressFamily::kIpv4).value();
    v6_sum += f.sim->SampleRtt(f.src, f.dst, rng,
                               AddressFamily::kIpv6).value();
  }
  EXPECT_GT(v6_sum / n, v4_sum / n + 3.0);
}

TEST(DualStackTest, FamilyNamesStable) {
  EXPECT_STREQ(ToString(AddressFamily::kIpv4), "ipv4");
  EXPECT_STREQ(ToString(AddressFamily::kIpv6), "ipv6");
}

}  // namespace
}  // namespace sisyphus::netsim
