// Tests for traceroute simulation and IXP-crossing detection — the
// measurement primitive behind the paper's "does the path cross
// NAPAfrica" classification.
#include <gtest/gtest.h>

#include "measure/traceroute.h"
#include "netsim/bgp.h"

namespace sisyphus::measure {
namespace {

using core::Asn;
using netsim::AsRole;
using netsim::Relationship;
using netsim::Topology;

/// a -- b (transit) -- c, plus a peering a -- c across an IXP (down by
/// default).
struct Fixture {
  Topology topo;
  netsim::PopIndex a = 0, b = 0, c = 0;
  core::LinkId transit_ab, transit_bc, peering_ac;
  core::IxpId ixp;

  Fixture() {
    const auto city = topo.cities().Add({"X", {0, 0}, 0});
    a = topo.AddPop(Asn{1}, city, AsRole::kAccess).value();
    b = topo.AddPop(Asn{2}, city, AsRole::kTransit).value();
    c = topo.AddPop(Asn{3}, city, AsRole::kContent).value();
    ixp = topo.AddIxp("IX", city).value();
    transit_ab =
        topo.AddLink(a, b, Relationship::kCustomerToProvider).value();
    transit_bc =
        topo.AddLink(c, b, Relationship::kCustomerToProvider).value();
    peering_ac =
        topo.AddLink(a, c, Relationship::kPeerToPeer, ixp).value();
    topo.MutableLink(peering_ac).up = false;
  }
};

TEST(TracerouteTest, HopsFollowTransitPath) {
  Fixture f;
  netsim::BgpSimulator bgp(f.topo);
  auto route = bgp.Route(f.a, f.c);
  ASSERT_TRUE(route.ok());
  const Traceroute tr = SimulateTraceroute(f.topo, route.value());
  ASSERT_EQ(tr.hops.size(), 3u);
  EXPECT_EQ(tr.hops[0].address, f.topo.RouterAddress(f.a));
  EXPECT_EQ(tr.hops[1].address, f.topo.RouterAddress(f.b));
  EXPECT_EQ(tr.hops[2].address, f.topo.RouterAddress(f.c));
  EXPECT_EQ(tr.hops[1].asn, Asn{2});
  EXPECT_TRUE(DetectIxpCrossings(f.topo, tr).empty());
  EXPECT_FALSE(CrossesIxp(f.topo, tr, f.ixp));
}

TEST(TracerouteTest, IxpLanAddressAppearsWhenPeeringActive) {
  Fixture f;
  f.topo.MutableLink(f.peering_ac).up = true;
  netsim::BgpSimulator bgp(f.topo);
  auto route = bgp.Route(f.a, f.c);
  ASSERT_TRUE(route.ok());
  // Peer route beats provider: direct a -> c across the IXP.
  const Traceroute tr = SimulateTraceroute(f.topo, route.value());
  ASSERT_EQ(tr.hops.size(), 2u);
  // The far-side hop answers from the IXP LAN.
  EXPECT_EQ(tr.hops[1].address, f.topo.IxpLanAddress(f.ixp, f.c));
  const auto crossings = DetectIxpCrossings(f.topo, tr);
  ASSERT_EQ(crossings.size(), 1u);
  EXPECT_EQ(crossings[0], f.ixp);
  EXPECT_TRUE(CrossesIxp(f.topo, tr, f.ixp));
}

TEST(TracerouteTest, TextRendering) {
  Fixture f;
  netsim::BgpSimulator bgp(f.topo);
  auto route = bgp.Route(f.a, f.c);
  ASSERT_TRUE(route.ok());
  const Traceroute tr = SimulateTraceroute(f.topo, route.value());
  EXPECT_EQ(tr.ToText(), "10.0.0.1 10.0.1.1 10.0.2.1");
}

TEST(TracerouteTest, SelfRouteSingleHop) {
  Fixture f;
  netsim::BgpSimulator bgp(f.topo);
  auto route = bgp.Route(f.c, f.c);
  ASSERT_TRUE(route.ok());
  const Traceroute tr = SimulateTraceroute(f.topo, route.value());
  ASSERT_EQ(tr.hops.size(), 1u);
  EXPECT_EQ(tr.hops[0].pop, f.c);
}

TEST(TracerouteTest, DetectionDeduplicatesRepeatedLan) {
  // Two IXP-tagged links on one path: detection reports the IXP once.
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 0});
  const auto a = topo.AddPop(Asn{1}, city, AsRole::kAccess).value();
  const auto b = topo.AddPop(Asn{2}, city, AsRole::kTransit).value();
  const auto c = topo.AddPop(Asn{3}, city, AsRole::kContent).value();
  const auto ixp = topo.AddIxp("IX", city).value();
  ASSERT_TRUE(topo.AddLink(a, b, Relationship::kPeerToPeer, ixp).ok());
  ASSERT_TRUE(topo.AddLink(b, c, Relationship::kPeerToPeer, ixp).ok());
  netsim::BgpSimulator bgp(topo);
  // b reaches c via peer; a cannot reach c (valley-free) — use a -> b
  // and b -> c traceroutes separately, then a synthetic combined one.
  auto route_ab = bgp.Route(a, b);
  ASSERT_TRUE(route_ab.ok());
  auto route_bc = bgp.Route(b, c);
  ASSERT_TRUE(route_bc.ok());
  Traceroute combined = SimulateTraceroute(topo, route_ab.value());
  const Traceroute second = SimulateTraceroute(topo, route_bc.value());
  combined.hops.insert(combined.hops.end(), second.hops.begin() + 1,
                       second.hops.end());
  EXPECT_EQ(DetectIxpCrossings(topo, combined).size(), 1u);
}

}  // namespace
}  // namespace sisyphus::measure
