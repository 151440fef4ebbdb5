// Tests for the Gao–Rexford BGP simulator: preference ordering,
// valley-free export, withdrawal on failure, policy overrides, poisoning,
// and a valley-freeness property sweep over random topologies.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "netsim/bgp.h"

namespace sisyphus::netsim {
namespace {

using core::Asn;
using core::LinkId;

/// Diamond: src buys transit from P1 and P2; both reach dst. P1 path is
/// longer (extra hop via M).
struct Diamond {
  Topology topo;
  PopIndex src, p1, p2, m, dst;
  LinkId src_p1, src_p2, p1_m, m_dst, p2_dst;

  Diamond() {
    const auto city = topo.cities().Add({"X", {0, 0}, 0});
    src = topo.AddPop(Asn{10}, city, AsRole::kAccess).value();
    const auto city2 = topo.cities().Add({"Y", {1, 1}, 0});
    p1 = topo.AddPop(Asn{20}, city2, AsRole::kTransit).value();
    const auto city3 = topo.cities().Add({"Z", {2, 2}, 0});
    p2 = topo.AddPop(Asn{30}, city3, AsRole::kTransit).value();
    const auto city4 = topo.cities().Add({"W", {3, 3}, 0});
    m = topo.AddPop(Asn{40}, city4, AsRole::kTransit).value();
    const auto city5 = topo.cities().Add({"V", {4, 4}, 0});
    dst = topo.AddPop(Asn{50}, city5, AsRole::kContent).value();
    src_p1 =
        topo.AddLink(src, p1, Relationship::kCustomerToProvider).value();
    src_p2 =
        topo.AddLink(src, p2, Relationship::kCustomerToProvider).value();
    p1_m = topo.AddLink(p1, m, Relationship::kCustomerToProvider).value();
    m_dst = topo.AddLink(m, dst, Relationship::kPeerToPeer).value();
    p2_dst = topo.AddLink(p2, dst, Relationship::kPeerToPeer).value();
  }
};

TEST(BgpTest, SelfRouteAtDestination) {
  Diamond d;
  BgpSimulator bgp(d.topo);
  auto route = bgp.Route(d.dst, d.dst);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().cls, RouteClass::kSelf);
  EXPECT_EQ(route.value().pop_path.size(), 1u);
}

TEST(BgpTest, ShorterAsPathPreferredAtEqualClass) {
  Diamond d;
  BgpSimulator bgp(d.topo);
  auto route = bgp.Route(d.src, d.dst);
  ASSERT_TRUE(route.ok());
  // Both providers give class kProvider; P2's path is shorter.
  EXPECT_EQ(route.value().asn_path,
            (std::vector<Asn>{Asn{10}, Asn{30}, Asn{50}}));
  EXPECT_EQ(route.value().cls, RouteClass::kProvider);
}

TEST(BgpTest, LocalPrefOverrideSteersPath) {
  Diamond d;
  BgpSimulator bgp(d.topo);
  bgp.SetLocalPrefOverride(d.src, d.src_p1, 50.0);
  auto route = bgp.Route(d.src, d.dst);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().asn_path.size(), 4u);  // via P1 -> M now
  bgp.ClearLocalPrefOverride(d.src, d.src_p1);
  route = bgp.Route(d.src, d.dst);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().asn_path.size(), 3u);  // back to P2
}

TEST(BgpTest, LinkFailureWithdrawsAndReroutes) {
  Diamond d;
  BgpSimulator bgp(d.topo);
  d.topo.MutableLink(d.src_p2).up = false;
  bgp.InvalidateCache();
  auto route = bgp.Route(d.src, d.dst);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().asn_path.size(), 4u);  // forced via P1
  // Total partition: no route at all.
  d.topo.MutableLink(d.src_p1).up = false;
  bgp.InvalidateCache();
  auto gone = bgp.Route(d.src, d.dst);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.error().code(), core::ErrorCode::kNotFound);
}

TEST(BgpTest, CustomerRoutePreferredOverPeerAndProvider) {
  // dst is reachable from t via its customer c AND via a peer p: customer
  // must win even if longer.
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 0});
  const auto t = topo.AddPop(Asn{1}, city, AsRole::kTransit).value();
  const auto c = topo.AddPop(Asn{2}, city, AsRole::kAccess).value();
  const auto p = topo.AddPop(Asn{3}, city, AsRole::kTransit).value();
  const auto mid = topo.AddPop(Asn{4}, city, AsRole::kAccess).value();
  const auto dst = topo.AddPop(Asn{5}, city, AsRole::kContent).value();
  // t's customer c reaches dst through its own customer mid (2 extra ASNs).
  ASSERT_TRUE(topo.AddLink(c, t, Relationship::kCustomerToProvider).ok());
  ASSERT_TRUE(topo.AddLink(mid, c, Relationship::kCustomerToProvider).ok());
  ASSERT_TRUE(topo.AddLink(dst, mid, Relationship::kCustomerToProvider).ok());
  // t's peer p reaches dst directly (shorter).
  ASSERT_TRUE(topo.AddLink(t, p, Relationship::kPeerToPeer).ok());
  ASSERT_TRUE(topo.AddLink(dst, p, Relationship::kCustomerToProvider).ok());
  BgpSimulator bgp(topo);
  auto route = bgp.Route(t, dst);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().cls, RouteClass::kCustomer);
  EXPECT_EQ(route.value().pop_path[1], c);
}

TEST(BgpTest, ValleyFreeExportPeerRouteNotGivenToPeer) {
  // a peers with b, b peers with dst. A valley-free b must NOT export its
  // peer route (to dst) to its other peer a.
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 0});
  const auto a = topo.AddPop(Asn{1}, city, AsRole::kAccess).value();
  const auto b = topo.AddPop(Asn{2}, city, AsRole::kTransit).value();
  const auto dst = topo.AddPop(Asn{3}, city, AsRole::kContent).value();
  ASSERT_TRUE(topo.AddLink(a, b, Relationship::kPeerToPeer).ok());
  ASSERT_TRUE(topo.AddLink(b, dst, Relationship::kPeerToPeer).ok());
  BgpSimulator bgp(topo);
  EXPECT_FALSE(bgp.Route(a, dst).ok());
}

TEST(BgpTest, ValleyFreeExportProviderRouteNotGivenToPeer) {
  // b buys from provider pr (which reaches dst); b must not export that
  // route to its peer a.
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 0});
  const auto a = topo.AddPop(Asn{1}, city, AsRole::kAccess).value();
  const auto b = topo.AddPop(Asn{2}, city, AsRole::kTransit).value();
  const auto pr = topo.AddPop(Asn{3}, city, AsRole::kTransit).value();
  const auto dst = topo.AddPop(Asn{4}, city, AsRole::kContent).value();
  ASSERT_TRUE(topo.AddLink(a, b, Relationship::kPeerToPeer).ok());
  ASSERT_TRUE(topo.AddLink(b, pr, Relationship::kCustomerToProvider).ok());
  ASSERT_TRUE(topo.AddLink(dst, pr, Relationship::kCustomerToProvider).ok());
  BgpSimulator bgp(topo);
  EXPECT_FALSE(bgp.Route(a, dst).ok());
  // But b itself reaches dst (via its provider).
  EXPECT_TRUE(bgp.Route(b, dst).ok());
}

TEST(BgpTest, IntraAsCarriesRouteAcrossCities) {
  // AS 10 has two PoPs; only the remote one has transit. The local PoP
  // must reach dst through the intra-AS backbone.
  Topology topo;
  const auto c1 = topo.cities().Add({"X", {0, 0}, 0});
  const auto c2 = topo.cities().Add({"Y", {1, 1}, 0});
  const auto local = topo.AddPop(Asn{10}, c1, AsRole::kAccess).value();
  const auto remote = topo.AddPop(Asn{10}, c2, AsRole::kAccess).value();
  const auto pr = topo.AddPop(Asn{20}, c2, AsRole::kTransit).value();
  const auto dst = topo.AddPop(Asn{30}, c2, AsRole::kContent).value();
  ASSERT_TRUE(topo.AddLink(local, remote, Relationship::kIntraAs).ok());
  ASSERT_TRUE(topo.AddLink(remote, pr, Relationship::kCustomerToProvider).ok());
  ASSERT_TRUE(topo.AddLink(dst, pr, Relationship::kCustomerToProvider).ok());
  BgpSimulator bgp(topo);
  auto route = bgp.Route(local, dst);
  ASSERT_TRUE(route.ok());
  // ASN path collapses the two AS-10 PoPs.
  EXPECT_EQ(route.value().asn_path,
            (std::vector<Asn>{Asn{10}, Asn{20}, Asn{30}}));
  EXPECT_EQ(route.value().pop_path.size(), 4u);
}

TEST(BgpTest, PoisoningAvoidsAsn) {
  Diamond d;
  BgpSimulator bgp(d.topo);
  // Baseline goes via P2 (ASN 30). Poison ASN 30 from dst.
  bgp.SetPoisonedAsns(d.dst, {Asn{30}});
  auto route = bgp.Route(d.src, d.dst);
  ASSERT_TRUE(route.ok());
  EXPECT_FALSE(route.value().CrossesAsn(Asn{30}));
  EXPECT_EQ(route.value().asn_path.size(), 4u);
  bgp.ClearPoisonedAsns(d.dst);
  route = bgp.Route(d.src, d.dst);
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route.value().CrossesAsn(Asn{30}));
}

TEST(BgpTest, PoisoningEverythingDisconnects) {
  Diamond d;
  BgpSimulator bgp(d.topo);
  bgp.SetPoisonedAsns(d.dst, {Asn{20}, Asn{30}});
  EXPECT_FALSE(bgp.Route(d.src, d.dst).ok());
}

TEST(BgpTest, RouteLinksAlignedWithPath) {
  Diamond d;
  BgpSimulator bgp(d.topo);
  auto route = bgp.Route(d.src, d.dst);
  ASSERT_TRUE(route.ok());
  ASSERT_EQ(route.value().links.size(), route.value().pop_path.size() - 1);
  for (std::size_t i = 0; i < route.value().links.size(); ++i) {
    const Link& link = d.topo.GetLink(route.value().links[i]);
    const PopIndex from = route.value().pop_path[i];
    const PopIndex to = route.value().pop_path[i + 1];
    EXPECT_TRUE((link.a == from && link.b == to) ||
                (link.a == to && link.b == from));
  }
}

TEST(BgpTest, CrossesIxpDetectsTaggedLink) {
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 0});
  const auto a = topo.AddPop(Asn{1}, city, AsRole::kAccess).value();
  const auto b = topo.AddPop(Asn{2}, city, AsRole::kContent).value();
  const auto ixp = topo.AddIxp("IX", city).value();
  ASSERT_TRUE(topo.AddLink(a, b, Relationship::kPeerToPeer, ixp).ok());
  BgpSimulator bgp(topo);
  auto route = bgp.Route(a, b);
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route.value().CrossesIxp(topo, ixp));
}

TEST(BgpTest, BasePreferenceOrdering) {
  EXPECT_GT(BasePreference(RouteClass::kSelf),
            BasePreference(RouteClass::kCustomer));
  EXPECT_GT(BasePreference(RouteClass::kCustomer),
            BasePreference(RouteClass::kPeer));
  EXPECT_GT(BasePreference(RouteClass::kPeer),
            BasePreference(RouteClass::kProvider));
}

// ---- Property sweep: valley-freeness on random topologies -------------------

class BgpValleyFreeTest : public ::testing::TestWithParam<int> {};

TEST_P(BgpValleyFreeTest, AllConvergedPathsAreValleyFree) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Random 3-tier topology: 3 tier-1 (peered), 5 tier-2 (buy from 1-2
  // tier-1s, some peer), 10 access (buy from 1-2 tier-2s).
  Topology topo;
  const auto city = topo.cities().Add({"X", {0, 0}, 0});
  std::vector<PopIndex> tier1, tier2, access;
  std::uint32_t asn = 1;
  for (int i = 0; i < 3; ++i) {
    tier1.push_back(
        topo.AddPop(Asn{asn++}, city, AsRole::kTransit).value());
  }
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      ASSERT_TRUE(
          topo.AddLink(tier1[i], tier1[j], Relationship::kPeerToPeer).ok());
    }
  }
  for (int i = 0; i < 5; ++i) {
    const auto node = topo.AddPop(Asn{asn++}, city, AsRole::kTransit).value();
    tier2.push_back(node);
    const auto up = static_cast<std::size_t>(rng.UniformInt(0, 2));
    ASSERT_TRUE(
        topo.AddLink(node, tier1[up], Relationship::kCustomerToProvider).ok());
    if (rng.Bernoulli(0.5)) {
      const auto up2 = (up + 1) % 3;
      ASSERT_TRUE(topo.AddLink(node, tier1[up2],
                               Relationship::kCustomerToProvider)
                      .ok());
    }
  }
  // Some tier-2 peering.
  for (std::size_t i = 0; i + 1 < tier2.size(); i += 2) {
    ASSERT_TRUE(
        topo.AddLink(tier2[i], tier2[i + 1], Relationship::kPeerToPeer).ok());
  }
  for (int i = 0; i < 10; ++i) {
    const auto node = topo.AddPop(Asn{asn++}, city, AsRole::kAccess).value();
    access.push_back(node);
    const auto up = static_cast<std::size_t>(rng.UniformInt(0, 4));
    ASSERT_TRUE(
        topo.AddLink(node, tier2[up], Relationship::kCustomerToProvider).ok());
    if (rng.Bernoulli(0.3)) {
      const auto up2 = (up + 2) % 5;
      ASSERT_TRUE(topo.AddLink(node, tier2[up2],
                               Relationship::kCustomerToProvider)
                      .ok());
    }
  }

  BgpSimulator bgp(topo);
  // Valley-free check: along any path, once we traverse a peer link or go
  // provider->customer (downhill), we must never go customer->provider
  // (uphill) or traverse another peer link.
  for (PopIndex dst : access) {
    const RouteTable& table = bgp.RoutesTo(dst);
    for (PopIndex src = 0; src < topo.PopCount(); ++src) {
      if (!table.best[src].has_value()) continue;
      const BgpRoute& route = *table.best[src];
      bool downhill = false;
      int peer_links = 0;
      for (std::size_t i = 0; i < route.links.size(); ++i) {
        const Link& link = topo.GetLink(route.links[i]);
        const PopIndex from = route.pop_path[i];
        if (link.relationship == Relationship::kIntraAs) continue;
        if (link.relationship == Relationship::kPeerToPeer) {
          ++peer_links;
          EXPECT_FALSE(downhill) << "peer link after downhill";
          downhill = true;  // after a peer link only downhill allowed
        } else if (topo.IsProviderSide(route.links[i], from)) {
          // provider -> customer: downhill.
          downhill = true;
        } else {
          // customer -> provider: uphill — only before any downhill move.
          EXPECT_FALSE(downhill)
              << "uphill after downhill in " << route.ToText(topo);
        }
      }
      EXPECT_LE(peer_links, 1) << route.ToText(topo);
      // Converged quickly.
      EXPECT_LE(table.sweeps, topo.PopCount() + 2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpValleyFreeTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace sisyphus::netsim
