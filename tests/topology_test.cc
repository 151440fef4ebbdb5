// Tests for the PoP-level topology: construction rules, addressing plan,
// IXP LANs, adjacency queries.
#include <gtest/gtest.h>

#include "netsim/topology.h"

namespace sisyphus::netsim {
namespace {

using core::Asn;

struct Fixture {
  Topology topo;
  core::CityId jnb, cpt;
  PopIndex a_jnb, a_cpt, b_jnb, content;
  core::IxpId ixp;

  Fixture() {
    jnb = topo.cities().Add({"Johannesburg", {-26.20, 28.04}, 2.0});
    cpt = topo.cities().Add({"Cape Town", {-33.92, 18.42}, 2.0});
    a_jnb = topo.AddPop(Asn{100}, jnb, AsRole::kAccess).value();
    a_cpt = topo.AddPop(Asn{100}, cpt, AsRole::kAccess).value();
    b_jnb = topo.AddPop(Asn{200}, jnb, AsRole::kTransit).value();
    content = topo.AddPop(Asn{300}, jnb, AsRole::kContent).value();
    ixp = topo.AddIxp("NAPAfrica-JNB", jnb).value();
  }
};

TEST(Ipv4Test, FormattingAndPrefixMatch) {
  const Ipv4 addr = Ipv4::FromOctets(196, 60, 3, 17);
  EXPECT_EQ(addr.ToText(), "196.60.3.17");
  EXPECT_TRUE(InPrefix(addr, Ipv4::FromOctets(196, 60, 3, 0), 24));
  EXPECT_FALSE(InPrefix(addr, Ipv4::FromOctets(196, 60, 4, 0), 24));
  EXPECT_TRUE(InPrefix(addr, Ipv4::FromOctets(196, 60, 0, 0), 16));
  EXPECT_TRUE(InPrefix(addr, Ipv4::FromOctets(0, 0, 0, 0), 0));
  EXPECT_TRUE(InPrefix(addr, addr, 32));
}

TEST(TopologyTest, DuplicatePopRejected) {
  Fixture f;
  EXPECT_FALSE(f.topo.AddPop(Asn{100}, f.jnb, AsRole::kAccess).ok());
  EXPECT_EQ(f.topo.PopCount(), 4u);
}

TEST(TopologyTest, PopLookupAndLabels) {
  Fixture f;
  auto pop = f.topo.FindPop(Asn{100}, f.cpt);
  ASSERT_TRUE(pop.ok());
  EXPECT_EQ(pop.value(), f.a_cpt);
  EXPECT_EQ(f.topo.GetPop(f.a_cpt).label, "AS100/Cape Town");
  EXPECT_FALSE(f.topo.FindPop(Asn{999}, f.jnb).ok());
  EXPECT_EQ(f.topo.PopsOfAs(Asn{100}).size(), 2u);
}

TEST(TopologyTest, LinkRules) {
  Fixture f;
  // Intra-AS between different ASNs rejected.
  EXPECT_FALSE(
      f.topo.AddLink(f.a_jnb, f.b_jnb, Relationship::kIntraAs).ok());
  // Cross-AS link flagged kIntraAs rejected... and same-ASN link must be
  // intra.
  EXPECT_FALSE(
      f.topo.AddLink(f.a_jnb, f.a_cpt, Relationship::kPeerToPeer).ok());
  // Valid links.
  ASSERT_TRUE(f.topo.AddLink(f.a_jnb, f.a_cpt, Relationship::kIntraAs).ok());
  auto c2p =
      f.topo.AddLink(f.a_jnb, f.b_jnb, Relationship::kCustomerToProvider);
  ASSERT_TRUE(c2p.ok());
  // Duplicate rejected either direction.
  EXPECT_FALSE(
      f.topo.AddLink(f.b_jnb, f.a_jnb, Relationship::kPeerToPeer).ok());
  EXPECT_EQ(f.topo.LinkCount(), 2u);
  // Provider side identification: a (=a_jnb) is customer, b (=b_jnb)
  // provider.
  EXPECT_TRUE(f.topo.IsProviderSide(c2p.value(), f.b_jnb));
  EXPECT_FALSE(f.topo.IsProviderSide(c2p.value(), f.a_jnb));
}

TEST(TopologyTest, SelfLinkRejected) {
  Fixture f;
  EXPECT_FALSE(f.topo.AddLink(f.a_jnb, f.a_jnb, Relationship::kIntraAs).ok());
}

TEST(TopologyTest, PropagationDerivedFromGeographyWithMetroFloor) {
  Fixture f;
  auto same_city =
      f.topo.AddLink(f.a_jnb, f.b_jnb, Relationship::kCustomerToProvider);
  ASSERT_TRUE(same_city.ok());
  EXPECT_DOUBLE_EQ(f.topo.GetLink(same_city.value()).propagation_ms, 0.2);
  auto long_haul = f.topo.AddLink(f.a_jnb, f.a_cpt, Relationship::kIntraAs);
  ASSERT_TRUE(long_haul.ok());
  // ~1260 km * 1.6 / 204 ~ 9.9 ms.
  EXPECT_NEAR(f.topo.GetLink(long_haul.value()).propagation_ms, 9.9, 0.5);
}

TEST(TopologyTest, ExplicitPropagationOverride) {
  Fixture f;
  auto link = f.topo.AddLink(f.a_jnb, f.a_cpt, Relationship::kIntraAs,
                             std::nullopt, 42.0);
  ASSERT_TRUE(link.ok());
  EXPECT_DOUBLE_EQ(f.topo.GetLink(link.value()).propagation_ms, 42.0);
}

TEST(TopologyTest, AdjacencyAndNeighbor) {
  Fixture f;
  auto l1 = f.topo.AddLink(f.a_jnb, f.b_jnb, Relationship::kCustomerToProvider);
  auto l2 = f.topo.AddLink(f.a_jnb, f.a_cpt, Relationship::kIntraAs);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(f.topo.LinksOf(f.a_jnb).size(), 2u);
  EXPECT_EQ(f.topo.LinksOf(f.content).size(), 0u);
  EXPECT_EQ(f.topo.Neighbor(l1.value(), f.a_jnb), f.b_jnb);
  EXPECT_EQ(f.topo.Neighbor(l1.value(), f.b_jnb), f.a_jnb);
}

TEST(TopologyTest, RouterAddressingPlan) {
  Fixture f;
  EXPECT_EQ(f.topo.RouterAddress(0).ToText(), "10.0.0.1");
  EXPECT_EQ(f.topo.RouterAddress(1).ToText(), "10.0.1.1");
  // Distinct PoPs get distinct addresses.
  EXPECT_FALSE(f.topo.RouterAddress(0) == f.topo.RouterAddress(3));
}

TEST(TopologyTest, IxpLanAddressing) {
  Fixture f;
  const Ipv4 prefix = f.topo.IxpLanPrefix(f.ixp);
  EXPECT_EQ(prefix.ToText(), "196.60.0.0");
  const Ipv4 member = f.topo.IxpLanAddress(f.ixp, f.a_jnb);
  EXPECT_TRUE(InPrefix(member, prefix, 24));
  core::IxpId which;
  EXPECT_TRUE(f.topo.IsIxpAddress(member, &which));
  EXPECT_EQ(which, f.ixp);
  EXPECT_FALSE(f.topo.IsIxpAddress(f.topo.RouterAddress(f.a_jnb)));
}

TEST(TopologyTest, SecondIxpGetsDistinctLan) {
  Fixture f;
  const auto ixp2 = f.topo.AddIxp("NAPAfrica-CPT", f.cpt).value();
  EXPECT_EQ(f.topo.IxpLanPrefix(ixp2).ToText(), "196.60.1.0");
  EXPECT_EQ(f.topo.GetIxp(ixp2).name, "NAPAfrica-CPT");
}

TEST(TopologyTest, IxpBeyondTheLanOctetsIsRefused) {
  // The fixture holds IXP 0; IXPs 1..255 take the remaining LAN octets.
  Fixture f;
  core::IxpId last = f.ixp;
  for (int i = 1; i < 256; ++i) {
    const auto ixp = f.topo.AddIxp("IX-" + std::to_string(i), f.jnb);
    ASSERT_TRUE(ixp.ok()) << i;
    last = ixp.value();
  }
  EXPECT_EQ(f.topo.IxpCount(), 256u);
  EXPECT_EQ(f.topo.IxpLanPrefix(last).ToText(), "196.60.255.0");
  core::IxpId which;
  ASSERT_TRUE(
      f.topo.IsIxpAddress(f.topo.IxpLanAddress(last, f.a_jnb), &which));
  EXPECT_EQ(which, last);
  // A 257th would wrap onto IXP 0's 196.60.0.0/24.
  const auto wrapped = f.topo.AddIxp("IX-256", f.jnb);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.error().code(), core::ErrorCode::kCapacity);
  EXPECT_EQ(f.topo.IxpCount(), 256u);
  ASSERT_TRUE(
      f.topo.IsIxpAddress(f.topo.IxpLanAddress(f.ixp, f.a_jnb), &which));
  EXPECT_EQ(which, f.ixp);
}

TEST(TopologyTest, LinkWithIxpTag) {
  Fixture f;
  auto link = f.topo.AddLink(f.a_jnb, f.content, Relationship::kPeerToPeer,
                             f.ixp, 0.3);
  ASSERT_TRUE(link.ok());
  ASSERT_TRUE(f.topo.GetLink(link.value()).ixp.has_value());
  EXPECT_EQ(*f.topo.GetLink(link.value()).ixp, f.ixp);
}

TEST(RelationshipTest, NamesStable) {
  EXPECT_STREQ(ToString(Relationship::kCustomerToProvider), "c2p");
  EXPECT_STREQ(ToString(Relationship::kPeerToPeer), "p2p");
  EXPECT_STREQ(ToString(Relationship::kIntraAs), "intra");
}

}  // namespace
}  // namespace sisyphus::netsim
