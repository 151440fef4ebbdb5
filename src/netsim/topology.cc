#include "netsim/topology.h"

#include <cstdio>

#include "core/error.h"
#include "core/logging.h"

namespace sisyphus::netsim {

using core::Asn;
using core::CityId;
using core::Error;
using core::ErrorCode;
using core::IxpId;
using core::LinkId;
using core::Result;

const char* ToString(Relationship relationship) {
  switch (relationship) {
    case Relationship::kCustomerToProvider: return "c2p";
    case Relationship::kPeerToPeer: return "p2p";
    case Relationship::kIntraAs: return "intra";
  }
  return "?";
}

Ipv4 Ipv4::FromOctets(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                      std::uint8_t d) {
  Ipv4 out;
  out.value = (static_cast<std::uint32_t>(a) << 24) |
              (static_cast<std::uint32_t>(b) << 16) |
              (static_cast<std::uint32_t>(c) << 8) | d;
  return out;
}

std::string Ipv4::ToText() const {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%u.%u.%u.%u", value >> 24,
                (value >> 16) & 0xff, (value >> 8) & 0xff, value & 0xff);
  return buffer;
}

bool InPrefix(Ipv4 address, Ipv4 prefix, int bits) {
  SISYPHUS_REQUIRE(bits >= 0 && bits <= 32, "InPrefix: bad mask length");
  if (bits == 0) return true;
  const std::uint32_t mask = bits == 32 ? ~0u : ~((1u << (32 - bits)) - 1);
  return (address.value & mask) == (prefix.value & mask);
}

Result<PopIndex> Topology::AddPop(Asn asn, CityId city, AsRole role) {
  if (FindPop(asn, city).ok()) {
    return Error(ErrorCode::kInvalidArgument,
                 "AddPop: duplicate PoP AS" + std::to_string(asn.value()) +
                     "/" + cities_.Get(city).name);
  }
  if (pops_.size() >= 1 << 16) {
    return Error(ErrorCode::kCapacity, "AddPop: PoP limit (65536) reached");
  }
  Pop pop;
  pop.asn = asn;
  pop.city = city;
  pop.role = role;
  pop.label = "AS" + std::to_string(asn.value()) + "/" + cities_.Get(city).name;
  pops_.push_back(std::move(pop));
  adjacency_.emplace_back();
  return static_cast<PopIndex>(pops_.size() - 1);
}

Result<IxpId> Topology::AddIxp(std::string name, CityId city) {
  // One /24 LAN per IXP, told apart by the third octet: ids must name
  // exactly one LAN.
  if (ixps_.size() > 0xff) {
    return Error(ErrorCode::kCapacity, "AddIxp: IXP limit (256) reached");
  }
  Ixp ixp;
  ixp.name = std::move(name);
  ixp.city = city;
  ixp.lan_octet = static_cast<std::uint8_t>(ixps_.size());
  ixps_.push_back(std::move(ixp));
  return IxpId(static_cast<IxpId::underlying_type>(ixps_.size() - 1));
}

Result<LinkId> Topology::AddLink(PopIndex a, PopIndex b,
                                 Relationship relationship,
                                 std::optional<IxpId> ixp,
                                 std::optional<double> propagation_ms) {
  if (a >= pops_.size() || b >= pops_.size() || a == b) {
    return Error(ErrorCode::kInvalidArgument, "AddLink: bad endpoints");
  }
  for (LinkId existing : adjacency_[a]) {
    const Link& link = links_[existing.value()];
    if ((link.a == a && link.b == b) || (link.a == b && link.b == a)) {
      return Error(ErrorCode::kInvalidArgument,
                   "AddLink: duplicate link " + pops_[a].label + " - " +
                       pops_[b].label);
    }
  }
  if (relationship == Relationship::kIntraAs &&
      pops_[a].asn != pops_[b].asn) {
    return Error(ErrorCode::kInvalidArgument,
                 "AddLink: intra-AS link between different ASNs");
  }
  if (relationship != Relationship::kIntraAs &&
      pops_[a].asn == pops_[b].asn) {
    return Error(ErrorCode::kInvalidArgument,
                 "AddLink: same-ASN link must be kIntraAs");
  }
  Link link;
  link.a = a;
  link.b = b;
  link.relationship = relationship;
  link.ixp = ixp;
  if (propagation_ms.has_value()) {
    link.propagation_ms = *propagation_ms;
  } else {
    const double km = cities_.DistanceKm(pops_[a].city, pops_[b].city);
    // Same-city links still traverse a metro: floor at 0.2 ms one way.
    link.propagation_ms = std::max(0.2, PropagationDelayMs(km));
  }
  links_.push_back(link);
  const LinkId id(static_cast<LinkId::underlying_type>(links_.size() - 1));
  adjacency_[a].push_back(id);
  adjacency_[b].push_back(id);
  (SISYPHUS_LOG(kDebug) << "link added")
      .With("a", pops_[a].label)
      .With("b", pops_[b].label)
      .With("relationship", ToString(relationship))
      .With("propagation_ms", link.propagation_ms);
  return id;
}

const Pop& Topology::GetPop(PopIndex i) const {
  SISYPHUS_REQUIRE(i < pops_.size(), "GetPop: bad index");
  return pops_[i];
}

const Link& Topology::GetLink(LinkId id) const {
  SISYPHUS_REQUIRE(id.value() < links_.size(), "GetLink: bad id");
  return links_[id.value()];
}

Link& Topology::MutableLink(LinkId id) {
  SISYPHUS_REQUIRE(id.value() < links_.size(), "MutableLink: bad id");
  return links_[id.value()];
}

const Ixp& Topology::GetIxp(IxpId id) const {
  SISYPHUS_REQUIRE(id.value() < ixps_.size(), "GetIxp: bad id");
  return ixps_[id.value()];
}

Result<PopIndex> Topology::FindPop(Asn asn, CityId city) const {
  for (std::size_t i = 0; i < pops_.size(); ++i) {
    if (pops_[i].asn == asn && pops_[i].city == city) {
      return static_cast<PopIndex>(i);
    }
  }
  return Error(ErrorCode::kNotFound,
               "FindPop: no PoP for AS" + std::to_string(asn.value()) +
                   " in city #" + std::to_string(city.value()));
}

std::vector<PopIndex> Topology::PopsOfAs(Asn asn) const {
  std::vector<PopIndex> out;
  for (std::size_t i = 0; i < pops_.size(); ++i) {
    if (pops_[i].asn == asn) out.push_back(static_cast<PopIndex>(i));
  }
  return out;
}

const std::vector<LinkId>& Topology::LinksOf(PopIndex i) const {
  SISYPHUS_REQUIRE(i < adjacency_.size(), "LinksOf: bad index");
  return adjacency_[i];
}

PopIndex Topology::Neighbor(LinkId link, PopIndex from) const {
  const Link& l = GetLink(link);
  SISYPHUS_REQUIRE(l.a == from || l.b == from, "Neighbor: PoP not on link");
  return l.a == from ? l.b : l.a;
}

bool Topology::IsProviderSide(LinkId link, PopIndex from) const {
  const Link& l = GetLink(link);
  return l.relationship == Relationship::kCustomerToProvider && l.b == from;
}

Ipv4 Topology::RouterAddress(PopIndex i) const {
  SISYPHUS_REQUIRE(i < pops_.size(), "RouterAddress: bad index");
  return Ipv4::FromOctets(10, static_cast<std::uint8_t>(i >> 8),
                          static_cast<std::uint8_t>(i & 0xff), 1);
}

Ipv4 Topology::IxpLanAddress(IxpId ixp, PopIndex member) const {
  SISYPHUS_REQUIRE(ixp.value() < ixps_.size(), "IxpLanAddress: bad ixp");
  // Host part derived from the PoP index; keeps addresses distinct for up
  // to 254 members per IXP, ample for scenarios.
  const std::uint8_t host = static_cast<std::uint8_t>(1 + (member % 254));
  return Ipv4::FromOctets(196, 60, ixps_[ixp.value()].lan_octet, host);
}

Ipv4 Topology::IxpLanPrefix(IxpId ixp) const {
  SISYPHUS_REQUIRE(ixp.value() < ixps_.size(), "IxpLanPrefix: bad ixp");
  return Ipv4::FromOctets(196, 60, ixps_[ixp.value()].lan_octet, 0);
}

bool Topology::IsIxpAddress(Ipv4 address, IxpId* which) const {
  for (std::size_t k = 0; k < ixps_.size(); ++k) {
    if (InPrefix(address, Ipv4::FromOctets(196, 60, ixps_[k].lan_octet, 0),
                 24)) {
      if (which != nullptr)
        *which = IxpId(static_cast<IxpId::underlying_type>(k));
      return true;
    }
  }
  return false;
}

}  // namespace sisyphus::netsim
