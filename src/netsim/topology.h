// AS-level Internet topology at point-of-presence (PoP) granularity.
//
// A node is an AS's presence in one city ("ASN 3741 in Johannesburg").
// Working at ⟨ASN, city⟩ granularity is what lets the Table 1 experiment
// analyze units the way the paper does. Links carry a business
// relationship (customer/provider, settlement-free peer, or intra-AS) and
// optionally cross an IXP's peering LAN.
//
// Synthetic addressing: PoP i owns 10.(i>>8).(i&0xff).0/24 with router
// address .1; IXP k owns 196.60.k.0/24 and each member PoP gets a distinct
// host address on that LAN. The measurement layer matches traceroute hops
// against these prefixes exactly as the paper matches M-Lab hops against
// PeeringDB-announced IXP prefixes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/ids.h"
#include "core/result.h"
#include "netsim/geo.h"

namespace sisyphus::netsim {

/// Index of a PoP in the topology (dense, assigned on insertion).
using PopIndex = std::uint32_t;

/// Business relationship of a link, from the perspective of endpoint `a`.
enum class Relationship {
  kCustomerToProvider,  ///< a is the customer, b the provider
  kPeerToPeer,          ///< settlement-free peering
  kIntraAs,             ///< same ASN, internal backbone link
};

const char* ToString(Relationship relationship);

/// Coarse role, used by scenario builders and reporting.
enum class AsRole { kAccess, kTransit, kContent, kMeasurement };

struct Pop {
  core::Asn asn;
  core::CityId city;
  AsRole role = AsRole::kAccess;
  std::string label;  ///< "AS3741/Johannesburg"
};

struct Link {
  PopIndex a = 0;
  PopIndex b = 0;
  Relationship relationship = Relationship::kPeerToPeer;
  double propagation_ms = 0.1;   ///< one-way propagation + serialization
  double base_utilization = 0.3; ///< mean utilization before diurnal swing
  double diurnal_amplitude = 0.25;
  std::optional<core::IxpId> ixp;  ///< set when the link crosses an IXP LAN
  bool up = true;
  /// Dual-stack by default; false models a v4-only adjacency, so the
  /// IPv6 topology is a (possibly strict) subgraph — the paper's "toggle
  /// IPv4 vs IPv6 to alter AS paths" knob works because of exactly this
  /// asymmetry in real networks.
  bool ipv6 = true;
};

struct Ixp {
  std::string name;
  core::CityId city;
  /// Third octet of the 196.60.X.0/24 peering LAN.
  std::uint8_t lan_octet = 0;
};

/// IPv4 address helpers for the synthetic addressing plan.
struct Ipv4 {
  std::uint32_t value = 0;

  static Ipv4 FromOctets(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                         std::uint8_t d);
  std::string ToText() const;
  friend bool operator==(Ipv4 x, Ipv4 y) { return x.value == y.value; }
};

/// True when `address` lies inside `prefix`/`bits`.
bool InPrefix(Ipv4 address, Ipv4 prefix, int bits);

class Topology {
 public:
  CityRegistry& cities() { return cities_; }
  const CityRegistry& cities() const { return cities_; }

  /// Adds a PoP; (asn, city) pairs must be unique (kInvalidArgument).
  core::Result<PopIndex> AddPop(core::Asn asn, core::CityId city, AsRole role);

  /// Adds an IXP; its LAN octet is assigned sequentially. A 257th IXP is
  /// refused (kCapacity): it would share IXP 0's 196.60.0.0/24 LAN.
  core::Result<core::IxpId> AddIxp(std::string name, core::CityId city);

  /// Connects two PoPs. Distance-derived propagation delay unless
  /// `propagation_ms` is given. Duplicate links are rejected.
  core::Result<core::LinkId> AddLink(
      PopIndex a, PopIndex b, Relationship relationship,
      std::optional<core::IxpId> ixp = std::nullopt,
      std::optional<double> propagation_ms = std::nullopt);

  std::size_t PopCount() const { return pops_.size(); }
  std::size_t LinkCount() const { return links_.size(); }
  std::size_t IxpCount() const { return ixps_.size(); }

  const Pop& GetPop(PopIndex i) const;
  const Link& GetLink(core::LinkId id) const;
  Link& MutableLink(core::LinkId id);
  const Ixp& GetIxp(core::IxpId id) const;

  /// PoP by (asn, city); kNotFound when absent.
  core::Result<PopIndex> FindPop(core::Asn asn, core::CityId city) const;
  /// All PoPs of an ASN.
  std::vector<PopIndex> PopsOfAs(core::Asn asn) const;

  /// Links incident to a PoP.
  const std::vector<core::LinkId>& LinksOf(PopIndex i) const;
  /// The other endpoint of `link` as seen from `from`.
  PopIndex Neighbor(core::LinkId link, PopIndex from) const;
  /// True when `from` is the provider side of a customer/provider link.
  bool IsProviderSide(core::LinkId link, PopIndex from) const;

  /// Router address of a PoP (10.x.y.1).
  Ipv4 RouterAddress(PopIndex i) const;
  /// Address of PoP `member` on IXP `ixp`'s peering LAN.
  Ipv4 IxpLanAddress(core::IxpId ixp, PopIndex member) const;
  /// The IXP LAN prefix (196.60.k.0), /24.
  Ipv4 IxpLanPrefix(core::IxpId ixp) const;

  /// True when `address` is on any IXP LAN; outputs which.
  bool IsIxpAddress(Ipv4 address, core::IxpId* which = nullptr) const;

 private:
  CityRegistry cities_;
  std::vector<Pop> pops_;
  std::vector<Link> links_;
  std::vector<Ixp> ixps_;
  std::vector<std::vector<core::LinkId>> adjacency_;
};

}  // namespace sisyphus::netsim
