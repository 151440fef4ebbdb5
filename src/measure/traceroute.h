// Traceroute simulation over converged BGP paths.
//
// Hops are the router addresses a real traceroute would elicit. When a
// link crosses an IXP peering LAN, the responding interface on the far
// side is that router's address *on the LAN* (196.60.x.y) — which is
// exactly the artifact the paper exploits: matching hop IPs against the
// IXP's announced prefix reveals whether the path crosses the IXP.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/ids.h"
#include "netsim/bgp.h"
#include "netsim/topology.h"

namespace sisyphus::measure {

struct TracerouteHop {
  netsim::Ipv4 address;
  core::Asn asn;           ///< owner of the responding router
  netsim::PopIndex pop = 0;
};

struct Traceroute {
  std::vector<TracerouteHop> hops;  ///< source router first, dest last

  /// "10.0.0.1 196.60.0.3 10.0.2.1".
  std::string ToText() const;
};

/// Builds the traceroute a probe at route.pop_path.front() would observe.
Traceroute SimulateTraceroute(const netsim::Topology& topology,
                              const netsim::BgpRoute& route);

/// IXPs whose peering LAN appears among the hops (the paper's detection
/// rule). Deduplicated, in first-seen order.
std::vector<core::IxpId> DetectIxpCrossings(const netsim::Topology& topology,
                                            const Traceroute& traceroute);

/// The first hop of a route's traceroute that answers from an IXP peering
/// LAN: that IXP and the hop's index.
struct IxpHop {
  core::IxpId ixp;
  std::size_t hop = 0;
};

/// What DetectIxpCrossings(topology, SimulateTraceroute(topology, route))
/// reports first, with its hop index, found without building the
/// traceroute; nullopt when no hop is on an IXP LAN.
std::optional<IxpHop> FirstIxpHop(const netsim::Topology& topology,
                                  const netsim::BgpRoute& route);

/// True iff `traceroute` crosses the given IXP.
bool CrossesIxp(const netsim::Topology& topology, const Traceroute& traceroute,
                core::IxpId ixp);

}  // namespace sisyphus::measure
