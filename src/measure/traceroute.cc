#include "measure/traceroute.h"

#include <algorithm>

namespace sisyphus::measure {

std::string Traceroute::ToText() const {
  std::string out;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i > 0) out += " ";
    out += hops[i].address.ToText();
  }
  return out;
}

Traceroute SimulateTraceroute(const netsim::Topology& topology,
                              const netsim::BgpRoute& route) {
  Traceroute out;
  if (route.pop_path.empty()) return out;
  // First hop: the source PoP's own router.
  {
    TracerouteHop hop;
    hop.pop = route.pop_path.front();
    hop.asn = topology.GetPop(hop.pop).asn;
    hop.address = topology.RouterAddress(hop.pop);
    out.hops.push_back(hop);
  }
  for (std::size_t i = 0; i + 1 < route.pop_path.size(); ++i) {
    const netsim::PopIndex next = route.pop_path[i + 1];
    const auto& link = topology.GetLink(route.links[i]);
    TracerouteHop hop;
    hop.pop = next;
    hop.asn = topology.GetPop(next).asn;
    // Across an IXP LAN the far router answers with its LAN interface.
    hop.address = link.ixp.has_value()
                      ? topology.IxpLanAddress(*link.ixp, next)
                      : topology.RouterAddress(next);
    out.hops.push_back(hop);
  }
  return out;
}

std::vector<core::IxpId> DetectIxpCrossings(const netsim::Topology& topology,
                                            const Traceroute& traceroute) {
  std::vector<core::IxpId> out;
  for (const auto& hop : traceroute.hops) {
    core::IxpId which;
    if (topology.IsIxpAddress(hop.address, &which) &&
        std::find(out.begin(), out.end(), which) == out.end()) {
      out.push_back(which);
    }
  }
  return out;
}

std::optional<IxpHop> FirstIxpHop(const netsim::Topology& topology,
                                  const netsim::BgpRoute& route) {
  // Hop i + 1 answers from link i's far side, on the IXP's LAN when the
  // link crosses one; the source router's hop never does.
  for (std::size_t i = 0; i + 1 < route.pop_path.size(); ++i) {
    const auto& ixp = topology.GetLink(route.links[i]).ixp;
    if (ixp.has_value()) return IxpHop{*ixp, i + 1};
  }
  return std::nullopt;
}

bool CrossesIxp(const netsim::Topology& topology, const Traceroute& traceroute,
                core::IxpId ixp) {
  const auto crossings = DetectIxpCrossings(topology, traceroute);
  return std::find(crossings.begin(), crossings.end(), ixp) != crossings.end();
}

}  // namespace sisyphus::measure
