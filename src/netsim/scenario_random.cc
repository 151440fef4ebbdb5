#include "netsim/scenario_random.h"

#include <cmath>

#include "core/error.h"
#include "core/rng.h"

namespace sisyphus::netsim {

namespace {
using core::Asn;
using core::CityId;

PopIndex MustPop(Topology& topo, Asn asn, CityId city, AsRole role) {
  auto pop = topo.AddPop(asn, city, role);
  SISYPHUS_REQUIRE(pop.ok(), "RandomInternet: AddPop failed");
  return pop.value();
}
}  // namespace

RandomInternet BuildRandomInternet(const RandomInternetOptions& options) {
  SISYPHUS_REQUIRE(options.tier1_count >= 1 && options.transit_count >= 1 &&
                       options.city_count >= 1,
                   "BuildRandomInternet: need at least one of each tier");
  core::Rng rng(options.seed);
  Topology topo;

  // Cities on a rough grid; time zones spread across the globe.
  std::vector<CityId> cities;
  for (std::size_t i = 0; i < options.city_count; ++i) {
    const double lat = -40.0 + 80.0 * rng.NextDouble();
    const double lon = -180.0 + 360.0 * rng.NextDouble();
    cities.push_back(topo.cities().Add(
        {"City" + std::to_string(i), {lat, lon}, std::floor(lon / 15.0)}));
  }
  auto random_city = [&] {
    return cities[static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(cities.size()) - 1))];
  };

  RandomInternet out;
  std::uint32_t next_asn = 1;

  // Tier-1 clique.
  for (std::size_t i = 0; i < options.tier1_count; ++i) {
    out.tier1.push_back(
        MustPop(topo, Asn{next_asn++}, random_city(), AsRole::kTransit));
  }
  for (std::size_t i = 0; i < out.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < out.tier1.size(); ++j) {
      SISYPHUS_REQUIRE(
          topo.AddLink(out.tier1[i], out.tier1[j], Relationship::kPeerToPeer)
              .ok(),
          "RandomInternet: tier1 mesh");
    }
  }

  // Regional transits: each buys from 1-2 tier-1s.
  for (std::size_t i = 0; i < options.transit_count; ++i) {
    const PopIndex node =
        MustPop(topo, Asn{next_asn++}, random_city(), AsRole::kTransit);
    out.transits.push_back(node);
    const auto up = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(out.tier1.size()) - 1));
    (void)topo.AddLink(node, out.tier1[up],
                       Relationship::kCustomerToProvider);
    if (rng.Bernoulli(0.5) && out.tier1.size() > 1) {
      const auto up2 = (up + 1) % out.tier1.size();
      (void)topo.AddLink(node, out.tier1[up2],
                         Relationship::kCustomerToProvider);
    }
  }

  // IXPs in the first `ixp_count` cities.
  for (std::size_t i = 0; i < options.ixp_count && i < cities.size(); ++i) {
    out.ixps.push_back(
        topo.AddIxp("IXP-" + std::to_string(i), cities[i]).value());
  }

  auto attach_to_transit = [&](PopIndex node) {
    const auto up = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(out.transits.size()) - 1));
    (void)topo.AddLink(node, out.transits[up],
                       Relationship::kCustomerToProvider);
    if (rng.Bernoulli(options.multihoming_probability) &&
        out.transits.size() > 1) {
      const auto up2 = (up + 1 + static_cast<std::size_t>(rng.UniformInt(
                                     0, static_cast<std::int64_t>(
                                            out.transits.size()) -
                                            2))) %
                       out.transits.size();
      (void)topo.AddLink(node, out.transits[up2],
                         Relationship::kCustomerToProvider);
    }
  };

  // Content networks.
  for (std::size_t i = 0; i < options.content_count; ++i) {
    const PopIndex node =
        MustPop(topo, Asn{next_asn++}, random_city(), AsRole::kContent);
    out.content.push_back(node);
    attach_to_transit(node);
  }

  // Access networks; some join their city's IXP, peering with the content
  // networks present there.
  for (std::size_t i = 0; i < options.access_count; ++i) {
    const CityId city = random_city();
    const PopIndex node =
        MustPop(topo, Asn{next_asn++}, city, AsRole::kAccess);
    out.access.push_back(node);
    attach_to_transit(node);
    for (std::size_t k = 0; k < out.ixps.size(); ++k) {
      if (topo.GetIxp(out.ixps[k]).city != city) continue;
      if (!rng.Bernoulli(options.ixp_membership_probability)) continue;
      for (PopIndex content : out.content) {
        if (topo.GetPop(content).city != city) continue;
        (void)topo.AddLink(node, content, Relationship::kPeerToPeer,
                           out.ixps[k]);
      }
    }
  }

  out.simulator = std::make_unique<NetworkSimulator>(std::move(topo));
  return out;
}

}  // namespace sisyphus::netsim
