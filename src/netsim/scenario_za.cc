#include "netsim/scenario_za.h"

#include <array>
#include <map>

#include "core/error.h"
#include "core/rng.h"

namespace sisyphus::netsim {

namespace {

using core::Asn;
using core::CityId;
using core::LinkId;
using core::SimTime;

constexpr double kZaUtcOffset = 2.0;

struct CitySpec {
  const char* name;
  double lat;
  double lon;
};

// Real coordinates; UTC+2 throughout (London handled separately).
constexpr std::array<CitySpec, 14> kZaCities{{
    {"Johannesburg", -26.20, 28.04},
    {"Cape Town", -33.92, 18.42},
    {"Durban", -29.86, 31.02},
    {"East London", -33.02, 27.90},
    {"Polokwane", -23.90, 29.45},
    {"Edenvale", -26.14, 28.15},
    {"eMuziwezinto", -30.26, 30.66},
    {"Gqeberha", -33.96, 25.61},
    {"Bloemfontein", -29.12, 26.21},
    {"Pretoria", -25.75, 28.19},
    {"Pietermaritzburg", -29.60, 30.38},
    {"Nelspruit", -25.47, 30.97},
    {"Kimberley", -28.73, 24.76},
    {"George", -33.96, 22.46},
}};

struct TreatedSpec {
  std::uint32_t asn;
  const char* city;
  double paper_delta_ms;  ///< Table 1 value we aim to resemble
  /// Extra one-way propagation on the IXP peering path: positive makes
  /// the post-IXP path slower (congested IXP port, longer metro ring).
  /// Shared per ASN — the first unit of an ASN fixes it.
  double ixp_extra_ms;
  /// Congestion of the unit's transit attachment (base, amplitude):
  /// heavier values make the pre-IXP path slower and noisier.
  double transit_base_util;
  double transit_amplitude;
  /// Attach transit at the provider's JNB hub instead of the nearest hub
  /// (some regional ISPs buy transit only in Johannesburg).
  bool transit_at_jnb;
  /// One-way propagation of the intra-AS backhaul to the JNB presence;
  /// < 0 = derive from city distance. Long coastal rings make the IXP
  /// path slower than direct regional transit — the mechanism behind the
  /// paper's *positive* deltas.
  double backhaul_prop_ms;
  /// One-way propagation of the transit access link; < 0 = derive.
  double transit_prop_ms;
};

// Table 1's eight units, calibrated so the simulated deltas resemble the
// paper's (sign and rough size); see DESIGN.md substitution table.
constexpr std::array<TreatedSpec, 8> kTreated{{
    {3741, "East London", +3.40, 1.72, 0.35, 0.25, true, 5.9, -1.0},
    {3741, "Johannesburg", +1.50, 1.72, 0.35, 0.25, false, -1.0, -1.0},
    {37053, "Cape Town", -0.12, 0.83, 0.35, 0.25, false, -1.0, -1.0},
    {37611, "Edenvale", -0.91, 0.27, 0.42, 0.25, false, -1.0, -1.0},
    {37680, "Durban", -2.20, 0.05, 0.38, 0.28, false, -1.0, -1.0},
    {327966, "Polokwane", -7.28, 0.30, 0.78, 0.15, false, -1.0, 2.2},
    {328622, "eMuziwezinto", -1.30, 0.30, 0.35, 0.25, false, -1.0, -1.0},
    {328745, "Johannesburg", +0.30, 1.24, 0.35, 0.25, false, -1.0, -1.0},
}};

// ASNs for infrastructure.
constexpr std::uint32_t kContentAsn = 64600;   // content + M-Lab servers
constexpr std::uint32_t kDomTransitA = 37100;  // domestic transit (Seacom-ish)
constexpr std::uint32_t kDomTransitB = 5713;   // domestic transit (SAIX-ish)
constexpr std::uint32_t kGlobalTransit = 6453; // trombones via London
constexpr std::uint32_t kFirstDonorAsn = 64700;

PopIndex MustPop(Topology& topo, Asn asn, CityId city, AsRole role) {
  auto pop = topo.AddPop(asn, city, role);
  SISYPHUS_REQUIRE(pop.ok(), "ScenarioZa: AddPop failed: " +
                                 (pop.ok() ? "" : pop.error().ToText()));
  return pop.value();
}

LinkId MustLink(Topology& topo, PopIndex a, PopIndex b, Relationship rel,
                std::optional<core::IxpId> ixp = std::nullopt,
                std::optional<double> prop = std::nullopt) {
  auto link = topo.AddLink(a, b, rel, ixp, prop);
  SISYPHUS_REQUIRE(link.ok(), "ScenarioZa: AddLink failed: " +
                                  (link.ok() ? "" : link.error().ToText()));
  return link.value();
}

}  // namespace

ScenarioZa BuildScenarioZa(const ScenarioZaOptions& options) {
  core::Rng rng(options.seed);
  Topology topo;

  // ---- Cities ----
  std::vector<CityId> city_ids;
  for (const auto& spec : kZaCities) {
    city_ids.push_back(topo.cities().Add(
        {spec.name, {spec.lat, spec.lon}, kZaUtcOffset}));
  }
  const CityId london =
      topo.cities().Add({"London", {51.51, -0.13}, 0.0});
  const CityId jnb = city_ids[0];
  const CityId cpt = city_ids[1];
  const CityId dur = city_ids[2];

  auto city_by_name = [&](const std::string& name) {
    auto id = topo.cities().Find(name);
    SISYPHUS_REQUIRE(id.ok(), "ScenarioZa: unknown city " + name);
    return id.value();
  };

  // ---- Destination: content + M-Lab, on-net in JNB and CPT, origin in
  // London. Intra-AS backbone connects the three.
  const PopIndex content_jnb = MustPop(topo, Asn(kContentAsn), jnb,
                                       AsRole::kContent);
  const PopIndex content_cpt = MustPop(topo, Asn(kContentAsn), cpt,
                                       AsRole::kContent);
  const PopIndex content_lon = MustPop(topo, Asn(kContentAsn), london,
                                       AsRole::kContent);
  MustLink(topo, content_jnb, content_cpt, Relationship::kIntraAs);
  MustLink(topo, content_jnb, content_lon, Relationship::kIntraAs);

  // ---- NAPAfrica-JNB ----
  ScenarioZa out;
  out.options = options;
  out.napafrica_jnb = topo.AddIxp("NAPAfrica-JNB", jnb).value();

  // ---- Transit providers ----
  // Domestic A: JNB, CPT, DUR. Peers with content at JNB (private PNI).
  const PopIndex dta_jnb = MustPop(topo, Asn(kDomTransitA), jnb, AsRole::kTransit);
  const PopIndex dta_cpt = MustPop(topo, Asn(kDomTransitA), cpt, AsRole::kTransit);
  const PopIndex dta_dur = MustPop(topo, Asn(kDomTransitA), dur, AsRole::kTransit);
  MustLink(topo, dta_jnb, dta_cpt, Relationship::kIntraAs);
  MustLink(topo, dta_jnb, dta_dur, Relationship::kIntraAs);
  MustLink(topo, dta_jnb, content_jnb, Relationship::kPeerToPeer, std::nullopt,
           0.35);

  // Domestic B: JNB, CPT, DUR, Bloemfontein. Also peers with content at JNB.
  const PopIndex dtb_jnb = MustPop(topo, Asn(kDomTransitB), jnb, AsRole::kTransit);
  const PopIndex dtb_cpt = MustPop(topo, Asn(kDomTransitB), cpt, AsRole::kTransit);
  const PopIndex dtb_dur = MustPop(topo, Asn(kDomTransitB), dur, AsRole::kTransit);
  const PopIndex dtb_bfn =
      MustPop(topo, Asn(kDomTransitB), city_by_name("Bloemfontein"),
              AsRole::kTransit);
  MustLink(topo, dtb_jnb, dtb_cpt, Relationship::kIntraAs);
  MustLink(topo, dtb_jnb, dtb_dur, Relationship::kIntraAs);
  MustLink(topo, dtb_jnb, dtb_bfn, Relationship::kIntraAs);
  MustLink(topo, dtb_jnb, content_jnb, Relationship::kPeerToPeer, std::nullopt,
           0.35);

  // Global transit: ZA PoPs backhauled to London; peers with content in
  // London only — the trombone.
  const PopIndex gt_jnb = MustPop(topo, Asn(kGlobalTransit), jnb, AsRole::kTransit);
  const PopIndex gt_cpt = MustPop(topo, Asn(kGlobalTransit), cpt, AsRole::kTransit);
  const PopIndex gt_lon = MustPop(topo, Asn(kGlobalTransit), london, AsRole::kTransit);
  MustLink(topo, gt_jnb, gt_lon, Relationship::kIntraAs);
  MustLink(topo, gt_cpt, gt_lon, Relationship::kIntraAs);
  MustLink(topo, gt_lon, content_lon, Relationship::kPeerToPeer, std::nullopt,
           0.35);
  // Domestic transits buy global transit (for completeness of the DFZ).
  MustLink(topo, dta_jnb, gt_jnb, Relationship::kCustomerToProvider);
  MustLink(topo, dtb_jnb, gt_jnb, Relationship::kCustomerToProvider);

  auto nearest_hub = [&](CityId city, PopIndex a_jnb, PopIndex a_cpt,
                         PopIndex a_dur) {
    const double to_jnb = topo.cities().DistanceKm(city, jnb);
    const double to_cpt = topo.cities().DistanceKm(city, cpt);
    const double to_dur = topo.cities().DistanceKm(city, dur);
    if (to_cpt <= to_jnb && to_cpt <= to_dur) return a_cpt;
    if (to_dur <= to_jnb && to_dur <= to_cpt) return a_dur;
    return a_jnb;
  };

  // ---- Treated access units ----
  // Treated ISPs may appear in several cities (AS3741 twice); each keeps a
  // single JNB presence used for the IXP peering.
  std::map<std::uint32_t, PopIndex> treated_jnb_pop;
  std::map<std::uint32_t, LinkId> treated_ixp_link;
  for (const auto& spec : kTreated) {
    const CityId city = city_by_name(spec.city);
    const Asn asn{spec.asn};
    // The PoP may already exist as another unit's JNB backhaul presence.
    PopIndex access;
    if (auto existing = topo.FindPop(asn, city); existing.ok()) {
      access = existing.value();
    } else {
      access = MustPop(topo, asn, city, AsRole::kAccess);
    }

    // Transit attachment at the nearest (or JNB) domestic hub; alternate
    // the provider by ASN parity for pool diversity.
    const bool use_a = spec.asn % 2 == 0;
    PopIndex hub;
    if (spec.transit_at_jnb) {
      hub = use_a ? dta_jnb : dtb_jnb;
    } else {
      hub = use_a ? nearest_hub(city, dta_jnb, dta_cpt, dta_dur)
                  : nearest_hub(city, dtb_jnb, dtb_cpt, dtb_dur);
    }
    const LinkId transit_link =
        MustLink(topo, access, hub, Relationship::kCustomerToProvider,
                 std::nullopt,
                 spec.transit_prop_ms >= 0.0
                     ? std::optional<double>(spec.transit_prop_ms)
                     : std::nullopt);
    topo.MutableLink(transit_link).base_utilization = spec.transit_base_util;
    topo.MutableLink(transit_link).diurnal_amplitude = spec.transit_amplitude;

    // JNB presence for IXP peering (reuse if this ASN already has one).
    PopIndex jnb_pop;
    if (const auto it = treated_jnb_pop.find(spec.asn);
        it != treated_jnb_pop.end()) {
      jnb_pop = it->second;
    } else if (city == jnb) {
      jnb_pop = access;
      treated_jnb_pop[spec.asn] = access;
    } else {
      jnb_pop = MustPop(topo, asn, jnb, AsRole::kAccess);
      treated_jnb_pop[spec.asn] = jnb_pop;
    }
    if (jnb_pop != access) {
      MustLink(topo, access, jnb_pop, Relationship::kIntraAs, std::nullopt,
               spec.backhaul_prop_ms >= 0.0
                   ? std::optional<double>(spec.backhaul_prop_ms)
                   : std::nullopt);
    }

    // Pre-provisioned IXP peering with the content network: down until the
    // treatment event. Propagation = metro 0.3 ms + calibration extra. One
    // peering session per ASN — units of the same ISP share it.
    LinkId ixp_link;
    if (const auto it = treated_ixp_link.find(spec.asn);
        it != treated_ixp_link.end()) {
      ixp_link = it->second;
    } else {
      ixp_link =
          MustLink(topo, jnb_pop, content_jnb, Relationship::kPeerToPeer,
                   out.napafrica_jnb,
                   std::max(0.05, 0.30 + spec.ixp_extra_ms));
      topo.MutableLink(ixp_link).up = false;
      topo.MutableLink(ixp_link).base_utilization = 0.30;
      topo.MutableLink(ixp_link).diurnal_amplitude = 0.25;
      treated_ixp_link[spec.asn] = ixp_link;
    }

    TreatedUnit unit;
    unit.name = std::to_string(spec.asn) + " / " + spec.city;
    unit.asn = asn;
    unit.city = spec.city;
    unit.access_pop = access;
    unit.ixp_link = ixp_link;
    unit.paper_delta_ms = spec.paper_delta_ms;
    out.treated.push_back(std::move(unit));
  }

  // ---- Donor pool ----
  for (std::size_t i = 0; i < options.donor_units; ++i) {
    const Asn asn{kFirstDonorAsn + static_cast<std::uint32_t>(i)};
    const CityId city = city_ids[i % city_ids.size()];
    const PopIndex access = MustPop(topo, asn, city, AsRole::kAccess);
    // Most donors ride domestic transit; every 7th is tromboned through
    // the global provider (realistic heterogeneity in levels).
    LinkId transit_link;
    if (i % 7 == 3) {
      const PopIndex hub = nearest_hub(city, gt_jnb, gt_cpt, gt_jnb);
      transit_link =
          MustLink(topo, access, hub, Relationship::kCustomerToProvider);
    } else if (i % 2 == 0) {
      const PopIndex hub = nearest_hub(city, dta_jnb, dta_cpt, dta_dur);
      transit_link =
          MustLink(topo, access, hub, Relationship::kCustomerToProvider);
    } else {
      const PopIndex hub = nearest_hub(city, dtb_jnb, dtb_cpt, dtb_dur);
      transit_link =
          MustLink(topo, access, hub, Relationship::kCustomerToProvider);
    }
    // Heterogeneous congestion profiles.
    topo.MutableLink(transit_link).base_utilization =
        0.28 + 0.015 * static_cast<double>(i % 8);
    topo.MutableLink(transit_link).diurnal_amplitude =
        0.20 + 0.02 * static_cast<double>(i % 5);
    out.donors.push_back(access);
    out.donor_names.push_back(std::to_string(asn.value()) + " / " +
                              topo.cities().Get(city).name);
  }

  // ---- Simulator + events ----
  out.simulator = std::make_unique<NetworkSimulator>(std::move(topo),
                                                     SimTime(15));
  out.content_jnb = content_jnb;

  for (const TreatedUnit& unit : out.treated) {
    NetworkEvent event;
    event.time = options.treatment_time;
    event.type = EventType::kLinkUp;
    event.exogenous = true;
    event.description = "NAPAfrica-JNB peering live: " + unit.name;
    event.link = unit.ixp_link;
    out.simulator->schedule().Add(event);
    out.simulator->WatchPath(unit.access_pop, content_jnb);
  }

  // Background churn so the donor pool is not noise-free: two congestion
  // shocks and one maintenance window, at times unrelated to treatment.
  const auto& topo_ref = out.simulator->topology();
  if (topo_ref.LinkCount() > 10) {
    NetworkEvent shock1;
    shock1.time = SimTime::FromDays(11);
    shock1.type = EventType::kCongestionShock;
    shock1.exogenous = true;
    shock1.description = "metro congestion (backhoe reroute)";
    shock1.link = LinkId(5);
    shock1.shock_end = SimTime::FromDays(12.5);
    shock1.shock_extra = 0.18;
    out.simulator->schedule().Add(shock1);

    NetworkEvent shock2;
    shock2.time = SimTime::FromDays(39);
    shock2.type = EventType::kCongestionShock;
    shock2.exogenous = true;
    shock2.description = "subsea capacity degradation";
    shock2.link = LinkId(8);
    shock2.shock_end = SimTime::FromDays(41);
    shock2.shock_extra = 0.15;
    out.simulator->schedule().Add(shock2);
  }

  return out;
}

}  // namespace sisyphus::netsim
