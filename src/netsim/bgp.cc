#include "netsim/bgp.h"

#include <algorithm>
#include <cstdlib>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "obs/metrics.h"

namespace sisyphus::netsim {

using core::Asn;
using core::Error;
using core::ErrorCode;
using core::LinkId;
using core::Result;

const char* ToString(AddressFamily af) {
  switch (af) {
    case AddressFamily::kIpv4: return "ipv4";
    case AddressFamily::kIpv6: return "ipv6";
  }
  return "?";
}

const char* ToString(RouteClass cls) {
  switch (cls) {
    case RouteClass::kSelf: return "self";
    case RouteClass::kCustomer: return "customer";
    case RouteClass::kPeer: return "peer";
    case RouteClass::kProvider: return "provider";
  }
  return "?";
}

double BasePreference(RouteClass cls) {
  switch (cls) {
    case RouteClass::kSelf: return 400.0;
    case RouteClass::kCustomer: return 300.0;
    case RouteClass::kPeer: return 200.0;
    case RouteClass::kProvider: return 100.0;
  }
  return 0.0;
}

bool BgpRoute::CrossesAsn(Asn asn) const {
  return std::find(asn_path.begin(), asn_path.end(), asn) != asn_path.end();
}

bool BgpRoute::CrossesIxp(const Topology& topology, core::IxpId ixp) const {
  for (LinkId link : links) {
    const auto& l = topology.GetLink(link);
    if (l.ixp.has_value() && *l.ixp == ixp) return true;
  }
  return false;
}

std::string BgpRoute::ToText(const Topology& topology) const {
  std::string out;
  for (std::size_t i = 0; i < pop_path.size(); ++i) {
    if (i > 0) out += " ";
    out += topology.GetPop(pop_path[i]).label;
  }
  out += " [" + std::string(ToString(cls)) + "]";
  return out;
}

bool operator==(const BgpRoute& a, const BgpRoute& b) {
  return a.preference == b.preference && a.cls == b.cls &&
         a.pop_path == b.pop_path && a.asn_path == b.asn_path &&
         a.links == b.links;
}

bool SameRoutes(const RouteTable& a, const RouteTable& b) {
  if (a.destination != b.destination) return false;
  if (a.best.size() != b.best.size()) return false;
  for (std::size_t i = 0; i < a.best.size(); ++i) {
    if (a.best[i].has_value() != b.best[i].has_value()) return false;
    if (a.best[i].has_value() && !(*a.best[i] == *b.best[i])) return false;
  }
  return true;
}

namespace {

/// Differential-check override: -1 = honour SISYPHUS_BGP_CHECK, 0/1 force.
int g_differential_check_override = -1;

}  // namespace

bool BgpSimulator::DifferentialCheckEnabled() {
  if (g_differential_check_override >= 0) {
    return g_differential_check_override != 0;
  }
  static const bool from_env = [] {
    const char* env = std::getenv("SISYPHUS_BGP_CHECK");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
  }();
  return from_env;
}

void BgpSimulator::SetDifferentialCheckForTest(int mode) {
  g_differential_check_override = mode;
}

BgpSimulator::BgpSimulator(const Topology& topology) : topology_(topology) {}

void BgpSimulator::SetLocalPrefOverride(PopIndex pop, LinkId link,
                                        double delta) {
  pref_overrides_[{pop, link}] = delta;
  // Only `pop`'s selection function changed: every cached table is still a
  // fixed point everywhere else, so reconverge from a frontier of {pop}.
  std::vector<CacheKey> keys;
  {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    keys.reserve(cache_.size());
    for (const auto& [key, table] : cache_) keys.push_back(key);
  }
  RepairTables(keys, {pop}, "local_pref_set");
}

void BgpSimulator::ClearLocalPrefOverride(PopIndex pop, LinkId link) {
  pref_overrides_.erase({pop, link});
  std::vector<CacheKey> keys;
  {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    keys.reserve(cache_.size());
    for (const auto& [key, table] : cache_) keys.push_back(key);
  }
  RepairTables(keys, {pop}, "local_pref_clear");
}

void BgpSimulator::SetPoisonedAsns(PopIndex destination,
                                   std::set<Asn> asns) {
  poisoned_[destination] = std::move(asns);
  std::size_t dropped = 0;
  std::size_t retained = 0;
  {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    for (AddressFamily af : {AddressFamily::kIpv4, AddressFamily::kIpv6}) {
      const CacheKey key{destination, af};
      if (cache_.count(key) > 0) {
        EraseTableLocked(key);
        ++dropped;
      }
    }
    retained = cache_.size();
  }
  SISYPHUS_METRIC_COUNT("netsim.bgp.invalidated_destinations", dropped);
  SISYPHUS_METRIC_COUNT("netsim.bgp.retained_destinations", retained);
  (SISYPHUS_LOG(kDebug) << "bgp reconvergence scope")
      .With("trigger", "poison_set")
      .With("invalidated", static_cast<std::uint64_t>(dropped))
      .With("retained", static_cast<std::uint64_t>(retained));
  if (DifferentialCheckEnabled()) RunDifferentialCheck("poison_set");
}

void BgpSimulator::ClearPoisonedAsns(PopIndex destination) {
  poisoned_.erase(destination);
  std::size_t dropped = 0;
  std::size_t retained = 0;
  {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    for (AddressFamily af : {AddressFamily::kIpv4, AddressFamily::kIpv6}) {
      const CacheKey key{destination, af};
      if (cache_.count(key) > 0) {
        EraseTableLocked(key);
        ++dropped;
      }
    }
    retained = cache_.size();
  }
  SISYPHUS_METRIC_COUNT("netsim.bgp.invalidated_destinations", dropped);
  SISYPHUS_METRIC_COUNT("netsim.bgp.retained_destinations", retained);
  (SISYPHUS_LOG(kDebug) << "bgp reconvergence scope")
      .With("trigger", "poison_clear")
      .With("invalidated", static_cast<std::uint64_t>(dropped))
      .With("retained", static_cast<std::uint64_t>(retained));
  if (DifferentialCheckEnabled()) RunDifferentialCheck("poison_clear");
}

void BgpSimulator::ApplyLinkEvent(LinkId link) {
  const Link& l = topology_.GetLink(link);
  std::vector<CacheKey> affected;
  {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    if (l.up) {
      // A new adjacency can improve any table; the frontier confirms the
      // untouched ones converged in O(endpoint degree).
      affected.reserve(cache_.size());
      for (const auto& [key, table] : cache_) affected.push_back(key);
    } else if (const auto it = link_to_tables_.find(link);
               it != link_to_tables_.end()) {
      // Down: only tables whose best routes traverse the link can change —
      // removing a never-selected offer cannot flip any argmax.
      affected.assign(it->second.begin(), it->second.end());
    }
  }
  RepairTables(affected, {l.a, l.b}, l.up ? "link_up" : "link_down");
}

void BgpSimulator::InvalidateCache() {
  const std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.clear();
  link_to_tables_.clear();
  table_links_.clear();
}

std::size_t BgpSimulator::CachedTableCount() const {
  const std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

const RouteTable& BgpSimulator::RoutesTo(PopIndex destination,
                                         AddressFamily af) {
  const auto key = std::make_pair(destination, af);
  {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    const auto it = cache_.lower_bound(key);
    if (it != cache_.end() && it->first == key) {
      SISYPHUS_METRIC_COUNT("netsim.bgp.route_cache_hits", 1);
      return it->second;
    }
  }
  // Compute outside the lock (convergence is the expensive part; node
  // stability keeps concurrently returned references valid).
  SISYPHUS_METRIC_COUNT("netsim.bgp.route_cache_misses", 1);
  RouteTable table = Compute(destination, af);
  auto used = LinkCountsOf(table);
  const std::lock_guard<std::mutex> lock(cache_mu_);
  // Single walk: lower_bound doubles as the race re-probe and the
  // insertion hint (another thread may have filled the slot meanwhile).
  const auto it = cache_.lower_bound(key);
  if (it != cache_.end() && it->first == key) return it->second;
  const auto inserted = cache_.emplace_hint(it, key, std::move(table));
  ReindexTableLocked(key, std::move(used));
  return inserted->second;
}

void BgpSimulator::WarmRoutes(const std::vector<PopIndex>& destinations,
                              AddressFamily af) {
  // Cold destinations, deduplicated, in first-appearance order.
  std::vector<PopIndex> cold;
  {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    for (PopIndex destination : destinations) {
      if (cache_.count({destination, af}) > 0) continue;
      if (std::find(cold.begin(), cold.end(), destination) != cold.end()) {
        continue;
      }
      cold.push_back(destination);
    }
  }
  if (cold.empty()) return;
  auto tables = core::ParallelMap(
      cold.size(), [&](std::size_t i) { return Compute(cold[i], af); });
  const std::lock_guard<std::mutex> lock(cache_mu_);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    const CacheKey key{cold[i], af};
    const auto it = cache_.lower_bound(key);
    if (it != cache_.end() && it->first == key) continue;
    auto used = LinkCountsOf(tables[i]);
    cache_.emplace_hint(it, key, std::move(tables[i]));
    ReindexTableLocked(key, std::move(used));
  }
}

Result<BgpRoute> BgpSimulator::Route(PopIndex source, PopIndex destination,
                                     AddressFamily af) {
  const auto route = FindRoute(source, destination, af);
  if (!route.ok()) return route.error();
  return *route.value();
}

Result<const BgpRoute*> BgpSimulator::FindRoute(PopIndex source,
                                                PopIndex destination,
                                                AddressFamily af) {
  const RouteTable& table = RoutesTo(destination, af);
  if (source >= table.best.size() || !table.best[source].has_value()) {
    return Error(ErrorCode::kNotFound,
                 "Route: " + topology_.GetPop(source).label +
                     " cannot reach " + topology_.GetPop(destination).label);
  }
  return &*table.best[source];
}

namespace {

/// Strict "better" under BGP selection: preference, then AS-path length,
/// then PoP-path length, then lowest next-hop PoP index (determinism).
bool Better(const BgpRoute& a, const BgpRoute& b) {
  if (a.preference != b.preference) return a.preference > b.preference;
  if (a.asn_path.size() != b.asn_path.size())
    return a.asn_path.size() < b.asn_path.size();
  if (a.pop_path.size() != b.pop_path.size())
    return a.pop_path.size() < b.pop_path.size();
  // next hop = second element (paths of length 1 only at the destination).
  const PopIndex na = a.pop_path.size() > 1 ? a.pop_path[1] : a.pop_path[0];
  const PopIndex nb = b.pop_path.size() > 1 ? b.pop_path[1] : b.pop_path[0];
  return na < nb;
}

}  // namespace

std::optional<BgpRoute> BgpSimulator::BestOfferAt(const RouteTable& table,
                                                  PopIndex u,
                                                  AddressFamily af) const {
  const Asn u_asn = topology_.GetPop(u).asn;
  // Rebuild the best route from live neighbor offers, so withdrawals
  // (link down, neighbor lost its route) propagate.
  std::optional<BgpRoute> best;
  for (LinkId link : topology_.LinksOf(u)) {
    const Link& l = topology_.GetLink(link);
    if (!l.up) continue;
    if (af == AddressFamily::kIpv6 && !l.ipv6) continue;
    const PopIndex v = topology_.Neighbor(link, u);
    const auto& v_route = table.best[v];
    if (!v_route.has_value()) continue;

    const bool intra = l.relationship == Relationship::kIntraAs;
    // Export policy at v: always to customers and over intra-AS
    // links; otherwise only self/customer routes (valley-free).
    const bool u_is_customer_of_v = topology_.IsProviderSide(link, v);
    const bool v_exports =
        intra || u_is_customer_of_v ||
        v_route->cls == RouteClass::kSelf ||
        v_route->cls == RouteClass::kCustomer;
    if (!v_exports) continue;

    // Loop prevention.
    if (intra) {
      if (std::find(v_route->pop_path.begin(), v_route->pop_path.end(),
                    u) != v_route->pop_path.end()) {
        continue;
      }
    } else if (v_route->CrossesAsn(u_asn)) {
      continue;
    }

    BgpRoute candidate;
    candidate.pop_path.reserve(v_route->pop_path.size() + 1);
    candidate.pop_path.push_back(u);
    candidate.pop_path.insert(candidate.pop_path.end(),
                              v_route->pop_path.begin(),
                              v_route->pop_path.end());
    candidate.links.reserve(v_route->links.size() + 1);
    candidate.links.push_back(link);
    candidate.links.insert(candidate.links.end(), v_route->links.begin(),
                           v_route->links.end());
    candidate.asn_path = v_route->asn_path;
    if (candidate.asn_path.front() != u_asn) {
      candidate.asn_path.insert(candidate.asn_path.begin(), u_asn);
    }
    if (intra) {
      candidate.cls = v_route->cls;  // iBGP carries the class along
    } else if (topology_.IsProviderSide(link, u)) {
      candidate.cls = RouteClass::kCustomer;  // learned from customer
    } else if (l.relationship == Relationship::kPeerToPeer) {
      candidate.cls = RouteClass::kPeer;
    } else {
      candidate.cls = RouteClass::kProvider;
    }
    candidate.preference = BasePreference(candidate.cls);
    if (const auto it = pref_overrides_.find({u, link});
        it != pref_overrides_.end()) {
      candidate.preference += it->second;
    }
    if (!best.has_value() || Better(candidate, *best)) {
      best = std::move(candidate);
    }
  }
  return best;
}

RouteTable BgpSimulator::Compute(PopIndex destination,
                                 AddressFamily af) const {
  RouteTable table = Converge(destination, af);
  SISYPHUS_METRIC_COUNT("netsim.bgp.tables_computed", 1);
  SISYPHUS_METRIC_OBSERVE("netsim.bgp.convergence_sweeps",
                          static_cast<double>(table.sweeps));
  return table;
}

RouteTable BgpSimulator::Converge(PopIndex destination,
                                  AddressFamily af) const {
  const std::size_t n = topology_.PopCount();
  SISYPHUS_REQUIRE(destination < n, "Compute: bad destination");
  RouteTable table;
  table.destination = destination;
  table.best.assign(n, std::nullopt);

  BgpRoute self;
  self.pop_path = {destination};
  self.asn_path = {topology_.GetPop(destination).asn};
  self.cls = RouteClass::kSelf;
  self.preference = BasePreference(RouteClass::kSelf);
  table.best[destination] = std::move(self);

  const std::set<Asn>* poisoned = nullptr;
  if (const auto it = poisoned_.find(destination); it != poisoned_.end()) {
    poisoned = &it->second;
  }

  // Synchronous sweeps to a fixed point. Gao–Rexford preferences make the
  // system stable; the cap is a defensive bound.
  const std::size_t max_sweeps = n + 2;
  bool changed = true;
  while (changed && table.sweeps < max_sweeps) {
    changed = false;
    ++table.sweeps;
    for (PopIndex u = 0; u < n; ++u) {
      if (u == destination) continue;
      if (poisoned != nullptr &&
          poisoned->count(topology_.GetPop(u).asn) > 0) {
        continue;
      }
      std::optional<BgpRoute> best = BestOfferAt(table, u, af);
      // Adopt strictly better routes; also drop a best route whose next
      // hop link went down (handled implicitly: the candidate scan above
      // rebuilds from live neighbors only, so compare against rebuilt).
      if (best.has_value() != table.best[u].has_value() ||
          (best.has_value() && table.best[u].has_value() &&
           best->pop_path != table.best[u]->pop_path)) {
        table.best[u] = std::move(best);
        changed = true;
      }
    }
  }
  return table;
}

RepairStats BgpSimulator::RecomputeFrom(
    RouteTable& table, const std::vector<LinkId>& changed_links,
    AddressFamily af) const {
  std::vector<PopIndex> seeds;
  seeds.reserve(changed_links.size() * 2);
  for (LinkId link : changed_links) {
    const Link& l = topology_.GetLink(link);
    seeds.push_back(l.a);
    seeds.push_back(l.b);
  }
  return RepairInPlace(table, af, seeds);
}

RepairStats BgpSimulator::RepairInPlace(RouteTable& table, AddressFamily af,
                                        const std::vector<PopIndex>& seeds,
                                        LinkDeltas* deltas) const {
  const std::size_t n = topology_.PopCount();
  SISYPHUS_REQUIRE(table.best.size() == n, "RepairInPlace: table size");
  const PopIndex destination = table.destination;
  const std::set<Asn>* poisoned = nullptr;
  if (const auto it = poisoned_.find(destination); it != poisoned_.end()) {
    poisoned = &it->second;
  }

  RepairStats stats;
  // Frontier rounds mirror Compute's Gauss–Seidel sweeps: within a round
  // PoPs are processed in ascending index; a change at u is visible to
  // higher-index neighbors in the same round and to lower-index neighbors
  // in the next one — so the repair walks exactly the subsequence of
  // sweep evaluations whose inputs could have changed, and converges to
  // the same fixed point a full sweep would.
  std::set<PopIndex> current(seeds.begin(), seeds.end()), next;
  const std::size_t max_rounds = n + 2;
  while (!current.empty() && stats.rounds < max_rounds) {
    ++stats.rounds;
    while (!current.empty()) {
      const PopIndex u = *current.begin();
      current.erase(current.begin());
      if (u == destination) continue;
      if (poisoned != nullptr &&
          poisoned->count(topology_.GetPop(u).asn) > 0) {
        continue;
      }
      ++stats.pops_recomputed;
      std::optional<BgpRoute> best = BestOfferAt(table, u, af);
      const bool path_changed =
          best.has_value() != table.best[u].has_value() ||
          (best.has_value() && best->pop_path != table.best[u]->pop_path);
      // Unlike Compute's sweep (where a same-path candidate is always
      // field-identical), a policy change can reprice the same path, so
      // adopt on any route-content difference.
      const bool route_changed =
          path_changed ||
          (best.has_value() && !(*best == *table.best[u]));
      if (route_changed) {
        // Index deltas: links change only with the path (a repricing of
        // the same path keeps the same links). Multiple revisions of one
        // PoP across rounds accumulate; the refcounts net out.
        if (deltas != nullptr && path_changed) {
          if (table.best[u].has_value()) {
            deltas->removed.insert(deltas->removed.end(),
                                   table.best[u]->links.begin(),
                                   table.best[u]->links.end());
          }
          if (best.has_value()) {
            deltas->added.insert(deltas->added.end(), best->links.begin(),
                                 best->links.end());
          }
        }
        table.best[u] = std::move(best);
        stats.changed = true;
      }
      // Only a path/presence change alters what u exports to neighbors
      // (class and loop sets ride the path; the preference a neighbor
      // assigns is its own).
      if (!path_changed) continue;
      for (LinkId link : topology_.LinksOf(u)) {
        const Link& l = topology_.GetLink(link);
        if (!l.up) continue;
        if (af == AddressFamily::kIpv6 && !l.ipv6) continue;
        const PopIndex v = topology_.Neighbor(link, u);
        if (v == destination) continue;
        if (v > u) {
          current.insert(v);  // same round, still ahead of the cursor
        } else {
          next.insert(v);
        }
      }
    }
    current.swap(next);
  }
  if (!current.empty()) {
    // Defensive cap hit without convergence — recompute from scratch so
    // the correctness bar holds no matter what.
    table = Compute(destination, af);
    stats.fell_back = true;
    stats.changed = true;
  }
  return stats;
}

void BgpSimulator::RepairTables(const std::vector<CacheKey>& keys,
                                const std::vector<PopIndex>& seeds,
                                const char* trigger) {
  std::size_t retained = 0;
  std::size_t frontier_pops = 0;
  std::size_t tables_changed = 0;
  if (!keys.empty()) {
    // Distinct tasks touch distinct map nodes; event processing is serial
    // by design, so no queries race these in-place repairs (DESIGN.md §7).
    auto results = core::ParallelMap(keys.size(), [&](std::size_t i) {
      std::pair<RepairStats, LinkDeltas> result;
      result.first = RepairInPlace(cache_.at(keys[i]), keys[i].second, seeds,
                                   &result.second);
      return result;
    });
    const std::lock_guard<std::mutex> lock(cache_mu_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const RepairStats& stats = results[i].first;
      frontier_pops += stats.pops_recomputed;
      if (stats.changed) {
        ++tables_changed;
        if (stats.fell_back) {
          // Scratch recomputation invalidates the accumulated deltas.
          ReindexTableLocked(keys[i], LinkCountsOf(cache_.at(keys[i])));
        } else {
          ApplyLinkDeltasLocked(keys[i], results[i].second);
        }
      }
    }
    retained = cache_.size() - keys.size();
  } else {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    retained = cache_.size();
  }
  SISYPHUS_METRIC_COUNT("netsim.bgp.invalidated_destinations", keys.size());
  SISYPHUS_METRIC_COUNT("netsim.bgp.retained_destinations", retained);
  SISYPHUS_METRIC_COUNT("netsim.bgp.frontier_pops", frontier_pops);
  (SISYPHUS_LOG(kDebug) << "bgp reconvergence scope")
      .With("trigger", trigger)
      .With("repaired", static_cast<std::uint64_t>(keys.size()))
      .With("retained", static_cast<std::uint64_t>(retained))
      .With("changed", static_cast<std::uint64_t>(tables_changed))
      .With("frontier_pops", static_cast<std::uint64_t>(frontier_pops));
  if (DifferentialCheckEnabled()) RunDifferentialCheck(trigger);
}

void BgpSimulator::RunDifferentialCheck(const char* trigger) const {
  std::vector<CacheKey> keys;
  {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    keys.reserve(cache_.size());
    for (const auto& [key, table] : cache_) keys.push_back(key);
  }
  // Silent: the oracle's recomputation region is no simulation work.
  core::RegionTelemetrySilencer silencer;
  auto fresh = core::ParallelMap(keys.size(), [&](std::size_t i) {
    return Converge(keys[i].first, keys[i].second);
  });
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    SISYPHUS_REQUIRE(
        SameRoutes(cache_.at(keys[i]), fresh[i]),
        std::string("SISYPHUS_BGP_CHECK: incremental table diverged from "
                    "scratch after ") +
            trigger + " for destination " +
            topology_.GetPop(keys[i].first).label + " (" +
            ToString(keys[i].second) + ")");
  }
}

std::map<LinkId, std::uint32_t> BgpSimulator::LinkCountsOf(
    const RouteTable& table) const {
  std::map<LinkId, std::uint32_t> counts;
  for (const auto& route : table.best) {
    if (!route.has_value()) continue;
    for (LinkId link : route->links) ++counts[link];
  }
  return counts;
}

void BgpSimulator::ReindexTableLocked(
    const CacheKey& key, std::map<LinkId, std::uint32_t> counts) {
  auto& old_counts = table_links_[key];
  for (const auto& [link, count] : old_counts) {
    if (counts.count(link) > 0) continue;
    const auto it = link_to_tables_.find(link);
    if (it == link_to_tables_.end()) continue;
    it->second.erase(key);
    if (it->second.empty()) link_to_tables_.erase(it);
  }
  for (const auto& [link, count] : counts) {
    if (old_counts.count(link) == 0) link_to_tables_[link].insert(key);
  }
  old_counts = std::move(counts);
}

void BgpSimulator::ApplyLinkDeltasLocked(const CacheKey& key,
                                         const LinkDeltas& deltas) {
  auto& counts = table_links_[key];
  // Additions first: a link swapped between two routes in one repair then
  // never transits zero, avoiding index churn.
  for (LinkId link : deltas.added) {
    if (++counts[link] == 1) link_to_tables_[link].insert(key);
  }
  for (LinkId link : deltas.removed) {
    const auto it = counts.find(link);
    SISYPHUS_REQUIRE(it != counts.end() && it->second > 0,
                     "ApplyLinkDeltas: link refcount underflow");
    if (--it->second == 0) {
      counts.erase(it);
      const auto lt = link_to_tables_.find(link);
      if (lt != link_to_tables_.end()) {
        lt->second.erase(key);
        if (lt->second.empty()) link_to_tables_.erase(lt);
      }
    }
  }
}

void BgpSimulator::EraseTableLocked(const CacheKey& key) {
  if (const auto it = table_links_.find(key); it != table_links_.end()) {
    for (const auto& [link, count] : it->second) {
      const auto lt = link_to_tables_.find(link);
      if (lt == link_to_tables_.end()) continue;
      lt->second.erase(key);
      if (lt->second.empty()) link_to_tables_.erase(lt);
    }
    table_links_.erase(it);
  }
  cache_.erase(key);
}

}  // namespace sisyphus::netsim
