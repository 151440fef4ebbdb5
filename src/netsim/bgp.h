// BGP-style policy routing over a Topology.
//
// Implements the Gao–Rexford model: routes learned from customers are
// preferred over peer routes over provider routes, and a route learned
// from a peer or provider is only exported to customers (valley-free
// export). Selection below local preference is by AS-path length, then a
// deterministic tie-break. Convergence is computed synchronously to a
// fixed point per destination — adequate because experiments consume
// converged paths and change events, not MRAI-timescale dynamics
// (DESIGN.md §4).
//
// Route maintenance is *incremental* (DESIGN.md §14): a link or policy
// mutation repairs only the cached tables it can affect, by frontier
// reconvergence seeded from the changed adjacency, instead of dropping
// every converged table. A reverse link→destination index, maintained at
// cache-insert time, scopes link-down events to the destination cone that
// actually traverses the link. The SISYPHUS_BGP_CHECK environment variable
// enables a differential mode that recomputes every cached table from
// scratch after each repair and aborts on any divergence.
//
// Two intervention knobs mirror the paper's discussion:
//  - local-preference overrides per (PoP, link): the endogenous traffic-
//    engineering shifts (§3's C -> R edge) and operator policy changes;
//  - BGP poisoning per destination (PoiRoot-style): an origin can force
//    paths to avoid a chosen ASN — a clean exogenous instrument.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "core/ids.h"
#include "core/result.h"
#include "netsim/topology.h"

namespace sisyphus::netsim {

/// Address family of a routing computation. IPv6 uses only dual-stack
/// links (Link::ipv6), so v4 and v6 converge onto different paths when
/// the topologies differ — a controllable source of exogenous path
/// variation (§4).
enum class AddressFamily { kIpv4, kIpv6 };

const char* ToString(AddressFamily af);

/// How the best route to a destination was learned (Gao–Rexford class).
enum class RouteClass { kSelf, kCustomer, kPeer, kProvider };

const char* ToString(RouteClass cls);

/// Base local preference per class; overrides add to this.
double BasePreference(RouteClass cls);

/// A converged route from one PoP towards a destination PoP.
struct BgpRoute {
  std::vector<PopIndex> pop_path;   ///< this PoP first, destination last
  std::vector<core::Asn> asn_path;  ///< consecutive duplicates collapsed
  RouteClass cls = RouteClass::kSelf;
  double preference = 0.0;          ///< effective local preference

  /// Links traversed, aligned with pop_path steps (size = hops).
  std::vector<core::LinkId> links;

  bool CrossesAsn(core::Asn asn) const;
  bool CrossesIxp(const Topology& topology, core::IxpId ixp) const;
  std::string ToText(const Topology& topology) const;
};

/// Full route-content equality (path, ASNs, links, class, preference).
bool operator==(const BgpRoute& a, const BgpRoute& b);
inline bool operator!=(const BgpRoute& a, const BgpRoute& b) {
  return !(a == b);
}

/// All best routes towards one destination.
struct RouteTable {
  PopIndex destination = 0;
  /// best[i] = best route from PoP i; nullopt = unreachable.
  std::vector<std::optional<BgpRoute>> best;
  std::size_t sweeps = 0;  ///< sweeps to convergence (diagnostic)
};

/// Route-content equality between tables: destination and every best[]
/// entry. `sweeps` is a diagnostic of how the table was computed, not of
/// what it routes, and is deliberately excluded — an incrementally
/// repaired table and a from-scratch one must satisfy SameRoutes.
bool SameRoutes(const RouteTable& a, const RouteTable& b);

/// Outcome of one frontier repair of one cached table (DESIGN.md §14).
struct RepairStats {
  std::size_t rounds = 0;           ///< frontier rounds run (≈ sweeps)
  std::size_t pops_recomputed = 0;  ///< selection functions re-evaluated
  bool changed = false;             ///< any best[] entry actually changed
  bool fell_back = false;           ///< round cap hit; recomputed from scratch
};

class BgpSimulator {
 public:
  /// Holds a reference; the topology must outlive the simulator. Link
  /// up/down state is read from the topology on every computation.
  explicit BgpSimulator(const Topology& topology);

  /// Adds `delta` to the local preference of routes PoP `pop` learns over
  /// `link`. Positive deltas attract traffic to that link. Replaces any
  /// previous override. Cached tables are repaired incrementally from a
  /// frontier seeded at `pop` (only that PoP's selection changed).
  void SetLocalPrefOverride(PopIndex pop, core::LinkId link, double delta);
  void ClearLocalPrefOverride(PopIndex pop, core::LinkId link);

  /// Poisons `asns` in announcements originated by `destination`: any PoP
  /// whose ASN is poisoned discards the route (BGP loop detection), so
  /// converged paths avoid those ASNs. Only that destination's cached
  /// tables are dropped; all others are retained.
  void SetPoisonedAsns(PopIndex destination, std::set<core::Asn> asns);
  void ClearPoisonedAsns(PopIndex destination);

  /// Reconverges the cache after `link`'s up/down state was mutated in the
  /// topology. Link-down repairs only the destination cone — cached tables
  /// whose routes traverse the link, found via the reverse index; a
  /// removed offer that was never selected cannot change any other table.
  /// Link-up repairs every cached table (a new adjacency can create a
  /// shortcut anywhere), but the frontier seeded at the link's endpoints
  /// makes untouched tables O(endpoint degree) to confirm converged.
  void ApplyLinkEvent(core::LinkId link);

  /// Drops all cached tables. Still correct after any external topology
  /// mutation; ApplyLinkEvent is the cheap scoped alternative for link
  /// state flips.
  void InvalidateCache();

  /// Frontier reconvergence of `table` after `changed_links` were mutated:
  /// re-evaluates best-route selection only along the wavefront reachable
  /// from the changed adjacency, repairing the stale table in place
  /// instead of recomputing all n PoPs. Falls back to a from-scratch
  /// Compute if the defensive round cap is hit. The repaired table
  /// satisfies SameRoutes against a from-scratch computation.
  RepairStats RecomputeFrom(RouteTable& table,
                            const std::vector<core::LinkId>& changed_links,
                            AddressFamily af = AddressFamily::kIpv4) const;

  /// Converged routing table towards `destination` (cached per family).
  ///
  /// Thread-safe: the cache is mutex-guarded, so concurrent parallel tasks
  /// may query routes (std::map node stability keeps returned references
  /// valid across inserts). The policy/topology mutators above are NOT safe
  /// to call while queries are in flight — event processing stays serial by
  /// design (DESIGN.md §7).
  const RouteTable& RoutesTo(PopIndex destination,
                             AddressFamily af = AddressFamily::kIpv4);

  /// Computes (and caches) tables for every destination in `destinations`,
  /// fanning the per-destination convergence runs across the thread pool.
  /// Already-cached destinations are skipped; insertion happens afterwards
  /// in destination order, so cache contents — and the hit/miss metric
  /// counts of later queries — are independent of thread count.
  void WarmRoutes(const std::vector<PopIndex>& destinations,
                  AddressFamily af = AddressFamily::kIpv4);

  /// Best route from src to dst; kNotFound when unreachable.
  core::Result<BgpRoute> Route(PopIndex source, PopIndex destination,
                               AddressFamily af = AddressFamily::kIpv4);

  /// Route without the copy: the best route read in place from the cached
  /// table, with one RoutesTo read, or Route's kNotFound error. The
  /// pointer stays valid until the next policy or topology mutation.
  core::Result<const BgpRoute*> FindRoute(
      PopIndex source, PopIndex destination,
      AddressFamily af = AddressFamily::kIpv4);

  /// Number of cached (destination, family) tables.
  std::size_t CachedTableCount() const;

  /// True when the differential check mode is on: every repair is followed
  /// by a from-scratch recomputation of every cached table and a
  /// SameRoutes comparison (std::logic_error on divergence). Enabled by a
  /// non-empty, non-"0" SISYPHUS_BGP_CHECK environment variable.
  static bool DifferentialCheckEnabled();
  /// Test hook: 1 = force on, 0 = force off, -1 = back to the env var.
  static void SetDifferentialCheckForTest(int mode);

  const Topology& topology() const { return topology_; }

 private:
  using CacheKey = std::pair<PopIndex, AddressFamily>;

  /// Converges `destination`'s table from scratch and counts it in the
  /// netsim.bgp.tables_computed / convergence_sweeps metrics.
  RouteTable Compute(PopIndex destination, AddressFamily af) const;
  /// Compute without the metrics: the differential check's oracle, which
  /// leaves metrics.json as it would be with the check off.
  RouteTable Converge(PopIndex destination, AddressFamily af) const;

  /// One evaluation of PoP `u`'s selection function over its live
  /// neighbors' current routes in `table` — the shared relaxation operator
  /// of Compute's synchronous sweeps and the frontier repair, so both
  /// converge to identical routes.
  std::optional<BgpRoute> BestOfferAt(const RouteTable& table, PopIndex u,
                                      AddressFamily af) const;

  /// Link add/remove deltas (with multiplicity) accumulated by a repair:
  /// exactly the links of routes whose paths changed, so the reverse
  /// index can be updated in O(changed routes) instead of rescanning the
  /// whole table after every event.
  struct LinkDeltas {
    std::vector<core::LinkId> removed, added;
  };

  /// Frontier repair seeded at `seeds` (deduplicated PoPs). When `deltas`
  /// is non-null, path changes are recorded for index maintenance (not
  /// meaningful after a fell_back repair — the caller must rebuild).
  RepairStats RepairInPlace(RouteTable& table, AddressFamily af,
                            const std::vector<PopIndex>& seeds,
                            LinkDeltas* deltas = nullptr) const;

  /// Repairs `keys` (parallel, deterministic), reindexes them, emits the
  /// reconvergence-scope metrics/log line, and runs the differential
  /// check when enabled. Serial-context only (event processing).
  void RepairTables(const std::vector<CacheKey>& keys,
                    const std::vector<PopIndex>& seeds, const char* trigger);

  /// Per-link reference counts (#best routes traversing each link) of a
  /// full table — the from-scratch form of the reverse-index entry.
  std::map<core::LinkId, std::uint32_t> LinkCountsOf(
      const RouteTable& table) const;

  /// Reverse-index maintenance; cache_mu_ must be held. Reindex rebuilds
  /// a table's entry wholesale (insert / fallback path); ApplyLinkDeltas
  /// is the scoped per-event update.
  void ReindexTableLocked(const CacheKey& key,
                          std::map<core::LinkId, std::uint32_t> counts);
  void ApplyLinkDeltasLocked(const CacheKey& key, const LinkDeltas& deltas);
  void EraseTableLocked(const CacheKey& key);

  /// Recomputes every cached table from scratch and requires SameRoutes
  /// (SISYPHUS_BGP_CHECK differential mode).
  void RunDifferentialCheck(const char* trigger) const;

  const Topology& topology_;
  std::map<std::pair<PopIndex, core::LinkId>, double> pref_overrides_;
  std::map<PopIndex, std::set<core::Asn>> poisoned_;
  /// Guards cache_ and the reverse index (route queries are the one
  /// concurrent entry point).
  mutable std::mutex cache_mu_;
  mutable std::map<CacheKey, RouteTable> cache_;
  /// Reverse dependency index: which cached tables traverse each link,
  /// plus each table's per-link route refcounts (so repairs can update
  /// membership from their deltas without rescanning the table).
  mutable std::map<core::LinkId, std::set<CacheKey>> link_to_tables_;
  mutable std::map<CacheKey, std::map<core::LinkId, std::uint32_t>>
      table_links_;
};

}  // namespace sisyphus::netsim
