#include "netsim/simulator.h"

#include <algorithm>

#include "core/error.h"
#include "core/logging.h"
#include "obs/metrics.h"

namespace sisyphus::netsim {

using core::Error;
using core::ErrorCode;
using core::Result;

NetworkSimulator::NetworkSimulator(Topology topology, core::SimTime tick,
                                   LatencyModelOptions latency_options)
    : topology_(std::move(topology)),
      bgp_(topology_),
      latency_(topology_, latency_options),
      tick_(tick) {
  SISYPHUS_REQUIRE(tick.minutes() > 0, "NetworkSimulator: zero tick");
}

void NetworkSimulator::AddTePolicy(TePolicy policy) {
  te_policies_.push_back(policy);
}

void NetworkSimulator::WatchPath(PopIndex source, PopIndex destination) {
  WatchedPair pair;
  pair.source = source;
  pair.destination = destination;
  if (auto route = bgp_.Route(source, destination); route.ok()) {
    pair.last_asn_path = route.value().asn_path;
  } else {
    // No route at watch time: record the state instead of silently
    // treating it as "unknown", so later path-change detection starts
    // from an explicit unreachable baseline.
    pair.unreachable_at_watch = true;
    SISYPHUS_METRIC_COUNT("netsim.watch.unreachable_at_watch", 1);
    (SISYPHUS_LOG(kWarn) << "WatchPath: initial route lookup failed")
        .With("source", topology_.GetPop(source).label)
        .With("destination", topology_.GetPop(destination).label)
        .With("error", route.error().message());
  }
  watched_.push_back(std::move(pair));
}

std::size_t NetworkSimulator::UnreachableWatchCount() const {
  std::size_t count = 0;
  for (const WatchedPair& pair : watched_) {
    if (pair.unreachable_at_watch) ++count;
  }
  return count;
}

void NetworkSimulator::ApplyEvent(const NetworkEvent& event) {
  switch (event.type) {
    case EventType::kLinkDown:
      SISYPHUS_REQUIRE(event.link.has_value(), "kLinkDown: missing link");
      topology_.MutableLink(*event.link).up = false;
      // Scoped reconvergence: repair only the destination cone that
      // traverses the link instead of dropping every converged table.
      bgp_.ApplyLinkEvent(*event.link);
      break;
    case EventType::kLinkUp:
      SISYPHUS_REQUIRE(event.link.has_value(), "kLinkUp: missing link");
      topology_.MutableLink(*event.link).up = true;
      bgp_.ApplyLinkEvent(*event.link);
      break;
    case EventType::kLocalPrefChange:
      SISYPHUS_REQUIRE(event.link.has_value(), "kLocalPrefChange: no link");
      bgp_.SetLocalPrefOverride(event.pop, *event.link, event.pref_delta);
      break;
    case EventType::kLocalPrefClear:
      SISYPHUS_REQUIRE(event.link.has_value(), "kLocalPrefClear: no link");
      bgp_.ClearLocalPrefOverride(event.pop, *event.link);
      break;
    case EventType::kCongestionShock:
      SISYPHUS_REQUIRE(event.link.has_value(), "kCongestionShock: no link");
      latency_.AddUtilizationShock(*event.link, event.time, event.shock_end,
                                   event.shock_extra);
      break;
    case EventType::kPoisonAsns:
      bgp_.SetPoisonedAsns(event.destination, event.asns);
      break;
    case EventType::kClearPoison:
      bgp_.ClearPoisonedAsns(event.destination);
      break;
    case EventType::kPopOutage:
      SISYPHUS_REQUIRE(event.shock_end > event.time,
                       "kPopOutage: empty window");
      pop_outages_.push_back({event.pop, event.time, event.shock_end});
      break;
  }
  SISYPHUS_METRIC_COUNT("netsim.events.applied", 1);
  if (event.exogenous) SISYPHUS_METRIC_COUNT("netsim.events.exogenous", 1);
  (SISYPHUS_LOG(kDebug) << "event applied")
      .With("time", event.time.ToText())
      .With("type", ToString(event.type))
      .With("description", event.description);
}

void NetworkSimulator::ApplyTePolicies() {
  for (TePolicy& policy : te_policies_) {
    const double utilization =
        latency_.LinkUtilization(policy.watched_link, now_);
    // Utilization summary over every watched link at every tick — the
    // netsim-side congestion picture behind MNAR loss coupling.
    static obs::Histogram* utilization_hist =
        obs::Registry::Global().GetHistogram(
            "netsim.link.utilization",
            {0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0});
    utilization_hist->Observe(utilization);
    if (!policy.active && utilization > policy.threshold) {
      bgp_.SetLocalPrefOverride(policy.pop, policy.watched_link,
                                policy.shift_delta);
      policy.active = true;
      SISYPHUS_METRIC_COUNT("netsim.te.shifts", 1);
      RecordPathChanges(
          "te:" + topology_.GetPop(policy.pop).label + " shift-away",
          /*exogenous=*/false);
    } else if (policy.active &&
               utilization < policy.threshold - policy.hysteresis) {
      bgp_.ClearLocalPrefOverride(policy.pop, policy.watched_link);
      policy.active = false;
      RecordPathChanges(
          "te:" + topology_.GetPop(policy.pop).label + " shift-back",
          /*exogenous=*/false);
    }
  }
}

void NetworkSimulator::RecordPathChanges(const std::string& trigger,
                                         bool exogenous) {
  // The scan below queries one route per watched pair; computing the cold
  // per-destination tables is the expensive part, so fan that out first.
  std::vector<PopIndex> destinations;
  destinations.reserve(watched_.size());
  for (const WatchedPair& pair : watched_) {
    destinations.push_back(pair.destination);
  }
  bgp_.WarmRoutes(destinations);
  for (WatchedPair& pair : watched_) {
    std::vector<core::Asn> current;
    if (auto route = bgp_.Route(pair.source, pair.destination); route.ok()) {
      current = route.value().asn_path;
    }
    if (current != pair.last_asn_path) {
      if (pair.unreachable_at_watch && !current.empty()) {
        // First transition out of the unreachable-at-watch state: from
        // here on the pair behaves like any other watched path.
        pair.unreachable_at_watch = false;
      }
      RouteChangeRecord record;
      record.time = now_;
      record.source = pair.source;
      record.destination = pair.destination;
      record.old_asn_path = pair.last_asn_path;
      record.new_asn_path = current;
      record.trigger = trigger;
      record.exogenous = exogenous;
      route_changes_.push_back(std::move(record));
      pair.last_asn_path = current;
      SISYPHUS_METRIC_COUNT("netsim.route_changes.recorded", 1);
    }
  }
}

void NetworkSimulator::ApplyNow(const NetworkEvent& event) {
  ApplyEvent(event);
  RecordPathChanges(event.description.empty()
                        ? std::string(ToString(event.type))
                        : event.description,
                    event.exogenous);
}

void NetworkSimulator::AdvanceTo(core::SimTime until) {
  SISYPHUS_REQUIRE(now_ <= until, "AdvanceTo: time moves forward only");
  while (now_ < until) {
    now_ = std::min(until, now_ + tick_);
    SISYPHUS_METRIC_GAUGE("netsim.events.pending",
                          static_cast<double>(schedule_.pending()));
    // Events due strictly before (or at) the new time.
    for (const NetworkEvent& event :
         schedule_.PopUntil(now_ + core::SimTime(1))) {
      ApplyEvent(event);
      RecordPathChanges(event.description.empty()
                            ? std::string(ToString(event.type))
                            : event.description,
                        event.exogenous);
    }
    ApplyTePolicies();
  }
}

Result<BgpRoute> NetworkSimulator::RouteBetween(PopIndex source,
                                                PopIndex destination,
                                                AddressFamily af) {
  return bgp_.Route(source, destination, af);
}

void NetworkSimulator::WarmRoutes(const std::vector<PopIndex>& destinations,
                                  AddressFamily af) {
  bgp_.WarmRoutes(destinations, af);
}

bool NetworkSimulator::PopDark(PopIndex pop, core::SimTime t) const {
  for (const PopOutage& outage : pop_outages_) {
    if (outage.pop == pop && outage.start <= t && t < outage.end) return true;
  }
  return false;
}

Result<double> NetworkSimulator::SampleRtt(PopIndex source,
                                           PopIndex destination,
                                           core::Rng& rng,
                                           AddressFamily af) {
  auto route = bgp_.Route(source, destination, af);
  if (!route.ok()) return route.error();
  return latency_.SampleRttMs(route.value(), now_, rng);
}

}  // namespace sisyphus::netsim
