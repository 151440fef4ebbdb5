#include "measure/faults.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "obs/lineage.h"

namespace sisyphus::measure {

const char* ToString(ProbeFault fault) {
  switch (fault) {
    case ProbeFault::kNone: return "none";
    case ProbeFault::kProbeLoss: return "probe_loss";
    case ProbeFault::kVantageOutage: return "vantage_outage";
    case ProbeFault::kCollectorOutage: return "collector_outage";
    case ProbeFault::kUnreachable: return "unreachable";
  }
  return "?";
}

std::vector<OutageWindow> GenerateOutageWindows(std::uint64_t seed,
                                                core::SimTime horizon,
                                                std::size_t count,
                                                core::SimTime duration) {
  core::Rng rng(seed);
  std::vector<OutageWindow> out;
  out.reserve(count);
  const std::int64_t latest_start =
      std::max<std::int64_t>(0, horizon.minutes() - duration.minutes());
  for (std::size_t i = 0; i < count; ++i) {
    const core::SimTime start(rng.UniformInt(0, latest_start));
    out.push_back({start, start + duration});
  }
  std::sort(out.begin(), out.end(),
            [](const OutageWindow& a, const OutageWindow& b) {
              return a.start < b.start;
            });
  return out;
}

std::string FaultPlanFingerprint(const FaultPlan& plan) {
  const auto num = [](double v) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    return std::string(buffer);
  };
  std::string out = "seed=" + std::to_string(plan.seed);
  out += " loss=" + num(plan.probe_loss_probability);
  out += " mnar=" + num(plan.mnar_loss_gain);
  out += " trunc=" + num(plan.traceroute_truncation_probability);
  out += " trunc_min=" + std::to_string(plan.truncation_min_hops);
  out += " dup=" + num(plan.duplicate_probability);
  out += " corrupt=" + num(plan.corruption_probability);
  out += " skew=" + std::to_string(plan.max_clock_skew.minutes());
  for (const VantageOutagePlan& vantage : plan.vantage_outages) {
    out += " v" + std::to_string(vantage.pop) + "=[";
    for (const OutageWindow& window : vantage.windows) {
      out += std::to_string(window.start.minutes()) + "-" +
             std::to_string(window.end.minutes()) + ";";
    }
    out += "]";
  }
  for (const OutageWindow& window : plan.collector_outages) {
    out += " c=" + std::to_string(window.start.minutes()) + "-" +
           std::to_string(window.end.minutes());
  }
  return out;
}

namespace {

// SplitMix64 finalizer (stateless form) for decision mixing.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), mix_(Mix64(plan_.seed)) {}

FaultStats FaultInjector::stats() const {
  FaultStats out;
  out.probes_lost = stats_.probes_lost.load(std::memory_order_relaxed);
  out.vantage_outage_hits =
      stats_.vantage_outage_hits.load(std::memory_order_relaxed);
  out.collector_outage_hits =
      stats_.collector_outage_hits.load(std::memory_order_relaxed);
  out.traceroutes_truncated =
      stats_.traceroutes_truncated.load(std::memory_order_relaxed);
  out.records_duplicated =
      stats_.records_duplicated.load(std::memory_order_relaxed);
  out.records_corrupted =
      stats_.records_corrupted.load(std::memory_order_relaxed);
  out.records_skewed = stats_.records_skewed.load(std::memory_order_relaxed);
  return out;
}

std::uint64_t FaultInjector::DecisionBits(core::Rng& rng) const {
  return Mix64(rng.Next() ^ mix_);
}

double FaultInjector::DecisionDouble(core::Rng& rng) const {
  // 53 high bits -> [0,1), as Rng::NextDouble.
  return static_cast<double>(DecisionBits(rng) >> 11) * 0x1.0p-53;
}

bool FaultInjector::DecisionBernoulli(core::Rng& rng, double p) const {
  return DecisionDouble(rng) < p;
}

std::int64_t FaultInjector::DecisionInt(core::Rng& rng, std::int64_t lo,
                                        std::int64_t hi) const {
  // Fixed-width multiply-shift: exactly one draw (no rejection loop, so
  // consumption never depends on the drawn value); bias is span / 2^64.
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  const auto scaled = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(DecisionBits(rng)) * span) >> 64);
  return lo + static_cast<std::int64_t>(scaled);
}

bool FaultInjector::VantageDark(netsim::PopIndex pop, core::SimTime t) const {
  for (const VantageOutagePlan& vantage : plan_.vantage_outages) {
    if (vantage.pop != pop) continue;
    for (const OutageWindow& window : vantage.windows) {
      if (window.Contains(t)) return true;
    }
  }
  return false;
}

bool FaultInjector::CollectorDark(core::SimTime t) const {
  for (const OutageWindow& window : plan_.collector_outages) {
    if (window.Contains(t)) return true;
  }
  return false;
}

ProbeFault FaultInjector::SampleProbeFault(double congestion_signal,
                                           core::Rng& rng) {
  const double loss = std::clamp(
      plan_.probe_loss_probability +
          plan_.mnar_loss_gain * std::max(0.0, congestion_signal),
      0.0, 1.0);
  if (DecisionBernoulli(rng, loss)) {
    stats_.probes_lost.fetch_add(1, std::memory_order_relaxed);
    return ProbeFault::kProbeLoss;
  }
  return ProbeFault::kNone;
}

bool FaultInjector::ApplyRecordFaults(SpeedTestRecord& record,
                                      std::size_t path_hops,
                                      std::size_t ixp_hop, core::Rng& rng,
                                      std::uint8_t* fault_mask) {
  const auto mark = [fault_mask](std::uint8_t bit) {
    if (fault_mask != nullptr) *fault_mask |= bit;
  };
  // Clock skew first so corruption can still override the timestamp.
  const double skew_span =
      static_cast<double>(plan_.max_clock_skew.minutes());
  const double skew_minutes =
      -skew_span + 2.0 * skew_span * DecisionDouble(rng);
  if (plan_.max_clock_skew.minutes() > 0) {
    record.time =
        record.time + core::SimTime(static_cast<std::int64_t>(skew_minutes));
    stats_.records_skewed.fetch_add(1, std::memory_order_relaxed);
    mark(obs::kLineageFaultSkewed);
  }

  const bool truncate =
      DecisionBernoulli(rng, plan_.traceroute_truncation_probability);
  // Drawn unconditionally to keep the stream aligned (see header).
  const std::int64_t drop = DecisionInt(
      rng, 1,
      std::max<std::int64_t>(1, static_cast<std::int64_t>(path_hops)));
  if (truncate && path_hops > plan_.truncation_min_hops) {
    const std::size_t keep =
        std::max(plan_.truncation_min_hops,
                 path_hops - static_cast<std::size_t>(drop));
    if (keep < path_hops) {
      if (keep <= ixp_hop) record.ixp_crossing = kNoIxpCrossing;
      stats_.traceroutes_truncated.fetch_add(1, std::memory_order_relaxed);
      mark(obs::kLineageFaultTruncated);
    }
  }

  const bool corrupt = DecisionBernoulli(rng, plan_.corruption_probability);
  const std::int64_t variant = DecisionInt(rng, 0, 3);
  if (corrupt) {
    switch (variant) {
      case 0:  // negative RTT
        record.rtt_ms = -std::abs(record.rtt_ms) - 1.0;
        break;
      case 1:  // timestamp before the epoch
        record.time = core::SimTime(-1 - std::abs(record.time.minutes()));
        break;
      case 2:  // impossible loss rate
        record.loss_rate = 2.0;
        break;
      default:  // non-finite throughput
        record.throughput_mbps = std::numeric_limits<double>::quiet_NaN();
        break;
    }
    stats_.records_corrupted.fetch_add(1, std::memory_order_relaxed);
    mark(obs::kLineageFaultCorrupted);
  }

  const bool duplicate = DecisionBernoulli(rng, plan_.duplicate_probability);
  if (duplicate) {
    stats_.records_duplicated.fetch_add(1, std::memory_order_relaxed);
    mark(obs::kLineageFaultDuplicated);
  }
  return duplicate;
}

}  // namespace sisyphus::measure
