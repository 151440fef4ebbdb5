// Fault injection for the measurement platform.
//
// The paper's central warning is that real measurement archives are not
// clean panels: probes vanish, vantages go dark, traceroutes truncate,
// collectors duplicate and corrupt records, and clocks drift — and the
// missingness is often correlated with the very network conditions under
// study (MNAR). A FaultPlan describes that failure model declaratively; a
// FaultInjector executes it deterministically from a single seed, so any
// experiment can be replayed bit-for-bit on degraded data (DESIGN.md §5,
// "Failure model & degraded-data semantics").
//
// The injector is consulted by Platform on every probe attempt (probe
// loss, outage windows) and on every successful record (truncation,
// duplication, corruption, clock skew). Corrupted records are meant to be
// caught by the campaign store's quarantine, never by downstream
// estimators.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/sim_time.h"
#include "measure/speedtest.h"
#include "netsim/topology.h"

namespace sisyphus::measure {

/// Why a probe attempt produced no usable record.
enum class ProbeFault {
  kNone,             ///< the attempt succeeded
  kProbeLoss,        ///< the probe vanished (possibly congestion-coupled)
  kVantageOutage,    ///< the vantage was dark for the attempt window
  kCollectorOutage,  ///< the collector was down; the result was dropped
  kUnreachable,      ///< no route existed (network-level, not injected)
};

const char* ToString(ProbeFault fault);

/// A half-open dark window [start, end).
struct OutageWindow {
  core::SimTime start, end;

  bool Contains(core::SimTime t) const { return start <= t && t < end; }
};

/// Outage windows of one vantage PoP.
struct VantageOutagePlan {
  netsim::PopIndex pop = 0;
  std::vector<OutageWindow> windows;
};

/// Declarative failure model. All probabilities are per probe attempt /
/// per record; everything is driven by `seed` alone.
struct FaultPlan {
  std::uint64_t seed = 1;

  /// Baseline probability that a probe attempt is lost.
  double probe_loss_probability = 0.0;
  /// MNAR knob: extra loss probability per unit of congestion signal (the
  /// probed path's loss rate), so missingness correlates with exactly the
  /// conditions the causal analysis wants to measure. Effective loss is
  /// clamped to [0, 1].
  double mnar_loss_gain = 0.0;

  /// Per-vantage and collector-wide dark windows.
  std::vector<VantageOutagePlan> vantage_outages;
  std::vector<OutageWindow> collector_outages;

  /// Probability a successful test's traceroute is truncated (a uniform
  /// number of tail hops dropped, keeping at least `truncation_min_hops`).
  double traceroute_truncation_probability = 0.0;
  std::size_t truncation_min_hops = 1;

  /// Probability a record is delivered twice (collector at-least-once).
  double duplicate_probability = 0.0;
  /// Probability a record is corrupted in flight (negative RTT, bogus
  /// timestamp, impossible loss rate, non-finite throughput — one variant
  /// chosen at random). Quarantine fodder.
  double corruption_probability = 0.0;

  /// Bounded clock skew: record timestamps shift by a uniform offset in
  /// [-max_clock_skew, +max_clock_skew].
  core::SimTime max_clock_skew{0};
};

/// Deterministically places `count` windows of length `duration` uniformly
/// in [0, horizon - duration], sorted by start. Windows may overlap.
std::vector<OutageWindow> GenerateOutageWindows(std::uint64_t seed,
                                                core::SimTime horizon,
                                                std::size_t count,
                                                core::SimTime duration);

/// Canonical one-line serialization of a plan — equal plans produce equal
/// strings. Hash it (core::Fnv1a64Hex) for run-manifest provenance.
std::string FaultPlanFingerprint(const FaultPlan& plan);

/// Counters of what the injector actually did (diagnostics).
struct FaultStats {
  std::size_t probes_lost = 0;
  std::size_t vantage_outage_hits = 0;
  std::size_t collector_outage_hits = 0;
  std::size_t traceroutes_truncated = 0;
  std::size_t records_duplicated = 0;
  std::size_t records_corrupted = 0;
  std::size_t records_skewed = 0;
};

/// Executes a FaultPlan. Decisions are drawn from a caller-provided
/// generator (Platform passes its per-vantage forked stream, DESIGN.md §7),
/// each decision consuming exactly ONE draw that is then mixed with a
/// plan-seed-derived constant. Consequences:
///  - deterministic: the same plan and the same caller stream make
///    identical decisions in an identical call sequence;
///  - plan.seed still matters: two plans differing only in seed realize
///    different faults from the same caller stream;
///  - stream-aligned: every call consumes a fixed number of caller draws
///    regardless of plan probabilities or outcomes, so runs with different
///    plans (or none of the optional faults firing) stay comparable;
///  - thread-safe: the injector holds no generator state, and the stats
///    counters are atomic, so one injector can serve concurrent
///    per-vantage probe tasks.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  /// Snapshot of the fault counters (atomics copied into a plain struct).
  FaultStats stats() const;

  /// True while `pop` / the collector is inside a planned dark window.
  /// Const queries: no randomness, no counter updates.
  bool VantageDark(netsim::PopIndex pop, core::SimTime t) const;
  bool CollectorDark(core::SimTime t) const;

  /// Decides whether one probe attempt is lost. `congestion_signal` is the
  /// probed path's current loss rate (or any non-negative congestion
  /// proxy); with mnar_loss_gain > 0 it couples missingness to treatment.
  /// Consumes exactly one draw from `rng`.
  ProbeFault SampleProbeFault(double congestion_signal, core::Rng& rng);

  /// Applies record-level faults in place (clock skew, traceroute
  /// truncation, corruption). Returns true when the record should ALSO be
  /// delivered a second time (duplication). Always consumes the same
  /// number of draws from `rng` (six) regardless of outcome, so decision
  /// streams stay aligned across plans that differ only in probabilities.
  /// Truncation is decided from `path_hops`, the hop count of the probed
  /// path (ProbePath::hop_count); the traceroute itself is never built. A
  /// truncation that keeps no more than `ixp_hop` hops (ProbePath::ixp_hop,
  /// the index of the hop that shows the record's IXP crossing) cuts the
  /// crossing off, so the record's ixp_crossing is cleared. When
  /// `fault_mask` is non-null, the obs::kLineageFault* bits of the faults
  /// that actually fired are OR-ed into it (lineage provenance).
  bool ApplyRecordFaults(SpeedTestRecord& record, std::size_t path_hops,
                         std::size_t ixp_hop, core::Rng& rng,
                         std::uint8_t* fault_mask = nullptr);

 private:
  /// Atomic mirror of FaultStats (updated from concurrent probe tasks).
  struct AtomicFaultStats {
    std::atomic<std::size_t> probes_lost{0};
    std::atomic<std::size_t> vantage_outage_hits{0};
    std::atomic<std::size_t> collector_outage_hits{0};
    std::atomic<std::size_t> traceroutes_truncated{0};
    std::atomic<std::size_t> records_duplicated{0};
    std::atomic<std::size_t> records_corrupted{0};
    std::atomic<std::size_t> records_skewed{0};
  };

  /// One caller draw mixed with the plan seed, finalized to 64 bits.
  std::uint64_t DecisionBits(core::Rng& rng) const;
  /// Decision helpers built on DecisionBits (one draw each, fixed cost).
  double DecisionDouble(core::Rng& rng) const;
  bool DecisionBernoulli(core::Rng& rng, double p) const;
  std::int64_t DecisionInt(core::Rng& rng, std::int64_t lo,
                           std::int64_t hi) const;

  FaultPlan plan_;
  std::uint64_t mix_ = 0;  ///< plan-seed-derived decision mixing constant
  AtomicFaultStats stats_;
};

}  // namespace sisyphus::measure
