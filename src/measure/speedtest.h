// Speed tests: the measurement primitive of the Table 1 case study.
//
// A speed test records RTT and throughput between a vantage point (user
// behind an access ⟨ASN, city⟩ PoP) and a measurement server. Every
// record carries an intent tag — one of the paper's §4 platform
// proposals — so analysts can condition on *why* a measurement exists
// and avoid collider bias when they must.
//
// A SpeedTestRecord is a trivially copyable scalar value: its
// ⟨ASN, city⟩ unit is a pointer-sized Unit handle to an interned entry,
// never a string of its own. The traceroute triggered after the test (as
// M-Lab does) is not kept either: what the paper reads from it — the IXP
// whose peering LAN the hops first cross — is resolved once per probe
// path and rides on the record as one IXP id (DESIGN.md §10).
#pragma once

#include <string>
#include <string_view>
#include <type_traits>

#include "core/ids.h"
#include "core/rng.h"
#include "core/sim_time.h"
#include "measure/traceroute.h"
#include "netsim/simulator.h"

namespace sisyphus::measure {

/// Why a measurement was taken (§4 proposal 2: intent tagging).
enum class Intent {
  kBaseline,        ///< scheduled, state-independent (exogenous timing)
  kUserInitiated,   ///< user ran a test — more likely when things look bad
  kEventTriggered,  ///< platform reacted to an external signal (BGP change)
};

const char* ToString(Intent intent);

/// SpeedTestRecord::ixp_crossing of a record whose traceroute crosses no
/// IXP. Real IXP ids stay below 256 (Topology::AddIxp).
inline constexpr std::uint16_t kNoIxpCrossing = 0xffff;

/// An interned ⟨ASN, city⟩ unit: a pointer-sized handle to an entry that
/// lives for the whole process and holds the ASN, the city name and the
/// unit key ("3741 / East London"). Equal pairs always intern to the same
/// entry, so handle equality is unit equality.
///
/// The contract that keeps artifacts byte-identical: units are interned
/// where a vantage is registered or a path is resolved — never once per
/// record, and never from journal bytes (DecodeStep resolves a record
/// against its vantage's unit) — and nothing orders, hashes or serializes
/// by the handle's address: shards hash the key string, stores sort by
/// it, and the journal writes the ASN and city. A default handle is the
/// empty unit ⟨0, ""⟩, so a record built without a platform never
/// dangles.
class Unit {
 public:
  constexpr Unit() = default;

  /// The handle of ⟨asn, city⟩, interning it on first use. Thread-safe.
  static Unit Intern(core::Asn asn, std::string_view city);

  core::Asn asn() const { return entry_->asn; }
  const std::string& city() const { return entry_->city; }
  /// "3741 / East London"; the interned string, so no allocation.
  const std::string& key() const { return entry_->key; }

  friend bool operator==(Unit a, Unit b) { return a.entry_ == b.entry_; }

 private:
  struct Entry {
    core::Asn asn;
    std::string city;
    std::string key;
  };
  static const Entry kEmpty;

  explicit Unit(const Entry* entry) : entry_(entry) {}

  const Entry* entry_ = &kEmpty;
};

struct SpeedTestRecord {
  core::MeasurementId id;
  core::SimTime time;
  Unit unit;  ///< the vantage's ⟨ASN, city⟩
  netsim::PopIndex vantage_pop = 0;
  netsim::PopIndex server_pop = 0;
  double rtt_ms = 0.0;
  double loss_rate = 0.0;  ///< end-to-end path loss during the test
  double throughput_mbps = 0.0;
  Intent intent = Intent::kBaseline;
  netsim::AddressFamily address_family = netsim::AddressFamily::kIpv4;
  /// Probe attempts consumed before this record existed (1 = first try).
  /// Extends §4 intent tagging to *failure* provenance: analysts can see
  /// that a record only exists because the platform retried through loss.
  std::uint32_t attempts = 1;
  /// The IXP whose peering LAN first answers in the test's traceroute
  /// (the paper's hop-matching rule), or kNoIxpCrossing; cleared when a
  /// truncation fault cuts the traceroute before that hop.
  std::uint16_t ixp_crossing = kNoIxpCrossing;

  /// ⟨ASN, city⟩ unit key, e.g. "3741 / East London".
  const std::string& UnitKey() const { return unit.key(); }
};
static_assert(std::is_trivially_copyable_v<Unit> &&
              sizeof(Unit) == sizeof(void*));
static_assert(std::is_trivially_copyable_v<SpeedTestRecord> &&
              sizeof(SpeedTestRecord) == 72);

struct SpeedTestModelOptions {
  /// Last-mile access overhead added to the path RTT (WiFi, DSLAM...).
  double last_mile_base_ms = 2.0;
  double last_mile_sd_ms = 0.8;
  /// Probability a test hits a transient last-mile spike, and its scale.
  double spike_probability = 0.03;
  double spike_scale_ms = 25.0;
  /// Bottleneck throughput model: the minimum of an access-capacity
  /// curve capacity / (1 + rtt/rtt_half) and a Mathis-style single-flow
  /// TCP limit mss_bits * C / (rtt * sqrt(loss)).
  double access_capacity_mbps = 95.0;
  double rtt_half_ms = 120.0;
  double throughput_noise_sigma = 0.15;
  double mathis_constant = 1.22;
  double mss_bytes = 1460.0;
};

/// A vantage-to-server path resolved at one instant: everything a speed
/// test reads from the network. The network only changes between platform
/// steps, so one resolved path serves every test a vantage runs in a step.
struct ProbePath {
  netsim::PopIndex vantage = 0;
  netsim::PopIndex server = 0;
  netsim::AddressFamily address_family = netsim::AddressFamily::kIpv4;
  core::SimTime time;        ///< when the path was resolved
  Unit unit;                 ///< the vantage's ⟨ASN, city⟩, interned
  /// LatencyModel::PathRttAndLoss of the route (no jitter).
  double mean_rtt_ms = 0.0;
  double loss_rate = 0.0;
  /// FirstIxpHop of the route: the IXP (or kNoIxpCrossing) every record
  /// sampled over this path carries, and the index of the hop that shows
  /// it, which a truncation must keep for the crossing to survive.
  std::uint16_t ixp_crossing = kNoIxpCrossing;
  std::size_t ixp_hop = 0;
  /// Hop count of the traceroute the route elicits (SimulateTraceroute):
  /// the route's PoP count.
  std::size_t hop_count = 0;
};

/// Resolves `vantage` -> `server` at the simulator's current time: reads
/// the route in place from the BGP cache (one RoutesTo read, no copy),
/// takes its mean RTT and loss from one walk over its links, interns the
/// vantage's unit and finds the route's IXP crossing. Fails (kNotFound,
/// BgpSimulator::Route's error) when the vantage cannot reach the server.
core::Result<ProbePath> ResolveProbePath(
    netsim::NetworkSimulator& simulator, netsim::PopIndex vantage,
    netsim::PopIndex server,
    netsim::AddressFamily af = netsim::AddressFamily::kIpv4);

/// Samples one speed test over a resolved path: RTT jitter, last-mile
/// overhead and spikes, and throughput noise. The record carries the
/// path's IXP crossing and no id.
SpeedTestRecord SampleSpeedTest(const netsim::LatencyModel& latency,
                                const ProbePath& path, Intent intent,
                                core::Rng& rng,
                                const SpeedTestModelOptions& options = {});

/// Executes one speed test right now: ResolveProbePath and SampleSpeedTest,
/// under a process-unique id. Fails (kNotFound) when the vantage cannot
/// reach the server.
core::Result<SpeedTestRecord> RunSpeedTest(
    netsim::NetworkSimulator& simulator, netsim::PopIndex vantage,
    netsim::PopIndex server, Intent intent, core::Rng& rng,
    const SpeedTestModelOptions& options = {},
    netsim::AddressFamily af = netsim::AddressFamily::kIpv4);

}  // namespace sisyphus::measure
