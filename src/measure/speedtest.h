// Speed tests: the measurement primitive of the Table 1 case study.
//
// A speed test records RTT and throughput between a vantage point (user
// behind an access ⟨ASN, city⟩ PoP) and a measurement server, plus the
// traceroute triggered after the test (as M-Lab does). Every record
// carries an intent tag — one of the paper's §4 platform proposals — so
// analysts can condition on *why* a measurement exists and avoid collider
// bias when they must.
#pragma once

#include <string>
#include <vector>

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

struct SpeedTestRecord {
  core::MeasurementId id;
  core::SimTime time;
  core::Asn asn;               ///< vantage ASN
  std::string city;            ///< vantage city name
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
  /// The probed route's traceroute and AS path, filled only where a store
  /// keeps them: by RunSpeedTest and the batch Platform::Run. Records from
  /// Platform::GenerateStep (streaming, durable) leave both empty.
  Traceroute traceroute;
  std::vector<core::Asn> asn_path;

  /// ⟨ASN, city⟩ unit key, e.g. "3741 / East London".
  std::string UnitKey() const;
};

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
  core::Asn asn;             ///< vantage ASN
  std::string city;          ///< vantage city name
  double mean_rtt_ms = 0.0;  ///< LatencyModel::PathRttMs (no jitter)
  double loss_rate = 0.0;    ///< LatencyModel::PathLossRate
  netsim::BgpRoute route;    ///< source of the traceroute and AS path

  /// Hop count of the traceroute the route elicits (SimulateTraceroute).
  std::size_t hop_count() const { return route.pop_path.size(); }
};

/// Resolves `vantage` -> `server` at the simulator's current time. Fails
/// (kNotFound) when the vantage cannot reach the server.
core::Result<ProbePath> ResolveProbePath(
    netsim::NetworkSimulator& simulator, netsim::PopIndex vantage,
    netsim::PopIndex server,
    netsim::AddressFamily af = netsim::AddressFamily::kIpv4);

/// Samples one speed test over a resolved path: RTT jitter, last-mile
/// overhead and spikes, and throughput noise. The record carries no id,
/// traceroute or AS path.
SpeedTestRecord SampleSpeedTest(const netsim::LatencyModel& latency,
                                const ProbePath& path, Intent intent,
                                core::Rng& rng,
                                const SpeedTestModelOptions& options = {});

/// Fills `record`'s traceroute and AS path from the path's route.
void AttachRoute(const netsim::Topology& topology, const ProbePath& path,
                 SpeedTestRecord& record);

/// Executes one speed test right now: ResolveProbePath, SampleSpeedTest and
/// AttachRoute, under a process-unique id. Fails (kNotFound) when the
/// vantage cannot reach the server.
core::Result<SpeedTestRecord> RunSpeedTest(
    netsim::NetworkSimulator& simulator, netsim::PopIndex vantage,
    netsim::PopIndex server, Intent intent, core::Rng& rng,
    const SpeedTestModelOptions& options = {},
    netsim::AddressFamily af = netsim::AddressFamily::kIpv4);

}  // namespace sisyphus::measure
