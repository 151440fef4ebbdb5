#include "measure/speedtest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <mutex>

namespace sisyphus::measure {

using core::Error;
using core::ErrorCode;
using core::Result;

const char* ToString(Intent intent) {
  switch (intent) {
    case Intent::kBaseline: return "baseline";
    case Intent::kUserInitiated: return "user_initiated";
    case Intent::kEventTriggered: return "event_triggered";
  }
  return "?";
}

const Unit::Entry Unit::kEmpty{core::Asn(0), "", "0 / "};

Unit Unit::Intern(core::Asn asn, std::string_view city) {
  // Never destroyed, so every handle stays valid through static
  // destruction; entries never move once placed in the deque.
  struct Table {
    std::mutex mutex;
    std::deque<Entry> entries;
    std::map<std::uint32_t, std::vector<const Entry*>> by_asn{
        {0, {&kEmpty}}};
  };
  static Table* const table = new Table;
  const std::lock_guard<std::mutex> lock(table->mutex);
  std::vector<const Entry*>& cities = table->by_asn[asn.value()];
  for (const Entry* entry : cities) {
    if (entry->city == city) return Unit(entry);
  }
  const Entry& entry = table->entries.emplace_back(
      Entry{asn, std::string(city),
            std::to_string(asn.value()) + " / " + std::string(city)});
  cities.push_back(&entry);
  return Unit(&entry);
}

Result<ProbePath> ResolveProbePath(netsim::NetworkSimulator& simulator,
                                   netsim::PopIndex vantage,
                                   netsim::PopIndex server,
                                   netsim::AddressFamily af) {
  const auto found = simulator.bgp().FindRoute(vantage, server, af);
  if (!found.ok()) return found.error();
  const netsim::BgpRoute& route = *found.value();

  ProbePath path;
  path.vantage = vantage;
  path.server = server;
  path.address_family = af;
  path.time = simulator.Now();
  const auto& pop = simulator.topology().GetPop(vantage);
  path.unit =
      Unit::Intern(pop.asn, simulator.topology().cities().Get(pop.city).name);
  const auto means = simulator.latency().PathRttAndLoss(route, path.time);
  path.mean_rtt_ms = means.rtt_ms;
  path.loss_rate = means.loss_rate;
  if (const auto hop = FirstIxpHop(simulator.topology(), route)) {
    path.ixp_crossing = static_cast<std::uint16_t>(hop->ixp.value());
    path.ixp_hop = hop->hop;
  }
  path.hop_count = route.pop_path.size();
  return path;
}

SpeedTestRecord SampleSpeedTest(const netsim::LatencyModel& latency,
                                const ProbePath& path, Intent intent,
                                core::Rng& rng,
                                const SpeedTestModelOptions& options) {
  SpeedTestRecord record;
  record.time = path.time;
  record.unit = path.unit;
  record.vantage_pop = path.vantage;
  record.server_pop = path.server;
  record.intent = intent;
  record.address_family = path.address_family;
  record.ixp_crossing = path.ixp_crossing;

  const double path_rtt = latency.JitterRttMs(path.mean_rtt_ms, rng);
  double last_mile =
      std::max(0.2, rng.Gaussian(options.last_mile_base_ms,
                                 options.last_mile_sd_ms));
  if (rng.Bernoulli(options.spike_probability)) {
    last_mile += rng.Exponential(1.0 / options.spike_scale_ms);
  }
  record.rtt_ms = path_rtt + last_mile;
  record.loss_rate = path.loss_rate;

  const double access_limit =
      options.access_capacity_mbps /
      (1.0 + record.rtt_ms / options.rtt_half_ms);
  // Mathis et al.: single-flow TCP throughput ~ C * MSS / (RTT sqrt(p)).
  const double loss = std::max(record.loss_rate, 1e-6);
  const double mathis_limit_mbps =
      options.mathis_constant * options.mss_bytes * 8.0 /
      (record.rtt_ms / 1000.0 * std::sqrt(loss)) / 1e6;
  const double mean_throughput = std::min(access_limit, mathis_limit_mbps);
  record.throughput_mbps =
      mean_throughput *
      std::exp(rng.Gaussian(0.0, options.throughput_noise_sigma));
  return record;
}

Result<SpeedTestRecord> RunSpeedTest(netsim::NetworkSimulator& simulator,
                                     netsim::PopIndex vantage,
                                     netsim::PopIndex server, Intent intent,
                                     core::Rng& rng,
                                     const SpeedTestModelOptions& options,
                                     netsim::AddressFamily af) {
  static std::atomic<std::uint64_t> next_id{1};

  auto path = ResolveProbePath(simulator, vantage, server, af);
  if (!path.ok()) return path.error();
  SpeedTestRecord record =
      SampleSpeedTest(simulator.latency(), path.value(), intent, rng, options);
  record.id = core::MeasurementId(next_id.fetch_add(1));
  return record;
}

}  // namespace sisyphus::measure
