#include "measure/store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/error.h"
#include "core/hash.h"
#include "core/logging.h"
#include "obs/metrics.h"

namespace sisyphus::measure {

using core::Error;
using core::ErrorCode;

core::Status ValidateRecord(const SpeedTestRecord& record,
                            const StoreValidationOptions& options) {
  if (!std::isfinite(record.rtt_ms) || record.rtt_ms <= 0.0) {
    return Error(ErrorCode::kInvalidArgument,
                 "rtt_ms not a positive finite number: " +
                     std::to_string(record.rtt_ms));
  }
  if (record.rtt_ms > options.max_rtt_ms) {
    return Error(ErrorCode::kInvalidArgument,
                 "rtt_ms " + std::to_string(record.rtt_ms) +
                     " exceeds max_rtt_ms " +
                     std::to_string(options.max_rtt_ms));
  }
  if (!std::isfinite(record.loss_rate) || record.loss_rate < 0.0 ||
      record.loss_rate > 1.0) {
    return Error(ErrorCode::kInvalidArgument,
                 "loss_rate outside [0, 1]: " +
                     std::to_string(record.loss_rate));
  }
  if (!std::isfinite(record.throughput_mbps) ||
      record.throughput_mbps < 0.0) {
    return Error(ErrorCode::kInvalidArgument,
                 "throughput_mbps not a non-negative finite number: " +
                     std::to_string(record.throughput_mbps));
  }
  if (record.time < options.min_time || options.max_time < record.time) {
    return Error(ErrorCode::kInvalidArgument,
                 "timestamp " + std::to_string(record.time.minutes()) +
                     "min outside the valid window");
  }
  return core::Status::Ok();
}

std::string QuarantineReasonTag(const std::string& reason) {
  if (reason.find("rtt_ms") != std::string::npos) return "rtt";
  if (reason.find("loss_rate") != std::string::npos) return "loss_rate";
  if (reason.find("throughput") != std::string::npos) return "throughput";
  if (reason.find("timestamp") != std::string::npos) return "timestamp";
  return "other";
}

ShardedMeasurementStore::ShardedMeasurementStore(
    StoreValidationOptions validation, std::size_t shard_count)
    : validation_(validation) {
  SISYPHUS_REQUIRE(shard_count > 0, "ShardedMeasurementStore: zero shards");
  shards_.resize(shard_count);
}

std::size_t ShardedMeasurementStore::ShardOf(std::string_view unit) const {
  return static_cast<std::size_t>(core::Fnv1a64(unit) % shards_.size());
}

bool ShardedMeasurementStore::Append(std::size_t shard,
                                     const SpeedTestRecord& record) {
  Columns& arena = shards_[shard];
  if (auto status = ValidateRecord(record, validation_); !status.ok()) {
    const std::string reason = status.error().ToText();
    const std::string tag = QuarantineReasonTag(reason);
    ++arena.quarantine_reason_counts[tag];
    ++arena.quarantined;
    SISYPHUS_METRIC_COUNT("measure.store.quarantined", 1);
    // Per-reason counters need a dynamic name; Registry registration is
    // mutex-guarded and Add() is capture-aware, so this is safe (and
    // deterministic) from inside a shard task.
    obs::Registry::Global()
        .GetCounter("measure.store.quarantined." + tag)
        ->Add(1);
    (SISYPHUS_LOG(kDebug) << "record quarantined")
        .With("unit", record.UnitKey())
        .With("tag", tag)
        .With("reason", reason);
    return false;
  }
  SISYPHUS_METRIC_COUNT("measure.store.archived", 1);
  if (arena.unit_names.empty() || record.unit != arena.last_unit) {
    const std::string& unit = record.UnitKey();
    auto it = arena.unit_index.find(unit);
    if (it == arena.unit_index.end()) {
      it = arena.unit_index
               .emplace(unit,
                        static_cast<std::uint32_t>(arena.unit_names.size()))
               .first;
      arena.unit_names.push_back(unit);
    }
    arena.last_unit = record.unit;
    arena.last_unit_index = it->second;
  }
  arena.id.push_back(record.id.value());
  arena.time_minutes.push_back(record.time.minutes());
  arena.unit.push_back(arena.last_unit_index);
  arena.rtt_ms.push_back(record.rtt_ms);
  arena.loss_rate.push_back(record.loss_rate);
  arena.throughput_mbps.push_back(record.throughput_mbps);
  arena.intent.push_back(static_cast<std::uint8_t>(record.intent));
  arena.attempts.push_back(
      static_cast<std::uint8_t>(std::min<std::uint32_t>(record.attempts, 255)));
  arena.vantage_pop.push_back(record.vantage_pop);
  arena.ixp_crossing.push_back(record.ixp_crossing);
  return true;
}

std::uint64_t ShardedMeasurementStore::size() const {
  std::uint64_t total = 0;
  for (const Columns& arena : shards_) total += arena.size();
  return total;
}

std::uint64_t ShardedMeasurementStore::quarantined() const {
  std::uint64_t total = 0;
  for (const Columns& arena : shards_) total += arena.quarantined;
  return total;
}

std::map<std::string, std::uint64_t>
ShardedMeasurementStore::QuarantineReasonCounts() const {
  std::map<std::string, std::uint64_t> out;
  for (const Columns& arena : shards_) {
    for (const auto& [tag, count] : arena.quarantine_reason_counts) {
      out[tag] += count;
    }
  }
  return out;
}

std::vector<std::string> ShardedMeasurementStore::Units() const {
  std::vector<std::string> out;
  for (const Columns& arena : shards_) {
    for (const auto& [unit, _] : arena.unit_index) out.push_back(unit);
  }
  // Shards partition units (one unit never spans shards), so the merged
  // list has no duplicates — sorting alone restores the global order.
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t ShardedMeasurementStore::CountByIntent(Intent intent) const {
  const auto wanted = static_cast<std::uint8_t>(intent);
  std::uint64_t count = 0;
  for (const Columns& arena : shards_) {
    for (std::uint8_t tag : arena.intent) {
      if (tag == wanted) ++count;
    }
  }
  return count;
}

ShardedMeasurementStore::UnitRows ShardedMeasurementStore::RowsOf(
    std::string_view unit) const {
  UnitRows out;
  const Columns& arena = shards_[ShardOf(unit)];
  const auto it = arena.unit_index.find(unit);
  if (it == arena.unit_index.end()) return out;
  out.arena = &arena;
  for (std::size_t i = 0; i < arena.size(); ++i) {
    if (arena.unit[i] == it->second) out.rows.push_back(i);
  }
  return out;
}

std::optional<core::SimTime> ShardedMeasurementStore::FirstIxpCrossing(
    std::string_view unit, core::IxpId ixp) const {
  const UnitRows unit_rows = RowsOf(unit);
  for (const std::size_t i : unit_rows.rows) {
    if (unit_rows.arena->ixp_crossing[i] == ixp.value()) {
      return core::SimTime(unit_rows.arena->time_minutes[i]);
    }
  }
  return std::nullopt;
}

double ShardedMeasurementStore::IxpCrossingShare(std::string_view unit,
                                                 core::IxpId ixp,
                                                 core::SimTime start,
                                                 core::SimTime end) const {
  const UnitRows unit_rows = RowsOf(unit);
  std::size_t total = 0, crossing = 0;
  for (const std::size_t i : unit_rows.rows) {
    const core::SimTime time(unit_rows.arena->time_minutes[i]);
    if (time < start || !(time < end)) continue;
    ++total;
    if (unit_rows.arena->ixp_crossing[i] == ixp.value()) ++crossing;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(crossing) /
                          static_cast<double>(total);
}

std::string ShardedMeasurementStore::ToCsv() const {
  std::string out =
      "shard,id,time_minutes,unit,intent,attempts,vantage_pop,rtt_ms,"
      "loss_rate,throughput_mbps,ixp_crossing\n";
  char buffer[64];
  const auto append_double = [&](double value) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out += buffer;
  };
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Columns& arena = shards_[s];
    for (std::size_t i = 0; i < arena.size(); ++i) {
      out += std::to_string(s);
      out += ',';
      out += std::to_string(arena.id[i]);
      out += ',';
      out += std::to_string(arena.time_minutes[i]);
      out += ",\"";
      out += arena.unit_names[arena.unit[i]];
      out += "\",";
      out += std::to_string(arena.intent[i]);
      out += ',';
      out += std::to_string(arena.attempts[i]);
      out += ',';
      out += std::to_string(arena.vantage_pop[i]);
      out += ',';
      append_double(arena.rtt_ms[i]);
      out += ',';
      append_double(arena.loss_rate[i]);
      out += ',';
      append_double(arena.throughput_mbps[i]);
      out += ',';
      if (arena.ixp_crossing[i] != kNoIxpCrossing) {
        out += std::to_string(arena.ixp_crossing[i]);
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace sisyphus::measure
