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

namespace {

/// Quarantines `copies` copies of a record that failed validation with
/// `error`: each copy is counted by reason tag and logged.
void Quarantine(ShardedMeasurementStore::Columns& arena,
                const SpeedTestRecord& record, const Error& error,
                std::size_t copies) {
  const std::string reason = error.ToText();
  const std::string tag = QuarantineReasonTag(reason);
  arena.quarantine_reason_counts[tag] += copies;
  arena.quarantined += copies;
  SISYPHUS_METRIC_COUNT("measure.store.quarantined", copies);
  // Per-reason counters need a dynamic name; Registry registration is
  // mutex-guarded and Add() is capture-aware, so this is safe (and
  // deterministic) from inside a shard task.
  obs::Registry::Global()
      .GetCounter("measure.store.quarantined." + tag)
      ->Add(copies);
  for (std::size_t copy = 0; copy < copies; ++copy) {
    (SISYPHUS_LOG(kDebug) << "record quarantined")
        .With("unit", record.UnitKey())
        .With("tag", tag)
        .With("reason", reason);
  }
}

}  // namespace

void ShardedMeasurementStore::AppendShard(
    std::size_t shard, std::span<const PendingRecord> batch,
    std::span<const std::uint32_t> entries,
    std::vector<std::uint8_t>& archived) {
  Columns& arena = shards_[shard];
  archived.resize(entries.size());
  std::size_t rows = 0;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const PendingRecord& pending = batch[entries[k]];
    const std::size_t copies = pending.duplicate ? 2 : 1;
    const core::Status status = ValidateRecord(pending.record, validation_);
    archived[k] = status.ok();
    if (status.ok()) {
      rows += copies;
    } else {
      Quarantine(arena, pending.record, status.error(), copies);
    }
  }
  if (rows == 0) return;
  SISYPHUS_METRIC_COUNT("measure.store.archived", rows);

  // One column at a time, so that one write stream is open at once: the
  // ten columns' segments are allocated together, and written row by row
  // their streams share cache sets (DESIGN.md §10). `value` runs once per
  // archived entry, in entry order; the pointer is fetched again where a
  // segment ends.
  const std::size_t first = arena.size();
  const auto fill = [&](auto& column, auto value) {
    column.Grow(rows);
    std::size_t row = first;
    std::size_t run = 0;  // rows the pointer may still walk
    decltype(&column[0]) out = nullptr;
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (!archived[k]) continue;
      const PendingRecord& pending = batch[entries[k]];
      const auto cell = value(pending.record);
      const std::size_t copies = pending.duplicate ? 2 : 1;
      for (std::size_t copy = 0; copy < copies; ++copy, ++row, --run) {
        if (run == 0) {
          run = column.ContiguousFrom(row);
          out = &column[row];
        }
        *out++ = cell;
      }
    }
  };
  fill(arena.id, [](const SpeedTestRecord& r) { return r.id.value(); });
  fill(arena.time_minutes,
       [](const SpeedTestRecord& r) { return r.time.minutes(); });
  fill(arena.unit, [&arena](const SpeedTestRecord& r) {
    if (arena.unit_names.empty() || r.unit != arena.last_unit) {
      const std::string& key = r.UnitKey();
      auto it = arena.unit_index.find(key);
      if (it == arena.unit_index.end()) {
        it = arena.unit_index
                 .emplace(key,
                          static_cast<std::uint32_t>(arena.unit_names.size()))
                 .first;
        arena.unit_names.push_back(key);
      }
      arena.last_unit = r.unit;
      arena.last_unit_index = it->second;
    }
    return arena.last_unit_index;
  });
  fill(arena.rtt_ms, [](const SpeedTestRecord& r) { return r.rtt_ms; });
  fill(arena.loss_rate, [](const SpeedTestRecord& r) { return r.loss_rate; });
  fill(arena.throughput_mbps,
       [](const SpeedTestRecord& r) { return r.throughput_mbps; });
  fill(arena.intent, [](const SpeedTestRecord& r) {
    return static_cast<std::uint8_t>(r.intent);
  });
  fill(arena.attempts, [](const SpeedTestRecord& r) {
    return static_cast<std::uint8_t>(std::min<std::uint32_t>(r.attempts, 255));
  });
  fill(arena.vantage_pop,
       [](const SpeedTestRecord& r) { return r.vantage_pop; });
  fill(arena.ixp_crossing,
       [](const SpeedTestRecord& r) { return r.ixp_crossing; });
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
    for (std::size_t i = 0; i < arena.size(); ++i) {
      if (arena.intent[i] == wanted) ++count;
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
