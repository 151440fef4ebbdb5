// The campaign archive of speed-test records, queryable by ⟨ASN, city⟩
// unit, intent, and IXP-crossing status.
//
// Ingest is validating: records that cannot be physically right (negative
// RTT, out-of-range timestamps, impossible loss rates, non-finite
// throughput) never enter the archive — they are quarantined and counted
// by reason, so corrupt data cannot poison downstream panels and
// estimators.
//
// ShardedMeasurementStore keeps scalar columns only, and the
// PendingRecords it ingests are trivially copyable values.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/result.h"
#include "measure/speedtest.h"

namespace sisyphus::measure {

/// What AppendShard() accepts into the archive. Everything outside these
/// bounds is quarantined, not dropped.
struct StoreValidationOptions {
  double max_rtt_ms = 60'000.0;  ///< 1 minute: beyond any sane speed test
  core::SimTime min_time{0};
  core::SimTime max_time{std::numeric_limits<std::int64_t>::max()};
};

/// Ok, or the reason a record is implausible.
core::Status ValidateRecord(const SpeedTestRecord& record,
                            const StoreValidationOptions& options = {});

/// Short stable tag for a quarantine reason ("rtt", "loss_rate",
/// "throughput", "timestamp", "other") — the key of the queryable
/// quarantine counter map.
std::string QuarantineReasonTag(const std::string& reason);

/// A record emitted by the platform awaiting ingest. Ids are assigned at
/// merge time — sequential in vantage order — so archives stay
/// byte-identical at any thread count; `duplicate` marks an injected
/// duplicate-delivery fault (the second copy shares id and content).
struct PendingRecord {
  SpeedTestRecord record;
  bool duplicate = false;
  std::uint8_t fault_mask = 0;  ///< obs::kLineageFault* bits that fired
};
static_assert(std::is_trivially_copyable_v<PendingRecord> &&
              sizeof(PendingRecord) == 80);

/// An append-only column whose rows never move. Rows live in segments:
/// the first holds kFirstSegmentRows rows and each next one twice as many
/// as the one before. A segment is allocated when the column grows into
/// it and freed only with the column, so growing never copies a row, and
/// the unused capacity stays below size() + kFirstSegmentRows, as under a
/// doubling std::vector.
template <typename T>
class SegmentedColumn {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  static constexpr std::size_t kFirstSegmentRows = 1024;

  std::size_t size() const { return size_; }
  /// Rows the allocated segments hold.
  std::size_t capacity() const { return SegmentStart(segments_.size()); }

  T& operator[](std::size_t row) {
    const std::size_t segment = SegmentOf(row);
    return segments_[segment][row - SegmentStart(segment)];
  }
  const T& operator[](std::size_t row) const {
    const std::size_t segment = SegmentOf(row);
    return segments_[segment][row - SegmentStart(segment)];
  }

  /// Appends `rows` uninitialized rows, allocating each segment they reach.
  void Grow(std::size_t rows) {
    size_ += rows;
    while (capacity() < size_) {
      segments_.push_back(std::make_unique_for_overwrite<T[]>(
          kFirstSegmentRows << segments_.size()));
    }
  }

  /// Rows from `row` to the end of its segment: how far a pointer to
  /// `row` may walk.
  static std::size_t ContiguousFrom(std::size_t row) {
    return SegmentStart(SegmentOf(row) + 1) - row;
  }

 private:
  static std::size_t SegmentOf(std::size_t row) {
    return static_cast<std::size_t>(
        std::bit_width(row / kFirstSegmentRows + 1) - 1);
  }
  static std::size_t SegmentStart(std::size_t segment) {
    return kFirstSegmentRows * ((std::size_t{1} << segment) - 1);
  }

  std::vector<std::unique_ptr<T[]>> segments_;
  std::size_t size_ = 0;
};

/// The campaign archive: records land in columnar (structure-of-arrays)
/// arenas, one arena per shard, shard = Fnv1a64(unit key) % shard_count.
/// Sharding by *unit* — never by thread — keeps every unit's records in
/// exactly one arena in a deterministic order, which is what lets ingest
/// fan out across the thread pool while panel/metrics/lineage artifacts
/// stay byte-identical at any thread count (DESIGN.md §10).
///
/// Only scalar columns are retained (id, time, unit, rtt, loss,
/// throughput, intent, attempts, vantage, IXP crossing). A unit's rows in
/// its shard are in archive order: the order the platform merged them.
///
/// Thread safety: distinct shards may be appended to concurrently; a
/// single shard must only be touched by one thread at a time (the ingest
/// fan-out runs one task per shard).
class ShardedMeasurementStore {
 public:
  static constexpr std::size_t kDefaultShardCount = 16;

  explicit ShardedMeasurementStore(StoreValidationOptions validation = {},
                                   std::size_t shard_count = kDefaultShardCount);

  std::size_t shard_count() const { return shards_.size(); }

  /// The shard that owns `unit` — a pure function of the unit key, so the
  /// layout never depends on SISYPHUS_THREADS.
  std::size_t ShardOf(std::string_view unit) const;

  /// Validating columnar append of one shard's share of a step batch: the
  /// copies of batch[entries[k]] for every k, in entry order, a
  /// duplicate's two copies on adjacent rows. Each entry is validated once
  /// (ValidateRecord; a duplicate's copies share content, so they share
  /// the verdict); each copy of a failing entry is quarantined and counted
  /// in measure.store.quarantined[.<tag>]. Every column grows once by the
  /// archived rows, which are written in place (no earlier row moves) and
  /// which measure.store.archived counts in one add.
  /// On return archived[k] is 1 when entry k's copies were archived and 0
  /// when they were quarantined.
  /// Precondition: every entry's unit belongs to `shard` (ShardOf).
  void AppendShard(std::size_t shard, std::span<const PendingRecord> batch,
                   std::span<const std::uint32_t> entries,
                   std::vector<std::uint8_t>& archived);

  /// One shard's arena, in append order. Parallel columns: row i of every
  /// column describes the i-th archived record copy of the shard.
  struct Columns {
    SegmentedColumn<std::uint64_t> id;
    SegmentedColumn<std::int64_t> time_minutes;
    SegmentedColumn<std::uint32_t> unit;  ///< index into unit_names
    SegmentedColumn<double> rtt_ms;
    SegmentedColumn<double> loss_rate;
    SegmentedColumn<double> throughput_mbps;
    SegmentedColumn<std::uint8_t> intent;
    SegmentedColumn<std::uint8_t> attempts;  ///< clamped to 255
    SegmentedColumn<std::uint32_t> vantage_pop;
    SegmentedColumn<std::uint16_t> ixp_crossing;  ///< or kNoIxpCrossing
    std::vector<std::string> unit_names;  ///< unit keys, first-archived order
    std::map<std::string, std::uint32_t, std::less<>> unit_index;
    /// The unit of the last archived row and its index: a shard's records
    /// arrive in runs of one unit, so only a run's first record searches
    /// unit_index.
    Unit last_unit;
    std::uint32_t last_unit_index = 0;
    std::map<std::string, std::uint64_t> quarantine_reason_counts;
    std::uint64_t quarantined = 0;
    std::size_t size() const { return id.size(); }
  };
  const Columns& shard(std::size_t s) const { return shards_[s]; }

  /// Archived record copies across all shards.
  std::uint64_t size() const;
  std::uint64_t quarantined() const;
  /// Quarantine counts per reason tag, merged over shards.
  std::map<std::string, std::uint64_t> QuarantineReasonCounts() const;
  /// Distinct unit keys across shards, sorted.
  std::vector<std::string> Units() const;
  std::uint64_t CountByIntent(Intent intent) const;
  const StoreValidationOptions& validation() const { return validation_; }

  /// One unit's archived copies: its shard's arena and their rows, in
  /// archive order. No rows (and a null arena) for an unknown unit.
  struct UnitRows {
    const Columns* arena = nullptr;
    std::vector<std::size_t> rows;
  };
  UnitRows RowsOf(std::string_view unit) const;

  /// Time of the first archived copy of `unit` whose traceroute crosses
  /// `ixp`; nullopt if none does.
  std::optional<core::SimTime> FirstIxpCrossing(std::string_view unit,
                                                core::IxpId ixp) const;

  /// Fraction of `unit`'s archived copies in [start, end) that cross
  /// `ixp` (0 when there are none).
  double IxpCrossingShare(std::string_view unit, core::IxpId ixp,
                          core::SimTime start, core::SimTime end) const;

  /// Deterministic CSV dump of the scalar columns (shard-major, append
  /// order within a shard) for replay/determinism audits and export; an
  /// empty ixp_crossing field means the record crosses no IXP.
  std::string ToCsv() const;

 private:
  StoreValidationOptions validation_;
  std::vector<Columns> shards_;
};

}  // namespace sisyphus::measure
