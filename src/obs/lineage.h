// Measurement lineage: per-record provenance from emission through panel
// aggregation into the estimates that cite it (DESIGN.md §9).
//
// The paper's §4 platform proposals are about auditability: an analyst
// should be able to ask "which measurements, taken why, under which
// faults, back this effect estimate?" The metrics registry (PR 2) answers
// that only in aggregate. The Lineage ledger tracks every SpeedTestRecord
// id through a terminal-state waterfall —
//
//   emitted → quarantined | archived | out_of_panel | dropped_sparsity
//           | aggregated  | donor    | treated
//
// — with the invariant that each emitted record lands in EXACTLY ONE
// terminal state (the deepest pipeline stage it reached). Panel cells
// carry compact contributing-record-id sets (delta-encoded sorted runs,
// FNV-digested for cheap equality), and estimates record which units —
// and hence records, intents, fault exposures, and vantages — back each
// per-unit effect and p-value.
//
// Cost tiers match the metrics registry:
//  - disabled (the default): one global-flag load per site;
//  - enabled (--obs-out): per-record verdicts are writes in place into
//    the run's record column, without the lock from the shard tasks of a
//    parallel ingest; panel attribution, fit marks and estimates are
//    writes into the run ledger under its mutex (once per unit, cell,
//    fit and estimate).
//
// Determinism contract: the ledger reflects only what the instrumented
// code did — never wall-clock — and is byte-identical at any
// SISYPHUS_THREADS, by three rules. A per-record verdict (emitted, shed,
// out_of_panel) is written in place at id - 1: ids are assigned at the
// serial merge, so the writes of parallel shard tasks touch disjoint
// entries and their order cannot matter. A fit mark (MarkTreated,
// MarkDonor) may come from a pool task: it sets a unit's flag once, so
// the order of marks cannot matter either. Every other mutator is called
// serially, and fails a precondition naming it when called inside a task
// of a multi-lane region, where its order would follow lane scheduling.
// audit.bin, built from the ledger, inherits the guarantee.
//
// Layering: obs cannot depend on measure/causal, so the ledger speaks in
// primitives (ids, unit-key strings, intent codes, fault bits). The
// canonical names for intent codes and fault bits live here so every
// consumer (artifact, lineageq, obscheck) renders them identically.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sisyphus::obs {

/// Pipeline stages a record can terminate in, ordered by depth: a
/// record's terminal state is the numerically largest stage it reached.
enum class LineageStage : std::uint8_t {
  kEmitted = 0,          ///< produced but never handed to a store (tests)
  kQuarantined = 1,      ///< rejected by validating ingest
  kArchived = 2,         ///< archived, but no panel was ever built over it
  kOutOfPanel = 3,       ///< archived, outside the panel's time range
  kDroppedSparsity = 4,  ///< bucketed, but its unit was dropped as sparse
  kAggregated = 5,       ///< contributed to a kept panel cell, unused by fits
  kDonor = 6,            ///< its unit served in a fit's donor pool
  kTreated = 7,          ///< its unit was the treated series of a fit
  kShedOverload = 8,     ///< dropped by streaming overload shedding (§11)
};
inline constexpr std::size_t kLineageStageCount = 9;
const char* ToString(LineageStage stage);

/// Record-fault mask bits (set by measure::FaultInjector, named here so
/// the artifact and its consumers agree). kLineageFaultNames[i] names
/// bit (1 << i).
inline constexpr std::uint8_t kLineageFaultSkewed = 1;
inline constexpr std::uint8_t kLineageFaultTruncated = 2;
inline constexpr std::uint8_t kLineageFaultCorrupted = 4;
inline constexpr std::uint8_t kLineageFaultDuplicated = 8;
inline constexpr std::array<const char*, 4> kLineageFaultNames = {
    "skewed", "truncated", "corrupted", "duplicated"};

/// Canonical names for measure::Intent codes (0, 1, 2); codes beyond the
/// array render as "intent<code>".
inline constexpr std::array<const char*, 3> kLineageIntentNames = {
    "baseline", "user_initiated", "event_triggered"};
std::string LineageIntentName(std::uint8_t code);

/// A compact immutable set of record ids: consecutive runs of sorted ids
/// stored delta-encoded as [gap, len, gap, len, ...] where each gap is
/// measured from the end of the previous run (from 0 for the first), plus
/// an FNV-1a digest over the encoding for cheap equality. A panel cell's
/// contributing-record set is typically a handful of runs regardless of
/// how many records it holds, because platform ids are sequential per
/// vantage step.
class IdRunSet {
 public:
  /// The one writer of the encoding: fed ids in ascending order
  /// (duplicates collapse), it closes a run whenever the next id is not
  /// the one after the open run's last. Finish() ends the open run and
  /// hands over the encoding.
  class Encoder {
   public:
    void Append(std::uint64_t id) {
      if (end_ != start_) {         // a run is open
        if (id < end_) return;      // duplicate of an id already in it
        if (id == end_) {
          ++end_;
          ++size_;
          return;
        }
      }
      CloseRun();
      start_ = id;
      end_ = id + 1;
      ++size_;
    }
    /// Distinct ids appended so far.
    std::uint64_t size() const { return size_; }
    std::vector<std::uint64_t> Finish() {
      CloseRun();
      return std::move(encoded_);
    }

   private:
    void CloseRun() {
      if (end_ == start_) return;
      encoded_.push_back(start_ - prev_end_);
      encoded_.push_back(end_ - start_);
      prev_end_ = end_;
      start_ = end_;
    }

    std::vector<std::uint64_t> encoded_;
    std::uint64_t size_ = 0;
    std::uint64_t prev_end_ = 0;  // one past the last closed run
    std::uint64_t start_ = 0;     // the open run is [start_, end_)
    std::uint64_t end_ = 0;
  };

  IdRunSet() = default;

  /// Builds from ids sorted ascending (duplicates are collapsed).
  static IdRunSet FromSorted(std::span<const std::uint64_t> sorted_ids);

  /// Adopts an encoded() vector — an Encoder's output, or a slice read
  /// back from audit.bin; size and digest are recomputed from the
  /// encoding.
  static IdRunSet FromEncoded(std::vector<std::uint64_t> encoded);

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t digest() const { return digest_; }
  /// The raw [gap, len, ...] encoding (serialized verbatim).
  const std::vector<std::uint64_t>& encoded() const { return encoded_; }
  /// Expands back to the sorted id list (record ids are 1-based; an id 0
  /// is dropped, as ForEachRun drops it).
  std::vector<std::uint64_t> Expand() const;

  /// Calls fn(first, last) for each run of ids clipped to [1, max_id]
  /// (inclusive; runs wholly outside are skipped), in ascending order,
  /// straight off the encoding: O(runs) with no id list materialized.
  /// An encoding whose gaps and lengths wrap stops the walk.
  template <typename Fn>
  void ForEachRun(std::uint64_t max_id, Fn&& fn) const {
    std::uint64_t cursor = 0;  // one past the previous run's last id
    for (std::size_t i = 0; i + 1 < encoded_.size(); i += 2) {
      std::uint64_t start = 0;
      if (!NextRun(i, cursor, start)) return;
      if (cursor == start) continue;
      const std::uint64_t first = start == 0 ? 1 : start;
      const std::uint64_t last = cursor - 1 < max_id ? cursor - 1 : max_id;
      if (first <= last) fn(first, last);
    }
  }

  friend bool operator==(const IdRunSet& a, const IdRunSet& b) {
    return a.digest_ == b.digest_ && a.encoded_ == b.encoded_;
  }

 private:
  /// Decodes the [gap, len] pair at encoded_[i], whose gap counts from
  /// `cursor` (one past the previous run's last id): sets `start` and
  /// advances `cursor` to one past this run's last id. False when the
  /// gap or the length wraps.
  bool NextRun(std::size_t i, std::uint64_t& cursor,
               std::uint64_t& start) const {
    start = cursor + encoded_[i];
    const std::uint64_t end = start + encoded_[i + 1];
    if (start < cursor || end < start) return false;
    cursor = end;
    return true;
  }

  std::vector<std::uint64_t> encoded_;
  std::uint64_t size_ = 0;
  std::uint64_t digest_ = 0;
};

/// Everything the platform knows about one emitted record at merge time.
struct LineageRecordInfo {
  std::uint64_t id = 0;        ///< sequential, 1-based (core::MeasurementId)
  std::uint32_t vantage = 0;   ///< vantage PoP index
  std::uint8_t intent = 0;     ///< measure::Intent code
  std::uint8_t attempts = 1;   ///< probe attempts consumed (clamped to 255)
  std::uint8_t fault_mask = 0; ///< kLineageFault* bits
  std::uint8_t copies = 1;     ///< delivered copies (2 = duplicated)
  bool archived = false;       ///< passed validating ingest
};

namespace internal {
extern bool g_lineage_enabled;
}  // namespace internal

/// Aggregate waterfall accounting (per run or summed across runs).
struct LineageWaterfall {
  std::uint64_t probes_attempted = 0;  ///< emitted + probes_failed
  std::uint64_t probes_failed = 0;
  std::uint64_t emitted = 0;           ///< distinct record ids
  std::uint64_t delivered = 0;         ///< copies (duplication counts twice)
  std::uint64_t quarantined_copies = 0;
  std::uint64_t archived_copies = 0;
  /// Ids referenced by panel writes without a matching RecordEmitted
  /// (possible only when a store is fed outside the platform, e.g. tests).
  std::uint64_t untracked = 0;
  /// terminal[stage] = records whose deepest stage is `stage`; sums to
  /// `emitted` (the exactly-one-terminal-state invariant).
  std::array<std::uint64_t, kLineageStageCount> terminal{};
  std::map<std::string, std::uint64_t> failure_reasons;
  /// Panel rollup (sums over the run's units).
  std::uint64_t units_kept = 0;
  std::uint64_t units_dropped = 0;
  std::uint64_t units_empty = 0;
  std::uint64_t cells_observed = 0;
  std::uint64_t cells_masked = 0;

  /// Adds `other` field by field (the cross-run sum).
  LineageWaterfall& operator+=(const LineageWaterfall& other);
};

/// The process-wide lineage ledger. All mutators are cheap no-ops while
/// disabled; hot call sites additionally go through SISYPHUS_LINEAGE so a
/// disabled ledger costs one flag load.
class Lineage {
 public:
  static Lineage& Global();
  static void Enable(bool on);
  static bool enabled() { return internal::g_lineage_enabled; }

  /// Clears every run (call at the start of an instrumented run).
  void Reset();

  /// Starts a new run ledger (one per campaign). Relabels the current run
  /// when it has recorded nothing yet, so an ObsRun-opened ledger can be
  /// renamed by the first campaign.
  ///
  /// BeginRun and every mutator below but the per-record verdicts and the
  /// fit marks are serial: called inside a task of a multi-lane region,
  /// each throws std::logic_error naming itself.
  void BeginRun(std::string label);

  // -- per-record verdicts ----------------------------------------------
  // RecordEmitted, RecordShed and RecordOutOfPanel write the record's
  // entry in place at id - 1 of the current run's column (id 0 is
  // ignored). On a serial caller the write takes the ledger lock and grows
  // the column as needed. Inside a task of a multi-lane region it takes no
  // lock and may not grow the column: the caller sizes it with
  // ReserveRecords before the region, and a write past it throws.

  /// Grows the current run's record column to hold ids 1..max_id. Call on
  /// the serial side before a parallel region whose tasks record verdicts.
  void ReserveRecords(std::uint64_t max_id);
  void RecordEmitted(const LineageRecordInfo& info);
  /// An emitted record dropped by the streaming overload-shed policy: it
  /// terminates in shed_overload with zero delivered copies, keeping
  /// emitted/delivered conservation exact (DESIGN.md §11).
  void RecordShed(const LineageRecordInfo& info);
  /// An archived record whose time falls outside the panel's range.
  void RecordOutOfPanel(std::uint64_t id);

  // -- measure/platform --------------------------------------------------
  void RecordProbeFailure(std::string_view reason, std::uint64_t count = 1);

  // -- measure/panel -----------------------------------------------------
  void PanelUnitEmpty(std::string_view unit);
  void PanelUnitKept(std::string_view unit, double missing_fraction,
                     std::uint64_t observed_cells, std::uint64_t masked_cells);
  void PanelUnitDropped(std::string_view unit, double missing_fraction,
                        std::uint64_t observed_cells,
                        std::uint64_t masked_cells, IdRunSet ids);
  /// One observed panel cell of a kept unit with its contributing ids.
  void PanelCell(std::string_view unit, std::uint32_t period, IdRunSet ids);

  // -- causal ------------------------------------------------------------
  /// Marks a kept unit's records as used by a fit. Idempotent; treated
  /// outranks donor. Safe inside parallel tasks: a mark sets a flag once,
  /// so the marks' order cannot reach the ledger.
  void MarkTreated(std::string_view unit);
  void MarkDonor(std::string_view unit);
  /// Registers an estimate with the units backing it; the serialized entry
  /// carries the record/intent/fault/vantage composition of the treated
  /// unit and the donor pool, resolved from the panel ledger.
  void AddEstimate(std::string label, std::string treated_unit,
                   std::vector<std::string> donor_units, double effect,
                   double p_value);

  /// Waterfall totals summed across runs, with fit marks resolved.
  LineageWaterfall Totals() const;
  /// Number of run ledgers (diagnostics/tests).
  std::size_t run_count() const;

  // Ledger internals, public so read-only consumers (the audit artifact
  // writer in src/audit/) can walk the resolved ledger through VisitRuns
  // without a parallel copy of the schema. Mutation stays private.
  struct RecordEntry {
    std::uint32_t vantage = 0;
    std::uint8_t intent = 0;
    std::uint8_t attempts = 0;
    std::uint8_t fault_mask = 0;
    std::uint8_t copies = 0;
    LineageStage stage = LineageStage::kEmitted;
    bool seen = false;  ///< emitted or shed (vs a panel-only reference)
  };
  struct CellEntry {
    std::uint32_t period = 0;
    IdRunSet ids;
  };
  struct UnitLedger {
    bool dropped = false;
    double missing_fraction = 0.0;
    std::uint64_t observed_cells = 0;
    std::uint64_t masked_cells = 0;
    std::vector<CellEntry> cells;  ///< kept units only
    IdRunSet dropped_ids;          ///< dropped units only
    bool used_treated = false;
    bool used_donor = false;
  };
  struct EstimateEntry {
    std::string label;
    std::string treated;
    std::vector<std::string> donors;
    double effect = 0.0;
    double p_value = 0.0;  ///< NaN = not applicable
  };
  struct RunLedger {
    std::string label;
    std::vector<RecordEntry> records;  ///< index = id - 1
    std::map<std::string, std::uint64_t> probe_failures;
    std::map<std::string, UnitLedger, std::less<>> units;
    std::vector<EstimateEntry> estimates;
    std::uint64_t empty_units = 0;
    /// Mutator calls applied, BeginRun's and the verdicts' aside. BeginRun
    /// relabels a run with none and no record entries instead of opening a
    /// new one.
    std::uint64_t writes = 0;
  };

  /// Per-record stages with used_treated/used_donor unit flags folded in
  /// (pure function of one run ledger; shared by Totals and the audit
  /// artifact writer so both resolve identical terminal states).
  static std::vector<LineageStage> ResolveStages(const RunLedger& run);
  /// One run's waterfall accounting from its ledger and resolved stages
  /// (pure; Totals sums it across runs, the audit writer stores it per run).
  static LineageWaterfall RunWaterfall(const RunLedger& run,
                                       const std::vector<LineageStage>& stages);

  /// Read-only visitor over the run ledgers, invoked with mu_ held: the
  /// audit writer serializes a consistent view without copying the ledger.
  /// `fn` must not call back into this Lineage.
  template <typename Fn>
  void VisitRuns(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    fn(static_cast<const std::vector<RunLedger>&>(runs_));
  }

 private:
  /// The one writer behind every mutator but the verdicts: takes mu_ and
  /// applies `write` to the current run, opened if there is none. Unless
  /// `from_tasks` (the fit marks), a caller inside a task of a multi-lane
  /// region fails a precondition naming `mutator`.
  template <typename Fn>
  void WriteRun(const char* mutator, bool from_tasks, Fn&& write);
  RunLedger& CurrentRun();                                  // mu_ held
  RecordEntry& EntryFor(RunLedger& run, std::uint64_t id);  // mu_ held
  /// Applies `write` to the entry of `id` in place (see RecordEmitted).
  template <typename Fn>
  void WriteVerdict(std::uint64_t id, Fn&& write);

  mutable std::mutex mu_;
  std::vector<RunLedger> runs_;
};

}  // namespace sisyphus::obs

// Lineage call-site macro: `call` is a member call on the global ledger,
// e.g. SISYPHUS_LINEAGE(RecordProbeFailure("probe_loss")). Costs one
// global-flag load while disabled.
#define SISYPHUS_LINEAGE(call)                          \
  do {                                                  \
    if (::sisyphus::obs::internal::g_lineage_enabled) { \
      ::sisyphus::obs::Lineage::Global().call;          \
    }                                                   \
  } while (0)
