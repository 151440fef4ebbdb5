// Deterministic per-step telemetry timeline with online change-point
// detection (DESIGN.md §15). Where metrics.json is a campaign-final
// snapshot, the timeline records the run as a *process*: at every committed
// step boundary a declared set of series — stream gauges, `netsim.bgp.*`
// reconvergence counters, per-unit RTT running means the campaign keeps
// as it ingests — is sampled into columnar series buffers that are a pure
// function of committed state, so `timeline.bin` is byte-identical at any
// SISYPHUS_THREADS and across a kill/resume. Nothing saves or restores a
// timeline: a durable resume rebuilds it by sampling and committing each
// step it rebuilds from the journal, as the live step did (DESIGN.md
// §11, §15). The file is a core/section_file.h container, like audit.bin;
// this header holds its schema.
//
// On top of the series run online detectors: an EWMA-referenced CUSUM
// level-shift detector (per-unit RTT means) and a route-churn detector
// (per-step deltas of BGP invalidation counters). Each firing appends a
// DetectionEvent — step, series, direction, magnitude, and the FNV-1a
// fingerprint of the detector config that fired — which is exactly the
// trigger input the conditional-activation control plane (ROADMAP item 2)
// consumes.
//
// Layering: like the lineage ledger, the timeline speaks in primitives
// (names, counters, gauges, running sums); the sampling glue that knows
// about platforms and campaigns lives in src/measure.
//
// Sampling model: the step loop samples one step at a time — every
// Sample* call for step N, then CommitStep(N) — so series contents and
// detector decisions are a function of the committed step stream alone.
// All state is mutex-guarded, so readers (summaries, artifact builds) may
// run on any thread.
#ifndef SISYPHUS_OBS_TIMELINE_H_
#define SISYPHUS_OBS_TIMELINE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "core/section_file.h"

namespace sisyphus::obs {

namespace internal {
extern bool g_timeline_enabled;
}  // namespace internal

// ---------------------------------------------------------------------------
// Detector configs. Fingerprint() is an FNV-1a digest of the canonical
// parameter rendering; it is stamped into every event the detector emits so
// a consumer can tell which configuration produced a trigger.

/// EWMA-referenced two-sided CUSUM: the reference mean `mu` adapts with
/// rate `ewma_alpha`; each input x accumulates S+ = max(0, S+ + (x - mu) -
/// drift) and S- symmetrically; when either side exceeds `threshold` the
/// detector fires (direction = sign), re-centers mu on x, and resets both
/// sides. The first `min_samples` inputs only warm the reference.
struct LevelShiftConfig {
  double ewma_alpha = 0.05;
  double drift = 1.0;       ///< per-sample slack, in value units
  double threshold = 8.0;   ///< CUSUM firing bar, in value units
  std::uint64_t min_samples = 8;
  std::uint64_t Fingerprint() const;
};

/// Route-churn detector on a monotone counter series: fires whenever the
/// per-step delta reaches `min_delta` (magnitude = the delta).
struct ChurnConfig {
  std::uint64_t min_delta = 1;
  std::uint64_t Fingerprint() const;
};

enum class SeriesKind : std::uint8_t {
  kCounter = 0,      ///< monotone u64, stored as zigzag-varint deltas
  kGauge = 1,        ///< double, stored raw
  kRunningMean = 2,  ///< double mean of a growing sample; stored raw.
                     ///< The detector watches the per-step increment mean.
};

enum class DetectorKind : std::uint8_t {
  kNone = 0,
  kLevelShift = 1,
  kChurn = 2,
};

/// One detector firing. `direction` is +1 (up-shift / churn) or -1
/// (down-shift); `magnitude` is the estimated level change (level-shift)
/// or the counter delta (churn); `fingerprint` identifies the config.
struct DetectionEvent {
  std::uint64_t step = 0;
  std::uint32_t series = 0;
  std::int32_t direction = 0;
  double magnitude = 0.0;
  std::uint64_t fingerprint = 0;
};

// ---------------------------------------------------------------------------
// Artifact schema (timeline.bin). The container is audit.bin's,
// core/section_file.h: a 48-byte header, 8-byte-aligned sections and a
// checksummed table that closes the file. Version 2 changed only the
// checksum function (version 1 used FNV-1a); version 1 files are refused,
// not read.

inline constexpr std::uint32_t kTimelineVersion = 2;
inline constexpr core::section_file::Format kTimelineFormat{"SISYTML1",
                                                            kTimelineVersion};
inline constexpr std::string_view kTimelineSchema = "sisyphus.timeline/1";

enum class TimelineSectionKind : std::uint32_t {
  kMeta = 1,    ///< schema, step range, series descriptors (global)
  kSeries = 2,  ///< one per series; the entry's `run` field = series id
  kEvents = 3,  ///< detection events, step-ordered (global)
};

// ---------------------------------------------------------------------------

/// The process-wide timeline recorder. Declaration is idempotent by name
/// and hands back a stable series id; sampling is keyed by (step, id).
class Timeline {
 public:
  static Timeline& Global();

  /// Collection on/off switch (off by default; ObsRun enables it). When
  /// off, every entry point is a cheap flag check.
  static void Enable(bool on);
  static bool enabled() { return internal::g_timeline_enabled; }

  /// Drops all series, samples, events, and detector state.
  void Reset();

  // -- declaration (idempotent; config is consulted on first declaration) --
  std::uint32_t DeclareCounter(std::string_view name,
                               const ChurnConfig* churn = nullptr);
  std::uint32_t DeclareGauge(std::string_view name,
                             const LevelShiftConfig* shift = nullptr);
  std::uint32_t DeclareRunningMean(std::string_view name,
                                   const LevelShiftConfig* shift = nullptr);

  // -- per-step sampling ---------------------------------------------------
  // Steps are 1-based and arrive in order, one in flight at a time: Sample*
  // calls collect the step's values and CommitStep encodes them in
  // series-id order, runs detectors, and appends any events. A series not
  // sampled for a committed step repeats its previous value (counters:
  // zero delta), keeping every series dense from its first step.
  //
  // If a step number at or below the last committed step arrives with no
  // step in flight, a new epoch is assumed (a second campaign in the same
  // process) and subsequent steps are offset to stay globally monotone.
  void SampleCounter(std::uint64_t step, std::uint32_t series,
                     std::uint64_t value);
  void SampleGauge(std::uint64_t step, std::uint32_t series, double value);
  /// `count`/`sum` are the running totals; the stored sample is sum/count
  /// (0 when empty) and the detector input is the increment mean since the
  /// previous sample, when `count` grew.
  void SampleRunningMean(std::uint64_t step, std::uint32_t series,
                         std::uint64_t count, double sum);
  /// Commits `step` (the one in flight, or an unsampled next step).
  void CommitStep(std::uint64_t step);

  // -- introspection -------------------------------------------------------
  struct Summary {
    std::uint64_t steps = 0;        ///< committed steps
    std::uint64_t first_step = 0;   ///< 0 when empty
    std::uint64_t last_step = 0;
    std::uint64_t series = 0;
    std::uint64_t samples = 0;
    std::uint64_t events = 0;
    std::uint64_t level_shift_events = 0;
    std::uint64_t churn_events = 0;
  };
  Summary GetSummary() const;
  std::vector<DetectionEvent> Events() const;

  /// Serializes the full timeline.bin byte string — a pure function of
  /// committed state (an in-flight step is excluded; there is none at any
  /// artifact-writing point by construction).
  std::string BuildArtifact() const;

 private:
  struct Series {
    std::string name;
    SeriesKind kind = SeriesKind::kGauge;
    DetectorKind detector = DetectorKind::kNone;
    LevelShiftConfig shift;
    ChurnConfig churn;
    std::uint64_t fingerprint = 0;
    std::uint64_t first_step = 0;  ///< 0 until the first sample commits
    std::uint64_t sample_count = 0;
    std::string data;  ///< encoded samples (see SeriesKind)

    // encoder + repeat-last state
    std::uint64_t last_counter = 0;
    double last_gauge = 0.0;

    // running-mean increment state
    std::uint64_t prev_count = 0;
    double prev_sum = 0.0;

    // detector state
    bool det_armed = false;  ///< reference initialized
    double det_mu = 0.0;
    double det_s_pos = 0.0;
    double det_s_neg = 0.0;
    std::uint64_t det_n = 0;       ///< inputs since (re-)centering
    std::uint64_t prev_value = 0;  ///< churn: previous counter value
  };

  struct SampleValue {
    std::uint64_t u = 0;  // counter value / running count
    double d = 0.0;       // gauge value / running sum
  };

  std::uint32_t DeclareLocked(std::string_view name, SeriesKind kind,
                              DetectorKind detector,
                              const LevelShiftConfig* shift,
                              const ChurnConfig* churn);
  std::uint64_t AbsoluteStepLocked(std::uint64_t step);
  void Sample(std::uint64_t step, std::uint32_t series, SampleValue value);
  void RunLevelShiftLocked(std::uint64_t abs_step, std::uint32_t id,
                           Series& series, double x);

  mutable std::mutex mu_;
  std::vector<Series> series_;
  std::map<std::string, std::uint32_t, std::less<>> by_name_;
  std::map<std::uint32_t, SampleValue> pending_;  ///< in-flight step, by id
  std::uint64_t pending_step_ = 0;  ///< absolute; 0 = no step in flight
  std::vector<DetectionEvent> events_;
  std::uint64_t committed_step_ = 0;  ///< absolute; 0 = nothing committed
  std::uint64_t first_step_ = 0;
  std::uint64_t step_offset_ = 0;  ///< epoch offset (multi-campaign runs)
};

// ---------------------------------------------------------------------------
// Reader — parses and verifies a timeline.bin byte string or file. The
// whole artifact is loaded and checksum-verified up front (timeline files
// are small: KBs to a few MB), so every query is an in-memory decode.

struct TimelineSeriesView {
  std::uint32_t id = 0;
  std::string name;
  SeriesKind kind = SeriesKind::kGauge;
  DetectorKind detector = DetectorKind::kNone;
  std::uint64_t fingerprint = 0;
  std::uint64_t first_step = 0;
  std::uint64_t sample_count = 0;
  LevelShiftConfig shift;  ///< valid when detector == kLevelShift
  ChurnConfig churn;       ///< valid when detector == kChurn
};

class TimelineReader {
 public:
  /// Parses + fully verifies (header, table, section checksums, meta/event
  /// invariants). Malformed bytes are a kParseError naming the check.
  core::Status Parse(std::string bytes);
  /// Reads and parses `path`; a missing file is kNotFound.
  core::Status OpenFile(const std::string& path);

  std::uint64_t steps() const { return steps_; }
  std::uint64_t first_step() const { return first_step_; }
  std::uint64_t last_step() const { return last_step_; }
  const std::vector<TimelineSeriesView>& series() const { return series_; }
  const std::vector<DetectionEvent>& events() const { return events_; }
  const TimelineSeriesView* FindSeries(std::string_view name) const;

  /// Decoded sample values for one series (counters are re-accumulated
  /// from their deltas into absolute values). values[i] belongs to step
  /// series().first_step + i. A malformed section is a kParseError, an
  /// unknown id kNotFound.
  core::Result<std::vector<double>> SeriesValues(std::uint32_t id) const;

  /// The value of every series at `step` (series without a sample at that
  /// step — declared later, or out of range — are skipped). Pairs of
  /// (series id, value).
  core::Result<std::vector<std::pair<std::uint32_t, double>>> ValuesAt(
      std::uint64_t step) const;

 private:
  std::string bytes_;
  std::uint64_t steps_ = 0;
  std::uint64_t first_step_ = 0;
  std::uint64_t last_step_ = 0;
  std::vector<TimelineSeriesView> series_;
  std::vector<DetectionEvent> events_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>>
      series_payload_;  ///< (offset, size) into bytes_, indexed by id
};

/// Builds the current global timeline artifact and writes it to
/// `<dir>/timeline.bin` (core::section_file::WriteFile: tmp + rename, so a
/// live reader never sees a torn file). Returns false (with a log line) on
/// I/O failure.
bool WriteTimelineArtifact(const std::string& dir);

}  // namespace sisyphus::obs

#endif  // SISYPHUS_OBS_TIMELINE_H_
