// Metrics registry: named counters, gauges, and fixed-bucket histograms,
// cheap enough to leave compiled into the hot paths (netsim probe loops,
// BGP convergence, estimator fits).
//
// Two cost tiers:
//  - registry disabled (the default): one relaxed global-flag load and
//    branch per call site;
//  - enabled: a pointer chase and an integer add (counters/gauges) or a
//    small branchless-ish bucket scan (histograms).
//
// Determinism contract: metric values reflect only what the instrumented
// code did — never wall-clock time — so a seeded run snapshots to
// byte-identical JSON every time (wall-clock spans live in obs::Tracer
// instead). Nothing saves or restores the registry: a durable resume
// rebuilds it by re-running each journaled step's fast-forward and commit
// (DESIGN.md §11), which is why a step's metrics must be a function of
// its journal frame and the simulator alone.
//
// Threading (DESIGN.md §7): registration is mutex-guarded, and metric
// writes issued from inside a core::ParallelFor task are diverted to a
// thread-local per-task buffer that the pool replays on the calling thread
// in ascending task-index order. Metric state is therefore only ever
// mutated from the region's calling thread, and the snapshot stays
// byte-identical regardless of SISYPHUS_THREADS (including histogram
// floating-point sums, whose accumulation order is pinned by the replay).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sisyphus::core::json {
class Writer;
}  // namespace sisyphus::core::json

namespace sisyphus::obs {

/// Monotonically increasing count of events (probes attempted, cache
/// hits, placebo runs...). Naming scheme: "layer.noun.verbed", e.g.
/// "measure.probes.attempted" (DESIGN.md §6).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(std::uint64_t n = 1);
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  // Relaxed atomic. Pool tasks never write here directly: their writes
  // are captured and replayed on the thread that opened the region. The
  // atomic keeps a write from any other thread race-free, and increments
  // commute, so the total stays deterministic.
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (event-queue depth, panel dimensions...).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(double value);
  double value() const { return value_; }
  const std::string& name() const { return name_; }
  void Reset() { value_ = 0.0; }

 private:
  std::string name_;
  double value_ = 0.0;
};

/// Fixed-bucket histogram: counts per upper bound plus an overflow bucket,
/// with sum/count for mean recovery. Bounds are fixed at registration; the
/// snapshot is deterministic because bucket assignment depends only on the
/// observed values.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> upper_bounds);

  void Observe(double value);
  const std::string& name() const { return name_; }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// bucket_counts()[i] counts observations <= upper_bounds()[i]; the last
  /// entry (size = bounds + 1) is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Deterministic quantile estimate from the bucket counts: finds the
  /// bucket holding the q-th observation and interpolates linearly inside
  /// it ([0, bounds[0]] for the first, clamped to the last bound for the
  /// overflow bucket). A pure function of the counts — identical across
  /// thread counts and kill/resume, unlike a sample-based quantile.
  /// q in [0, 1]; 0 when the histogram is empty.
  double Quantile(double q) const;
  void Reset();

 private:
  std::string name_;
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Default histogram bounds: 1, 2, 5 decades from 1 to 1e6 — adequate for
/// iteration counts, queue depths, and millisecond timings alike.
const std::vector<double>& DefaultHistogramBounds();

/// Owns every metric. Registration is idempotent by name; returned
/// pointers are stable for the registry's lifetime, so call sites cache
/// them in function-local statics (see the SISYPHUS_METRIC_* macros).
class Registry {
 public:
  /// The process-wide registry the macros write to.
  static Registry& Global();

  /// Collection on/off switch (off by default: library users who never
  /// opt in pay only the flag check). Enabling mid-run is fine; metrics
  /// count from wherever they were.
  static void Enable(bool on);
  static bool enabled();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `upper_bounds` is consulted only on first registration; pass {} to
  /// use DefaultHistogramBounds().
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> upper_bounds = {});

  /// Zeroes every registered metric (pointers stay valid). Call at the
  /// start of a run so artifacts cover exactly that run.
  void ResetAll();

  /// Deterministic snapshot: metrics sorted by name, schema
  /// sisyphus.metrics/1. Byte-identical across runs that performed the
  /// same instrumented work.
  std::string SnapshotJson(int indent = 2) const;

  /// Value of a counter, 0 when absent — convenience for tests/benches.
  std::uint64_t CounterValue(std::string_view name) const;

  /// Registered histogram by name, nullptr when absent. Read-only — never
  /// registers; the pointer is stable for the registry's lifetime.
  const Histogram* FindHistogram(std::string_view name) const;

 private:
  mutable std::mutex mu_;  // guards the maps (registration / snapshot)
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Wall-clock statistics about the ThreadPool's own behavior: per-region
/// queue-wait (RegionBegin → a lane's first TaskBegin), lane utilization
/// (busy time / lanes x region span), and task-duration spread. Wall-clock
/// means non-deterministic, so PoolStats never touches the Registry (whose
/// snapshot must stay byte-identical across same-seed runs); it is
/// surfaced in manifest.json's "pool" object instead — the chartered
/// non-deterministic artifact (DESIGN.md §6).
///
/// The parallel observer in metrics.cc feeds top-level regions only;
/// nested inline regions are filtered out there.
class PoolStats {
 public:
  static PoolStats& Global();
  static void Enable(bool on);
  static bool enabled() { return internal_pool_enabled(); }

  /// Zeroes all accumulators (call at the start of an instrumented run).
  void Reset();

  // -- observer hooks (top-level parallel regions only) --
  void RegionBegin(std::size_t task_count, std::size_t lanes);
  /// Called per task on the executing thread; detects each lane's first
  /// task of the region internally to derive queue-wait.
  void TaskStart();
  void TaskEnd(double task_us);
  void RegionEnd();

  /// Writes the aggregate object (caller wraps it in a key). Values are
  /// wall-clock microseconds; log2_buckets[i] counts values in
  /// [2^i, 2^(i+1)) us.
  void WriteJson(core::json::Writer& w) const;

 private:
  static bool internal_pool_enabled();

  struct Accum {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, 24> log2_buckets{};
    void Observe(double value);
  };

  mutable std::mutex mu_;
  std::uint64_t regions_ = 0;
  std::uint64_t tasks_ = 0;
  std::uint64_t max_lanes_engaged_ = 0;
  Accum queue_wait_us_;
  Accum task_us_;
  Accum region_span_us_;
  Accum utilization_;  // dimensionless fraction; buckets unused
  // In-flight region state (serial is monotonic so per-thread lane
  // detection survives Reset()).
  std::uint64_t region_serial_ = 0;
  std::size_t region_lanes_ = 0;
  std::uint64_t region_engaged_ = 0;
  double region_busy_us_ = 0.0;
  double region_start_us_ = 0.0;  // steady_clock since-epoch in us
};

namespace internal {
extern bool g_enabled;
extern bool g_pool_stats_enabled;
// True while this thread is executing a core::ParallelFor task: metric
// writes are captured into the task's buffer instead of applied, and
// replayed in task-index order by the pool's TaskObserver (installed by
// this translation unit at static-init time).
extern thread_local bool t_capturing;
void CaptureCount(Counter* counter, std::uint64_t n);
void CaptureGauge(Gauge* gauge, double value);
void CaptureObserve(Histogram* histogram, double value);
}  // namespace internal

inline void Counter::Add(std::uint64_t n) {
  if (!internal::g_enabled) return;
  if (internal::t_capturing) {
    internal::CaptureCount(this, n);
    return;
  }
  value_.fetch_add(n, std::memory_order_relaxed);
}

inline void Gauge::Set(double value) {
  if (!internal::g_enabled) return;
  if (internal::t_capturing) {
    internal::CaptureGauge(this, value);
    return;
  }
  value_ = value;
}

}  // namespace sisyphus::obs

// Instrumentation macros. `name` must be a string literal (it is looked up
// once and cached in a function-local static).
#define SISYPHUS_METRIC_COUNT(name, n)                        \
  do {                                                        \
    static ::sisyphus::obs::Counter* sisyphus_metric_c =      \
        ::sisyphus::obs::Registry::Global().GetCounter(name); \
    sisyphus_metric_c->Add(n);                                \
  } while (0)
#define SISYPHUS_METRIC_GAUGE(name, v)                      \
  do {                                                      \
    static ::sisyphus::obs::Gauge* sisyphus_metric_g =      \
        ::sisyphus::obs::Registry::Global().GetGauge(name); \
    sisyphus_metric_g->Set(v);                              \
  } while (0)
#define SISYPHUS_METRIC_OBSERVE(name, v)                        \
  do {                                                          \
    static ::sisyphus::obs::Histogram* sisyphus_metric_h =      \
        ::sisyphus::obs::Registry::Global().GetHistogram(name); \
    sisyphus_metric_h->Observe(v);                              \
  } while (0)
