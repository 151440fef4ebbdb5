#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "core/error.h"
#include "core/json.h"
#include "core/parallel.h"
#include "obs/trace.h"

namespace sisyphus::obs {

namespace internal {
bool g_enabled = false;
bool g_pool_stats_enabled = false;
thread_local bool t_capturing = false;
}  // namespace internal

namespace {

// One buffered metric write. `metric` is a stable registry pointer, so
// replay is a direct application with no name lookup.
struct MetricEvent {
  enum class Kind { kCount, kGauge, kObserve };
  Kind kind;
  void* metric;
  double dvalue = 0.0;
  std::uint64_t uvalue = 0;
};

// Per-task side-channel buffer: metric writes captured on the executing
// thread, replayed in task-index order on the region's calling thread.
struct TaskBuffer {
  std::vector<MetricEvent> events;
  bool pool_stats = false;  // feed PoolStats at TaskEnd
  std::chrono::steady_clock::time_point start{};
};

thread_local TaskBuffer* t_buffer = nullptr;

// Start of the traced top-level multi-lane region this thread has open;
// such regions never nest on one thread (a region opened inside a task
// runs inline, on one lane).
thread_local std::optional<std::chrono::steady_clock::time_point>
    t_region_start;

double SteadyNowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// TaskObserver wiring metric capture + per-region trace spans + pool gauges
// into core::ParallelFor. Installed at static-init time (core holds only a
// raw pointer, so init order against other statics is harmless).
class ParallelMetricsObserver final : public core::TaskObserver {
 public:
  void RegionBegin(std::size_t task_count, std::size_t lanes) override {
    // The registry is contracted to be byte-identical at any thread count
    // (the streaming parity fixture compares raw metrics.json), so only
    // thread-invariant values may land here. Lane counts genuinely depend
    // on the pool size and are surfaced via manifest.json's pool stats —
    // the chartered non-deterministic artifact — instead.
    // Telemetry-silenced regions (streaming ingest) skip the engine
    // counters so metrics.json stays byte-identical to execution shapes
    // that run fewer regions; per-task capture/replay, tracing, and pool
    // stats are unaffected.
    if (!core::RegionTelemetrySilenced()) {
      SISYPHUS_METRIC_COUNT("core.parallel.regions", 1);
      SISYPHUS_METRIC_COUNT("core.parallel.tasks", task_count);
      SISYPHUS_METRIC_GAUGE("core.parallel.region.tasks",
                            static_cast<double>(task_count));
    }
    // A region nested in a pool task runs inline and must not disturb the
    // top-level region's PoolStats bookkeeping or its trace span.
    if (core::InParallelTask()) return;
    if (PoolStats::enabled()) {
      PoolStats::Global().RegionBegin(task_count, lanes);
    }
    // One wall span per multi-lane region; its tasks' durations are the
    // manifest's pool.task_us.
    if (lanes > 1 && Tracer::Global().enabled()) {
      t_region_start = std::chrono::steady_clock::now();
    }
  }

  void* TaskBegin(std::size_t /*task_index*/) override {
    const bool pool_stats = PoolStats::enabled();
    if (!internal::g_enabled && !pool_stats) return nullptr;
    auto* buffer = new TaskBuffer;
    buffer->pool_stats = pool_stats;
    if (pool_stats) {
      buffer->start = std::chrono::steady_clock::now();
      PoolStats::Global().TaskStart();
    }
    if (internal::g_enabled) {
      t_buffer = buffer;
      internal::t_capturing = true;
    }
    return buffer;
  }

  void TaskEnd(void* token) override {
    internal::t_capturing = false;
    t_buffer = nullptr;
    auto* buffer = static_cast<TaskBuffer*>(token);
    if (buffer == nullptr || !buffer->pool_stats) return;
    PoolStats::Global().TaskEnd(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - buffer->start)
            .count());
  }

  void TaskMerge(void* token) override {
    auto* buffer = static_cast<TaskBuffer*>(token);
    if (buffer == nullptr) return;
    for (const MetricEvent& event : buffer->events) {
      switch (event.kind) {
        case MetricEvent::Kind::kCount:
          static_cast<Counter*>(event.metric)->Add(event.uvalue);
          break;
        case MetricEvent::Kind::kGauge:
          static_cast<Gauge*>(event.metric)->Set(event.dvalue);
          break;
        case MetricEvent::Kind::kObserve:
          static_cast<Histogram*>(event.metric)->Observe(event.dvalue);
          break;
      }
    }
    delete buffer;
  }

  void RegionEnd() override {
    if (core::InParallelTask()) return;
    if (PoolStats::enabled()) PoolStats::Global().RegionEnd();
    if (t_region_start.has_value()) {
      Tracer::Global().RecordWallSpan("parallel.region", "parallel",
                                      *t_region_start,
                                      std::chrono::steady_clock::now());
      t_region_start.reset();
    }
  }
};

struct ObserverRegistrar {
  ObserverRegistrar() {
    static ParallelMetricsObserver observer;
    core::SetTaskObserver(&observer);
  }
};
// metrics.cc is pulled into every binary that touches the registry, so the
// registrar reliably installs the observer before main().
ObserverRegistrar g_observer_registrar;

}  // namespace

namespace internal {

void CaptureCount(Counter* counter, std::uint64_t n) {
  t_buffer->events.push_back(
      {MetricEvent::Kind::kCount, counter, 0.0, n});
}

void CaptureGauge(Gauge* gauge, double value) {
  t_buffer->events.push_back(
      {MetricEvent::Kind::kGauge, gauge, value, 0});
}

void CaptureObserve(Histogram* histogram, double value) {
  t_buffer->events.push_back(
      {MetricEvent::Kind::kObserve, histogram, value, 0});
}

}  // namespace internal

Histogram::Histogram(std::string name, std::vector<double> upper_bounds)
    : name_(std::move(name)), upper_bounds_(std::move(upper_bounds)) {
  SISYPHUS_REQUIRE(!upper_bounds_.empty(), "Histogram: no buckets");
  SISYPHUS_REQUIRE(
      std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()),
      "Histogram: bounds must be sorted");
  counts_.assign(upper_bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  if (!internal::g_enabled) return;
  if (internal::t_capturing) {
    internal::CaptureObserve(this, value);
    return;
  }
  if (!std::isfinite(value)) return;  // non-finite observations are dropped
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - upper_bounds_.begin())];
  ++count_;
  sum_ += value;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // 1-based rank of the target observation; walk the cumulative counts to
  // its bucket and interpolate linearly inside it.
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < target) continue;
    const double lower = i == 0 ? 0.0 : upper_bounds_[i - 1];
    // The overflow bucket has no upper edge; clamp to the last bound (the
    // estimate is then a floor, which the snapshot's bucket counts make
    // auditable).
    const double upper =
        i < upper_bounds_.size() ? upper_bounds_[i] : upper_bounds_.back();
    const double within =
        std::max(0.0, (target - before) / static_cast<double>(counts_[i]));
    return lower + (upper - lower) * std::min(1.0, within);
  }
  return upper_bounds_.back();
}

void Histogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

const std::vector<double>& DefaultHistogramBounds() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> bounds;
    for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
      bounds.push_back(decade);
      bounds.push_back(2.0 * decade);
      bounds.push_back(5.0 * decade);
    }
    return bounds;
  }();
  return kBounds;
}

Registry& Registry::Global() {
  static Registry registry;
  return registry;
}

void Registry::Enable(bool on) { internal::g_enabled = on; }
bool Registry::enabled() { return internal::g_enabled; }

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (upper_bounds.empty()) upper_bounds = DefaultHistogramBounds();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name),
                                                  std::move(upper_bounds)))
             .first;
  }
  return it->second.get();
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, counter] : counters_) counter->Reset();
  for (auto& [_, gauge] : gauges_) gauge->Reset();
  for (auto& [_, histogram] : histograms_) histogram->Reset();
}

std::uint64_t Registry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

const Histogram* Registry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string Registry::SnapshotJson(int indent) const {
  std::lock_guard<std::mutex> lock(mu_);
  // std::map iteration is already name-sorted — the determinism guarantee.
  core::json::Writer w(indent);
  w.BeginObject();
  w.Key("schema");
  w.String("sisyphus.metrics/1");
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.Key(name);
    w.UInt(counter->value());
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w.Key(name);
    w.Double(gauge->value());
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.UInt(histogram->count());
    w.Key("sum");
    w.Double(histogram->sum());
    // Deterministic bucket-interpolated quantiles (pure functions of the
    // counts below, so they inherit the snapshot's byte-identity).
    w.Key("p50");
    w.Double(histogram->Quantile(0.50));
    w.Key("p95");
    w.Double(histogram->Quantile(0.95));
    w.Key("p99");
    w.Double(histogram->Quantile(0.99));
    w.Key("upper_bounds");
    w.BeginArray();
    for (double bound : histogram->upper_bounds()) w.Double(bound);
    w.EndArray();
    w.Key("bucket_counts");
    w.BeginArray();
    for (std::uint64_t count : histogram->bucket_counts()) w.UInt(count);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).str();
}

namespace {
// Last region serial this thread engaged with; a mismatch marks the lane's
// first task of the current region (its queue-wait sample).
thread_local std::uint64_t t_pool_region_serial = 0;
}  // namespace

PoolStats& PoolStats::Global() {
  static PoolStats stats;
  return stats;
}

void PoolStats::Enable(bool on) { internal::g_pool_stats_enabled = on; }

bool PoolStats::internal_pool_enabled() {
  return internal::g_pool_stats_enabled;
}

void PoolStats::Accum::Observe(double value) {
  if (count == 0 || value < min) min = value;
  if (value > max) max = value;
  sum += value;
  ++count;
  std::size_t bucket = 0;
  while (bucket + 1 < log2_buckets.size() &&
         value >= static_cast<double>(std::uint64_t{1} << (bucket + 1))) {
    ++bucket;
  }
  ++log2_buckets[bucket];
}

void PoolStats::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  regions_ = 0;
  tasks_ = 0;
  max_lanes_engaged_ = 0;
  queue_wait_us_ = {};
  task_us_ = {};
  region_span_us_ = {};
  utilization_ = {};
  // region_serial_ stays monotonic so per-thread lane detection survives.
  region_lanes_ = 0;
  region_engaged_ = 0;
  region_busy_us_ = 0.0;
  region_start_us_ = 0.0;
}

void PoolStats::RegionBegin(std::size_t task_count, std::size_t lanes) {
  std::lock_guard<std::mutex> lock(mu_);
  ++regions_;
  tasks_ += task_count;
  ++region_serial_;
  region_lanes_ = lanes;
  region_engaged_ = 0;
  region_busy_us_ = 0.0;
  region_start_us_ = SteadyNowUs();
}

void PoolStats::TaskStart() {
  const double now_us = SteadyNowUs();
  std::lock_guard<std::mutex> lock(mu_);
  if (t_pool_region_serial == region_serial_) return;  // lane already seen
  t_pool_region_serial = region_serial_;
  ++region_engaged_;
  queue_wait_us_.Observe(now_us > region_start_us_
                             ? now_us - region_start_us_
                             : 0.0);
}

void PoolStats::TaskEnd(double task_us) {
  std::lock_guard<std::mutex> lock(mu_);
  task_us_.Observe(task_us);
  region_busy_us_ += task_us;
}

void PoolStats::RegionEnd() {
  const double now_us = SteadyNowUs();
  std::lock_guard<std::mutex> lock(mu_);
  const double span_us =
      now_us > region_start_us_ ? now_us - region_start_us_ : 0.0;
  region_span_us_.Observe(span_us);
  if (region_lanes_ > 0 && span_us > 0.0) {
    utilization_.Observe(region_busy_us_ /
                         (static_cast<double>(region_lanes_) * span_us));
  }
  if (region_engaged_ > max_lanes_engaged_) {
    max_lanes_engaged_ = region_engaged_;
  }
}

void PoolStats::WriteJson(core::json::Writer& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Quantile estimate from the log2 buckets (bucket 0 = [0, 2), bucket b
  // = [2^b, 2^(b+1))), linearly interpolated inside the bucket — the same
  // scheme as Histogram::Quantile, adapted to power-of-two edges.
  const auto log2_quantile = [](const Accum& a, double q) {
    if (a.count == 0) return 0.0;
    const double target = q * static_cast<double>(a.count);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < a.log2_buckets.size(); ++b) {
      if (a.log2_buckets[b] == 0) continue;
      const double before = static_cast<double>(cumulative);
      cumulative += a.log2_buckets[b];
      if (static_cast<double>(cumulative) < target) continue;
      const double lower =
          b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << b);
      const double upper = static_cast<double>(std::uint64_t{1} << (b + 1));
      const double within = std::max(
          0.0, (target - before) / static_cast<double>(a.log2_buckets[b]));
      return lower + (upper - lower) * std::min(1.0, within);
    }
    return a.max;
  };
  const auto accum = [&w, &log2_quantile](const char* key, const Accum& a,
                                          bool buckets) {
    w.Key(key);
    w.BeginObject();
    w.Key("count");
    w.UInt(a.count);
    w.Key("mean");
    w.Double(a.count > 0 ? a.sum / static_cast<double>(a.count) : 0.0);
    w.Key("min");
    w.Double(a.count > 0 ? a.min : 0.0);
    w.Key("max");
    w.Double(a.max);
    if (buckets) {
      w.Key("p50");
      w.Double(log2_quantile(a, 0.50));
      w.Key("p95");
      w.Double(log2_quantile(a, 0.95));
      w.Key("p99");
      w.Double(log2_quantile(a, 0.99));
      w.Key("log2_buckets");
      w.BeginArray();
      for (std::uint64_t count : a.log2_buckets) w.UInt(count);
      w.EndArray();
    }
    w.EndObject();
  };
  w.BeginObject();
  w.Key("regions");
  w.UInt(regions_);
  w.Key("tasks");
  w.UInt(tasks_);
  w.Key("max_lanes_engaged");
  w.UInt(max_lanes_engaged_);
  accum("queue_wait_us", queue_wait_us_, true);
  accum("task_us", task_us_, true);
  accum("region_span_us", region_span_us_, true);
  accum("lane_utilization", utilization_, false);
  w.EndObject();
}

}  // namespace sisyphus::obs
