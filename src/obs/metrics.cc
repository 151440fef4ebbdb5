#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/binio.h"
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
  bool tracing = false;     // emit a wall span at TaskEnd
  bool pool_stats = false;  // feed PoolStats at TaskEnd
  std::chrono::steady_clock::time_point span_start{};
};

thread_local TaskBuffer* t_buffer = nullptr;

double SteadyNowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// TaskObserver wiring metric capture + per-task trace spans + pool gauges
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
    // top-level region's PoolStats bookkeeping.
    if (PoolStats::enabled() && !core::InParallelTask()) {
      PoolStats::Global().RegionBegin(task_count, lanes);
    }
  }

  void* TaskBegin(std::size_t /*task_index*/) override {
    const bool tracing = Tracer::Global().enabled();
    const bool pool_stats = PoolStats::enabled();
    if (!internal::g_enabled && !tracing && !pool_stats) return nullptr;
    auto* buffer = new TaskBuffer;
    buffer->tracing = tracing;
    buffer->pool_stats = pool_stats;
    if (tracing || pool_stats) {
      buffer->span_start = std::chrono::steady_clock::now();
    }
    if (pool_stats) PoolStats::Global().TaskStart();
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
    if (buffer == nullptr) return;
    if (buffer->tracing || buffer->pool_stats) {
      const auto now = std::chrono::steady_clock::now();
      if (buffer->tracing) {
        Tracer::Global().RecordWallSpan("parallel.task", "parallel",
                                        buffer->span_start, now);
      }
      if (buffer->pool_stats) {
        PoolStats::Global().TaskEnd(
            std::chrono::duration<double, std::micro>(now -
                                                      buffer->span_start)
                .count());
      }
    }
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
    if (PoolStats::enabled() && !core::InParallelTask()) {
      PoolStats::Global().RegionEnd();
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

void Histogram::LoadState(const std::vector<std::uint64_t>& counts,
                          std::uint64_t count, double sum) {
  if (counts.size() != counts_.size()) return;
  counts_ = counts;
  count_ = count;
  sum_ = sum;
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

void Registry::Save(core::binio::Writer& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.PutU64(counters_.size());
  for (const auto& [name, counter] : counters_) {
    w.PutString(name);
    w.PutU64(counter->value());
  }
  w.PutU64(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    w.PutString(name);
    w.PutDouble(gauge->value());
  }
  w.PutU64(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    w.PutString(name);
    core::binio::PutDoubleVector(w, histogram->upper_bounds());
    core::binio::PutU64Vector(w, histogram->bucket_counts());
    w.PutU64(histogram->count());
    w.PutDouble(histogram->sum());
  }
}

bool Registry::Load(core::binio::Reader& r) {
  // The whole payload is decoded and checked before any of it is applied,
  // so a rejected one leaves the registry as it was.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  const std::uint64_t counter_count = r.GetU64();
  for (std::uint64_t i = 0; i < counter_count && r.ok(); ++i) {
    std::string name = r.GetString();
    counters.emplace_back(std::move(name), r.GetU64());
  }
  std::vector<std::pair<std::string, double>> gauges;
  const std::uint64_t gauge_count = r.GetU64();
  for (std::uint64_t i = 0; i < gauge_count && r.ok(); ++i) {
    std::string name = r.GetString();
    gauges.emplace_back(std::move(name), r.GetDouble());
  }
  struct HistogramState {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<HistogramState> histograms;
  const std::uint64_t histogram_count = r.GetU64();
  for (std::uint64_t i = 0; i < histogram_count && r.ok(); ++i) {
    HistogramState h;
    h.name = r.GetString();
    h.bounds = core::binio::GetDoubleVector(r);
    h.counts = core::binio::GetU64Vector(r);
    h.count = r.GetU64();
    h.sum = r.GetDouble();
    if (!r.ok()) break;
    // Bounds the Histogram constructor would refuse, a bucket vector that
    // does not match them, a total that is not the buckets' sum, a name
    // out of Save's order, or bounds other than the ones already
    // registered under the name.
    std::uint64_t bucket_total = 0;
    for (std::uint64_t c : h.counts) bucket_total += c;
    if (h.bounds.empty() ||
        !std::all_of(h.bounds.begin(), h.bounds.end(),
                     [](double b) { return std::isfinite(b); }) ||
        !std::is_sorted(h.bounds.begin(), h.bounds.end()) ||
        h.counts.size() != h.bounds.size() + 1 || bucket_total != h.count ||
        (!histograms.empty() && h.name <= histograms.back().name)) {
      return false;
    }
    if (const Histogram* existing = FindHistogram(h.name);
        existing != nullptr && existing->upper_bounds() != h.bounds) {
      return false;
    }
    histograms.push_back(std::move(h));
  }
  if (!r.ok()) return false;
  for (const auto& [name, value] : counters) GetCounter(name)->LoadValue(value);
  for (const auto& [name, value] : gauges) GetGauge(name)->LoadValue(value);
  for (HistogramState& h : histograms) {
    GetHistogram(h.name, std::move(h.bounds))
        ->LoadState(h.counts, h.count, h.sum);
  }
  return true;
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
