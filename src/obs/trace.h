// Scoped spans and timers emitting a Chrome-trace-format event stream
// (chrome://tracing / Perfetto "traceEvents" JSON).
//
// Two clocks coexist:
//  - wall-clock spans (steady_clock, microseconds since the tracer was
//    enabled) for performance work — these are intentionally NOT part of
//    the deterministic metrics snapshot;
//  - sim-time spans (simulated minutes, rendered on their own track) for
//    campaign phases: vantage outage windows, treatment epochs, the
//    campaign span itself.
//
// Disabled (the default), a ScopedSpan costs one flag check; the library
// never records events unless a bench or test opts in.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/sim_time.h"

namespace sisyphus::obs {

/// One complete ("ph":"X") Chrome trace event.
struct TraceEvent {
  std::string name;
  std::string category;
  std::int64_t ts_us = 0;   ///< wall µs since enable, or sim minutes
  std::int64_t dur_us = 0;  ///< same unit as ts_us
  bool sim_clock = false;   ///< true = sim-time track (tid 1)
};

/// Collects trace events; renders Chrome trace JSON.
class Tracer {
 public:
  static Tracer& Global();

  /// Turning the tracer on stamps the wall-clock epoch; events record
  /// microseconds since that point.
  void Enable(bool on);
  bool enabled() const { return enabled_; }
  void Clear();

  /// Records a finished wall-clock span.
  void RecordWallSpan(std::string_view name, std::string_view category,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end);

  /// Records a sim-time span [start, end) on the sim track, in minutes.
  void RecordSimSpan(std::string_view name, std::string_view category,
                     core::SimTime start, core::SimTime end);

  /// Records an instant sim-time marker (zero duration).
  void RecordSimInstant(std::string_view name, std::string_view category,
                        core::SimTime at);

  /// Recorded events. Only safe while no parallel region is in flight
  /// (the Record* methods are mutex-guarded, since a span may end on any
  /// thread; this accessor is not).
  const std::vector<TraceEvent>& events() const { return events_; }

  /// {"traceEvents": [...]} — wall spans on tid 0, sim spans on tid 1
  /// (sim "µs" are simulated minutes; the two tracks are separate so the
  /// unit mismatch cannot mislead).
  std::string ToChromeTraceJson(int indent = 0) const;

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_{};
  mutable std::mutex mu_;  // guards events_ against worker-thread appends
  std::vector<TraceEvent> events_;
};

/// RAII wall-clock span recorded into Tracer::Global() on destruction.
/// `name` and `category` must outlive the scope (string literals).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "perf")
      : name_(name), category_(category) {
    if (Tracer::Global().enabled()) {
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedSpan() {
    if (armed_) {
      Tracer::Global().RecordWallSpan(name_, category_, start_,
                                      std::chrono::steady_clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Wall time elapsed so far, in milliseconds (0 when tracing is off —
  /// callers that need timing regardless should keep their own clock).
  double ElapsedMs() const {
    if (!armed_) return 0.0;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  const char* name_;
  const char* category_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace sisyphus::obs
