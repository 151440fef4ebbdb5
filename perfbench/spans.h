// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed by the benchmark itself around calls into
// each module's public functions (the library is not instrumented). All
// spans live on the campaign thread, so they nest strictly: a span's self
// time is its duration minus the durations of its direct children, and the
// self times of all spans under a root add up to the root's duration. The
// module of a span is the prefix of its name before the first '.'; the
// root's module ("bench") collects the time no module span covers.
//
// Spans are kept in memory and written as Chrome-trace JSON (the format
// the library's own trace.json uses) when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload)
      : workload_(std::move(workload)), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void Enable(bool on) { enabled_ = on; }

  /// Drops every span; call it only while no span is open.
  void Clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Opens a span under the innermost open one; -1 while disabled.
  int Open(std::string_view name) {
    if (!enabled_) return -1;
    Span span;
    span.name = std::string(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_us = NowUs();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void Close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = NowUs();
    stack_.pop_back();
  }

  double DurationMs(int id) const {
    const Span& span = spans_[static_cast<std::size_t>(id)];
    return (span.end_us - span.start_us) / 1000.0;
  }

  /// Self time (ms) per module over the subtree rooted at `root`. The
  /// values add up to DurationMs(root); the root's own module holds the
  /// part no descendant covers.
  std::map<std::string, double> SelfMsByModule(int root) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    std::vector<bool> inside(spans_.size(), false);
    for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size();
         ++i) {
      const int parent = spans_[i].parent;
      inside[i] = static_cast<int>(i) == root ||
                  (parent >= 0 && inside[static_cast<std::size_t>(parent)]);
      if (inside[i] && static_cast<int>(i) != root) {
        child_us[static_cast<std::size_t>(parent)] +=
            spans_[i].end_us - spans_[i].start_us;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (!inside[i]) continue;
      const double own = spans_[i].end_us - spans_[i].start_us - child_us[i];
      self[Module(spans_[i].name)] += own / 1000.0;
    }
    return self;
  }

  /// {"traceEvents": [...]}: one complete ("ph":"X") event per span, with
  /// the span id, its parent and the workload in "args".
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 0, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, "
                   "\"workload\": \"%s\"}}%s\n",
                   span.name.c_str(), Module(span.name).c_str(),
                   span.start_us, span.end_us - span.start_us, i, span.parent,
                   workload_.c_str(), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
  }

  std::size_t size() const { return spans_.size(); }

  static std::string Module(std::string_view name) {
    return std::string(name.substr(0, name.find('.')));
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  std::string workload_;
  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when `recorder` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Open(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench
