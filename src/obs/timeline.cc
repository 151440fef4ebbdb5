#include "obs/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/binio.h"
#include "core/error.h"
#include "core/hash.h"
#include "core/logging.h"

namespace sisyphus::obs {

namespace internal {
bool g_timeline_enabled = false;
}  // namespace internal

namespace {

std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void AppendVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool ReadVarint(std::string_view data, std::size_t& pos,
                std::uint64_t* out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos < data.size() && shift < 64) {
    const std::uint8_t byte = static_cast<std::uint8_t>(data[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

void AppendRawDouble(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

double ReadRawDouble(const char* p) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, p, sizeof(bits));
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::uint64_t LevelShiftConfig::Fingerprint() const {
  char text[160];
  std::snprintf(text, sizeof(text),
                "cusum alpha=%.6f drift=%.6f threshold=%.6f min_samples=%llu",
                ewma_alpha, drift, threshold,
                static_cast<unsigned long long>(min_samples));
  return core::Fnv1a64(text);
}

std::uint64_t ChurnConfig::Fingerprint() const {
  char text[64];
  std::snprintf(text, sizeof(text), "churn min_delta=%llu",
                static_cast<unsigned long long>(min_delta));
  return core::Fnv1a64(text);
}

// ---------------------------------------------------------------------------
// Timeline

Timeline& Timeline::Global() {
  static Timeline timeline;
  return timeline;
}

void Timeline::Enable(bool on) { internal::g_timeline_enabled = on; }

void Timeline::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  by_name_.clear();
  pending_.clear();
  pending_step_ = 0;
  events_.clear();
  committed_step_ = 0;
  first_step_ = 0;
  step_offset_ = 0;
}

std::uint32_t Timeline::DeclareLocked(std::string_view name, SeriesKind kind,
                                      DetectorKind detector,
                                      const LevelShiftConfig* shift,
                                      const ChurnConfig* churn) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  Series series;
  series.name = std::string(name);
  series.kind = kind;
  series.detector = detector;
  if (detector == DetectorKind::kLevelShift && shift != nullptr) {
    series.shift = *shift;
    series.fingerprint = series.shift.Fingerprint();
  } else if (detector == DetectorKind::kChurn && churn != nullptr) {
    series.churn = *churn;
    series.fingerprint = series.churn.Fingerprint();
  }
  const auto id = static_cast<std::uint32_t>(series_.size());
  by_name_.emplace(series.name, id);
  series_.push_back(std::move(series));
  return id;
}

std::uint32_t Timeline::DeclareCounter(std::string_view name,
                                       const ChurnConfig* churn) {
  std::lock_guard<std::mutex> lock(mu_);
  return DeclareLocked(name, SeriesKind::kCounter,
                       churn != nullptr ? DetectorKind::kChurn
                                        : DetectorKind::kNone,
                       nullptr, churn);
}

std::uint32_t Timeline::DeclareGauge(std::string_view name,
                                     const LevelShiftConfig* shift) {
  std::lock_guard<std::mutex> lock(mu_);
  return DeclareLocked(name, SeriesKind::kGauge,
                       shift != nullptr ? DetectorKind::kLevelShift
                                        : DetectorKind::kNone,
                       shift, nullptr);
}

std::uint32_t Timeline::DeclareRunningMean(std::string_view name,
                                           const LevelShiftConfig* shift) {
  std::lock_guard<std::mutex> lock(mu_);
  return DeclareLocked(name, SeriesKind::kRunningMean,
                       shift != nullptr ? DetectorKind::kLevelShift
                                        : DetectorKind::kNone,
                       shift, nullptr);
}

std::uint64_t Timeline::AbsoluteStepLocked(std::uint64_t step) {
  std::uint64_t abs = step + step_offset_;
  if (abs <= committed_step_ && pending_step_ == 0) {
    // A step at or below the last commit with nothing in flight means a
    // new campaign started in this process: offset it to stay monotone.
    step_offset_ = committed_step_ - step + 1;
    abs = step + step_offset_;
  }
  return abs;
}

void Timeline::Sample(std::uint64_t step, std::uint32_t series,
                      SampleValue value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t abs = AbsoluteStepLocked(step);
  if (abs <= committed_step_ || series >= series_.size()) return;
  SISYPHUS_REQUIRE(pending_step_ == 0 || pending_step_ == abs,
                   "Timeline: sample for a step other than the one in flight");
  pending_step_ = abs;
  pending_[series] = value;
}

void Timeline::SampleCounter(std::uint64_t step, std::uint32_t series,
                             std::uint64_t value) {
  Sample(step, series, SampleValue{value, 0.0});
}

void Timeline::SampleGauge(std::uint64_t step, std::uint32_t series,
                           double value) {
  Sample(step, series, SampleValue{0, value});
}

void Timeline::SampleRunningMean(std::uint64_t step, std::uint32_t series,
                                 std::uint64_t count, double sum) {
  Sample(step, series, SampleValue{count, sum});
}

void Timeline::RunLevelShiftLocked(std::uint64_t abs_step, std::uint32_t id,
                                   Series& series, double x) {
  const LevelShiftConfig& config = series.shift;
  if (!series.det_armed) {
    series.det_armed = true;
    series.det_mu = x;
    series.det_n = 1;
    series.det_s_pos = 0.0;
    series.det_s_neg = 0.0;
    return;
  }
  if (series.det_n >= config.min_samples) {
    series.det_s_pos =
        std::max(0.0, series.det_s_pos + (x - series.det_mu) - config.drift);
    series.det_s_neg =
        std::max(0.0, series.det_s_neg + (series.det_mu - x) - config.drift);
    if (series.det_s_pos > config.threshold ||
        series.det_s_neg > config.threshold) {
      DetectionEvent event;
      event.step = abs_step;
      event.series = id;
      event.direction = series.det_s_pos > config.threshold ? 1 : -1;
      event.magnitude = std::abs(x - series.det_mu);
      event.fingerprint = series.fingerprint;
      events_.push_back(event);
      // Re-center on the new level and restart accumulation.
      series.det_mu = x;
      series.det_n = 1;
      series.det_s_pos = 0.0;
      series.det_s_neg = 0.0;
      return;
    }
  }
  series.det_mu += config.ewma_alpha * (x - series.det_mu);
  ++series.det_n;
}

void Timeline::CommitStep(std::uint64_t step) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t abs_step = AbsoluteStepLocked(step);
  if (abs_step <= committed_step_) return;
  SISYPHUS_REQUIRE(pending_step_ == 0 || pending_step_ == abs_step,
                   "Timeline: commit of a step other than the one in flight");
  SISYPHUS_REQUIRE(committed_step_ == 0 || abs_step == committed_step_ + 1,
                   "Timeline: non-contiguous step commit");
  // pending_ is an ordered map, so detector evaluation (and therefore event
  // order within the step) is by ascending series id.
  for (const auto& [id, sample] : pending_) {
    Series& series = series_[id];
    if (series.first_step == 0) series.first_step = abs_step;
    switch (series.kind) {
      case SeriesKind::kCounter: {
        const std::uint64_t value = sample.u;
        AppendVarint(series.data,
                     ZigZag(static_cast<std::int64_t>(value) -
                            static_cast<std::int64_t>(series.last_counter)));
        series.last_counter = value;
        ++series.sample_count;
        if (series.detector == DetectorKind::kChurn) {
          const std::uint64_t delta =
              value >= series.prev_value ? value - series.prev_value : 0;
          if (delta >= series.churn.min_delta) {
            DetectionEvent event;
            event.step = abs_step;
            event.series = id;
            event.direction = 1;
            event.magnitude = static_cast<double>(delta);
            event.fingerprint = series.fingerprint;
            events_.push_back(event);
          }
          series.prev_value = value;
        }
        break;
      }
      case SeriesKind::kGauge: {
        AppendRawDouble(series.data, sample.d);
        series.last_gauge = sample.d;
        ++series.sample_count;
        if (series.detector == DetectorKind::kLevelShift) {
          RunLevelShiftLocked(abs_step, id, series, sample.d);
        }
        break;
      }
      case SeriesKind::kRunningMean: {
        const std::uint64_t count = sample.u;
        const double sum = sample.d;
        const double mean =
            count > 0 ? sum / static_cast<double>(count) : 0.0;
        AppendRawDouble(series.data, mean);
        series.last_gauge = mean;
        ++series.sample_count;
        if (series.detector == DetectorKind::kLevelShift &&
            count > series.prev_count) {
          const double increment =
              (sum - series.prev_sum) /
              static_cast<double>(count - series.prev_count);
          RunLevelShiftLocked(abs_step, id, series, increment);
        }
        series.prev_count = count;
        series.prev_sum = sum;
        break;
      }
    }
  }
  // Dense fill: a declared series with no sample this step repeats its
  // last value (counters: zero delta) so step attribution stays implicit
  // (first_step + index) for every series.
  for (std::size_t id = 0; id < series_.size(); ++id) {
    Series& series = series_[id];
    if (series.first_step == 0) continue;
    if (pending_.count(static_cast<std::uint32_t>(id)) != 0) continue;
    if (series.kind == SeriesKind::kCounter) {
      AppendVarint(series.data, ZigZag(0));
    } else {
      AppendRawDouble(series.data, series.last_gauge);
    }
    ++series.sample_count;
  }
  if (first_step_ == 0) first_step_ = abs_step;
  committed_step_ = abs_step;
  pending_.clear();
  pending_step_ = 0;
}

Timeline::Summary Timeline::GetSummary() const {
  std::lock_guard<std::mutex> lock(mu_);
  Summary summary;
  summary.steps =
      committed_step_ == 0 ? 0 : committed_step_ - first_step_ + 1;
  summary.first_step = first_step_;
  summary.last_step = committed_step_;
  summary.series = series_.size();
  for (const Series& series : series_) {
    summary.samples += series.sample_count;
  }
  summary.events = events_.size();
  for (const DetectionEvent& event : events_) {
    const Series& series = series_[event.series];
    if (series.detector == DetectorKind::kLevelShift) {
      ++summary.level_shift_events;
    } else if (series.detector == DetectorKind::kChurn) {
      ++summary.churn_events;
    }
  }
  return summary;
}

std::vector<DetectionEvent> Timeline::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string Timeline::BuildArtifact() const {
  std::lock_guard<std::mutex> lock(mu_);
  namespace section_file = core::section_file;
  using core::binio::Writer;
  section_file::Builder file;
  const auto section = [&](TimelineSectionKind kind, std::uint64_t run,
                           auto&& encode) {
    file.Add(static_cast<std::uint64_t>(kind), run, encode);
  };

  section(TimelineSectionKind::kMeta, section_file::kGlobal,
          [&](Writer& meta) {
            meta.PutString(kTimelineSchema);
            meta.PutU64(committed_step_ == 0
                            ? 0
                            : committed_step_ - first_step_ + 1);
            meta.PutU64(first_step_);
            meta.PutU64(committed_step_);
            meta.PutU64(series_.size());
            meta.PutU64(events_.size());
            for (const Series& series : series_) {
              meta.PutString(series.name);
              meta.PutU8(static_cast<std::uint8_t>(series.kind));
              meta.PutU8(static_cast<std::uint8_t>(series.detector));
              meta.PutU64(series.fingerprint);
              meta.PutU64(series.first_step);
              meta.PutU64(series.sample_count);
              if (series.detector == DetectorKind::kLevelShift) {
                meta.PutDouble(series.shift.ewma_alpha);
                meta.PutDouble(series.shift.drift);
                meta.PutDouble(series.shift.threshold);
                meta.PutU64(series.shift.min_samples);
              } else if (series.detector == DetectorKind::kChurn) {
                meta.PutU64(series.churn.min_delta);
              }
            }
          });
  for (std::size_t id = 0; id < series_.size(); ++id) {
    section(TimelineSectionKind::kSeries, id,
            [&](Writer& w) { w.PutRaw(series_[id].data); });
  }
  section(TimelineSectionKind::kEvents, section_file::kGlobal,
          [&](Writer& events) {
            events.PutU64(events_.size());
            for (const DetectionEvent& event : events_) {
              events.PutU64(event.step);
              events.PutU32(event.series);
              events.PutI64(event.direction);
              events.PutDouble(event.magnitude);
              events.PutU64(event.fingerprint);
            }
          });
  return std::move(file).Finish(kTimelineFormat);
}

// ---------------------------------------------------------------------------
// TimelineReader

core::Status TimelineReader::Parse(std::string bytes) {
  const auto fail = [](const std::string& what) {
    return core::Error(core::ErrorCode::kParseError, what);
  };
  bytes_ = std::move(bytes);
  const core::Result<std::vector<core::section_file::Entry>> table =
      core::section_file::ReadTable(bytes_, kTimelineFormat);
  if (!table.ok()) return table.error();

  using core::section_file::Entry;
  const Entry* meta_entry = nullptr;
  const Entry* events_entry = nullptr;
  std::vector<const Entry*> series_sections;
  for (std::size_t i = 0; i < table.value().size(); ++i) {
    const Entry& entry = table.value()[i];
    const core::Status verified =
        core::section_file::VerifySection(bytes_, entry, i);
    if (!verified.ok()) return verified;
    switch (static_cast<TimelineSectionKind>(entry.kind)) {
      case TimelineSectionKind::kMeta:
        meta_entry = &entry;
        break;
      case TimelineSectionKind::kSeries:
        series_sections.push_back(&entry);
        break;
      case TimelineSectionKind::kEvents:
        events_entry = &entry;
        break;
      default:
        break;  // unknown kinds are skipped (forward compatibility)
    }
  }
  if (meta_entry == nullptr) return fail("missing meta section");
  if (events_entry == nullptr) return fail("missing events section");

  core::binio::Reader meta(
      std::string_view(bytes_).substr(meta_entry->offset, meta_entry->size));
  const std::string schema = meta.GetString();
  if (schema != kTimelineSchema) return fail("bad schema '" + schema + "'");
  steps_ = meta.GetU64();
  first_step_ = meta.GetU64();
  last_step_ = meta.GetU64();
  const std::uint64_t series_count = meta.GetU64();
  const std::uint64_t event_count = meta.GetU64();
  if (!meta.ok()) return fail("meta section truncated");
  if (steps_ != (last_step_ == 0 ? 0 : last_step_ - first_step_ + 1)) {
    return fail("meta step range inconsistent with step count");
  }
  series_.clear();
  for (std::uint64_t i = 0; i < series_count; ++i) {
    TimelineSeriesView view;
    view.id = static_cast<std::uint32_t>(i);
    view.name = meta.GetString();
    view.kind = static_cast<SeriesKind>(meta.GetU8());
    view.detector = static_cast<DetectorKind>(meta.GetU8());
    view.fingerprint = meta.GetU64();
    view.first_step = meta.GetU64();
    view.sample_count = meta.GetU64();
    if (view.detector == DetectorKind::kLevelShift) {
      view.shift.ewma_alpha = meta.GetDouble();
      view.shift.drift = meta.GetDouble();
      view.shift.threshold = meta.GetDouble();
      view.shift.min_samples = meta.GetU64();
    } else if (view.detector == DetectorKind::kChurn) {
      view.churn.min_delta = meta.GetU64();
    }
    if (!meta.ok()) return fail("meta series table truncated");
    // Sampled series must be dense through the last committed step.
    if (view.first_step != 0 &&
        view.first_step + view.sample_count - 1 != last_step_) {
      return fail("series '" + view.name + "' is not dense to the last step");
    }
    series_.push_back(std::move(view));
  }
  if (series_sections.size() != series_.size()) {
    return fail("series section count disagrees with meta");
  }
  series_payload_.assign(series_.size(), {0, 0});
  std::vector<bool> seen(series_.size(), false);
  for (const Entry* entry : series_sections) {
    const std::uint64_t run = entry->run;
    if (run >= series_.size() || seen[run]) {
      return fail("series section run id invalid or duplicated");
    }
    // A counter delta takes at least one byte and a sample exactly eight,
    // so the payload bounds every sample count a reader allocates for.
    const TimelineSeriesView& view = series_[run];
    const std::uint64_t payload = entry->size;
    if (view.kind == SeriesKind::kCounter
            ? view.sample_count > payload
            : payload % 8 != 0 || view.sample_count != payload / 8) {
      return fail("series '" + view.name +
                  "' payload cannot hold its sample count");
    }
    seen[run] = true;
    series_payload_[run] = {entry->offset, entry->size};
  }

  core::binio::Reader ev(std::string_view(bytes_).substr(
      events_entry->offset, events_entry->size));
  const std::uint64_t declared_events = ev.GetU64();
  if (!ev.ok() || declared_events != event_count) {
    return fail("events section count disagrees with meta");
  }
  events_.clear();
  std::uint64_t prev_step = 0;
  for (std::uint64_t i = 0; i < declared_events; ++i) {
    DetectionEvent event;
    event.step = ev.GetU64();
    event.series = ev.GetU32();
    event.direction = static_cast<std::int32_t>(ev.GetI64());
    event.magnitude = ev.GetDouble();
    event.fingerprint = ev.GetU64();
    if (!ev.ok()) return fail("events section truncated");
    if (event.step < prev_step) return fail("events not step-ordered");
    prev_step = event.step;
    if (event.series >= series_.size()) {
      return fail("event references unknown series " +
                  std::to_string(event.series));
    }
    const TimelineSeriesView& owner = series_[event.series];
    if (event.fingerprint != owner.fingerprint) {
      return fail("event fingerprint disagrees with series '" + owner.name +
                  "'");
    }
    if (event.step < owner.first_step || event.step > last_step_) {
      return fail("event step outside series '" + owner.name + "' range");
    }
    events_.push_back(event);
  }
  if (ev.remaining() != 0) return fail("trailing bytes in events section");
  return core::Status::Ok();
}

core::Status TimelineReader::OpenFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return core::Error(core::ErrorCode::kNotFound, "cannot open " + path);
  }
  std::string bytes;
  char buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, n);
  }
  const bool read_ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!read_ok) {
    return core::Error(core::ErrorCode::kParseError, "read error on " + path);
  }
  return Parse(std::move(bytes));
}

const TimelineSeriesView* TimelineReader::FindSeries(
    std::string_view name) const {
  for (const TimelineSeriesView& view : series_) {
    if (view.name == name) return &view;
  }
  return nullptr;
}

core::Result<std::vector<double>> TimelineReader::SeriesValues(
    std::uint32_t id) const {
  const auto fail = [](const std::string& what) {
    return core::Error(core::ErrorCode::kParseError, what);
  };
  if (id >= series_.size()) {
    return core::Error(core::ErrorCode::kNotFound,
                       "no series " + std::to_string(id));
  }
  const TimelineSeriesView& view = series_[id];
  const auto [offset, size] = series_payload_[id];
  std::vector<double> values;
  values.reserve(view.sample_count);
  if (view.kind == SeriesKind::kCounter) {
    const std::string_view data(bytes_.data() + offset, size);
    std::size_t pos = 0;
    std::int64_t value = 0;
    for (std::uint64_t i = 0; i < view.sample_count; ++i) {
      std::uint64_t raw = 0;
      if (!ReadVarint(data, pos, &raw)) {
        return fail("series '" + view.name + "' delta stream truncated");
      }
      value += UnZigZag(raw);
      values.push_back(static_cast<double>(value));
    }
    if (pos != data.size()) {
      return fail("series '" + view.name + "' has trailing bytes");
    }
  } else {
    if (size != view.sample_count * 8) {
      return fail("series '" + view.name + "' payload size mismatch");
    }
    for (std::uint64_t i = 0; i < view.sample_count; ++i) {
      values.push_back(ReadRawDouble(bytes_.data() + offset + i * 8));
    }
  }
  return values;
}

core::Result<std::vector<std::pair<std::uint32_t, double>>>
TimelineReader::ValuesAt(std::uint64_t step) const {
  std::vector<std::pair<std::uint32_t, double>> out;
  for (const TimelineSeriesView& view : series_) {
    if (view.first_step == 0 || step < view.first_step || step > last_step_) {
      continue;
    }
    const core::Result<std::vector<double>> values = SeriesValues(view.id);
    if (!values.ok()) return values.error();
    out.push_back({view.id, values.value()[step - view.first_step]});
  }
  return out;
}

// ---------------------------------------------------------------------------

bool WriteTimelineArtifact(const std::string& dir) {
  const core::Status written = core::section_file::WriteFile(
      dir + "/timeline.bin", Timeline::Global().BuildArtifact());
  if (!written.ok()) {
    core::LogLine(core::LogLevel::kWarn, "timeline: write failed",
                  {{"why", written.error().message()}});
  }
  return written.ok();
}

}  // namespace sisyphus::obs
