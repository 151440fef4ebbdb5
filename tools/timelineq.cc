// timelineq — query CLI over the deterministic telemetry timeline
// (timeline.bin, DESIGN.md §15).
//
//   timelineq <path>                       summary (default)
//   timelineq <path> --summary             step range, series, event counts
//   timelineq <path> --series              list every series
//   timelineq <path> --series NAME         dump one series' per-step values
//   timelineq <path> --at STEP             every series' value at a step
//   timelineq <path> --events              detection events, step-ordered
//   timelineq <path> --follow [--until-step N]
//                                          tail a live durable run: re-read
//                                          the artifact as snapshots refresh
//                                          it, printing newly committed
//                                          steps and events
//
// <path> is a timeline.bin file or a directory containing one (an
// --obs-out dir or a live durable run's state dir). The whole artifact is
// checksum-verified on every open — a torn or corrupt file is a loud
// error, and --follow simply retries on the next poll (the durable
// service replaces the file atomically, so a reader never sees a partial
// write).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/timeline.h"

namespace {

using sisyphus::obs::DetectionEvent;
using sisyphus::obs::DetectorKind;
using sisyphus::obs::SeriesKind;
using sisyphus::obs::TimelineReader;
using sisyphus::obs::TimelineSeriesView;

const char* KindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter: return "counter";
    case SeriesKind::kGauge: return "gauge";
    case SeriesKind::kRunningMean: return "running_mean";
  }
  return "?";
}

const char* DetectorName(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kNone: return "-";
    case DetectorKind::kLevelShift: return "level_shift";
    case DetectorKind::kChurn: return "churn";
  }
  return "?";
}

std::string ResolvePath(const std::string& arg) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(arg, ec)) {
    return (fs::path(arg) / "timeline.bin").string();
  }
  return arg;
}

void PrintSummary(const TimelineReader& reader) {
  std::printf("timeline: steps %llu (first %llu, last %llu)\n",
              static_cast<unsigned long long>(reader.steps()),
              static_cast<unsigned long long>(reader.first_step()),
              static_cast<unsigned long long>(reader.last_step()));
  std::uint64_t samples = 0;
  std::uint64_t detectors = 0;
  for (const TimelineSeriesView& series : reader.series()) {
    samples += series.sample_count;
    if (series.detector != DetectorKind::kNone) ++detectors;
  }
  std::printf("series: %zu (%llu detector-armed), samples %llu\n",
              reader.series().size(),
              static_cast<unsigned long long>(detectors),
              static_cast<unsigned long long>(samples));
  std::uint64_t level_shift = 0;
  std::uint64_t churn = 0;
  for (const DetectionEvent& event : reader.events()) {
    const DetectorKind kind = reader.series()[event.series].detector;
    if (kind == DetectorKind::kLevelShift) ++level_shift;
    if (kind == DetectorKind::kChurn) ++churn;
  }
  std::printf("events: %zu (level_shift %llu, churn %llu)\n",
              reader.events().size(),
              static_cast<unsigned long long>(level_shift),
              static_cast<unsigned long long>(churn));
}

void PrintSeriesList(const TimelineReader& reader) {
  std::printf("%4s  %-12s  %-11s  %10s  %8s  %s\n", "id", "kind", "detector",
              "first_step", "samples", "name");
  for (const TimelineSeriesView& series : reader.series()) {
    std::printf("%4u  %-12s  %-11s  %10llu  %8llu  %s\n", series.id,
                KindName(series.kind), DetectorName(series.detector),
                static_cast<unsigned long long>(series.first_step),
                static_cast<unsigned long long>(series.sample_count),
                series.name.c_str());
  }
}

int PrintOneSeries(const TimelineReader& reader, const std::string& name) {
  const TimelineSeriesView* series = reader.FindSeries(name);
  if (series == nullptr) {
    std::printf("FAIL: no series named '%s' (try --series for the list)\n",
                name.c_str());
    return 1;
  }
  const auto decoded = reader.SeriesValues(series->id);
  if (!decoded.ok()) {
    std::printf("FAIL: %s\n", decoded.error().message().c_str());
    return 1;
  }
  const std::vector<double>& values = decoded.value();
  std::printf("# %s (%s, detector %s, fingerprint %016llx)\n",
              series->name.c_str(), KindName(series->kind),
              DetectorName(series->detector),
              static_cast<unsigned long long>(series->fingerprint));
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%llu %.17g\n",
                static_cast<unsigned long long>(series->first_step + i),
                values[i]);
  }
  return 0;
}

int PrintAt(const TimelineReader& reader, std::uint64_t step) {
  if (step < reader.first_step() || step > reader.last_step()) {
    std::printf("FAIL: step %llu outside [%llu, %llu]\n",
                static_cast<unsigned long long>(step),
                static_cast<unsigned long long>(reader.first_step()),
                static_cast<unsigned long long>(reader.last_step()));
    return 1;
  }
  const auto values = reader.ValuesAt(step);
  if (!values.ok()) {
    std::printf("FAIL: %s\n", values.error().message().c_str());
    return 1;
  }
  std::printf("step %llu:\n", static_cast<unsigned long long>(step));
  for (const auto& [id, value] : values.value()) {
    std::printf("  %-40s %.17g\n", reader.series()[id].name.c_str(), value);
  }
  return 0;
}

void PrintEvent(const TimelineReader& reader, const DetectionEvent& event) {
  const TimelineSeriesView& series = reader.series()[event.series];
  std::printf("step %6llu  %-11s  %s%.6g  %-40s  config %016llx\n",
              static_cast<unsigned long long>(event.step),
              DetectorName(series.detector),
              event.direction >= 0 ? "+" : "-", event.magnitude,
              series.name.c_str(),
              static_cast<unsigned long long>(event.fingerprint));
}

void PrintEvents(const TimelineReader& reader) {
  if (reader.events().empty()) {
    std::printf("no detection events\n");
    return;
  }
  for (const DetectionEvent& event : reader.events()) {
    PrintEvent(reader, event);
  }
}

/// Polls the artifact as the durable service refreshes it at snapshot
/// points, printing the step high-water and any new events. Exits 0 once
/// `until_step` is committed (0 = follow forever).
int Follow(const std::string& path, std::uint64_t until_step) {
  std::uint64_t seen_step = 0;
  std::size_t seen_events = 0;
  bool opened = false;
  for (;;) {
    TimelineReader reader;
    if (reader.OpenFile(path).ok()) {
      if (!opened) {
        opened = true;
        PrintSummary(reader);
      }
      if (reader.last_step() > seen_step) {
        seen_step = reader.last_step();
        std::printf("committed through step %llu\n",
                    static_cast<unsigned long long>(seen_step));
        std::fflush(stdout);
      }
      for (std::size_t i = seen_events; i < reader.events().size(); ++i) {
        PrintEvent(reader, reader.events()[i]);
      }
      if (reader.events().size() > seen_events) {
        seen_events = reader.events().size();
        std::fflush(stdout);
      }
      if (until_step > 0 && reader.last_step() >= until_step) return 0;
    }
    // Not-yet-written or mid-replace files simply retry; the service
    // renames the artifact into place atomically.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

int Usage() {
  std::printf(
      "usage: timelineq <timeline.bin | dir> "
      "[--summary | --series [NAME] | --at STEP | --events | "
      "--follow [--until-step N]]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string path = ResolvePath(argv[1]);

  std::string mode = "--summary";
  std::string series_name;
  std::uint64_t at_step = 0;
  std::uint64_t until_step = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--summary" || arg == "--series" || arg == "--events" ||
        arg == "--follow") {
      mode = arg;
      if (arg == "--series" && i + 1 < argc && argv[i + 1][0] != '-') {
        series_name = argv[++i];
      }
    } else if (arg == "--at" && i + 1 < argc) {
      mode = arg;
      at_step = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--until-step" && i + 1 < argc) {
      until_step = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }

  if (mode == "--follow") return Follow(path, until_step);

  TimelineReader reader;
  const sisyphus::core::Status opened = reader.OpenFile(path);
  if (!opened.ok()) {
    std::printf("FAIL %s: %s\n", path.c_str(),
                opened.error().message().c_str());
    return 1;
  }
  if (mode == "--summary") {
    PrintSummary(reader);
    return 0;
  }
  if (mode == "--series") {
    if (series_name.empty()) {
      PrintSeriesList(reader);
      return 0;
    }
    return PrintOneSeries(reader, series_name);
  }
  if (mode == "--at") return PrintAt(reader, at_step);
  if (mode == "--events") {
    PrintEvents(reader);
    return 0;
  }
  return Usage();
}
