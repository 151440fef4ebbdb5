// End-to-end benchmark for sisyphus: the paper's Table 1 workflow
// (measurement campaign -> <ASN, city> panel -> robust synthetic control
// with placebo inference) driven through the libraries' public APIs, with
// the scenario, vantage and panel set-up of table1_ixp_synth_control.
//
//   stream   streaming campaign (obs off), panel, the 8 placebo analyses
//   audited  the same with the --obs-out artifact set, then an audit.bin
//            query mix
//   durable  the same under DurableStreamingService, stopped inside the
//            last snapshot interval and finished by Resume
//   refit    repeated rounds of the 8 robust placebo analyses over a
//            scale-1 panel built during set-up
//
// Every run first repeats the workload at the reference program's seed and
// compares the Table 1 rows and the panel.csv digest with the reference
// program's output (--reference DIR holding its stdout.txt and panel.csv).
// With --trace 0 it then measures for --seconds and reports the end-to-end
// metrics; with --trace 1 it runs three untraced and three traced iterations
// and reports the per-layer metrics, a self-time table by module, and the
// tracing overhead. The last line of stdout is one JSON object
// {correct, attempted, failed, metrics}. README.md defines every metric.
//
// Durations are process CPU time divided by the host's slowdown, which a
// small fixed probe interleaved with the workload measures (see Sample::
// Normalize and README.md, "How time is measured"): on a shared VM the
// core's speed moves by 2x for seconds at a time.
//
//   perfbench_sisyphus --workload W --seed N --seconds S --trace 0|1
//       --scale X --reference DIR --work-dir DIR [--trace-out FILE]
//       [--threads L]

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "audit/reader.h"
#include "bench_util.h"
#include "causal/placebo.h"
#include "core/hash.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "durable/journal.h"
#include "durable/service.h"
#include "durable/snapshot.h"
#include "measure/export.h"
#include "measure/panel.h"
#include "measure/platform.h"
#include "netsim/scenario_za.h"
#include "obs/lineage.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "spans.h"
#include "stats/decomposition.h"

namespace {

using namespace sisyphus;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using Wall = perfbench::Clock;
namespace fs = std::filesystem;

/// CPU time of the whole process. At the pinned single lane every pool
/// region runs inline on the campaign thread, so this is the workload's
/// own CPU time. On a shared VM it leaves out the time the hypervisor
/// hands to other guests, which wall time counts.
struct Cpu {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Cpu>;
  static constexpr bool is_steady = true;
  static time_point now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(std::chrono::seconds(ts.tv_sec) +
                      std::chrono::nanoseconds(ts.tv_nsec));
  }
};

/// The probe's time (ms) on an uncontended core of the reference host (a
/// 2.0 GHz Xeon VM); normalized durations are CPU time at that speed.
constexpr double kProbeReferenceMs = 0.0064;
/// Repeats of the audit query mix per audited iteration; each repeat is
/// 1 waterfall + one FindUnit per panel unit + one FindEstimate per
/// estimate + one Terminal per stage + 1 Ranked.
constexpr int kQueryRounds = 4;
/// Steps on each side of a step whose probes set its slowdown.
constexpr std::size_t kStepProbeWindow = 16;
/// Host-speed probes around each analysis (one analysis takes ~125 ms, one
/// probe ~20 us).
constexpr int kProbesPerAnalysis = 8;
/// refit: set-ups (campaign + panel) per run, and rounds per traced leg.
constexpr int kRefitSetups = 7;
constexpr int kTracedRefitRounds = 10;
/// Untraced and traced iterations per traced run; the tracing overhead and
/// obs.inline_ms compare their fastest.
constexpr int kTracedRepeats = 3;

const char* const kModules[] = {"netsim", "measure", "durable", "obs",
                                "audit",  "causal",  "stats",   "core"};

template <typename TimePoint>
double Seconds(TimePoint from, TimePoint to = TimePoint::clock::now()) {
  return std::chrono::duration<double>(to - from).count();
}

template <typename TimePoint>
double Ms(TimePoint from, TimePoint to = TimePoint::clock::now()) {
  return 1000.0 * Seconds(from, to);
}

/// Linearly interpolated quantile; 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One pass of the host-speed probe's fixed work: a 32x32 floating-point
/// matrix product. Its 24 KiB of data stay in L1 between back-to-back
/// passes, and it has no data-dependent branches, so neither the
/// workload's cache footprint nor its branch history reaches it. Aligned
/// and never inlined, so edits elsewhere do not move its code.
__attribute__((noinline, aligned(64))) double ProbePass() {
  constexpr int n = 32;
  alignas(64) static double a[n * n], b[n * n], c[n * n];
  if (a[0] == 0.0) {
    std::fill(a, a + n * n, 0.5);
    std::fill(b, b + n * n, 0.25);
  }
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < n; ++k) {
      const double x = a[i * n + k];
      for (int j = 0; j < n; ++j) c[i * n + j] += x * b[k * n + j];
    }
  }
  return c[n + 1];
}

volatile double probe_sink;

/// The host-speed probe: an untimed ProbePass to fill L1, then a timed
/// one. Returns the timed pass's CPU ms.
double ProbeMs() {
  probe_sink = ProbePass();
  const auto start = Cpu::now();
  probe_sink = ProbePass();
  return Ms(start);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string EstimateLabel(std::size_t unit) {
  return "table1.robust.unit" + std::to_string(unit);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string reference_dir;
  std::string work_dir;
  std::string trace_out;
};

/// Operations (steps, analyses, queries, resumes) and correctness checks
/// attempted and failed.
class Ledger {
 public:
  bool Record(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  void Succeeded(std::uint64_t count) { attempted_ += count; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Scenario, platform and vantages as table1_ixp_synth_control sets them
/// up. The platform refers to the scenario's simulator.
struct Setup {
  netsim::ScenarioZa scenario;
  measure::PlatformOptions platform_options;
  std::unique_ptr<measure::Platform> platform;
  measure::PanelOptions panel_options;
  double scenario_build_ms = 0.0;
};

/// One iteration's measurements and outputs. Durations are CPU time
/// (Cpu), scaled by Normalize to the reference host speed, unless named
/// wall or raw.
struct Sample {
  double setup_s = 0.0;
  double run_s = 0.0;
  double raw_run_s = 0.0;   ///< run_s before Normalize
  double run_wall_s = 0.0;  ///< run_s in wall time, for the lane legs
  double loop_s = 0.0;      ///< step loop
  std::vector<double> probe_ms;  ///< every host-speed probe
  std::vector<double> step_probe_ms;  ///< the probe taken at each step
  double slowdown = 1.0;         ///< mean probe over kProbeReferenceMs
  /// The benchmark's own work inside the timed windows (probes, snapshot
  /// polls, step hooks), left out of every duration.
  double bench_ms = 0.0;
  std::uint64_t records = 0;
  std::uint64_t steps = 0;
  std::vector<double> step_ms;  ///< per step: GenerateStep start to ingest done
  std::vector<double> generate_ms;
  std::vector<double> ingest_ms;
  double commit_failures_ms = 0.0;
  double step_telemetry_ms = 0.0;
  double finalize_panel_ms = 0.0;
  double scenario_build_ms = 0.0;

  std::vector<double> analysis_ms;  ///< per unit: input + placebo analysis
  std::vector<double> placebo_ms;   ///< per unit: RunPlaceboAnalysis alone
  std::vector<double> analysis_slowdown;  ///< per unit: its probes' slowdown
  double make_input_ms = 0.0;       ///< summed over units
  double analyses_s = 0.0;          ///< the analysis fan-out
  std::vector<double> svd_ms;       ///< traced: SvdDecompose per donor matrix

  std::string rows;         ///< Table 1 rows, formatted as the reference prints them
  std::string result_bits;  ///< raw bytes of every (effect, RMSE ratio, p)
  std::uint64_t panel_digest = 0;
  std::uint64_t result_digest = 0;

  std::vector<double> query_ms;  ///< per query, Open included
  std::vector<double> open_ms;
  std::map<std::string, std::vector<double>> query_op_ms;
  double verify_all_ms = 0.0;
  double write_run_artifacts_ms = 0.0;
  double audit_write_ms = 0.0;
  double timeline_write_ms = 0.0;
  std::map<std::string, std::uint64_t> artifact_bytes;

  double resume_s = 0.0;
  std::uint64_t replayed_steps = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t snapshot_count = 0;
  std::uint64_t snapshot_bytes = 0;
  double snapshot_ms = 0.0;  ///< traced: stall of snapshot steps over neighbours

  void Probe() {
    const auto start = Cpu::now();
    probe_ms.push_back(ProbeMs());
    bench_ms += Ms(start);
  }

  /// Divides every CPU duration by the iteration's slowdown: the mean of
  /// its probes over the reference probe time. An analysis is divided by
  /// the slowdown of the probes that bracket it, and the analysis totals by
  /// the mean of those.
  void Normalize() {
    raw_run_s = run_s;
    if (probe_ms.empty()) return;
    slowdown = Sum(probe_ms) / static_cast<double>(probe_ms.size()) /
               kProbeReferenceMs;
    const double f = 1.0 / slowdown;
    for (double* v : {&setup_s, &run_s, &loop_s, &commit_failures_ms,
                      &step_telemetry_ms, &finalize_panel_ms,
                      &scenario_build_ms, &verify_all_ms,
                      &write_run_artifacts_ms, &audit_write_ms,
                      &timeline_write_ms, &resume_s, &snapshot_ms}) {
      *v *= f;
    }
    for (std::vector<double>* series : {&query_ms, &open_ms}) {
      for (double& v : *series) v *= f;
    }
    // A step is divided by the slowdown of the probes of the steps around
    // it, which follows the host's speed more closely than the mean.
    std::vector<double> local(step_probe_ms.size(), slowdown);
    const std::size_t n = step_probe_ms.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lo = i >= kStepProbeWindow ? i - kStepProbeWindow : 0;
      const std::size_t hi = std::min(n, i + kStepProbeWindow + 1);
      double sum = 0.0;
      for (std::size_t k = lo; k < hi; ++k) sum += step_probe_ms[k];
      local[i] = sum / static_cast<double>(hi - lo) / kProbeReferenceMs;
    }
    for (std::vector<double>* series : {&step_ms, &generate_ms, &ingest_ms}) {
      for (std::size_t i = 0; i < series->size(); ++i) {
        (*series)[i] /= i < n ? local[i] : slowdown;
      }
    }
    for (std::size_t i = 0; i < analysis_ms.size(); ++i) {
      analysis_ms[i] /= analysis_slowdown[i];
      placebo_ms[i] /= analysis_slowdown[i];
    }
    if (!analysis_slowdown.empty()) {
      const double g = static_cast<double>(analysis_slowdown.size()) /
                       Sum(analysis_slowdown);
      make_input_ms *= g;
      analyses_s *= g;
      for (double& v : svd_ms) v *= g;
    }
    for (auto& [kind, series] : query_op_ms) {
      for (double& v : series) v *= f;
    }
  }
};

struct UnitOutcome {
  bool ok = false;
  std::string error;
  double delta = 0.0;
  double rmse_ratio = 0.0;
  double p_value = 0.0;
  std::vector<std::string> donors;
  double make_input_ms = 0.0;
  double placebo_ms = 0.0;
  std::vector<double> probe_ms;  ///< host-speed probes around the analysis
  double bench_ms = 0.0;
  stats::Matrix donor_matrix;  ///< kept for the traced SVD probe
};

/// One Table 1 row as bench::TableWriter prints it in the reference.
std::string RowLine(const netsim::TreatedUnit& unit, const UnitOutcome& o) {
  char delta[32], rmse[32], p[32], paper[32], line[256];
  std::snprintf(delta, sizeof(delta), "%+.2f", o.delta);
  std::snprintf(rmse, sizeof(rmse), "%.1f", o.rmse_ratio);
  std::snprintf(p, sizeof(p), "%.3f", o.p_value);
  std::snprintf(paper, sizeof(paper), "%+.2f", unit.paper_delta_ms);
  std::snprintf(line, sizeof(line), "%-22s  %-14s  %-10s  %-6s  %-11s  \n",
                unit.name.c_str(), delta, rmse, p, paper);
  return line;
}

/// Adds up the extra time of the steps that wrote a snapshot: each such
/// step's interval minus the median of the non-snapshot intervals within
/// half a snapshot period around it. `intervals[j]` spans step j+1's
/// ingest, telemetry and snapshot, and step j+2's generation and journal.
double SnapshotStallMs(const std::vector<double>& intervals,
                       std::uint64_t every) {
  double total = 0.0;
  const std::size_t half = static_cast<std::size_t>(every / 2);
  for (std::size_t j = 0; j < intervals.size(); ++j) {
    if ((j + 1) % every != 0) continue;
    std::vector<double> neighbours;
    const std::size_t end = std::min(intervals.size(), j + half + 1);
    for (std::size_t k = j >= half ? j - half : 0; k < end; ++k) {
      if ((k + 1) % every != 0) neighbours.push_back(intervals[k]);
    }
    total += std::max(0.0, intervals[j] - Median(neighbours));
  }
  return total;
}

void PollSnapshots(const std::string& dir,
                   std::map<std::uint64_t, std::uint64_t>& sizes) {
  for (const auto& entry : durable::ListSnapshots(dir)) {
    sizes.try_emplace(entry.seq, FileBytes(entry.path));
  }
}

/// Turns off everything bench::ObsRun turned on and drops what it held.
void DisableObs() {
  obs::Registry::Enable(false);
  obs::Tracer::Global().Enable(false);
  obs::Tracer::Global().Clear();
  obs::Lineage::Enable(false);
  obs::Lineage::Global().Reset();
  obs::PoolStats::Enable(false);
  obs::Timeline::Enable(false);
  obs::Timeline::Global().Reset();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Bench {
 public:
  explicit Bench(Args args)
      : args_(std::move(args)),
        spans_(args_.workload),
        reference_seed_(netsim::ScenarioZaOptions().seed) {}

  int Main();

 private:
  using StepHook = std::function<void(const measure::StepOutput&)>;

  /// A refit set-up: the campaign's scenario and its finalized panel.
  struct RefitInput {
    Setup setup;
    measure::Panel panel;
  };

  Setup BuildSetup();
  std::unique_ptr<measure::StreamingCampaign> MakeCampaign(const Setup& setup);
  void RunStepLoop(Setup& setup, measure::StreamingCampaign& campaign,
                   core::Rng& rng, Sample& s, const StepHook& on_step = {});
  measure::Panel FinalizePanel(const measure::StreamingCampaign& campaign,
                               Sample& s);
  void RunAnalyses(const Setup& setup, const measure::Panel& panel, Sample& s);
  void Summarize(const measure::Panel& panel, Sample& s);

  Sample Stream(std::uint64_t seed, const StepHook& on_step = {});
  Sample Audited(std::uint64_t seed);
  Sample Durable(std::uint64_t seed);
  Sample Iteration(std::uint64_t seed);
  RefitInput BuildRefitInput(std::uint64_t seed, Sample& s);
  Sample RefitRound(const RefitInput& input);

  void WriteArtifacts(bench::ObsRun& obs_run, const std::string& dir,
                      Sample& s);
  void RunQueries(const std::string& path, const measure::Panel& panel,
                  std::size_t estimates, Sample& s);

  void CheckReference();
  std::vector<Metric> Untraced();
  std::vector<Metric> Traced();
  std::vector<durable::JournalFrame> DurableProbes(double* scan_ms,
                                                   double* read_ms,
                                                   double* append_ms);
  void PrintSample(const char* label, const Sample& s) const;
  void PrintJson(const std::vector<Metric>& metrics);

  bool refit() const { return args_.workload == "refit"; }
  std::string DurableDir() const { return args_.work_dir + "/durable"; }

  Args args_;
  Ledger ledger_;
  SpanRecorder spans_;
  std::uint64_t reference_seed_;
};

Setup Bench::BuildSetup() {
  Setup s;
  {
    ScopedSpan span(&spans_, "netsim.build_scenario");
    const auto start = Cpu::now();
    s.scenario = netsim::BuildScenarioZa(netsim::ScenarioZaOptions());
    s.scenario_build_ms = Ms(start);
  }
  ScopedSpan span(&spans_, "measure.add_vantages");
  s.platform_options.server = s.scenario.content_jnb;
  s.platform_options.step = core::SimTime::FromHours(1);
  s.platform = std::make_unique<measure::Platform>(*s.scenario.simulator,
                                                   s.platform_options);
  measure::VantageConfig vantage;
  vantage.baseline_tests_per_day = 10.0 * args_.scale;
  vantage.user_tests_per_day = 4.0 * args_.scale;
  for (const auto& unit : s.scenario.treated) {
    vantage.pop = unit.access_pop;
    s.platform->AddVantage(vantage);
  }
  for (netsim::PopIndex donor : s.scenario.donors) {
    vantage.pop = donor;
    s.platform->AddVantage(vantage);
  }
  s.panel_options.bucket = core::SimTime::FromHours(6);
  s.panel_options.periods = static_cast<std::size_t>(
      s.scenario.options.horizon.minutes() /
      s.panel_options.bucket.minutes());
  return s;
}

std::unique_ptr<measure::StreamingCampaign> Bench::MakeCampaign(
    const Setup& setup) {
  measure::StreamingOptions options;
  options.panel = setup.panel_options;
  return std::make_unique<measure::StreamingCampaign>(
      setup.platform_options.validation, options);
}

/// Platform::RunStreaming's loop, one public call at a time. `on_step`
/// and a host-speed probe run between generation and ingest and are
/// excluded from every timing.
void Bench::RunStepLoop(Setup& setup, measure::StreamingCampaign& campaign,
                        core::Rng& rng, Sample& s, const StepHook& on_step) {
  measure::Platform& platform = *setup.platform;
  const core::SimTime until = setup.scenario.options.horizon;
  const auto loop_start = Cpu::now();
  const double bench_before = s.bench_ms;
  measure::DeclareStreamTelemetrySeries();
  while (platform.Now() < until) {
    const auto t0 = Cpu::now();
    measure::StepOutput step;
    {
      ScopedSpan span(&spans_, "measure.generate");
      step = platform.GenerateStep(until, rng);
    }
    const auto t1 = Cpu::now();
    if (on_step) on_step(step);
    s.step_probe_ms.push_back(ProbeMs());
    s.probe_ms.push_back(s.step_probe_ms.back());
    const auto t2 = Cpu::now();
    {
      ScopedSpan span(&spans_, "measure.ingest");
      campaign.IngestBatch(step.records);
    }
    const auto t3 = Cpu::now();
    {
      ScopedSpan span(&spans_, "measure.commit_failures");
      platform.CommitFailures(step.failures);
    }
    const auto t4 = Cpu::now();
    ++s.steps;
    s.records += step.records.size();
    {
      ScopedSpan span(&spans_, "measure.step_telemetry");
      measure::EmitStepTelemetry(s.steps, s.records, 0,
                                 setup.platform_options.heartbeat_every_steps,
                                 &campaign,
                                 /*ingest_sampled_elsewhere=*/false);
    }
    const auto t5 = Cpu::now();
    s.generate_ms.push_back(Ms(t0, t1));
    s.ingest_ms.push_back(Ms(t2, t3));
    s.commit_failures_ms += Ms(t3, t4);
    s.step_telemetry_ms += Ms(t4, t5);
    s.step_ms.push_back(Ms(t0, t1) + Ms(t2, t4));
    s.bench_ms += Ms(t1, t2);
  }
  s.loop_s = Seconds(loop_start) - (s.bench_ms - bench_before) / 1000.0;
  ledger_.Succeeded(s.steps);
}

measure::Panel Bench::FinalizePanel(const measure::StreamingCampaign& campaign,
                                    Sample& s) {
  ScopedSpan span(&spans_, "measure.finalize_panel");
  const auto start = Cpu::now();
  measure::Panel panel = campaign.FinalizePanel();
  s.finalize_panel_ms = Ms(start);
  return panel;
}

/// table1_ixp_synth_control's robust pass: one task per treated unit over
/// the pool, then an ordered merge that records the estimate gauges and
/// lineage exactly as the reference does.
void Bench::RunAnalyses(const Setup& setup, const measure::Panel& panel,
                        Sample& s) {
  const netsim::ScenarioZa& scenario = setup.scenario;
  const bool keep_donors = spans_.enabled();
  std::vector<UnitOutcome> outcomes;
  {
    ScopedSpan span(&spans_, "causal.placebo_round");
    const auto start = Cpu::now();
    outcomes = core::ParallelMap(scenario.treated.size(), [&](std::size_t u) {
      const netsim::TreatedUnit& unit = scenario.treated[u];
      UnitOutcome outcome;
      // Half the probes before the analysis and half after, so together
      // they bracket it.
      const auto probe = [&outcome] {
        const auto start = Cpu::now();
        for (int k = 0; k < kProbesPerAnalysis / 2; ++k) {
          outcome.probe_ms.push_back(ProbeMs());
        }
        outcome.bench_ms += Ms(start);
      };
      probe();
      const auto t0 = Cpu::now();
      auto input = measure::MakeSyntheticControlInput(
          panel, unit.name, scenario.donor_names,
          scenario.options.treatment_time);
      const auto t1 = Cpu::now();
      outcome.make_input_ms = Ms(t0, t1);
      if (!input.ok()) {
        outcome.error = input.error().ToText();
        return outcome;
      }
      auto result = causal::RunPlaceboAnalysis(input.value(),
                                               causal::PlaceboOptions());
      outcome.placebo_ms = Ms(t1);
      probe();
      if (!result.ok()) {
        outcome.error = result.error().ToText();
        return outcome;
      }
      outcome.ok = true;
      outcome.delta = result.value().treated_fit.average_effect;
      outcome.rmse_ratio = result.value().treated_fit.rmse_ratio;
      outcome.p_value = result.value().p_value;
      outcome.donors = input.value().donor_names;
      if (keep_donors) outcome.donor_matrix = input.value().donors;
      return outcome;
    });
    double bench_ms = 0.0;
    for (const UnitOutcome& o : outcomes) {
      s.probe_ms.insert(s.probe_ms.end(), o.probe_ms.begin(),
                        o.probe_ms.end());
      bench_ms += o.bench_ms;
    }
    s.bench_ms += bench_ms;
    s.analyses_s += Seconds(start) - bench_ms / 1000.0;
  }
  for (std::size_t u = 0; u < outcomes.size(); ++u) {
    const UnitOutcome& o = outcomes[u];
    const netsim::TreatedUnit& unit = scenario.treated[u];
    if (!ledger_.Record(o.ok && std::isfinite(o.delta) &&
                            std::isfinite(o.p_value),
                        "analysis of " + unit.name + ": " + o.error)) {
      continue;
    }
    const std::string prefix = EstimateLabel(u);
    obs::Registry::Global().GetGauge(prefix + ".effect_ms")->Set(o.delta);
    obs::Registry::Global().GetGauge(prefix + ".p_value")->Set(o.p_value);
    if (obs::Lineage::enabled()) {
      obs::Lineage::Global().AddEstimate(prefix, unit.name, o.donors, o.delta,
                                         o.p_value);
    }
    s.analysis_ms.push_back(o.make_input_ms + o.placebo_ms);
    s.placebo_ms.push_back(o.placebo_ms);
    s.analysis_slowdown.push_back(Sum(o.probe_ms) /
                                  static_cast<double>(o.probe_ms.size()) /
                                  kProbeReferenceMs);
    s.make_input_ms += o.make_input_ms;
    s.rows += RowLine(unit, o);
    for (double v : {o.delta, o.rmse_ratio, o.p_value}) {
      char bytes[sizeof(double)];
      std::memcpy(bytes, &v, sizeof(v));
      s.result_bits.append(bytes, sizeof(bytes));
    }
  }
  if (!keep_donors) return;
  // stats layer probe: the SVD each fit starts from, on the same matrix.
  for (const UnitOutcome& o : outcomes) {
    if (!o.ok) continue;
    ScopedSpan span(&spans_, "stats.svd_probe");
    const auto start = Cpu::now();
    const bool ok = stats::SvdDecompose(o.donor_matrix).ok();
    s.svd_ms.push_back(Ms(start));
    ledger_.Record(ok, "SvdDecompose on a donor matrix");
  }
}

void Bench::Summarize(const measure::Panel& panel, Sample& s) {
  const std::string csv = measure::PanelToCsv(panel);
  s.panel_digest = core::Fnv1a64(csv);
  s.result_digest = core::Fnv1a64(csv + s.rows + s.result_bits);
}

Sample Bench::Stream(std::uint64_t seed, const StepHook& on_step) {
  Sample s;
  const auto start = Cpu::now();
  Setup setup = BuildSetup();
  s.setup_s = Seconds(start);
  s.scenario_build_ms = setup.scenario_build_ms;
  const auto run_start = Cpu::now();
  const auto run_wall_start = Wall::now();
  auto campaign = MakeCampaign(setup);
  core::Rng rng(seed);
  RunStepLoop(setup, *campaign, rng, s, on_step);
  const measure::Panel panel = FinalizePanel(*campaign, s);
  RunAnalyses(setup, panel, s);
  s.run_s = Seconds(run_start) - s.bench_ms / 1000.0;
  s.run_wall_s = Seconds(run_wall_start);
  s.Normalize();
  Summarize(panel, s);
  return s;
}

Sample Bench::Audited(std::uint64_t seed) {
  Sample s;
  const std::string dir = args_.work_dir + "/obs";
  const auto start = Cpu::now();
  // As in table1: observability is on before the scenario is built, and
  // the campaign is built after lineage is enabled.
  bench::ObsRun obs_run("perfbench_audited", dir, seed);
  Setup setup = BuildSetup();
  s.setup_s = Seconds(start);
  s.scenario_build_ms = setup.scenario_build_ms;
  const auto run_start = Cpu::now();
  const auto run_wall_start = Wall::now();
  auto campaign = MakeCampaign(setup);
  core::Rng rng(seed);
  RunStepLoop(setup, *campaign, rng, s);
  const measure::Panel panel = FinalizePanel(*campaign, s);
  RunAnalyses(setup, panel, s);
  WriteArtifacts(obs_run, dir, s);
  const obs::LineageWaterfall totals = obs::Lineage::Global().Totals();
  std::uint64_t terminals = 0;
  for (std::uint64_t count : totals.terminal) terminals += count;
  ledger_.Record(totals.emitted == terminals && totals.emitted == s.records,
                 "lineage conservation: emitted = sum of terminals = records "
                 "committed");
  RunQueries(dir + "/audit.bin", panel, setup.scenario.treated.size(), s);
  s.run_s = Seconds(run_start) - s.bench_ms / 1000.0;
  s.run_wall_s = Seconds(run_wall_start);
  s.Normalize();
  for (const char* name : {"manifest.json", "metrics.json", "trace.json",
                           "lineage.json", "audit.bin", "timeline.bin"}) {
    s.artifact_bytes[name] = FileBytes(dir + "/" + name);
  }
  Summarize(panel, s);
  DisableObs();
  return s;
}

/// bench::ObsRun::Finish, its three writer calls made one by one so each
/// is timed and gets a span.
void Bench::WriteArtifacts(bench::ObsRun& obs_run, const std::string& dir,
                           Sample& s) {
  bench::PrintWaterfallSummary();
  const obs::Timeline::Summary timeline = obs::Timeline::Global().GetSummary();
  obs::RunManifest& manifest = obs_run.manifest();
  manifest.timeline.enabled = true;
  manifest.timeline.steps = timeline.steps;
  manifest.timeline.first_step = timeline.first_step;
  manifest.timeline.last_step = timeline.last_step;
  manifest.timeline.series = timeline.series;
  manifest.timeline.samples = timeline.samples;
  manifest.timeline.events = timeline.events;
  manifest.timeline.level_shift_events = timeline.level_shift_events;
  manifest.timeline.churn_events = timeline.churn_events;
  std::error_code ec;
  fs::create_directories(dir, ec);
  bool ok = false;
  {
    ScopedSpan span(&spans_, "obs.write_run_artifacts");
    const auto start = Cpu::now();
    ok = obs::WriteRunArtifacts(dir, manifest, obs::Registry::Global(),
                                obs::Tracer::Global(), obs::Lineage::Global())
             .ok();
    s.write_run_artifacts_ms = Ms(start);
  }
  ledger_.Record(ok, "WriteRunArtifacts");
  {
    ScopedSpan span(&spans_, "audit.write");
    const auto start = Cpu::now();
    ok = audit::WriteAuditArtifact(dir, obs::Lineage::Global()).ok();
    s.audit_write_ms = Ms(start);
  }
  ledger_.Record(ok, "WriteAuditArtifact");
  {
    ScopedSpan span(&spans_, "obs.timeline_write");
    const auto start = Cpu::now();
    ok = obs::WriteTimelineArtifact(dir);
    s.timeline_write_ms = Ms(start);
  }
  ledger_.Record(ok, "WriteTimelineArtifact");
}

/// The lineageq-style query mix against a fresh audit.bin. Every query
/// opens its own reader, so each latency includes Open.
void Bench::RunQueries(const std::string& path, const measure::Panel& panel,
                       std::size_t estimates, Sample& s) {
  enum class Kind { kWaterfall, kUnit, kEstimate, kTerminal, kRanked };
  struct Query {
    Kind kind;
    const char* label;
    std::string arg;
    std::size_t stage = 0;
  };
  std::vector<Query> mix;
  mix.push_back({Kind::kWaterfall, "waterfall", ""});
  for (const auto& unit : panel.units) {
    mix.push_back({Kind::kUnit, "unit", unit.unit});
  }
  for (std::size_t u = 0; u < estimates; ++u) {
    mix.push_back({Kind::kEstimate, "estimate", EstimateLabel(u)});
  }
  for (std::size_t stage = 0; stage < obs::kLineageStageCount; ++stage) {
    mix.push_back({Kind::kTerminal, "terminal", "", stage});
  }
  mix.push_back({Kind::kRanked, "ranked", ""});

  const auto answer = [](const audit::AuditReader& reader, const Query& q) {
    if (reader.run_count() == 0) return false;
    switch (q.kind) {
      case Kind::kWaterfall: {
        std::uint64_t terminals = 0;
        for (std::size_t st = 0; st < obs::kLineageStageCount; ++st) {
          const auto slice =
              reader.Terminal(0, static_cast<obs::LineageStage>(st));
          if (!slice.ok()) return false;
          terminals += slice.value().count;
        }
        return terminals == reader.run(0).waterfall.emitted;
      }
      case Kind::kUnit: {
        const auto unit = reader.FindUnit(0, q.arg);
        return unit.ok() && unit.value().found;
      }
      case Kind::kEstimate: {
        const auto estimate = reader.FindEstimate(0, q.arg);
        return estimate.ok() && estimate.value().found;
      }
      case Kind::kTerminal:
        return reader
            .Terminal(0, static_cast<obs::LineageStage>(q.stage))
            .ok();
      case Kind::kRanked:
        return reader.Ranked(0).ok();
    }
    return false;
  };

  {
    ScopedSpan span(&spans_, "audit.verify_all");
    const auto start = Cpu::now();
    audit::AuditReader reader;
    const bool ok = reader.Open(path).ok() && reader.VerifyAll().ok();
    s.verify_all_ms = Ms(start);
    ledger_.Record(ok, "audit.bin passes AuditReader::VerifyAll");
    ledger_.Record(ok && reader.run_count() == 1 &&
                       reader.run(0).waterfall.emitted == s.records,
                   "audit.bin waterfall: emitted = records committed");
  }
  std::uint64_t failures = 0;
  for (int round = 0; round < kQueryRounds; ++round) {
    for (const Query& q : mix) {
      s.Probe();
      ScopedSpan span(&spans_, "audit.query");
      const auto start = Cpu::now();
      bool ok = false;
      double open_ms = 0.0;
      {
        audit::AuditReader reader;
        ok = reader.Open(path).ok();
        open_ms = Ms(start);
        ok = ok && answer(reader, q);
      }
      const double total_ms = Ms(start);
      s.query_ms.push_back(total_ms);
      s.open_ms.push_back(open_ms);
      s.query_op_ms[q.label].push_back(total_ms - open_ms);
      if (!ok) {
        ++failures;
        ledger_.Record(false, std::string("audit query ") + q.label + " " +
                                  q.arg);
      }
    }
  }
  ledger_.Succeeded(static_cast<std::uint64_t>(kQueryRounds) * mix.size() -
                    failures);
}

Sample Bench::Durable(std::uint64_t seed) {
  Sample s;
  const auto start = Cpu::now();
  Setup live = BuildSetup();
  s.setup_s = Seconds(start);
  s.scenario_build_ms = live.scenario_build_ms;
  const auto run_start = Cpu::now();
  const auto run_wall_start = Wall::now();
  const std::string dir = DurableDir();
  std::error_code ec;
  fs::remove_all(dir, ec);
  const core::SimTime until = live.scenario.options.horizon;
  const auto total_steps = static_cast<std::uint64_t>(
      until.minutes() / live.platform_options.step.minutes());
  durable::DurableOptions options;  // default cadence
  options.dir = dir;
  const std::uint64_t every = options.snapshot_every;
  // Stop inside the last snapshot interval, off a boundary, so Resume
  // restores the last periodic snapshot and replays journaled steps.
  const std::uint64_t stop = total_steps - every / 2;
  const bool traced = spans_.enabled();
  // Each hook call's start and end: the intervals between calls leave out
  // the hook's own probe and snapshot poll.
  std::vector<std::pair<Cpu::time_point, Cpu::time_point>> hooks;
  hooks.reserve(stop);
  std::map<std::uint64_t, std::uint64_t> snapshots;  // seq -> bytes
  options.stop_after_steps = stop;
  // Called once per step just before its ingest: consecutive calls bound
  // one step's commit cost, journal and snapshot stalls included. A
  // snapshot lives for `keep_snapshots` periods, so polling once per
  // period sees every one.
  options.ingest_fault = [&](std::uint64_t seq) {
    const auto start = Cpu::now();
    s.step_probe_ms.push_back(ProbeMs());
    s.probe_ms.push_back(s.step_probe_ms.back());
    if (traced && seq % every == 1) PollSnapshots(dir, snapshots);
    hooks.emplace_back(start, Cpu::now());
    s.bench_ms += Ms(start, hooks.back().second);
  };
  {
    auto campaign = MakeCampaign(live);
    core::Rng rng(seed);
    durable::DurableStreamingService service(*live.platform, *campaign,
                                             options);
    const auto loop_start = Cpu::now();
    core::Result<durable::RunStats> run = [&] {
      ScopedSpan span(&spans_, "durable.run");
      return service.Run(until, rng);
    }();
    s.loop_s = Seconds(loop_start) - s.bench_ms / 1000.0;
    ledger_.Record(run.ok() &&
                       run.value().outcome == durable::RunOutcome::kStopped &&
                       run.value().steps == stop,
                   "durable live leg stops after " + std::to_string(stop) +
                       " steps" + (run.ok() ? "" : ": " + run.error().ToText()));
    s.records = campaign->ingested();
    s.steps = stop;
    ledger_.Succeeded(stop);
  }
  for (std::size_t i = 1; i < hooks.size(); ++i) {
    s.step_ms.push_back(Ms(hooks[i - 1].second, hooks[i].first));
  }
  if (traced) s.snapshot_ms = SnapshotStallMs(s.step_ms, every);

  // A restarted process: scenario, platform and campaign rebuilt from
  // scratch, then Resume.
  Setup resumed = BuildSetup();
  auto campaign = MakeCampaign(resumed);
  core::Rng rng(seed);
  options.stop_after_steps = 0;
  options.ingest_fault = nullptr;
  durable::DurableStreamingService service(*resumed.platform, *campaign,
                                           options);
  const auto resume_start = Cpu::now();
  core::Result<durable::RunStats> run = [&] {
    ScopedSpan span(&spans_, "durable.resume");
    return service.Resume(until, rng);
  }();
  s.resume_s = Seconds(resume_start);
  s.replayed_steps = run.ok() ? run.value().replayed_steps : 0;
  ledger_.Record(run.ok() &&
                     run.value().outcome == durable::RunOutcome::kCompleted &&
                     run.value().resumed && s.replayed_steps == stop % every,
                 "durable resume replays the journal tail and completes" +
                     (run.ok() ? std::string() : ": " + run.error().ToText()));
  const measure::Panel panel = FinalizePanel(*campaign, s);
  RunAnalyses(resumed, panel, s);
  s.run_s = Seconds(run_start) - s.bench_ms / 1000.0;
  s.run_wall_s = Seconds(run_wall_start);
  s.journal_bytes = FileBytes(dir + "/journal.bin");
  if (traced) {
    PollSnapshots(dir, snapshots);
    s.snapshot_count = snapshots.size();
    for (const auto& [seq, bytes] : snapshots) s.snapshot_bytes += bytes;
  }
  s.Normalize();
  Summarize(panel, s);
  return s;
}

Sample Bench::Iteration(std::uint64_t seed) {
  if (args_.workload == "audited") return Audited(seed);
  if (args_.workload == "durable") return Durable(seed);
  return Stream(seed);
}

Bench::RefitInput Bench::BuildRefitInput(std::uint64_t seed, Sample& s) {
  const auto start = Cpu::now();
  RefitInput input{BuildSetup(), {}};
  s.scenario_build_ms = input.setup.scenario_build_ms;
  auto campaign = MakeCampaign(input.setup);
  core::Rng rng(seed);
  RunStepLoop(input.setup, *campaign, rng, s);
  input.panel = FinalizePanel(*campaign, s);
  s.setup_s = Seconds(start) - s.bench_ms / 1000.0;
  s.Normalize();
  return input;
}

Sample Bench::RefitRound(const RefitInput& input) {
  Sample s;
  const auto start = Cpu::now();
  const auto wall_start = Wall::now();
  RunAnalyses(input.setup, input.panel, s);
  s.run_s = Seconds(start) - s.bench_ms / 1000.0;
  s.run_wall_s = Seconds(wall_start);
  s.Normalize();
  Summarize(input.panel, s);
  return s;
}

/// Warm-up at the reference program's seed; its outputs must equal the
/// reference program's at the same scale.
void Bench::CheckReference() {
  Sample s;
  if (refit()) {
    Sample setup;
    const RefitInput input = BuildRefitInput(reference_seed_, setup);
    s = RefitRound(input);
  } else {
    s = Iteration(reference_seed_);
  }
  const std::string reference = ReadFile(args_.reference_dir + "/stdout.txt");
  const std::string panel_csv = ReadFile(args_.reference_dir + "/panel.csv");
  const bool rows_ok =
      !s.rows.empty() && reference.find(s.rows) != std::string::npos;
  const bool panel_ok =
      !panel_csv.empty() && core::Fnv1a64(panel_csv) == s.panel_digest;
  std::printf("reference check (seed %llu): Table 1 rows %s, panel.csv "
              "digest %016llx %s\n",
              static_cast<unsigned long long>(reference_seed_),
              rows_ok ? "match" : "DIFFER",
              static_cast<unsigned long long>(s.panel_digest),
              panel_ok ? "matches" : "DIFFERS");
  ledger_.Record(rows_ok, "Table 1 rows equal the reference program's");
  ledger_.Record(panel_ok, "panel.csv equals the reference program's");
}

void Bench::PrintSample(const char* label, const Sample& s) const {
  std::printf("%-10s setup %.4f s  run %.4f s (wall %.4f s)  loop %.4f s  "
              "records %llu  steps %llu  analyses %zu",
              label, s.setup_s, s.run_s, s.run_wall_s, s.loop_s,
              static_cast<unsigned long long>(s.records),
              static_cast<unsigned long long>(s.steps), s.analysis_ms.size());
  if (!s.query_ms.empty()) std::printf("  queries %zu", s.query_ms.size());
  if (s.resume_s > 0.0) std::printf("  resume %.4f s", s.resume_s);
  if (!s.probe_ms.empty()) {
    std::printf("  slowdown %.3f (%zu probes)", s.slowdown, s.probe_ms.size());
  }
  std::printf("\n");
}

/// Every timing is CPU time (see Cpu). Campaign figures are the median
/// over the run's iterations of each iteration's own value: its set-up,
/// run_s, records per second of step loop, and step-latency quantiles.
/// Refit has no step loop in its timed part, so its set-up campaigns
/// supply those. The analysis latencies are pooled over every analysis.
std::vector<Metric> Bench::Untraced() {
  std::vector<Sample> runs;    // run_s and analysis samples
  std::vector<Sample> loops;   // step-loop samples (refit: its set-ups)
  std::vector<double> setups;
  double peak_rss_mb = 0.0;    // through the first measured iteration
  const auto start = Wall::now();
  if (refit()) {
    std::unique_ptr<RefitInput> input;
    for (int k = 0; k < kRefitSetups; ++k) {
      Sample s;
      auto built =
          std::make_unique<RefitInput>(BuildRefitInput(args_.seed, s));
      Summarize(built->panel, s);
      PrintSample("set-up", s);
      if (!loops.empty()) {
        ledger_.Record(s.panel_digest == loops.front().panel_digest,
                       "refit set-up reproduces the first panel");
      }
      setups.push_back(s.setup_s);
      loops.push_back(std::move(s));
      input = std::move(built);
    }
    do {
      runs.push_back(RefitRound(*input));
      if (runs.size() == 1) peak_rss_mb = PeakRssMb();
      ledger_.Record(runs.back().result_digest == runs.front().result_digest,
                     "refit round is bit-identical to the first");
    } while (Seconds(start) + runs.back().run_wall_s <= args_.seconds);
    std::printf("refit: %zu rounds of %zu analyses\n", runs.size(),
                runs.front().analysis_ms.size());
  } else {
    Wall::time_point iteration_start;
    do {
      iteration_start = Wall::now();
      Sample s = Iteration(args_.seed);
      if (runs.empty()) peak_rss_mb = PeakRssMb();
      PrintSample("iteration", s);
      if (!runs.empty()) {
        ledger_.Record(s.result_digest == runs.front().result_digest,
                       "iteration reproduces the first bit for bit");
      }
      setups.push_back(s.setup_s);
      runs.push_back(std::move(s));
      // Stop when another iteration as long as the last would overrun.
    } while (Seconds(start) + Seconds(iteration_start) <= args_.seconds);
    for (const Sample& s : runs) loops.push_back(s);
  }

  std::vector<double> run_s, raw_run_s, run_wall_s, slowdown, records_per_s,
      step_p50, step_p99, analyses_per_s, query_ms, resume_s;
  // Unit u's analysis is the same work in every iteration, so its time is
  // the median of its repeats; the quantiles run over the units.
  std::vector<std::vector<double>> unit_ms;
  std::size_t analyses = 0;
  for (const Sample& s : runs) {
    run_s.push_back(s.run_s);
    raw_run_s.push_back(s.raw_run_s);
    run_wall_s.push_back(s.run_wall_s);
    slowdown.push_back(s.slowdown);
    unit_ms.resize(std::max(unit_ms.size(), s.analysis_ms.size()));
    for (std::size_t u = 0; u < s.analysis_ms.size(); ++u) {
      unit_ms[u].push_back(s.analysis_ms[u]);
    }
    analyses += s.analysis_ms.size();
    analyses_per_s.push_back(static_cast<double>(s.analysis_ms.size()) /
                             s.analyses_s);
    query_ms.insert(query_ms.end(), s.query_ms.begin(), s.query_ms.end());
    if (s.resume_s > 0.0) resume_s.push_back(s.resume_s);
  }
  std::vector<double> analysis_ms;
  for (const std::vector<double>& repeats : unit_ms) {
    analysis_ms.push_back(Median(repeats));
  }
  for (const Sample& s : loops) {
    records_per_s.push_back(static_cast<double>(s.records) / s.loop_s);
    step_p50.push_back(Quantile(s.step_ms, 0.50));
    step_p99.push_back(Quantile(s.step_ms, 0.99));
    ledger_.Record(s.step_ms.size() == loops.front().step_ms.size(),
                   "every loop of the run has the same steps");
  }
  std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s"},
      {"run_s", Median(run_s), "s"},
      {"records_per_s", Median(records_per_s), "1/s"},
      {"step_p50_ms", Median(step_p50), "ms"},
      {"step_p99_ms", Median(step_p99), "ms"},
      {"analyses_per_s", Median(analyses_per_s), "1/s"},
      {"analysis_p50_ms", Quantile(analysis_ms, 0.50), "ms"},
      {"analysis_p90_ms", Quantile(analysis_ms, 0.90), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };

  std::printf("\n-- end-to-end (%s, scale %g, %zu lanes, seed %llu) --\n",
              args_.workload.c_str(), args_.scale,
              core::ParallelThreadCount(),
              static_cast<unsigned long long>(args_.seed));
  for (const Metric& m : metrics) {
    std::printf("%-16s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  const auto print_optional = [](const char* name, bool present, double value,
                                 const char* unit) {
    if (present) {
      std::printf("%-16s %14.6g %s\n", name, value, unit);
    } else {
      std::printf("%-16s %14s %s\n", name, "n/a", unit);
    }
  };
  print_optional("query_p50_ms", !query_ms.empty(), Quantile(query_ms, 0.50),
                 "ms");
  print_optional("query_p99_ms", !query_ms.empty(), Quantile(query_ms, 0.99),
                 "ms");
  print_optional("resume_s", !resume_s.empty(), Median(resume_s), "s");
  std::printf("over %zu iterations: run_s min %.6g s, max %.6g s; medians: "
              "host slowdown %.4g, unscaled CPU run_s %.6g s, wall run_s "
              "%.6g s\n",
              run_s.size(), *std::min_element(run_s.begin(), run_s.end()),
              *std::max_element(run_s.begin(), run_s.end()), Median(slowdown),
              Median(raw_run_s), Median(run_wall_s));
  std::printf("samples: %zu loops of %llu steps, %zu analyses, %zu queries\n",
              loops.size(),
              static_cast<unsigned long long>(loops.front().steps), analyses,
              query_ms.size());

  const Sample& first = runs.front();
  std::printf("work per iteration: records %llu, steps %llu, analyses %zu",
              static_cast<unsigned long long>(loops.front().records),
              static_cast<unsigned long long>(loops.front().steps),
              first.analysis_ms.size());
  if (args_.workload == "durable") {
    std::printf(", journal bytes %llu, replayed steps %llu",
                static_cast<unsigned long long>(first.journal_bytes),
                static_cast<unsigned long long>(first.replayed_steps));
  }
  for (const auto& [name, bytes] : first.artifact_bytes) {
    std::printf(", %s %llu B", name.c_str(),
                static_cast<unsigned long long>(bytes));
  }
  std::printf("\n");
  return metrics;
}

/// Re-reads the traced durable run's journal and newest snapshot, and
/// re-appends the journal's frames to a scratch journal at the same fsync
/// cadence. Returns the frames.
std::vector<durable::JournalFrame> Bench::DurableProbes(double* scan_ms,
                                                        double* read_ms,
                                                        double* append_ms) {
  const std::string dir = DurableDir();
  durable::JournalScan scan;
  {
    ScopedSpan span(&spans_, "durable.journal_scan_probe");
    const auto start = Cpu::now();
    scan = durable::ScanJournal(dir + "/journal.bin");
    *scan_ms = Ms(start);
  }
  ledger_.Record(!scan.corrupt && !scan.torn_tail,
                 "journal scans clean after resume");
  const auto snapshots = durable::ListSnapshots(dir);
  bool read_ok = false;
  if (!snapshots.empty()) {
    ScopedSpan span(&spans_, "durable.snapshot_read_probe");
    const auto start = Cpu::now();
    read_ok = durable::ReadSnapshotFile(snapshots.back().path).ok;
    *read_ms = Ms(start);
  }
  ledger_.Record(read_ok, "newest snapshot reads back and verifies");
  durable::DurableOptions defaults;
  bool append_ok = false;
  {
    ScopedSpan span(&spans_, "durable.journal_append_probe");
    const auto start = Cpu::now();
    durable::Journal journal;
    append_ok = journal.Open(dir + "/probe-journal.bin", 0,
                             defaults.fsync_every);
    for (const auto& frame : scan.frames) {
      append_ok = append_ok && journal.Append(frame.seq, frame.payload);
    }
    append_ok = append_ok && journal.Flush();
    *append_ms = Ms(start);
  }
  ledger_.Record(append_ok, "journal frames re-append");
  return std::move(scan.frames);
}

std::vector<Metric> Bench::Traced() {
  const std::string& w = args_.workload;
  const std::uint64_t seed = args_.seed;
  const std::size_t lanes = core::ParallelThreadCount();

  // Untraced iterations, then the same work traced; the tracing overhead
  // and obs.inline_ms compare the fastest of each kind.
  std::vector<double> base_run_s, base_loop_s, base_wall_s, traced_run_s;
  Sample base;
  Sample traced;
  Sample loop;  // source of the measure.* step-loop split
  std::unique_ptr<RefitInput> refit_input;
  // A leg of refit rounds: the median round's run_s and wall run_s, the
  // per-analysis samples pooled into `agg`.
  const auto refit_rounds = [&](const RefitInput& input, Sample& agg) {
    std::vector<double> runs, walls;
    for (int r = 0; r < kTracedRefitRounds; ++r) {
      Sample round = RefitRound(input);
      runs.push_back(round.run_s);
      walls.push_back(round.run_wall_s);
      agg.analysis_ms.insert(agg.analysis_ms.end(), round.analysis_ms.begin(),
                             round.analysis_ms.end());
      agg.placebo_ms.insert(agg.placebo_ms.end(), round.placebo_ms.begin(),
                            round.placebo_ms.end());
      agg.svd_ms.insert(agg.svd_ms.end(), round.svd_ms.begin(),
                        round.svd_ms.end());
      agg.make_input_ms += round.make_input_ms / kTracedRefitRounds;
    }
    agg.run_s = Median(runs);
    agg.run_wall_s = Median(walls);
  };
  if (refit()) {
    Sample setup;
    refit_input = std::make_unique<RefitInput>(BuildRefitInput(seed, setup));
  }
  for (int k = 0; k < kTracedRepeats; ++k) {
    base = Sample();
    if (refit()) {
      refit_rounds(*refit_input, base);
    } else {
      base = Iteration(seed);
    }
    PrintSample("untraced", base);
    base_run_s.push_back(base.run_s);
    base_loop_s.push_back(base.loop_s);
    base_wall_s.push_back(base.run_wall_s);
  }

  // Each traced iteration starts from empty spans and zeroed counters, so
  // both describe the last one.
  int root = -1;
  for (int k = 0; k < kTracedRepeats; ++k) {
    spans_.Clear();
    obs::Registry::Enable(true);  // work counters for the traced iteration
    obs::Registry::Global().ResetAll();
    spans_.Enable(true);
    root = spans_.Open("bench." + w);
    traced = Sample();
    if (refit()) {
      loop = Sample();
      RefitInput input = BuildRefitInput(seed, loop);
      refit_rounds(input, traced);
    } else {
      traced = Iteration(seed);
      loop = traced;
    }
    spans_.Close(root);
    spans_.Enable(false);
    PrintSample("traced", traced);
    traced_run_s.push_back(traced.run_s);
  }
  const auto counter = [](const char* name) {
    return static_cast<double>(obs::Registry::Global().CounterValue(name));
  };
  const obs::Histogram* rank =
      obs::Registry::Global().FindHistogram("causal.rsc.retained_rank");
  const double retained_rank_p50 = rank != nullptr ? rank->Quantile(0.5) : 0.0;
  const double route_cache_hits = counter("netsim.bgp.route_cache_hits");
  const double route_cache_misses = counter("netsim.bgp.route_cache_misses");
  const double tables_computed = counter("netsim.bgp.tables_computed");
  const double events_applied = counter("netsim.events.applied");
  const double fits_attempted = counter("causal.rsc.fits_attempted");
  const double fits_succeeded = counter("causal.rsc.fits_succeeded");
  const double placebo_runs = counter("causal.placebo.runs");
  const double parallel_tasks = counter("core.parallel.tasks");
  const double parallel_regions = counter("core.parallel.regions");
  obs::Registry::Enable(false);
  const auto lowest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  // A difference of two fastest repeats resolves nothing when it is no
  // larger than the spread between repeats of one kind.
  const auto resolved = [&](double diff, const std::vector<double>& a,
                            const std::vector<double>& b) {
    const auto range = [](const std::vector<double>& v) {
      const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      return *hi - *lo;
    };
    return std::abs(diff) > std::max(range(a), range(b)) ? "resolved"
                                                          : "unresolved";
  };
  const double overhead_s = lowest(traced_run_s) - lowest(base_run_s);

  // Layers the traced iteration cannot split from outside.
  double inline_ms = 0.0, encode_ms = 0.0, scan_ms = 0.0, read_ms = 0.0,
         append_ms = 0.0;
  if (w == "audited") {
    std::vector<double> plain_loop_s;
    for (int k = 0; k < kTracedRepeats; ++k) {
      const Sample plain = Stream(seed);
      plain_loop_s.push_back(plain.loop_s);
      ledger_.Record(plain.panel_digest == base.panel_digest,
                     "audited panel equals the plain streaming panel");
    }
    inline_ms = 1000.0 * (lowest(base_loop_s) - lowest(plain_loop_s));
    std::printf("obs inline: fastest audited step loop %.4f s - fastest "
                "plain step loop %.4f s = %.4f s (%s)\n",
                lowest(base_loop_s), lowest(plain_loop_s), inline_ms / 1000.0,
                resolved(inline_ms / 1000.0, base_loop_s, plain_loop_s));
  } else if (w == "durable") {
    const std::vector<durable::JournalFrame> frames =
        DurableProbes(&scan_ms, &read_ms, &append_ms);
    // The plain streaming run of the same inputs: its steps, encoded,
    // must be the journal's frames, and its result the resumed run's.
    std::uint64_t next_record_id = 1;
    std::size_t seq = 0;
    bool same = true;
    loop = Stream(seed, [&](const measure::StepOutput& step) {
      if (!step.records.empty()) {
        next_record_id = step.records.back().record.id.value() + 1;
      }
      const auto start = Cpu::now();
      const std::string payload = durable::EncodeStep(step, next_record_id);
      encode_ms += Ms(start);
      same = same && seq < frames.size() && frames[seq].payload == payload;
      ++seq;
    });
    ledger_.Record(same && seq == frames.size(),
                   "journal frames equal EncodeStep of the plain streaming "
                   "run's steps");
    ledger_.Record(loop.result_digest == traced.result_digest,
                   "resumed durable run equals the uninterrupted streaming "
                   "run");
  }

  // Wall run_s of the same work at 1, 2 and min(4, nproc) lanes; the
  // pinned lane count's leg is the untraced iterations' median.
  const auto run_at = [&](std::size_t n) {
    if (n == lanes) return Median(base_wall_s);
    core::ThreadPool::SetGlobalThreadCount(n);
    Sample s;
    if (refit()) {
      refit_rounds(*refit_input, s);
    } else {
      s = Iteration(seed);
    }
    core::ThreadPool::SetGlobalThreadCount(lanes);
    return s.run_wall_s;
  };
  const std::size_t wide = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  const double run_1lane = run_at(1);
  const double run_2lane = run_at(2);
  const double run_wide = run_at(wide);

  const std::map<std::string, double> self = spans_.SelfMsByModule(root);
  const double wall_ms = spans_.DurationMs(root);
  const auto self_ms = [&](const std::string& module) {
    const auto it = self.find(module);
    return it == self.end() ? 0.0 : it->second;
  };
  std::printf("\n-- self time by module (%s traced iteration, %zu lanes) --\n",
              w.c_str(), lanes);
  double total = 0.0;
  for (const char* module : kModules) {
    std::printf("%-14s %12.3f ms %6.1f%%\n", module, self_ms(module),
                100.0 * self_ms(module) / wall_ms);
    total += self_ms(module);
  }
  std::printf("%-14s %12.3f ms %6.1f%%\n", "unattributed", self_ms("bench"),
              100.0 * self_ms("bench") / wall_ms);
  total += self_ms("bench");
  std::printf("%-14s %12.3f ms (traced wall %.3f ms, %zu spans)\n", "sum",
              total, wall_ms, spans_.size());
  std::printf("tracing overhead: fastest traced run_s %.4f s - fastest "
              "untraced run_s %.4f s = %.4f s (%d each, %s)\n",
              lowest(traced_run_s), lowest(base_run_s), overhead_s,
              kTracedRepeats, resolved(overhead_s, traced_run_s, base_run_s));
  std::printf("lanes: wall run_s %.4f s at 1, %.4f s at 2, %.4f s at %zu\n",
              run_1lane, run_2lane, run_wide, wide);
  if (!args_.trace_out.empty()) {
    ledger_.Record(spans_.WriteChromeTrace(args_.trace_out),
                   "write span trace " + args_.trace_out);
  }

  const auto p99 = [](const std::vector<double>& v) {
    return Quantile(v, 0.99);
  };
  const auto op_median = [&](const char* kind) {
    const auto it = traced.query_op_ms.find(kind);
    return it == traced.query_op_ms.end() ? 0.0 : Median(it->second);
  };
  const auto bytes = [&](const char* name) {
    const auto it = traced.artifact_bytes.find(name);
    return it == traced.artifact_bytes.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  return {
      {"measure.records", static_cast<double>(loop.records), "count"},
      {"measure.steps", static_cast<double>(loop.steps), "count"},
      {"measure.generate_ms", Sum(loop.generate_ms), "ms"},
      {"measure.generate_p99_ms", p99(loop.generate_ms), "ms"},
      {"measure.ingest_ms", Sum(loop.ingest_ms), "ms"},
      {"measure.ingest_p99_ms", p99(loop.ingest_ms), "ms"},
      {"measure.commit_failures_ms", loop.commit_failures_ms, "ms"},
      {"measure.step_telemetry_ms", loop.step_telemetry_ms, "ms"},
      {"measure.finalize_panel_ms", loop.finalize_panel_ms, "ms"},
      {"measure.make_input_ms", traced.make_input_ms, "ms"},
      {"netsim.scenario_build_ms", loop.scenario_build_ms, "ms"},
      {"netsim.route_cache_hits", route_cache_hits, "count"},
      {"netsim.route_cache_misses", route_cache_misses, "count"},
      {"netsim.tables_computed", tables_computed, "count"},
      {"netsim.events_applied", events_applied, "count"},
      {"durable.encode_ms", encode_ms, "ms"},
      {"durable.journal_append_ms", append_ms, "ms"},
      {"durable.journal_bytes", static_cast<double>(traced.journal_bytes),
       "bytes"},
      {"durable.snapshot_ms", traced.snapshot_ms, "ms"},
      {"durable.snapshot_count", static_cast<double>(traced.snapshot_count),
       "count"},
      {"durable.snapshot_bytes", static_cast<double>(traced.snapshot_bytes),
       "bytes"},
      {"durable.snapshot_read_ms", read_ms, "ms"},
      {"durable.journal_scan_ms", scan_ms, "ms"},
      {"durable.replayed_steps", static_cast<double>(traced.replayed_steps),
       "count"},
      {"resume_s", traced.resume_s, "s"},
      {"obs.write_run_artifacts_ms", traced.write_run_artifacts_ms, "ms"},
      {"obs.timeline_write_ms", traced.timeline_write_ms, "ms"},
      {"obs.lineage_json_bytes", bytes("lineage.json"), "bytes"},
      {"obs.trace_json_bytes", bytes("trace.json"), "bytes"},
      {"obs.timeline_bytes", bytes("timeline.bin"), "bytes"},
      {"obs.inline_ms", inline_ms, "ms"},
      {"audit.write_ms", traced.audit_write_ms, "ms"},
      {"audit.bytes", bytes("audit.bin"), "bytes"},
      {"audit.open_ms", Median(traced.open_ms), "ms"},
      {"audit.verify_all_ms", traced.verify_all_ms, "ms"},
      {"audit.query_ms.waterfall", op_median("waterfall"), "ms"},
      {"audit.query_ms.unit", op_median("unit"), "ms"},
      {"audit.query_ms.estimate", op_median("estimate"), "ms"},
      {"audit.query_ms.terminal", op_median("terminal"), "ms"},
      {"audit.query_ms.ranked", op_median("ranked"), "ms"},
      {"query_p50_ms", Quantile(traced.query_ms, 0.50), "ms"},
      {"query_p99_ms", Quantile(traced.query_ms, 0.99), "ms"},
      {"causal.placebo_analysis_ms", Median(traced.placebo_ms), "ms"},
      {"causal.fits_attempted", fits_attempted, "count"},
      {"causal.fits_succeeded", fits_succeeded, "count"},
      {"causal.placebo_runs", placebo_runs, "count"},
      {"causal.retained_rank_p50", retained_rank_p50, "rank"},
      {"stats.svd_ms", Median(traced.svd_ms), "ms"},
      {"core.lanes", static_cast<double>(lanes), "count"},
      {"core.parallel.tasks", parallel_tasks, "count"},
      {"core.parallel.regions", parallel_regions, "count"},
      {"core.parallel.speedup_1lane", run_1lane / run_wide, "x"},
      {"core.parallel.run_s_1lane", run_1lane, "s"},
      {"core.parallel.run_s_2lane", run_2lane, "s"},
      {"core.parallel.run_s_4lane", run_wide, "s"},
      {"self.netsim_ms", self_ms("netsim"), "ms"},
      {"self.measure_ms", self_ms("measure"), "ms"},
      {"self.durable_ms", self_ms("durable"), "ms"},
      {"self.obs_ms", self_ms("obs"), "ms"},
      {"self.audit_ms", self_ms("audit"), "ms"},
      {"self.causal_ms", self_ms("causal"), "ms"},
      {"self.stats_ms", self_ms("stats"), "ms"},
      {"self.core_ms", self_ms("core"), "ms"},
      {"self.unattributed_ms", self_ms("bench"), "ms"},
      {"trace.wall_ms", wall_ms, "ms"},
      {"trace.overhead_ms", 1000.0 * overhead_s, "ms"},
  };
}

void Bench::PrintJson(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    ledger_.Record(std::isfinite(m.value), "metric " + m.name + " is finite");
  }
  const double error_frac =
      static_cast<double>(ledger_.failed()) /
      static_cast<double>(std::max<std::uint64_t>(ledger_.attempted(), 1));
  std::printf("error_frac %.6g (%llu failed of %llu operations and checks)\n",
              error_frac, static_cast<unsigned long long>(ledger_.failed()),
              static_cast<unsigned long long>(ledger_.attempted()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ledger_.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger_.attempted()),
              static_cast<unsigned long long>(ledger_.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
}

int Bench::Main() {
  std::printf("perfbench: workload %s, scale %g, %zu lanes, seed %llu, "
              "%g s, trace %d\n",
              args_.workload.c_str(), args_.scale, core::ParallelThreadCount(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0);
  std::error_code ec;
  fs::create_directories(args_.work_dir, ec);
  CheckReference();
  const std::vector<Metric> metrics = args_.trace ? Traced() : Untraced();
  std::fflush(stdout);
  PrintJson(metrics);
  return ledger_.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  sisyphus::bench::ApplyThreadsFlag(argc, argv);
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scale") {
      args.scale = std::atof(value);
    } else if (flag == "--reference") {
      args.reference_dir = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const bool known = args.workload == "stream" || args.workload == "audited" ||
                     args.workload == "durable" || args.workload == "refit";
  if (!known || !(args.scale > 0.0) || !(args.seconds > 0.0) ||
      args.reference_dir.empty() || args.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_sisyphus --workload "
                 "stream|audited|durable|refit --seed N --seconds S --trace "
                 "0|1 --scale X --reference DIR --work-dir DIR "
                 "[--trace-out FILE] [--threads L]\n");
    return 2;
  }
  try {
    return Bench(std::move(args)).Main();
  } catch (const std::exception& e) {
    std::printf("perfbench: aborted: %s\n", e.what());
    return 1;
  }
}
