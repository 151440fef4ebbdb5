#include "measure/platform.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace sisyphus::measure {

Platform::Platform(netsim::NetworkSimulator& simulator,
                   PlatformOptions options)
    : simulator_(simulator), options_(options) {
  SISYPHUS_REQUIRE(options.step.minutes() > 0, "Platform: zero step");
  SISYPHUS_REQUIRE(options.retry.max_attempts > 0,
                   "Platform: zero max_attempts");
  route_change_cursor_ = simulator_.route_changes().size();
}

void Platform::AddVantage(VantageConfig config) {
  simulator_.WatchPath(config.pop, options_.server);
  const netsim::Topology& topology = simulator_.topology();
  const auto& pop = topology.GetPop(config.pop);
  VantageState state;
  state.config = config;
  state.unit = Unit::Intern(pop.asn, topology.cities().Get(pop.city).name);
  vantages_.push_back(state);
}

std::optional<Unit> Platform::VantageUnit(netsim::PopIndex pop) const {
  for (const VantageState& vantage : vantages_) {
    if (vantage.config.pop == pop) return vantage.unit;
  }
  return std::nullopt;
}

void Platform::RunTests(const VantageState& vantage,
                        const StepSignal& signal, std::size_t count,
                        Intent intent, core::Rng& rng, VantageBatch& batch) {
  for (std::size_t i = 0; i < count; ++i) {
    RunOneTest(vantage, signal, intent, rng, batch);
  }
}

void Platform::RunOneTest(const VantageState& vantage,
                          const StepSignal& signal, Intent intent,
                          core::Rng& rng, VantageBatch& batch) {
  const netsim::PopIndex pop = vantage.config.pop;
  netsim::PopIndex server = options_.server;
  if (steering_ != nullptr) {
    auto chosen = steering_->ChooseServer(pop, rng);
    if (!chosen.ok()) {
      batch.failures.push_back({simulator_.Now(), pop, intent,
                                ProbeFault::kUnreachable, 1});
      return;
    }
    server = chosen.value();
  }

  // Retry with exponential backoff in simulated time. Each attempt is
  // timestamped at its (backoff-shifted) send time, so records that only
  // exist because of a retry are visibly late.
  core::SimTime attempt_time = simulator_.Now();
  core::SimTime backoff = options_.retry.backoff_base;
  ProbeFault last_fault = ProbeFault::kNone;
  for (std::uint32_t attempt = 1;
       attempt <= options_.retry.max_attempts; ++attempt) {
    if (attempt > 1) {
      attempt_time = attempt_time + backoff;
      backoff = core::SimTime(static_cast<std::int64_t>(
          static_cast<double>(backoff.minutes()) *
          options_.retry.backoff_multiplier));
    }

    if (simulator_.PopDark(pop, attempt_time) ||
        (injector_ != nullptr &&
         injector_->VantageDark(pop, attempt_time))) {
      last_fault = ProbeFault::kVantageOutage;
      continue;
    }
    if (simulator_.PopDark(server, attempt_time) ||
        (injector_ != nullptr && injector_->CollectorDark(attempt_time))) {
      last_fault = ProbeFault::kCollectorOutage;
      continue;
    }
    if (injector_ != nullptr) {
      const ProbeFault fault =
          injector_->SampleProbeFault(signal.congestion(), rng);
      if (fault != ProbeFault::kNone) {
        last_fault = fault;
        continue;
      }
    }

    // The step's resolved path to the configured server, or under edge
    // steering the chosen server's path, resolved here (steered steps run
    // serially, so this read of the route cache is the campaign thread's).
    std::optional<ProbePath> steered;
    if (steering_ != nullptr) {
      if (auto resolved = ResolveProbePath(simulator_, pop, server);
          resolved.ok()) {
        steered = std::move(resolved).value();
      }
    }
    const std::optional<ProbePath>& path =
        steering_ != nullptr ? steered : signal.path;
    if (!path.has_value()) {
      // No route: retrying within the step cannot help (routing only
      // changes between steps), so fail fast.
      batch.failures.push_back({simulator_.Now(), pop, intent,
                                ProbeFault::kUnreachable, attempt});
      return;
    }
    SpeedTestRecord record = SampleSpeedTest(simulator_.latency(), *path,
                                             intent, rng, options_.test_model);
    record.time = attempt_time;
    record.attempts = attempt;
    bool duplicate = false;
    std::uint8_t fault_mask = 0;
    if (injector_ != nullptr) {
      duplicate = injector_->ApplyRecordFaults(
          record, path->hop_count, path->ixp_hop, rng, &fault_mask);
    }
    // The id is assigned at merge time (vantage order), not here: task
    // scheduling must not influence archive contents.
    batch.records.push_back({record, duplicate, fault_mask});
    return;
  }
  batch.failures.push_back(
      {simulator_.Now(), pop, intent, last_fault,
       static_cast<std::uint32_t>(options_.retry.max_attempts)});
}

void Platform::RecordFailure(ProbeFailure failure) {
  SISYPHUS_METRIC_COUNT("measure.probes.failed", 1);
  // Per-reason counters mirror the ProbeFault provenance of failures().
  obs::Registry::Global()
      .GetCounter(std::string("measure.probes.failed.") +
                  std::string(ToString(failure.reason)))
      ->Add(1);
  SISYPHUS_LINEAGE(RecordProbeFailure(ToString(failure.reason)));
  failures_.push_back(failure);
}

std::map<std::string, std::size_t> Platform::FailureReasonCounts() const {
  std::map<std::string, std::size_t> counts;
  for (const ProbeFailure& failure : failures_) {
    ++counts[std::string(ToString(failure.reason))];
  }
  return counts;
}

std::map<netsim::PopIndex, std::size_t> Platform::FailuresByVantage() const {
  std::map<netsim::PopIndex, std::size_t> counts;
  for (const ProbeFailure& failure : failures_) ++counts[failure.vantage];
  return counts;
}

namespace {

/// Appends p50/p95/p99 fields for every registered histogram with data
/// (one "<name>.pXX" triple each) to a campaign-end summary — the same
/// deterministic bucket-interpolated quantiles metrics.json carries.
void AppendHistogramQuantileFields(std::vector<core::LogField>& fields) {
  if (!obs::Registry::enabled()) return;
  for (const char* name : {"netsim.bgp.convergence_sweeps"}) {
    const obs::Histogram* histogram =
        obs::Registry::Global().FindHistogram(name);
    if (histogram == nullptr || histogram->count() == 0) continue;
    fields.emplace_back(std::string(name) + ".p50", histogram->Quantile(0.50));
    fields.emplace_back(std::string(name) + ".p95", histogram->Quantile(0.95));
    fields.emplace_back(std::string(name) + ".p99", histogram->Quantile(0.99));
  }
}

}  // namespace

void Platform::Run(core::SimTime until, core::Rng& rng,
                   StreamingCampaign& campaign) {
  DeclareStreamTelemetrySeries();
  std::uint64_t steps = 0;
  std::uint64_t records = 0;
  while (simulator_.Now() < until) {
    // The whole step's merge-ordered batch goes to the campaign, whose
    // per-shard fan-out does validation, store append, lineage and the
    // running means. Failures stay platform-side.
    const StepOutput step = GenerateStep(until, rng);
    campaign.IngestBatch(step.records);
    CommitFailures(step.failures);
    ++steps;
    records += step.records.size();
    EmitStepTelemetry(steps, records, 0, options_.heartbeat_every_steps,
                      &campaign, false);
  }
  std::vector<core::LogField> fields;
  fields.emplace_back("archived", campaign.store().size());
  fields.emplace_back("quarantined", campaign.store().quarantined());
  fields.emplace_back("failed_probes", failures_.size());
  fields.emplace_back("vantages", vantages_.size());
  fields.emplace_back("batches", campaign.batches());
  fields.emplace_back("shards", campaign.store().shard_count());
  for (const auto& [tag, count] : campaign.store().QuarantineReasonCounts()) {
    fields.emplace_back("quarantine." + tag, count);
  }
  for (const auto& [reason, count] : FailureReasonCounts()) {
    fields.emplace_back("fail." + reason, count);
  }
  AppendHistogramQuantileFields(fields);
  core::LogLine(core::LogLevel::kInfo, "campaign complete", fields);
}

StepOutput Platform::GenerateStep(core::SimTime until, core::Rng& rng) {
  const core::SimTime step_end =
      std::min(until, simulator_.Now() + options_.step);
  simulator_.AdvanceTo(step_end);

  // Route changes that landed during this step, per vantage PoP.
  const auto& changes = simulator_.route_changes();
  std::vector<netsim::PopIndex> changed_pops;
  for (; route_change_cursor_ < changes.size(); ++route_change_cursor_) {
    changed_pops.push_back(changes[route_change_cursor_].source);
  }

  const double step_days =
      static_cast<double>(options_.step.minutes()) / (24.0 * 60.0);

  // Serial prewarm: resolve each vantage's (vantage, server) path once,
  // on the campaign thread. The network does not change within a step,
  // so every test the vantage runs samples this one path, and the probe
  // tasks below never touch the route cache.
  std::vector<StepSignal> signals(vantages_.size());
  for (std::size_t i = 0; i < vantages_.size(); ++i) {
    StepSignal& signal = signals[i];
    signal.path_changed =
        std::find(changed_pops.begin(), changed_pops.end(),
                  vantages_[i].config.pop) != changed_pops.end();
    if (auto path = ResolveProbePath(simulator_, vantages_[i].config.pop,
                                     options_.server);
        path.ok()) {
      signal.path = std::move(path).value();
    }
  }

  // One campaign-stream draw per step; each vantage forks its own task
  // stream from it, so per-vantage randomness does not depend on how
  // tasks interleave (or on how many tests other vantages ran).
  const std::uint64_t step_seed = rng.Next();
  std::vector<VantageBatch> batches(vantages_.size());
  const auto run_vantage = [&](std::size_t i) {
    core::Rng task_rng = core::Rng::Fork(step_seed, i);
    VantageState& vantage = vantages_[i];
    const StepSignal& signal = signals[i];
    VantageBatch& batch = batches[i];

    // Each test adds at most one record: reserving from each drawn count
    // keeps the batch from growing by copies.
    const auto reserve = [&](std::size_t tests) {
      batch.records.reserve(batch.records.size() + tests);
    };

    // Baseline schedule: timing independent of network state.
    const std::uint32_t baseline = task_rng.Poisson(
        vantage.config.baseline_tests_per_day * step_days);
    reserve(baseline);
    RunTests(vantage, signal, baseline, Intent::kBaseline, task_rng, batch);

    // User-initiated: rate inflated by dissatisfaction and route churn —
    // the collider mechanism.
    const double current_rtt = signal.current_rtt();
    if (vantage.config.user_tests_per_day > 0.0 && current_rtt > 0.0) {
      double rate = vantage.config.user_tests_per_day * step_days;
      if (vantage.ewma_rtt > 0.0) {
        const double excess =
            std::max(0.0, current_rtt / vantage.ewma_rtt - 1.0);
        rate *= 1.0 + vantage.config.dissatisfaction_gain * excess;
      }
      if (signal.path_changed) rate *= vantage.config.route_change_multiplier;
      const std::uint32_t user = task_rng.Poisson(rate);
      reserve(user);
      RunTests(vantage, signal, user, Intent::kUserInitiated, task_rng,
               batch);
    }

    // §4 proposal 1: conditional activation on external signals.
    if (options_.conditional_activation && signal.path_changed) {
      reserve(options_.event_burst_tests);
      RunTests(vantage, signal, options_.event_burst_tests,
               Intent::kEventTriggered, task_rng, batch);
    }

    // Habituate (this task owns vantages_[i]; no sharing).
    if (current_rtt > 0.0) {
      vantage.ewma_rtt =
          vantage.ewma_rtt < 0.0
              ? current_rtt
              : (1.0 - options_.ewma_alpha) * vantage.ewma_rtt +
                    options_.ewma_alpha * current_rtt;
    }
  };
  if (steering_ != nullptr) {
    // EdgeSteering keeps an order-sensitive decision log, so run the
    // identical forked-stream structure serially — same output, one lane.
    for (std::size_t i = 0; i < vantages_.size(); ++i) run_vantage(i);
  } else {
    // Telemetry-silent, like the shard ingest fan-out: the region is an
    // execution detail of generation that a resume's journal rebuild,
    // and a steered campaign's serial loop, do not repeat.
    core::RegionTelemetrySilencer silencer;
    core::ParallelFor(vantages_.size(), run_vantage);
  }

  // Merge in vantage order: sequential ids independent of scheduling.
  StepOutput out;
  out.step_end = step_end;
  std::size_t total_records = 0, total_failures = 0;
  for (const VantageBatch& batch : batches) {
    total_records += batch.records.size();
    total_failures += batch.failures.size();
  }
  out.records.reserve(total_records);
  out.failures.reserve(total_failures);
  for (VantageBatch& batch : batches) {
    for (PendingRecord& pending : batch.records) {
      pending.record.id = core::MeasurementId(next_record_id_++);
      out.records.push_back(pending);
    }
  }
  for (VantageBatch& batch : batches) {
    for (ProbeFailure& failure : batch.failures) {
      out.failures.push_back(failure);
    }
  }
  CountProbes(out);
  return out;
}

void CountProbes(const StepOutput& step) {
  const std::uint64_t succeeded = step.records.size();
  const std::uint64_t attempted = succeeded + step.failures.size();
  std::uint64_t retried = 0;
  for (const PendingRecord& pending : step.records) {
    retried += pending.record.attempts - 1;
  }
  for (const ProbeFailure& failure : step.failures) {
    retried += failure.attempts - 1;
  }
  if (attempted > 0) {
    SISYPHUS_METRIC_COUNT("measure.probes.attempted", attempted);
  }
  if (retried > 0) SISYPHUS_METRIC_COUNT("measure.probes.retried", retried);
  if (succeeded > 0) {
    SISYPHUS_METRIC_COUNT("measure.probes.succeeded", succeeded);
  }
}

void Platform::CommitFailures(const std::vector<ProbeFailure>& failures) {
  for (const ProbeFailure& failure : failures) RecordFailure(failure);
}

obs::LineageRecordInfo LineageInfoOf(const PendingRecord& pending,
                                     bool archived) {
  obs::LineageRecordInfo info;
  info.id = pending.record.id.value();
  info.vantage = pending.record.vantage_pop;
  info.intent = static_cast<std::uint8_t>(pending.record.intent);
  info.attempts = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(pending.record.attempts, 255));
  info.fault_mask = pending.fault_mask;
  info.copies = pending.duplicate ? 2 : 1;
  info.archived = archived;
  return info;
}

void Platform::SkipStep(core::SimTime until) {
  const core::SimTime step_end =
      std::min(until, simulator_.Now() + options_.step);
  simulator_.AdvanceTo(step_end);
  route_change_cursor_ = simulator_.route_changes().size();
  // Read every (vantage, server) route, in place as ResolveProbePath
  // does, so the BGP route cache ends the skipped step exactly as warm as
  // a live step would leave it, and the netsim cache counters count what
  // the live step counted.
  for (const VantageState& vantage : vantages_) {
    (void)simulator_.bgp().FindRoute(vantage.config.pop, options_.server);
  }
}

Platform::StreamState Platform::CaptureStreamState() const {
  StreamState state;
  state.next_record_id = next_record_id_;
  state.ewma_rtt.reserve(vantages_.size());
  for (const VantageState& vantage : vantages_) {
    state.ewma_rtt.push_back(vantage.ewma_rtt);
  }
  return state;
}

core::Status Platform::RestoreStreamState(const StreamState& state) {
  if (state.ewma_rtt.size() != vantages_.size()) {
    return core::Error(core::ErrorCode::kInvalidArgument,
                       "saved stream state holds " +
                           std::to_string(state.ewma_rtt.size()) +
                           " vantage EWMAs but this platform has " +
                           std::to_string(vantages_.size()) + " vantages");
  }
  next_record_id_ = state.next_record_id;
  for (std::size_t i = 0; i < vantages_.size(); ++i) {
    vantages_[i].ewma_rtt = state.ewma_rtt[i];
  }
  return core::Status::Ok();
}

namespace {

/// The fixed stream series, in timeline id order.
constexpr const char* kStreamSeries[] = {
    "measure.stream.records_ingested",  "measure.stream.journal_high_water",
    "measure.stream.shed_overload",     "netsim.bgp.invalidated_destinations",
    "netsim.bgp.retained_destinations", "netsim.bgp.frontier_pops",
    "netsim.bgp.route_cache_hits",      "netsim.bgp.route_cache_misses",
    "netsim.bgp.tables_computed"};

std::uint32_t DeclareStreamSeries(obs::Timeline& timeline,
                                  std::string_view name) {
  // Route-churn detector: every step in which destinations were
  // invalidated is a route event (ScenarioZa's treatment flap included).
  const obs::ChurnConfig churn;
  return timeline.DeclareCounter(
      name, name == "netsim.bgp.invalidated_destinations" ? &churn : nullptr);
}

}  // namespace

void DeclareStreamTelemetrySeries() {
  if (!obs::Timeline::enabled()) return;
  for (const char* name : kStreamSeries) {
    DeclareStreamSeries(obs::Timeline::Global(), name);
  }
}

void EmitStepTelemetry(std::uint64_t committed_steps,
                       std::uint64_t committed_records, std::size_t,
                       std::size_t every, const StreamingCampaign* campaign,
                       bool) {
  SISYPHUS_METRIC_GAUGE("measure.stream.records_ingested",
                        static_cast<double>(committed_records));
  SISYPHUS_METRIC_GAUGE("measure.stream.journal_high_water",
                        static_cast<double>(committed_steps));
  if (every != 0 && committed_steps % every == 0) {
    core::LogLine(core::LogLevel::kInfo, "stream heartbeat",
                  {{"step", committed_steps}, {"records", committed_records}});
  }
  if (!obs::Timeline::enabled()) return;
  obs::Timeline& timeline = obs::Timeline::Global();
  const obs::Registry& registry = obs::Registry::Global();
  for (const char* name : kStreamSeries) {
    const std::string_view series(name);
    const std::uint64_t value =
        series == "measure.stream.records_ingested" ? committed_records
        : series == "measure.stream.journal_high_water"
            ? committed_steps
            : registry.CounterValue(name);
    timeline.SampleCounter(committed_steps,
                           DeclareStreamSeries(timeline, series), value);
  }
  if (campaign != nullptr) {
    const obs::LevelShiftConfig shift;
    campaign->VisitRunningMeans(
        [&](std::string_view unit, std::uint64_t count, double sum) {
          std::string name = "rtt.mean.";
          name.append(unit);
          const std::uint32_t id = timeline.DeclareRunningMean(name, &shift);
          timeline.SampleRunningMean(committed_steps, id, count, sum);
        });
  }
  timeline.CommitStep(committed_steps);
}

StreamingCampaign::StreamingCampaign(StoreValidationOptions validation,
                                     StreamingOptions options)
    : options_(options),
      lineage_(obs::Lineage::enabled()),
      store_(validation),
      by_shard_(store_.shard_count()) {
  SISYPHUS_REQUIRE(options.panel.bucket.minutes() > 0,
                   "StreamingCampaign: zero panel bucket");
}

void StreamingCampaign::IngestBatch(const std::vector<PendingRecord>& batch) {
  const std::size_t shards = store_.shard_count();
  // Serial pre-pass: hash each record's interned unit key once per run of
  // consecutive records with the same unit (one run per vantage in a
  // merged step) and group batch indices by owning shard. The grouping is
  // a pure function of the batch contents, so each shard task sees a
  // fixed record sequence no matter how many lanes execute.
  for (ShardIngest& ingest : by_shard_) ingest.entries.clear();
  std::size_t shard = 0;
  std::uint64_t max_id = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const SpeedTestRecord& record = batch[i].record;
    if (i == 0 || record.unit != batch[i - 1].record.unit) {
      shard = store_.ShardOf(record.UnitKey());
    }
    by_shard_[shard].entries.push_back(static_cast<std::uint32_t>(i));
    max_id = std::max(max_id, record.id.value());
  }
  // Shard tasks write each record's lineage verdict in place at id - 1,
  // into a column that must already hold every id of the batch.
  if (obs::Lineage::enabled()) obs::Lineage::Global().ReserveRecords(max_id);
  // Telemetry-silent: the shard fan-out is an execution detail of ingest,
  // kept out of metrics.json so the work counters describe the campaign,
  // not its shard layout. Task-side metric writes still replay.
  core::RegionTelemetrySilencer silencer;
  core::ParallelFor(shards,
                    [&](std::size_t s) { IngestShard(s, batch, by_shard_[s]); });
  ++batches_;
  ingested_ += batch.size();
}

void StreamingCampaign::IngestShard(std::size_t shard,
                                    const std::vector<PendingRecord>& batch,
                                    ShardIngest& ingest) {
  const ShardedMeasurementStore::Columns& arena = store_.shard(shard);
  const std::size_t first = arena.size();
  store_.AppendShard(shard, batch, ingest.entries, ingest.archived);
  // Duplicate copies share id and content: one lineage verdict covers
  // both rows. The verdict is written in place: this task owns the
  // record's id.
  if (obs::Lineage::enabled()) {
    for (std::size_t k = 0; k < ingest.entries.size(); ++k) {
      obs::Lineage::Global().RecordEmitted(
          LineageInfoOf(batch[ingest.entries[k]], ingest.archived[k] != 0));
    }
  }
  // Skew and backoff can push a copy outside the panel's horizon: it ends
  // there, in no cell. Every other copy joins its unit's running sum.
  ingest.running.resize(arena.unit_names.size());
  for (std::size_t row = first; row < arena.size(); ++row) {
    const core::SimTime time(arena.time_minutes[row]);
    if (PanelCellOf(options_.panel, time) < 0) {
      if (lineage_) obs::Lineage::Global().RecordOutOfPanel(arena.id[row]);
      continue;
    }
    RunningSum& running = ingest.running[arena.unit[row]];
    const double rtt = arena.rtt_ms[row];
    const double t = running.sum + rtt;
    running.comp += std::abs(running.sum) >= std::abs(rtt)
                        ? (running.sum - t) + rtt
                        : (rtt - t) + running.sum;
    running.sum = t;
    ++running.count;
  }
}

void StreamingCampaign::VisitRunningMeans(
    const std::function<void(std::string_view, std::uint64_t, double)>& visit)
    const {
  // Shards partition units, so the sorted concatenation of the shards'
  // units holds each unit once, in key order.
  std::vector<std::pair<std::string_view, const RunningSum*>> units;
  for (std::size_t s = 0; s < by_shard_.size(); ++s) {
    const std::vector<std::string>& names = store_.shard(s).unit_names;
    for (std::size_t u = 0; u < names.size(); ++u) {
      units.emplace_back(names[u], &by_shard_[s].running[u]);
    }
  }
  std::sort(units.begin(), units.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [unit, running] : units) {
    visit(unit, running->count, running->sum + running->comp);
  }
}

namespace {

/// Calls visit(row, slot) for each in-horizon copy of `arena`, in row
/// order, where slot = unit * periods + cell. The time and unit columns
/// are read through pointers, one segment at a time (every column splits
/// its rows into segments alike). A step's rows lie within hours of each
/// other, so consecutive rows mostly share a cell: each row first tries
/// the last in-horizon cell's [start, start + bucket) window, and
/// PanelCellOf's division runs only for a row outside it.
template <typename Visit>
void ForEachPanelSlot(const ShardedMeasurementStore::Columns& arena,
                      const PanelOptions& options, Visit visit) {
  const std::int64_t bucket = options.bucket.minutes();
  std::int64_t start = 0;
  std::int64_t cell = -1;  // none yet
  for (std::size_t row = 0; row < arena.size();) {
    const std::size_t end = std::min(
        arena.size(), row + SegmentedColumn<std::int64_t>::ContiguousFrom(row));
    const std::int64_t* time = &arena.time_minutes[row];
    const std::uint32_t* unit = &arena.unit[row];
    for (; row < end; ++row, ++time, ++unit) {
      const std::int64_t minutes = *time;
      if (cell < 0 || minutes < start || minutes - start >= bucket) {
        cell = PanelCellOf(options, core::SimTime(minutes));
        if (cell < 0) continue;
        start = options.origin.minutes() + cell * bucket;
      }
      visit(row, *unit * options.periods + static_cast<std::size_t>(cell));
    }
  }
}

}  // namespace

Panel StreamingCampaign::FinalizePanel() const {
  const PanelOptions& options = options_.panel;
  const std::size_t periods = options.periods;
  Panel panel;
  panel.options = options;
  // One shard at a time, a counting sort of its in-horizon copies by slot
  // (unit u's cell t is slot u * periods + t) into flat buffers that the
  // next shard reuses. The count pass adds slot s's copies at
  // offsets[s + 2], so after the prefix sum offsets[s + 1] is where slot s
  // starts; the scatter pass advances it to where slot s ends, which
  // leaves slot s at [offsets[s], offsets[s + 1]), in row order.
  std::vector<std::size_t> offsets;
  std::vector<double> values;
  std::vector<std::uint64_t> ids;
  for (std::size_t s = 0; s < store_.shard_count(); ++s) {
    const ShardedMeasurementStore::Columns& arena = store_.shard(s);
    const std::size_t units = arena.unit_names.size();
    offsets.assign(units * periods + 2, 0);
    ForEachPanelSlot(arena, options, [&offsets](std::size_t, std::size_t slot) {
      ++offsets[slot + 2];
    });
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    values.resize(offsets.back());
    if (lineage_) ids.resize(offsets.back());
    ForEachPanelSlot(arena, options, [&](std::size_t row, std::size_t slot) {
      const std::size_t at = offsets[slot + 1]++;
      values[at] = arena.rtt_ms[row];
      if (lineage_) ids[at] = arena.id[row];
    });
    for (std::size_t u = 0; u < units; ++u) {
      AddPanelUnit(arena.unit_names[u],
                   std::span(offsets).subspan(u * periods, periods + 1),
                   values, ids, lineage_, panel);
    }
  }
  const auto by_key = [](const auto& a, const auto& b) {
    return a.unit < b.unit;
  };
  std::sort(panel.units.begin(), panel.units.end(), by_key);
  std::sort(panel.dropped.begin(), panel.dropped.end(), by_key);
  return panel;
}

}  // namespace sisyphus::measure
