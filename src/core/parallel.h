// Deterministic parallel execution (DESIGN.md §7).
//
// A dependency-free thread pool exposing ParallelFor / ParallelMap with a
// hard determinism contract:
//
//   * results land in a pre-sized vector indexed by task id;
//   * per-task randomness is derived via Rng::Fork(seed, task_id)
//     seed-splitting -- tasks never share mutable generator state;
//   * every reduction -- results, observer side-channels (metrics), and
//     exceptions -- happens on the calling thread in ascending task-index
//     order.
//
// Consequently the output of a parallel region is a pure function of its
// inputs, byte-identical regardless of thread count: SISYPHUS_THREADS=1
// must equal SISYPHUS_THREADS=N. Anything order-sensitive that a task wants
// to emit must flow either through its indexed result slot or through the
// TaskObserver side-channel, which is buffered per task and replayed in
// index order.
//
// Scheduling is a shared atomic task counter (no work stealing, no
// per-thread queues): tasks are claimed dynamically, so uneven task costs
// balance across lanes, while the index-ordered reduction keeps the result
// independent of which lane ran what.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sisyphus::core {

/// Hook interface for side-channel determinism (implemented by the obs
/// layer, which buffers metric writes per task and replays them in task
/// order). Core cannot depend on obs, so the observer is injected via
/// SetTaskObserver at static-init time. All methods must be safe to call
/// from multiple threads.
class TaskObserver {
 public:
  virtual ~TaskObserver() = default;

  /// Called on the calling thread before any task of a region runs.
  /// `task_count` is the number of tasks, `lanes` the number of execution
  /// lanes (worker threads + the participating caller).
  virtual void RegionBegin(std::size_t task_count, std::size_t lanes) = 0;

  /// Called on the executing thread immediately before task `task_index`.
  /// Returns an opaque per-task token (may be nullptr) handed back to
  /// TaskEnd and TaskMerge.
  virtual void* TaskBegin(std::size_t task_index) = 0;

  /// Called on the executing thread immediately after the task body (even
  /// if it threw).
  virtual void TaskEnd(void* token) = 0;

  /// Called on the calling thread, once per task in ascending task-index
  /// order, after all tasks finished. Must release the token.
  virtual void TaskMerge(void* token) = 0;

  /// Called on the calling thread after all merges.
  virtual void RegionEnd() = 0;
};

/// Installs the process-wide task observer (nullptr to clear). Not
/// synchronized: call during startup, before any parallel region runs.
void SetTaskObserver(TaskObserver* observer);
TaskObserver* GetTaskObserver();

/// RAII scope marking parallel regions started by this thread as
/// telemetry-silent. Some regions are internal to a data path whose output
/// artifacts are contracted to be byte-identical across execution
/// strategies (e.g. the campaign's shard ingest, one region per step):
/// counting such regions in the metrics registry would leak the execution
/// shape into metrics.json. Inside this scope the
/// observer still buffers and replays per-task side channels (metric writes
/// made *by* tasks, trace spans, pool stats) -- only the engine's own
/// region/task counters are suppressed. Scopes nest.
class RegionTelemetrySilencer {
 public:
  RegionTelemetrySilencer();
  ~RegionTelemetrySilencer();
  RegionTelemetrySilencer(const RegionTelemetrySilencer&) = delete;
  RegionTelemetrySilencer& operator=(const RegionTelemetrySilencer&) = delete;

 private:
  bool previous_;
};

/// True while the calling thread is inside a RegionTelemetrySilencer scope.
/// Observers consult this from RegionBegin/RegionEnd (both run on the
/// region's calling thread, so the answer is stable across one region).
bool RegionTelemetrySilenced();

/// True while the calling thread runs a task of a multi-lane region, on a
/// worker lane or as the participating caller; a region nested in such a
/// task runs inline and keeps the answer. An inline region (one lane or
/// one task) at top level does not set it: its tasks run serially on the
/// caller, in index order.
bool InParallelTask();

/// Fixed-size thread pool. `thread_count` counts execution lanes including
/// the calling thread, so ThreadPool(4) spawns 3 workers and ThreadPool(1)
/// spawns none (every region runs inline). thread_count = 0 means
/// DefaultThreadCount().
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution lanes (worker threads + caller).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs body(0..count-1) across the pool. Blocks until all tasks finish.
  /// The calling thread participates. Nested calls from inside a task run
  /// inline (deadlock guard). If one or more tasks throw, the exception of
  /// the lowest-indexed failing task is rethrown after all tasks finish and
  /// all observer tokens are merged.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body);

  /// Deterministic map: out[i] = fn(i), with out pre-sized to `count`.
  /// R must be default-constructible; wrap non-default-constructible
  /// results in std::optional at the call site.
  template <typename Fn>
  auto ParallelMap(std::size_t count, Fn&& fn)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    std::vector<R> out(count);
    ParallelFor(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Resolves the configured lane count: SISYPHUS_THREADS if set to a
  /// positive integer, else std::thread::hardware_concurrency() (min 1).
  static std::size_t DefaultThreadCount();

  /// Process-wide pool (lazily built with DefaultThreadCount()).
  static ThreadPool& Global();

  /// Rebuilds the global pool with `thread_count` lanes (0 = default).
  /// Not synchronized with concurrent users of Global(); call from the
  /// main thread between parallel regions (e.g. when parsing --threads).
  static void SetGlobalThreadCount(std::size_t thread_count);

 private:
  struct Region;
  void WorkerLoop();
  static void RunTasks(Region& region);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Region* region_ = nullptr;  // guarded by mu_
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Conveniences over ThreadPool::Global().
inline void ParallelFor(std::size_t count,
                        const std::function<void(std::size_t)>& body) {
  ThreadPool::Global().ParallelFor(count, body);
}

template <typename Fn>
auto ParallelMap(std::size_t count, Fn&& fn) {
  return ThreadPool::Global().ParallelMap(count, std::forward<Fn>(fn));
}

/// Lane count of the global pool.
std::size_t ParallelThreadCount();

}  // namespace sisyphus::core
