#include "core/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace sisyphus::core {
namespace {

TaskObserver* g_observer = nullptr;

// Set while a thread is executing tasks of some region (worker lanes and
// the participating caller alike). Nested ParallelFor calls from inside a
// task run inline -- blocking a lane on a nested region could deadlock the
// pool, and inline execution preserves the determinism contract trivially.
thread_local bool t_in_parallel_task = false;

thread_local bool t_region_telemetry_silenced = false;

}  // namespace

void SetTaskObserver(TaskObserver* observer) { g_observer = observer; }
TaskObserver* GetTaskObserver() { return g_observer; }

RegionTelemetrySilencer::RegionTelemetrySilencer()
    : previous_(t_region_telemetry_silenced) {
  t_region_telemetry_silenced = true;
}

RegionTelemetrySilencer::~RegionTelemetrySilencer() {
  t_region_telemetry_silenced = previous_;
}

bool RegionTelemetrySilenced() { return t_region_telemetry_silenced; }

bool InParallelTask() { return t_in_parallel_task; }

struct ThreadPool::Region {
  const std::function<void(std::size_t)>* body = nullptr;
  TaskObserver* observer = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::size_t entered = 0;  // workers that joined this region (guarded by mu_)
  std::size_t exited = 0;   // workers that left this region (guarded by mu_)
  std::vector<std::exception_ptr> errors;
  std::vector<void*> tokens;
};

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) thread_count = DefaultThreadCount();
  workers_.reserve(thread_count - 1);
  for (std::size_t i = 0; i + 1 < thread_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("SISYPHUS_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void ThreadPool::RunTasks(Region& region) {
  const bool was_in_task = t_in_parallel_task;
  t_in_parallel_task = true;
  for (;;) {
    const std::size_t i = region.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= region.count) break;
    void* token =
        region.observer ? region.observer->TaskBegin(i) : nullptr;
    try {
      (*region.body)(i);
    } catch (...) {
      region.errors[i] = std::current_exception();
    }
    if (region.observer) {
      region.observer->TaskEnd(token);
      region.tokens[i] = token;
    }
    region.completed.fetch_add(1, std::memory_order_release);
  }
  t_in_parallel_task = was_in_task;
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Region* region = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (region_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      region = region_;
      ++region->entered;
    }
    RunTasks(*region);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++region->exited;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  TaskObserver* observer = g_observer;

  // Inline path: single-lane pools, single tasks, and nested calls from
  // inside a running task. Serial execution in index order satisfies the
  // determinism contract by construction; the first exception propagates
  // naturally and is necessarily the lowest-indexed one.
  if (workers_.empty() || count == 1 || t_in_parallel_task) {
    if (observer) observer->RegionBegin(count, 1);
    struct RegionEndGuard {
      TaskObserver* observer;
      ~RegionEndGuard() {
        if (observer) observer->RegionEnd();
      }
    } guard{observer};
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  if (observer) observer->RegionBegin(count, thread_count());
  Region region;
  region.body = &body;
  region.observer = observer;
  region.count = count;
  region.errors.resize(count);
  region.tokens.resize(count, nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    region_ = &region;
    ++generation_;
  }
  work_cv_.notify_all();
  RunTasks(region);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return region.exited == region.entered &&
             region.completed.load(std::memory_order_acquire) == count;
    });
    // Clear under the same critical section: workers only pick up a region
    // while region_ is set, so once entered == exited no lane can still
    // touch this stack frame.
    region_ = nullptr;
  }

  // Deterministic reduction of side channels: ascending task-index order on
  // the calling thread.
  if (observer) {
    for (std::size_t i = 0; i < count; ++i) observer->TaskMerge(region.tokens[i]);
    observer->RegionEnd();
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (region.errors[i]) std::rethrow_exception(region.errors[i]);
  }
}

namespace {
std::mutex g_global_pool_mu;
std::unique_ptr<ThreadPool> g_global_pool;
}  // namespace

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  if (!g_global_pool) g_global_pool = std::make_unique<ThreadPool>();
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreadCount(std::size_t thread_count) {
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  g_global_pool.reset();  // join old workers before spawning the new pool
  g_global_pool = std::make_unique<ThreadPool>(thread_count);
}

std::size_t ParallelThreadCount() { return ThreadPool::Global().thread_count(); }

}  // namespace sisyphus::core
