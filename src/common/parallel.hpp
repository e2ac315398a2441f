// Shared parallelism substrate: a fixed-size work-stealing thread pool.
//
// Every parallel path in Clara (branch-and-bound LP solves, sharded
// workload sweeps) funnels through this one pool so the process never
// oversubscribes the machine. Design:
//
//   * one Chase-Lev deque per worker — the owning worker pushes/pops at
//     the bottom, idle workers steal from the top (lock-free, the
//     fence-free seq_cst formulation of Lê et al., which is also clean
//     under ThreadSanitizer);
//   * external threads (and parallel_for callers) enqueue into a
//     mutex-guarded injector queue; workers drain their own deque first,
//     then the injector, then steal round-robin;
//   * waiting threads are never passive: TaskGroup::wait() executes
//     pending tasks while it waits, so nested parallel_for (a sweep
//     shard whose MILP solve fans out again) cannot deadlock.
//
// Concurrency level: `jobs()` tasks run at once (pool workers plus the
// participating caller). The global default comes from --jobs / the
// CLARA_JOBS environment variable, else hardware_concurrency; jobs()==1
// executes everything inline — fully serial, deterministic, zero
// threads. All Clara parallel algorithms are written so their *results*
// are identical at every jobs level; the pool only changes wall time.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

namespace clara::parallel {

/// Global concurrency level (>= 1). Defaults to CLARA_JOBS if set, else
/// std::thread::hardware_concurrency().
std::size_t jobs();

/// Sets the global concurrency level; 0 restores the default. Must not
/// be called while parallel work is in flight (configure at startup or
/// between pipeline phases, as clara_cli and the tests do).
void set_jobs(std::size_t n);

/// The default jobs value: CLARA_JOBS when set to a positive integer,
/// else hardware_concurrency (min 1).
std::size_t default_jobs();

/// Per-lane execution-time attribution (a lane is one pool worker, or
/// the aggregate of every external thread that executes tasks inline
/// while waiting). All values are monotonic nanosecond/event counters;
/// profilers snapshot before/after a region and diff.
struct LaneStats {
  std::uint64_t run_ns = 0;    // wall time inside task bodies
  std::uint64_t sched_ns = 0;  // task acquisition + enqueue overhead
  std::uint64_t idle_ns = 0;   // waiting with no runnable work (barrier/starvation)
  std::uint64_t tasks = 0;     // tasks executed on this lane
  std::uint64_t steals = 0;    // successful deque steals by this lane
};

/// Monotonic pool counters for observability. Consumers snapshot before
/// and after a parallel region and publish the delta to obs::metrics()
/// (common/ stays free of an obs dependency).
struct PoolStats {
  /// Log2-bucketed per-task duration histogram: bucket i counts tasks
  /// whose body ran for [2^(i-1), 2^i) ns (bucket 0: sub-nanosecond).
  static constexpr std::size_t kTaskHistBuckets = 40;

  std::uint64_t tasks_run = 0;       // tasks executed by pool workers
  std::uint64_t tasks_inline = 0;    // tasks executed by waiting callers
  std::uint64_t steals = 0;          // successful deque steals
  std::uint64_t injected = 0;        // tasks routed through the injector
  std::uint64_t worker_busy_ns = 0;  // summed task wall time on workers
  std::size_t queue_depth = 0;       // injector backlog at snapshot time
  std::vector<std::uint64_t> per_worker_busy_ns;
  /// Full attribution per worker lane (run+sched+idle covers nearly the
  /// whole worker wall clock; the remainder is loop bookkeeping).
  std::vector<LaneStats> worker_lanes;
  /// Aggregate attribution for external threads helping via
  /// TaskGroup::wait()/run() — the "caller lane".
  LaneStats inline_lane;
  std::array<std::uint64_t, kTaskHistBuckets> task_ns_hist{};
};

/// Scheduling events surfaced to an optional process-wide hook (the
/// obs flight recorder installs one). `lane` is the worker index, or
/// kInlineLane for external threads; kTaskStop carries the task body
/// duration in ns as `arg`.
enum class PoolEvent : std::uint8_t { kTaskStart, kTaskStop, kSteal, kQueueOverflow };

inline constexpr std::uint64_t kInlineLane = ~std::uint64_t{0};

using PoolEventHook = void (*)(PoolEvent event, std::uint64_t lane, std::uint64_t arg);

/// Installs (or clears, with nullptr) the pool event hook. The hook must
/// be thread-safe and cheap; it fires on task start/stop, successful
/// steals, and deque-overflow fallbacks. One hook at a time.
void set_pool_event_hook(PoolEventHook hook);

class ThreadPool;

/// Latch-style completion tracker for a batch of tasks. run() enqueues,
/// wait() helps execute pending work until every task in the group has
/// finished. A group is single-owner: run/wait from the owning thread.
class TaskGroup {
 public:
  TaskGroup();
  explicit TaskGroup(ThreadPool& pool);
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues fn on the pool (runs inline immediately when jobs()==1 or
  /// the pool has no workers). fn must not throw.
  void run(std::function<void()> fn);
  /// Blocks until every task run() on this group has completed,
  /// executing pending pool tasks while waiting.
  void wait();

 private:
  ThreadPool* pool_;
  std::atomic<std::size_t> pending_{0};
  friend class ThreadPool;
};

/// The process-wide pool, sized to jobs()-1 background workers (the
/// caller is the remaining lane). Resized lazily by set_jobs().
ThreadPool& pool();

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Background worker count (concurrency is workers()+1 with the
  /// participating caller).
  [[nodiscard]] std::size_t workers() const;
  /// Joins and respawns workers so workers()==n. Callers must ensure no
  /// parallel region is active.
  void resize(std::size_t n);

  [[nodiscard]] PoolStats stats() const;

 private:
  friend class TaskGroup;
  friend std::size_t jobs();
  friend void post(std::function<void()> fn);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Enqueues fn on the pool with no group: the caller tracks completion
/// itself, so nothing waits by running other pool tasks. The pool must
/// have workers (jobs() > 1), since only a worker runs fn; a caller with
/// none runs its work itself. fn must not throw.
void post(std::function<void()> fn);

/// Parallel loop over [begin, end): body(i) for every index, partitioned
/// into ~4x-jobs() contiguous chunks of at least `grain` indices. The
/// caller participates; nested calls are safe (inner loops run inline or
/// steal lanes as available). Iterations must be independent — the loop
/// guarantees nothing about execution order.
void parallel_for(std::size_t begin, std::size_t end, const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// parallel_for with an explicit concurrency override (0 = global
/// jobs()). Used by solver/sweep options that pin their own jobs value.
void parallel_for_jobs(std::size_t jobs_override, std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& body, std::size_t grain = 1);

/// Future-based one-off submission. With jobs()==1 the task runs inline
/// and the future is immediately ready.
template <class F>
auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
  using R = std::invoke_result_t<F>;
  auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
  auto future = task->get_future();
  if (jobs() <= 1) {
    (*task)();
    return future;
  }
  // Detached group: the future carries completion, no join needed.
  auto group = std::make_shared<TaskGroup>();
  group->run([task, group] { (*task)(); });
  return future;
}

/// Deterministic per-shard RNG stream seed: splitmix64 of (base, index).
/// Shards seeded this way are statistically independent regardless of
/// how close the base seeds are (the workload generator's seeds are
/// small integers).
std::uint64_t shard_seed(std::uint64_t base, std::uint64_t index);

/// How many cores the host gives `threads` busy threads right now:
/// `threads` × the time one thread takes for a fixed spin loop ÷ the wall
/// time of `threads` threads each running it at once (the best of two
/// tries of each). Reads about `threads` on an idle host with that many
/// cores, and less on a smaller or busier one. Runs its own std::threads,
/// not the pool, and takes a few tens of milliseconds. A wall-clock
/// speedup at `threads` jobs is only measurable when this is close to
/// `threads`.
double effective_cores(std::size_t threads);

}  // namespace clara::parallel
