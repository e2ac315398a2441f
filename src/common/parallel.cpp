#include "common/parallel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

namespace clara::parallel {

namespace {

struct Task {
  std::function<void()> fn;
  TaskGroup* group = nullptr;
};

/// Bounded Chase-Lev deque (Lê/Pop/Cocchiarella/Zappa Nardelli's
/// fence-free formulation: top/bottom are seq_cst, slots are
/// acquire/release). The owner pushes and pops at the bottom; any other
/// thread steals from the top. A full deque rejects the push and the
/// caller runs the task inline — safe, just momentarily less parallel.
class WorkDeque {
 public:
  static constexpr std::size_t kCapacity = 1 << 13;

  bool push(Task* task) {  // owner only
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    const std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
    slots_[static_cast<std::size_t>(b) & kMask].store(task, std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return true;
  }

  Task* pop() {  // owner only
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // empty: undo
      bottom_.store(b + 1, std::memory_order_seq_cst);
      return nullptr;
    }
    Task* task = slots_[static_cast<std::size_t>(b) & kMask].load(std::memory_order_acquire);
    if (t == b) {  // last element: race the thieves for it
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst)) task = nullptr;
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }
    return task;
  }

  Task* steal() {  // any thread
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Task* task = slots_[static_cast<std::size_t>(t) & kMask].load(std::memory_order_acquire);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst)) return nullptr;
    return task;
  }

  [[nodiscard]] bool empty() const {
    return bottom_.load(std::memory_order_relaxed) <= top_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kMask = kCapacity - 1;
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::array<std::atomic<Task*>, kCapacity> slots_{};
};

struct WorkerState {
  WorkDeque deque;
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> sched_ns{0};
  std::atomic<std::uint64_t> idle_ns{0};
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> steals{0};
};

std::atomic<std::size_t> g_jobs{0};  // 0 = uninitialized, use default

std::atomic<PoolEventHook> g_pool_hook{nullptr};

inline void fire_hook(PoolEvent event, std::uint64_t lane, std::uint64_t arg) {
  if (PoolEventHook hook = g_pool_hook.load(std::memory_order_relaxed)) hook(event, lane, arg);
}

inline std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0,
                                std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// log2 bucket for the task-duration histogram: [2^(i-1), 2^i) ns.
inline std::size_t task_hist_bucket(std::uint64_t ns) {
  return std::min<std::size_t>(std::bit_width(ns), PoolStats::kTaskHistBuckets - 1);
}

}  // namespace

void set_pool_event_hook(PoolEventHook hook) {
  g_pool_hook.store(hook, std::memory_order_relaxed);
}

struct ThreadPool::Impl {
  std::vector<std::unique_ptr<WorkerState>> states;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};

  std::mutex injector_mu;
  std::deque<Task*> injector;
  std::condition_variable wake;

  std::atomic<std::uint64_t> tasks_run{0};
  std::atomic<std::uint64_t> tasks_inline{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> injected{0};

  // The "caller lane": aggregate attribution across every external
  // thread that enqueues or helps execute tasks (TaskGroup::run/wait).
  std::atomic<std::uint64_t> inline_run_ns{0};
  std::atomic<std::uint64_t> inline_sched_ns{0};
  std::atomic<std::uint64_t> inline_idle_ns{0};
  std::atomic<std::uint64_t> inline_steals{0};
  std::array<std::atomic<std::uint64_t>, PoolStats::kTaskHistBuckets> task_hist{};

  ~Impl() { shutdown(); }

  void spawn(std::size_t n) {
    stop.store(false, std::memory_order_relaxed);
    states.clear();
    states.reserve(n);
    for (std::size_t i = 0; i < n; ++i) states.push_back(std::make_unique<WorkerState>());
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([this, i] { worker_loop(i); });
    }
  }

  void shutdown() {
    stop.store(true, std::memory_order_seq_cst);
    wake.notify_all();
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
    threads.clear();
    // Drain any stranded injector tasks inline (none in normal use: a
    // resize only happens with no region in flight).
    for (;;) {
      Task* task = pop_injector();
      if (!task) break;
      execute(task, kInlineLane);
    }
    states.clear();
  }

  Task* pop_injector() {
    std::lock_guard<std::mutex> lock(injector_mu);
    if (injector.empty()) return nullptr;
    Task* task = injector.front();
    injector.pop_front();
    return task;
  }

  Task* try_steal(std::size_t self, std::uint64_t lane) {
    const std::size_t n = states.size();
    for (std::size_t k = 1; k <= n; ++k) {
      const std::size_t victim = (self + k) % n;
      if (victim == self) continue;
      if (Task* task = states[victim]->deque.steal()) {
        steals.fetch_add(1, std::memory_order_relaxed);
        if (lane < states.size()) {
          states[lane]->steals.fetch_add(1, std::memory_order_relaxed);
        } else {
          inline_steals.fetch_add(1, std::memory_order_relaxed);
        }
        fire_hook(PoolEvent::kSteal, lane, victim);
        return task;
      }
    }
    return nullptr;
  }

  /// Own deque (workers), then injector, then steal.
  Task* acquire(std::size_t worker_id) {
    if (worker_id < states.size()) {
      if (Task* task = states[worker_id]->deque.pop()) return task;
    }
    if (Task* task = pop_injector()) return task;
    if (!states.empty()) {
      const std::size_t start = worker_id < states.size() ? worker_id : 0;
      const std::uint64_t lane = worker_id < states.size() ? worker_id : kInlineLane;
      if (Task* task = try_steal(start, lane)) return task;
    }
    return nullptr;
  }

  /// Runs a task on `lane` (a worker index, or kInlineLane for external
  /// threads), timing the body and attributing it to the lane's counters
  /// and the shared task-duration histogram.
  void execute(Task* task, std::uint64_t lane) {
    fire_hook(PoolEvent::kTaskStart, lane, 0);
    const auto t0 = std::chrono::steady_clock::now();
    task->fn();
    const std::uint64_t dur = elapsed_ns(t0, std::chrono::steady_clock::now());
    TaskGroup* group = task->group;
    // Decrement before deleting the task: a detached group (submit())
    // lives inside the task's own captures, and its destructor waits for
    // pending_ to reach zero — deleting first would self-deadlock. The
    // group pointer is copied out and never touched after the decrement,
    // so an owner destroying the group the moment wait() returns is safe.
    if (group) group->pending_.fetch_sub(1, std::memory_order_release);
    delete task;
    if (lane < states.size()) {
      WorkerState& state = *states[lane];
      state.busy_ns.fetch_add(dur, std::memory_order_relaxed);
      state.tasks.fetch_add(1, std::memory_order_relaxed);
    } else {
      inline_run_ns.fetch_add(dur, std::memory_order_relaxed);
    }
    task_hist[task_hist_bucket(dur)].fetch_add(1, std::memory_order_relaxed);
    fire_hook(PoolEvent::kTaskStop, lane, dur);
  }

  void worker_loop(std::size_t id);
  void enqueue(Task* task, std::size_t worker_id);
};

namespace {
/// Which pool worker the current thread is (kNotWorker for externals).
constexpr std::size_t kNotWorker = ~std::size_t{0};
thread_local std::size_t t_worker_id = kNotWorker;
thread_local const void* t_worker_pool = nullptr;
}  // namespace

void ThreadPool::Impl::worker_loop(std::size_t id) {
  t_worker_id = id;
  t_worker_pool = this;
  WorkerState& self = *states[id];
  while (!stop.load(std::memory_order_seq_cst)) {
    const auto t0 = std::chrono::steady_clock::now();
    Task* task = acquire(id);
    if (task) {
      // Acquisition cost (deque pop, injector lock, steal scan) is the
      // lane's scheduling overhead; the body is timed inside execute().
      self.sched_ns.fetch_add(elapsed_ns(t0, std::chrono::steady_clock::now()),
                              std::memory_order_relaxed);
      tasks_run.fetch_add(1, std::memory_order_relaxed);
      execute(task, id);
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(injector_mu);
      if (injector.empty() && !stop.load(std::memory_order_relaxed)) {
        // Bounded nap: submissions notify, the timeout covers the
        // lost-wakeup window between the lock-free deque check and the
        // sleep.
        wake.wait_for(lock, std::chrono::microseconds(500));
      }
    }
    // A fruitless scan plus any nap is idle time — what a profiler reads
    // as barrier wait / starvation.
    self.idle_ns.fetch_add(elapsed_ns(t0, std::chrono::steady_clock::now()),
                           std::memory_order_relaxed);
  }
  t_worker_id = kNotWorker;
  t_worker_pool = nullptr;
}

void ThreadPool::Impl::enqueue(Task* task, std::size_t worker_id) {
  const bool own_deque = worker_id != kNotWorker && t_worker_pool == this && worker_id < states.size();
  if (own_deque) {
    if (states[worker_id]->deque.push(task)) {
      wake.notify_one();  // siblings may steal it
      return;
    }
    // Deque full: fall back to the injector. Rare, but worth a flight
    // event — a run that overflows is momentarily less parallel.
    fire_hook(PoolEvent::kQueueOverflow, worker_id, WorkDeque::kCapacity);
  }
  {
    std::lock_guard<std::mutex> lock(injector_mu);
    injector.push_back(task);
  }
  injected.fetch_add(1, std::memory_order_relaxed);
  wake.notify_one();
}

ThreadPool::ThreadPool(std::size_t workers) : impl_(std::make_unique<Impl>()) { impl_->spawn(workers); }

ThreadPool::~ThreadPool() = default;

std::size_t ThreadPool::workers() const { return impl_->threads.size(); }

void ThreadPool::resize(std::size_t n) {
  if (n == impl_->threads.size()) return;
  impl_->shutdown();
  impl_->spawn(n);
}

PoolStats ThreadPool::stats() const {
  PoolStats out;
  out.tasks_run = impl_->tasks_run.load(std::memory_order_relaxed);
  out.tasks_inline = impl_->tasks_inline.load(std::memory_order_relaxed);
  out.steals = impl_->steals.load(std::memory_order_relaxed);
  out.injected = impl_->injected.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->injector_mu);
    out.queue_depth = impl_->injector.size();
  }
  for (const auto& state : impl_->states) {
    const auto ns = state->busy_ns.load(std::memory_order_relaxed);
    out.per_worker_busy_ns.push_back(ns);
    out.worker_busy_ns += ns;
    LaneStats lane;
    lane.run_ns = ns;
    lane.sched_ns = state->sched_ns.load(std::memory_order_relaxed);
    lane.idle_ns = state->idle_ns.load(std::memory_order_relaxed);
    lane.tasks = state->tasks.load(std::memory_order_relaxed);
    lane.steals = state->steals.load(std::memory_order_relaxed);
    out.worker_lanes.push_back(lane);
  }
  out.inline_lane.run_ns = impl_->inline_run_ns.load(std::memory_order_relaxed);
  out.inline_lane.sched_ns = impl_->inline_sched_ns.load(std::memory_order_relaxed);
  out.inline_lane.idle_ns = impl_->inline_idle_ns.load(std::memory_order_relaxed);
  out.inline_lane.tasks = out.tasks_inline;
  out.inline_lane.steals = impl_->inline_steals.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < PoolStats::kTaskHistBuckets; ++i) {
    out.task_ns_hist[i] = impl_->task_hist[i].load(std::memory_order_relaxed);
  }
  return out;
}

// ---------------------------------------------------------------------------
// TaskGroup

TaskGroup::TaskGroup() : pool_(&pool()) {}
TaskGroup::TaskGroup(ThreadPool& pool) : pool_(&pool) {}

TaskGroup::~TaskGroup() { wait(); }

void TaskGroup::run(std::function<void()> fn) {
  if (pool_->impl_->states.empty()) {
    fn();  // no workers: serial execution
    return;
  }
  auto* impl = pool_->impl_.get();
  pending_.fetch_add(1, std::memory_order_relaxed);
  auto* task = new Task{std::move(fn), this};
  const auto t0 = std::chrono::steady_clock::now();
  impl->enqueue(task, t_worker_id);
  const std::uint64_t dt = elapsed_ns(t0, std::chrono::steady_clock::now());
  if (t_worker_pool == impl && t_worker_id < impl->states.size()) {
    impl->states[t_worker_id]->sched_ns.fetch_add(dt, std::memory_order_relaxed);
  } else {
    impl->inline_sched_ns.fetch_add(dt, std::memory_order_relaxed);
  }
}

void TaskGroup::wait() {
  auto* impl = pool_->impl_.get();
  const bool is_worker = t_worker_pool == impl && t_worker_id < impl->states.size();
  while (pending_.load(std::memory_order_acquire) > 0) {
    const auto t0 = std::chrono::steady_clock::now();
    Task* task = impl->acquire(is_worker ? t_worker_id : kNotWorker);
    if (task) {
      const std::uint64_t dt = elapsed_ns(t0, std::chrono::steady_clock::now());
      if (is_worker) {
        impl->states[t_worker_id]->sched_ns.fetch_add(dt, std::memory_order_relaxed);
      } else {
        impl->inline_sched_ns.fetch_add(dt, std::memory_order_relaxed);
      }
      impl->tasks_inline.fetch_add(1, std::memory_order_relaxed);
      // A worker helping inside a nested wait still charges its own lane,
      // so per-lane run+sched+idle keeps covering its wall clock.
      impl->execute(task, is_worker ? t_worker_id : kInlineLane);
    } else {
      std::this_thread::yield();
      const std::uint64_t dt = elapsed_ns(t0, std::chrono::steady_clock::now());
      if (is_worker) {
        impl->states[t_worker_id]->idle_ns.fetch_add(dt, std::memory_order_relaxed);
      } else {
        impl->inline_idle_ns.fetch_add(dt, std::memory_order_relaxed);
      }
    }
  }
}

void post(std::function<void()> fn) {
  auto* impl = pool().impl_.get();
  assert(!impl->states.empty() && "post() needs a pool with workers");
  impl->enqueue(new Task{std::move(fn), nullptr}, t_worker_id);
}

// ---------------------------------------------------------------------------
// Globals

std::size_t default_jobs() {
  if (const char* env = std::getenv("CLARA_JOBS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t jobs() {
  const std::size_t j = g_jobs.load(std::memory_order_relaxed);
  return j > 0 ? j : default_jobs();
}

ThreadPool& pool() {
  static ThreadPool instance(jobs() > 0 ? jobs() - 1 : 0);
  return instance;
}

void set_jobs(std::size_t n) {
  g_jobs.store(n, std::memory_order_relaxed);
  pool().resize(jobs() - 1);
}

// ---------------------------------------------------------------------------
// parallel_for

void parallel_for_jobs(std::size_t jobs_override, std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& body, std::size_t grain) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t j = jobs_override > 0 ? jobs_override : jobs();
  grain = std::max<std::size_t>(1, grain);
  if (j <= 1 || n <= grain || pool().workers() == 0) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // ~4 chunks per lane keeps the fastest lane busy while the slowest
  // finishes, without per-index task overhead.
  const std::size_t chunks = std::min((n + grain - 1) / grain, 4 * j);
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  TaskGroup group;
  std::size_t start = begin;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < rem ? 1 : 0);
    if (len == 0) continue;
    const std::size_t s = start;
    const std::size_t e = start + len;
    start = e;
    group.run([&body, s, e] {
      for (std::size_t i = s; i < e; ++i) body(i);
    });
  }
  group.wait();
}

void parallel_for(std::size_t begin, std::size_t end, const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for_jobs(0, begin, end, body, grain);
}

std::uint64_t shard_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double effective_cores(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  // A dependent xorshift chain: pure core time, no memory traffic, and
  // no closed form the optimizer could fold.
  constexpr std::uint64_t kSteps = 1u << 23;
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&sink] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ sink.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  const auto wall_ns = [&](std::size_t n) {
    double best = 1e300;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto t0 = std::chrono::steady_clock::now();
      {
        std::vector<std::jthread> spinners;  // joined as the block ends
        spinners.reserve(n);
        for (std::size_t t = 0; t < n; ++t) spinners.emplace_back(spin);
      }
      best = std::min(best, std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count());
    }
    return best;
  };
  const double one = wall_ns(1);
  const double all = wall_ns(threads);
  return static_cast<double>(threads) * one / all;
}

}  // namespace clara::parallel
