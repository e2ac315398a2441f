// Stress tests for the work-stealing pool: many tiny tasks, nested
// parallel_for, future submission, and the determinism contract. These
// run under the `perf` ctest label and must stay clean under
// -DCLARA_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "common/parallel.hpp"

namespace clara::parallel {
namespace {

/// RAII jobs override so a failing assertion cannot leak a setting into
/// later tests.
class JobsGuard {
 public:
  explicit JobsGuard(std::size_t n) : saved_(jobs()) { set_jobs(n); }
  ~JobsGuard() { set_jobs(saved_); }

 private:
  std::size_t saved_;
};

TEST(Parallel, JobsIsAtLeastOne) {
  EXPECT_GE(jobs(), 1u);
  EXPECT_GE(default_jobs(), 1u);
}

TEST(Parallel, SetJobsResizesPool) {
  JobsGuard guard(3);
  EXPECT_EQ(jobs(), 3u);
  EXPECT_EQ(pool().workers(), 2u);
}

TEST(Parallel, ManyTinyTasks) {
  JobsGuard guard(4);
  constexpr std::size_t kTasks = 20'000;
  std::atomic<std::uint64_t> sum{0};
  parallel_for(0, kTasks, [&](std::size_t i) { sum.fetch_add(i + 1, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);
}

TEST(Parallel, EveryIndexExactlyOnce) {
  JobsGuard guard(4);
  constexpr std::size_t kN = 5'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, NestedParallelFor) {
  JobsGuard guard(4);
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 256;
  std::atomic<std::uint64_t> total{0};
  parallel_for(0, kOuter, [&](std::size_t) {
    std::atomic<std::uint64_t> inner{0};
    parallel_for(0, kInner, [&](std::size_t j) { inner.fetch_add(j, std::memory_order_relaxed); });
    total.fetch_add(inner.load(), std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), kOuter * (kInner * (kInner - 1) / 2));
}

TEST(Parallel, SerialAndParallelProduceSameResults) {
  constexpr std::size_t kN = 2'048;
  auto run = [&](std::size_t jobs_override) {
    std::vector<std::uint64_t> out(kN, 0);
    parallel_for_jobs(jobs_override, 0, kN, [&](std::size_t i) { out[i] = shard_seed(7, i) % 1'000'003; });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(Parallel, GrainRespectsAllIndices) {
  JobsGuard guard(4);
  constexpr std::size_t kN = 1'023;  // deliberately not a multiple of the grain
  std::atomic<std::uint64_t> count{0};
  parallel_for(0, kN, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); }, 64);
  EXPECT_EQ(count.load(), kN);
}

TEST(Parallel, EmptyRangeIsNoop) {
  JobsGuard guard(4);
  bool ran = false;
  parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Parallel, SubmitReturnsFutureValue) {
  JobsGuard guard(4);
  std::vector<std::future<int>> futures;
  futures.reserve(100);
  for (int i = 0; i < 100; ++i) {
    futures.push_back(submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(Parallel, SubmitInlineWhenSerial) {
  JobsGuard guard(1);
  auto future = submit([] { return 42; });
  // jobs()==1 runs inline: the future is ready before get().
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(future.get(), 42);
}

// post() hands tasks to the workers with no group: the caller counts
// them done itself, and no task runs on the thread that posted it.
TEST(Parallel, PostRunsEveryTaskOnAWorker) {
  for (const std::size_t jobs_level : {2u, 4u}) {
    JobsGuard guard(jobs_level);
    std::mutex mu;
    std::condition_variable all_done;
    int done = 0;
    std::set<std::thread::id> ran_on;
    for (int i = 0; i < 200; ++i) {
      post([&] {
        const std::lock_guard<std::mutex> lock(mu);
        ran_on.insert(std::this_thread::get_id());
        if (++done == 200) all_done.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    all_done.wait(lock, [&] { return done == 200; });
    EXPECT_EQ(ran_on.count(std::this_thread::get_id()), 0u) << "posted tasks run on workers";
    EXPECT_LE(ran_on.size(), jobs_level - 1);
  }
}

TEST(Parallel, TaskGroupWaitsForAll) {
  JobsGuard guard(4);
  std::atomic<int> done{0};
  {
    TaskGroup group;
    for (int i = 0; i < 500; ++i) {
      group.run([&] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(done.load(), 500);
  }
}

TEST(Parallel, PoolStatsAdvance) {
  JobsGuard guard(4);
  const PoolStats before = pool().stats();
  std::atomic<std::uint64_t> sink{0};
  parallel_for(0, 10'000, [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); });
  const PoolStats after = pool().stats();
  // Work happened somewhere: on workers, or inline in the waiting caller.
  EXPECT_GE(after.tasks_run + after.tasks_inline, before.tasks_run + before.tasks_inline);
  EXPECT_EQ(after.per_worker_busy_ns.size(), pool().workers());
}

TEST(Parallel, ShardSeedIsDeterministicAndDistinct) {
  EXPECT_EQ(shard_seed(42, 7), shard_seed(42, 7));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1'000; ++i) seen.insert(shard_seed(42, i));
  EXPECT_EQ(seen.size(), 1'000u);  // no collisions across shard indices
  // Close base seeds must still give unrelated streams.
  EXPECT_NE(shard_seed(1, 0), shard_seed(2, 0));
}

}  // namespace
}  // namespace clara::parallel
