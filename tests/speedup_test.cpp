// Multicore-only contract gate (ctest label `perf`): the two parallel
// substrates tracked in BENCH_perf.json — wave-parallel branch-and-bound
// and the sharded sweep driver — must actually beat their serial runs
// when real cores are available. Auto-skips on starved runners
// (hardware_concurrency < 4: time-sliced threads can't honor the
// contract; perf_micro flags such runs `oversubscribed` and benchdiff
// gates them on regression only) and under ThreadSanitizer (instrumented
// synchronization distorts the ratio).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/parallel.hpp"
#include "core/sweep.hpp"
#include "ilp/instances.hpp"
#include "ilp/solver.hpp"
#include "nf/corpus.hpp"
#include "nicsim/sim.hpp"
#include "workload/tracegen.hpp"

#if defined(__SANITIZE_THREAD__)
#define CLARA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CLARA_TSAN 1
#endif
#endif

namespace clara {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr std::size_t kJobs = 4;

bool skip_reason(std::string* why) {
#ifdef CLARA_TSAN
  *why = "ThreadSanitizer build: instrumented synchronization distorts speedup";
  return true;
#else
  if (std::thread::hardware_concurrency() < kJobs) {
    *why = "needs >= 4 hardware threads; this runner is oversubscribed";
    return true;
  }
  return false;
#endif
}

class JobsGuard {
 public:
  explicit JobsGuard(std::size_t n) : saved_(parallel::jobs()) { parallel::set_jobs(n); }
  ~JobsGuard() { parallel::set_jobs(saved_); }

 private:
  std::size_t saved_;
};

TEST(Speedup, BranchAndBoundParallelBeatsSerial) {
  std::string why;
  if (skip_reason(&why)) GTEST_SKIP() << why;
  JobsGuard guard(kJobs);

  const auto model = ilp::make_market_split(20, 3);
  ilp::SolveOptions options;
  options.max_nodes = 10'000;

  options.jobs = 1;
  (void)ilp::solve_milp(model, options);  // warmup (pool spin-up, page-in)
  auto t0 = Clock::now();
  const auto serial = ilp::solve_milp(model, options);
  const double serial_ms = ms_since(t0);

  options.jobs = kJobs;
  t0 = Clock::now();
  const auto parallel_run = ilp::solve_milp(model, options);
  const double parallel_ms = ms_since(t0);

  // Determinism first — a fast wrong answer is not a speedup.
  EXPECT_EQ(serial.status, parallel_run.status);
  EXPECT_EQ(serial.objective, parallel_run.objective);
  EXPECT_EQ(serial.values, parallel_run.values);
  EXPECT_EQ(serial.nodes_explored, parallel_run.nodes_explored);
  EXPECT_EQ(serial.pivots, parallel_run.pivots);
  ASSERT_GT(parallel_ms, 0.0);
  EXPECT_GT(serial_ms / parallel_ms, 1.0)
      << "serial " << serial_ms << " ms vs parallel " << parallel_ms << " ms at jobs=" << kJobs;
}

TEST(Speedup, SweepReplayParallelBeatsSerial) {
  std::string why;
  if (skip_reason(&why)) GTEST_SKIP() << why;
  JobsGuard guard(kJobs);

  const auto eval = [](const core::SweepPoint& point, core::SweepResult& result) {
    auto profile = workload::parse_profile("tcp=0.8 flows=2000 payload=300 packets=4000").value();
    profile.pps = point.load_pps;
    profile.seed = point.seed;
    const auto trace = workload::generate_trace(profile);
    const auto stats = nf::simulate("nat", trace).value();
    result.value = stats.mean_latency();
    result.stats.add(stats.mean_latency());
  };
  std::vector<double> loads;
  for (std::size_t i = 0; i < 8; ++i) loads.push_back(20'000.0 + 20'000.0 * static_cast<double>(i));
  const auto grid = core::make_grid(loads, {}, 42);

  core::SweepOptions options;
  options.jobs = 1;
  (void)core::run_sweep(grid, eval, options);  // warmup
  auto t0 = Clock::now();
  const auto serial = core::run_sweep(grid, eval, options);
  const double serial_ms = ms_since(t0);

  options.jobs = kJobs;
  t0 = Clock::now();
  const auto parallel_run = core::run_sweep(grid, eval, options);
  const double parallel_ms = ms_since(t0);

  ASSERT_EQ(serial.size(), parallel_run.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].value, parallel_run[i].value) << "point " << i;
  }
  ASSERT_GT(parallel_ms, 0.0);
  EXPECT_GT(serial_ms / parallel_ms, 1.0)
      << "serial " << serial_ms << " ms vs parallel " << parallel_ms << " ms at jobs=" << kJobs;
}

}  // namespace
}  // namespace clara
