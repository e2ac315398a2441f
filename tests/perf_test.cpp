// Determinism gate for the parallel execution substrate (ctest label
// `perf`): solve_milp must return bit-identical Solutions at jobs = 1, 2
// and 8 on the mapping models built from the NFs under examples/nfs/,
// the sharded sweep driver must produce identical results at every jobs
// level, and the LP warm start must agree with a cold solve.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/sweep.hpp"
#include "frontend/p4lite.hpp"
#include "ilp/simplex.hpp"
#include "ilp/solver.hpp"
#include "lnic/profiles.hpp"
#include "mapping/mapping.hpp"
#include "passes/api_subst.hpp"
#include "passes/dataflow.hpp"
#include "passes/patterns.hpp"

#ifndef CLARA_EXAMPLES_DIR
#define CLARA_EXAMPLES_DIR "examples"
#endif

namespace clara {
namespace {

class JobsGuard {
 public:
  explicit JobsGuard(std::size_t n) : saved_(parallel::jobs()) { parallel::set_jobs(n); }
  ~JobsGuard() { parallel::set_jobs(saved_); }

 private:
  std::size_t saved_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Compiles one of the shipped P4-lite NFs and solves its mapping MILP
/// at the requested concurrency, returning the full Mapping.
mapping::Mapping map_example(const std::string& nf_file, std::size_t jobs_level) {
  JobsGuard guard(jobs_level);
  auto compiled = frontend::compile_p4lite(read_file(std::string(CLARA_EXAMPLES_DIR) + "/nfs/" + nf_file));
  EXPECT_TRUE(compiled.ok()) << nf_file;
  cir::Function fn = std::move(compiled).value();
  passes::substitute_framework_apis(fn);
  passes::collapse_packet_loops(fn);
  const passes::CostHints hints;
  const auto graph = passes::DataflowGraph::build(fn, hints);
  const auto profile = lnic::netronome_agilio_cx();
  const mapping::Mapper mapper(profile);
  auto result = mapper.map(graph, hints);
  EXPECT_TRUE(result.ok()) << nf_file << ": " << result.error().message;
  return std::move(result).value();
}

TEST(PerfDeterminism, ExampleMappingModelsIdenticalAcrossJobs) {
  for (const char* nf : {"firewall.p4nf", "router.p4nf", "rate_limiter.p4nf"}) {
    const auto serial = map_example(nf, 1);
    for (const std::size_t jobs_level : {2u, 8u}) {
      const auto parallel_run = map_example(nf, jobs_level);
      EXPECT_EQ(serial.status, parallel_run.status) << nf << " jobs=" << jobs_level;
      EXPECT_EQ(serial.objective, parallel_run.objective) << nf << " jobs=" << jobs_level;
      EXPECT_EQ(serial.node_pool, parallel_run.node_pool) << nf << " jobs=" << jobs_level;
      EXPECT_EQ(serial.state_region, parallel_run.state_region) << nf << " jobs=" << jobs_level;
      EXPECT_EQ(serial.ilp_nodes_explored, parallel_run.ilp_nodes_explored) << nf << " jobs=" << jobs_level;
      EXPECT_EQ(serial.ilp_pivots, parallel_run.ilp_pivots) << nf << " jobs=" << jobs_level;
    }
  }
}

/// A small assignment+capacity model with the same structure as the
/// mapper's encoding but enough fractional tension to force branching.
ilp::Model branching_model() {
  ilp::Model m;
  Rng rng(99);
  constexpr int kItems = 14;
  std::vector<int> x;
  ilp::LinExpr cap;
  ilp::LinExpr objective;
  for (int i = 0; i < kItems; ++i) {
    x.push_back(m.add_binary("x_" + std::to_string(i)));
    const double weight = 3.0 + static_cast<double>(rng.next_u64() % 17);
    const double cost = 1.0 + static_cast<double>(rng.next_u64() % 23);
    cap.add(x.back(), weight);
    objective.add(x.back(), -cost);  // minimize negative value = maximize value
  }
  m.add_constraint(std::move(cap), ilp::Sense::kLe, 60.0, "capacity");
  m.set_objective(std::move(objective));
  return m;
}

TEST(PerfDeterminism, SolveMilpBitIdenticalAcrossJobs) {
  const auto model = branching_model();
  ilp::SolveOptions options;
  options.jobs = 1;
  const auto serial = solve_milp(model, options);
  ASSERT_EQ(serial.status, ilp::SolveStatus::kOptimal);
  EXPECT_GT(serial.nodes_explored, 1u);  // the instance must actually branch
  for (const std::size_t jobs_level : {2u, 8u}) {
    options.jobs = jobs_level;
    const auto parallel_run = solve_milp(model, options);
    EXPECT_EQ(serial.status, parallel_run.status);
    EXPECT_EQ(serial.objective, parallel_run.objective) << "jobs=" << jobs_level;
    EXPECT_EQ(serial.values, parallel_run.values) << "jobs=" << jobs_level;
    EXPECT_EQ(serial.nodes_explored, parallel_run.nodes_explored) << "jobs=" << jobs_level;
    EXPECT_EQ(serial.pivots, parallel_run.pivots) << "jobs=" << jobs_level;
  }
}

TEST(PerfDeterminism, SweepIdenticalAcrossJobs) {
  const auto points = core::make_grid({10'000.0, 20'000.0, 40'000.0}, {{1.0}, {2.0}}, 42);
  ASSERT_EQ(points.size(), 6u);
  core::SweepOptions options;
  options.hist_lo = 0.0;
  options.hist_hi = 100.0;
  options.hist_buckets = 16;
  const core::SweepEval eval = [](const core::SweepPoint& point, core::SweepResult& out) {
    Rng rng(point.seed);
    double sum = 0.0;
    for (int i = 0; i < 1'000; ++i) {
      const double sample = static_cast<double>(rng.next_u64() % 100);
      sum += sample;
      out.stats.add(sample);
      out.histogram.add(sample);
    }
    out.value = sum * point.load_pps * point.params.front();
  };
  options.jobs = 1;
  const auto serial = core::run_sweep(points, eval, options);
  const auto serial_hist = core::merge_histograms(serial, options);
  for (const std::size_t jobs_level : {2u, 8u}) {
    options.jobs = jobs_level;
    const auto parallel_run = core::run_sweep(points, eval, options);
    ASSERT_EQ(parallel_run.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].point.index, parallel_run[i].point.index);
      EXPECT_EQ(serial[i].point.seed, parallel_run[i].point.seed);
      EXPECT_EQ(serial[i].value, parallel_run[i].value) << "point " << i << " jobs=" << jobs_level;
      EXPECT_EQ(serial[i].stats.count(), parallel_run[i].stats.count());
      EXPECT_EQ(serial[i].stats.mean(), parallel_run[i].stats.mean());
    }
    const auto parallel_hist = core::merge_histograms(parallel_run, options);
    ASSERT_EQ(serial_hist.bucket_count(), parallel_hist.bucket_count());
    for (std::size_t b = 0; b < serial_hist.bucket_count(); ++b) {
      EXPECT_EQ(serial_hist.bucket(b), parallel_hist.bucket(b)) << "bucket " << b;
    }
  }
}

TEST(PerfDeterminism, WarmStartMatchesColdSolve) {
  // max 3x + 2y + 4z under two capacity rows (solved as minimization).
  ilp::Model m;
  const int x = m.add_continuous("x", 0.0, 10.0);
  const int y = m.add_continuous("y", 0.0, 10.0);
  const int z = m.add_continuous("z", 0.0, 10.0);
  m.add_constraint(ilp::LinExpr().add(x, 1).add(y, 2).add(z, 1), ilp::Sense::kLe, 14);
  m.add_constraint(ilp::LinExpr().add(x, 3).add(y, 1).add(z, 2), ilp::Sense::kLe, 20);
  m.set_objective(ilp::LinExpr().add(x, -3).add(y, -2).add(z, -4));
  const auto cold = solve_lp(m);
  ASSERT_EQ(cold.status, ilp::SolveStatus::kOptimal);
  ASSERT_FALSE(cold.basis.empty());

  // Re-solving the same model from its own optimal basis must agree and
  // must not pivot more than the cold solve did.
  ilp::LpOptions warm_options;
  warm_options.warm_basis = cold.basis;
  const auto warm = solve_lp(m, warm_options);
  ASSERT_EQ(warm.status, ilp::SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  ASSERT_EQ(warm.values.size(), cold.values.size());
  for (std::size_t i = 0; i < cold.values.size(); ++i) {
    EXPECT_NEAR(warm.values[i], cold.values[i], 1e-9) << "var " << i;
  }
  // warm.pivots includes the basis-installation pivots, so it is not
  // comparable to cold.pivots on a toy model; it just has to be finite
  // and small (no phase-1 restart).
  EXPECT_LT(warm.pivots, 50u);
}

}  // namespace
}  // namespace clara
