// Engine-equivalence gate for the PR-8 performance work (ctest label
// `perf`): the revised simplex (sparse CSC + eta file, the default) and
// the dense tableau (the reference implementation it replaced on the hot
// path) must produce bit-identical Solutions — same objective, values,
// basis, and pivot trajectory — on the synthetic instance factories and
// on the mapping MILPs built from the NFs under examples/nfs/. Same for
// the simulator: the batched structure-of-arrays NicSim::run must match
// the scalar reference loop field for field on the accuracy ledger's
// validation matrix.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/p4lite.hpp"
#include "ilp/instances.hpp"
#include "ilp/simplex.hpp"
#include "ilp/solver.hpp"
#include "lnic/profiles.hpp"
#include "mapping/mapping.hpp"
#include "nf/corpus.hpp"
#include "nicsim/sim.hpp"
#include "obs/accuracy.hpp"
#include "passes/api_subst.hpp"
#include "passes/dataflow.hpp"
#include "passes/patterns.hpp"
#include "workload/tracegen.hpp"

#ifndef CLARA_EXAMPLES_DIR
#define CLARA_EXAMPLES_DIR "examples"
#endif

namespace clara {
namespace {

// --- dense vs revised LP/MILP ------------------------------------------------

void expect_identical_solutions(const ilp::Solution& a, const ilp::Solution& b,
                                const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.objective, b.objective) << label;  // bit-exact, not approximate
  EXPECT_EQ(a.values, b.values) << label;
  EXPECT_EQ(a.basis, b.basis) << label;
  EXPECT_EQ(a.pivots, b.pivots) << label;
  EXPECT_EQ(a.nodes_explored, b.nodes_explored) << label;
}

ilp::Solution lp_with(const ilp::Model& model, ilp::LpAlgorithm algorithm) {
  ilp::LpOptions options;
  options.algorithm = algorithm;
  return ilp::solve_lp(model, options);
}

TEST(SimplexEquiv, LpBitIdenticalAcrossInstanceFactories) {
  struct Case {
    std::string name;
    ilp::Model model;
  };
  std::vector<Case> cases;
  cases.push_back({"market_split(20,3)", ilp::make_market_split(20, 3)});
  cases.push_back({"market_split(30,6)", ilp::make_market_split(30, 6)});
  cases.push_back({"knapsack(40,5)", ilp::make_knapsack(40, 5)});
  cases.push_back({"knapsack(60,8)", ilp::make_knapsack(60, 8)});
  cases.push_back({"assignment(12)", ilp::make_assignment(12)});
  cases.push_back({"assignment(16)", ilp::make_assignment(16)});
  for (const auto& c : cases) {
    const auto revised = lp_with(c.model, ilp::LpAlgorithm::kRevised);
    const auto dense = lp_with(c.model, ilp::LpAlgorithm::kDense);
    EXPECT_EQ(revised.status, ilp::SolveStatus::kOptimal) << c.name;
    expect_identical_solutions(revised, dense, c.name);
  }
}

TEST(SimplexEquiv, MilpBitIdenticalAcrossEngines) {
  struct Case {
    std::string name;
    ilp::Model model;
  };
  std::vector<Case> cases;
  cases.push_back({"market_split(10,3)", ilp::make_market_split(10, 3)});
  cases.push_back({"knapsack(20,3)", ilp::make_knapsack(20, 3)});
  cases.push_back({"assignment(8)", ilp::make_assignment(8)});
  for (const auto& c : cases) {
    ilp::SolveOptions options;
    options.max_nodes = 5'000;
    options.algorithm = ilp::LpAlgorithm::kRevised;
    const auto revised = ilp::solve_milp(c.model, options);
    options.algorithm = ilp::LpAlgorithm::kDense;
    const auto dense = ilp::solve_milp(c.model, options);
    expect_identical_solutions(revised, dense, c.name);
  }
}

TEST(SimplexEquiv, WarmStartBitIdenticalAcrossEngines) {
  // A warm re-solve from a recorded basis exercises the install +
  // dual-repair path; both engines must walk the identical trajectory.
  const auto model = ilp::make_market_split(30, 6);
  const auto cold = lp_with(model, ilp::LpAlgorithm::kRevised);
  ASSERT_EQ(cold.status, ilp::SolveStatus::kOptimal);
  ASSERT_FALSE(cold.basis.empty());
  ilp::LpOptions options;
  options.warm_basis = cold.basis;
  options.algorithm = ilp::LpAlgorithm::kRevised;
  const auto warm_revised = ilp::solve_lp(model, options);
  options.algorithm = ilp::LpAlgorithm::kDense;
  const auto warm_dense = ilp::solve_lp(model, options);
  expect_identical_solutions(warm_revised, warm_dense, "warm market_split(30,6)");
  EXPECT_EQ(warm_revised.objective, cold.objective);
}

// --- dense vs revised on the example mapping MILPs ---------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

mapping::Mapping map_example(const std::string& nf_file, ilp::LpAlgorithm algorithm) {
  auto compiled =
      frontend::compile_p4lite(read_file(std::string(CLARA_EXAMPLES_DIR) + "/nfs/" + nf_file));
  EXPECT_TRUE(compiled.ok()) << nf_file;
  cir::Function fn = std::move(compiled).value();
  passes::substitute_framework_apis(fn);
  passes::collapse_packet_loops(fn);
  const passes::CostHints hints;
  const auto graph = passes::DataflowGraph::build(fn, hints);
  const auto profile = lnic::netronome_agilio_cx();  // Mapper keeps a pointer
  const mapping::Mapper mapper(profile);
  mapping::MapOptions options;
  options.ilp_algorithm = algorithm;
  auto result = mapper.map(graph, hints, options);
  EXPECT_TRUE(result.ok()) << nf_file << ": " << result.error().message;
  return result.ok() ? std::move(result).value() : mapping::Mapping{};
}

TEST(SimplexEquiv, ExampleMappingsBitIdenticalAcrossEngines) {
  for (const char* nf : {"firewall.p4nf", "router.p4nf", "rate_limiter.p4nf"}) {
    const auto revised = map_example(nf, ilp::LpAlgorithm::kRevised);
    const auto dense = map_example(nf, ilp::LpAlgorithm::kDense);
    EXPECT_EQ(revised.node_pool, dense.node_pool) << nf;
    EXPECT_EQ(revised.state_region, dense.state_region) << nf;
    EXPECT_EQ(revised.objective, dense.objective) << nf;
    EXPECT_EQ(revised.status, dense.status) << nf;
    EXPECT_EQ(revised.ilp_nodes_explored, dense.ilp_nodes_explored) << nf;
    EXPECT_EQ(revised.ilp_pivots, dense.ilp_pivots) << nf;
    EXPECT_EQ(revised.ilp_basis, dense.ilp_basis) << nf;
  }
}

// --- SoA vs scalar simulator -------------------------------------------------

/// The corpus hand port for a ledger scenario with fixed placements
/// (EMEM primary, IMEM secondary) — placement doesn't matter for
/// SoA-vs-scalar identity, only that both sims are configured the same
/// way.
Result<nf::Port> make_scenario_port(const obs::ValidationScenario& s, nicsim::NicSim& sim) {
  auto fn = obs::scenario_function(s);
  if (!fn) return fn.error();
  constexpr nicsim::MemLevel kLevels[] = {nicsim::MemLevel::kEmem, nicsim::MemLevel::kImem};
  return nf::port(s.nf, fn.value(), sim, kLevels, {.flow_cache = s.lpm_flow_cache});
}

void expect_identical_accumulators(const Accumulator& a, const Accumulator& b,
                                   const std::string& label) {
  EXPECT_EQ(a.count(), b.count()) << label;
  EXPECT_EQ(a.sum(), b.sum()) << label;
  EXPECT_EQ(a.mean(), b.mean()) << label;
  EXPECT_EQ(a.stddev(), b.stddev()) << label;
  EXPECT_EQ(a.min(), b.min()) << label;
  EXPECT_EQ(a.max(), b.max()) << label;
}

TEST(SoaEquiv, BatchedRunMatchesScalarOnLedgerScenarios) {
  const auto matrix = obs::AccuracyLedger::default_matrix();
  ASSERT_FALSE(matrix.empty());
  for (const auto& scenario : matrix) {
    const auto profile = workload::parse_profile(scenario.workload);
    ASSERT_TRUE(profile.ok()) << scenario.name();
    const auto trace = workload::generate_trace(profile.value());

    nicsim::NicSim soa_sim;
    nicsim::NicSim scalar_sim;
    auto soa_port = make_scenario_port(scenario, soa_sim);
    auto scalar_port = make_scenario_port(scenario, scalar_sim);
    ASSERT_TRUE(soa_port.ok()) << scenario.name() << ": " << soa_port.error().message;
    ASSERT_TRUE(scalar_port.ok()) << scenario.name() << ": " << scalar_port.error().message;

    const auto batched = soa_sim.run(*soa_port.value().program, trace);
    const auto scalar = scalar_sim.run_scalar(*scalar_port.value().program, trace);
    const std::string label = scenario.name();

    EXPECT_EQ(batched.packets, scalar.packets) << label;
    EXPECT_EQ(batched.drops, scalar.drops) << label;
    EXPECT_EQ(batched.latency.samples(), scalar.latency.samples()) << label;
    expect_identical_accumulators(batched.tcp_latency, scalar.tcp_latency, label + "/tcp");
    expect_identical_accumulators(batched.udp_latency, scalar.udp_latency, label + "/udp");
    expect_identical_accumulators(batched.syn_latency, scalar.syn_latency, label + "/syn");
    expect_identical_accumulators(batched.queue_wait, scalar.queue_wait, label + "/queue_wait");
    EXPECT_EQ(batched.emem_cache_hit_rate, scalar.emem_cache_hit_rate) << label;
    EXPECT_EQ(batched.flow_cache_hit_rate, scalar.flow_cache_hit_rate) << label;
    EXPECT_EQ(batched.achieved_pps, scalar.achieved_pps) << label;
    EXPECT_EQ(batched.energy_nj_per_packet, scalar.energy_nj_per_packet) << label;
    EXPECT_EQ(batched.energy_watts, scalar.energy_watts) << label;
    EXPECT_EQ(batched.breakdown.packets(), scalar.breakdown.packets()) << label;
    for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
      const auto c = static_cast<obs::Component>(i);
      expect_identical_accumulators(batched.breakdown.component(c),
                                    scalar.breakdown.component(c),
                                    label + "/" + obs::component_name(c));
    }
  }
}

TEST(SoaEquiv, BatchedRunMatchesScalarAcrossRepeatedRunsOnOneSim) {
  // Counters, caches and thread timelines accumulate across runs on the
  // same instance; the batched loop must track the scalar loop through
  // that carried state, not just from a cold start.
  const auto profile =
      workload::parse_profile("tcp=0.8 flows=2000 payload=300 pps=80000 packets=5000");
  ASSERT_TRUE(profile.ok());
  const auto trace = workload::generate_trace(profile.value());

  const obs::ValidationScenario nat{"nat", "repeat", ""};
  nicsim::NicSim soa_sim;
  nicsim::NicSim scalar_sim;
  auto soa_port = make_scenario_port(nat, soa_sim);
  auto scalar_port = make_scenario_port(nat, scalar_sim);
  ASSERT_TRUE(soa_port.ok()) << soa_port.error().message;
  ASSERT_TRUE(scalar_port.ok()) << scalar_port.error().message;

  for (int round = 0; round < 3; ++round) {
    const auto batched = soa_sim.run(*soa_port.value().program, trace);
    const auto scalar = scalar_sim.run_scalar(*scalar_port.value().program, trace);
    const std::string label = "round " + std::to_string(round);
    EXPECT_EQ(batched.packets, scalar.packets) << label;
    EXPECT_EQ(batched.drops, scalar.drops) << label;
    EXPECT_EQ(batched.latency.samples(), scalar.latency.samples()) << label;
    EXPECT_EQ(batched.emem_cache_hit_rate, scalar.emem_cache_hit_rate) << label;
    EXPECT_EQ(batched.flow_cache_hit_rate, scalar.flow_cache_hit_rate) << label;
    EXPECT_EQ(batched.energy_nj_per_packet, scalar.energy_nj_per_packet) << label;
  }
}

}  // namespace
}  // namespace clara
