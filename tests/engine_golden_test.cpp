// Golden outcomes for the two engines under every prediction: the
// simplex (ilp::solve_lp, ilp::solve_milp) and the simulator's packet
// loop (NicSim::run). Both are deterministic, so a drift in any recorded
// digit means the engine changed. The fixture was captured while each
// engine still ran beside a reference (a dense-tableau simplex; scalar
// and batched simulator loops) with every pair asserted bit-identical,
// so the SimplexEquiv and SoaEquiv tests keep those equivalences.
//
// LP cases: the synthetic instance factories solved cold, as MILPs and
// warm from their own basis, plus the placement MILP of every NF under
// examples/nfs/ on each NIC — status, objective (%.17g), pivots, B&B
// nodes, and FNV-1a digests of the values and the basis. Simulator
// cases: every accuracy-ledger scenario and a NAT replay, each run three
// times on one simulator so caches, counters and thread timelines carry
// over — packets, drops, a bit digest of the latency samples, the
// latency and queue-wait accumulators, both hit rates, achieved pps,
// energy, every breakdown component, and a digest of per-NPU busy
// cycles (which NPU ran each packet). The first round of each simulator
// case is also replayed on a nicsim::SimLease, whose simulator is reset
// and leased again between scenarios, and must match the same line.
//
// tests/data/engine_golden.txt holds one line per case: three key
// fields, then the outcome. A case whose line is missing or differs
// fails with its actual line.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "frontend/p4lite.hpp"
#include "ilp/instances.hpp"
#include "ilp/simplex.hpp"
#include "ilp/solver.hpp"
#include "lnic/profiles.hpp"
#include "mapping/mapping.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"
#include "nicsim/sim.hpp"
#include "obs/accuracy.hpp"
#include "passes/api_subst.hpp"
#include "passes/dataflow.hpp"
#include "passes/patterns.hpp"
#include "workload/tracegen.hpp"

#ifndef CLARA_ENGINE_GOLDEN
#define CLARA_ENGINE_GOLDEN "tests/data/engine_golden.txt"
#endif
#ifndef CLARA_EXAMPLES_DIR
#define CLARA_EXAMPLES_DIR "examples"
#endif

namespace {

using namespace clara;

std::vector<std::string> split(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

/// Golden file lines keyed by their first three fields.
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(CLARA_ENGINE_GOLDEN);
    for (std::string line; std::getline(in, line);) {
      const auto tokens = split(line);
      if (tokens.size() < 4 || tokens[0].front() == '#') continue;
      out[tokens[0] + " " + tokens[1] + " " + tokens[2]] = line;
    }
    return out;
  }();
  return lines;
}

/// Compares one case against its golden line; returns 1 for the count.
std::size_t check(const std::string& key, const std::string& outcome) {
  const std::string actual = key + " " + outcome;
  const auto it = golden().find(key);
  if (it == golden().end()) {
    ADD_FAILURE() << "no golden line for this case; actual:\n" << actual;
  } else if (it->second != actual) {
    ADD_FAILURE() << "expected:\n" << it->second << "\nactual:\n" << actual;
  }
  return 1;
}

template <class T>
std::uint64_t digest(const std::vector<T>& values) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(values.size()));
  for (const auto v : values) {
    if constexpr (std::is_floating_point_v<T>) {
      h.mix(static_cast<double>(v));
    } else {
      h.mix(static_cast<std::uint64_t>(v));
    }
  }
  return h.digest();
}

std::string solve_outcome(ilp::SolveStatus status, double objective, std::size_t pivots, std::size_t nodes,
                          std::uint64_t values, std::uint64_t basis) {
  return strf("status=%s objective=%.17g pivots=%zu nodes=%zu values=%016llx basis=%016llx", ilp::to_string(status),
              objective, pivots, nodes, static_cast<unsigned long long>(values),
              static_cast<unsigned long long>(basis));
}

std::string outcome(const ilp::Solution& s) {
  return solve_outcome(s.status, s.objective, s.pivots, s.nodes_explored, digest(s.values), digest(s.basis));
}

std::string outcome(const Result<mapping::Mapping>& result) {
  if (!result) return strf("error=%s", to_string(result.error().code));
  const auto& m = result.value();
  Fnv1a placement;
  placement.mix(digest(m.node_pool)).mix(digest(m.state_region));
  return solve_outcome(m.status, m.objective, m.ilp_pivots, m.ilp_nodes_explored, placement.digest(),
                       digest(m.ilp_basis));
}

std::string accumulator(const Accumulator& a) {
  return strf("%zu:%.17g:%.17g:%.17g:%.17g:%.17g", a.count(), a.sum(), a.mean(), a.stddev(), a.min(), a.max());
}

std::string outcome(const nicsim::RunStats& r, const nicsim::NicSim& sim) {
  std::string line = strf("packets=%llu drops=%llu latency=%zu:%016llx tcp=%s udp=%s syn=%s queue_wait=%s",
                          static_cast<unsigned long long>(r.packets), static_cast<unsigned long long>(r.drops),
                          r.latency.count(), static_cast<unsigned long long>(digest(r.latency.samples())),
                          accumulator(r.tcp_latency).c_str(), accumulator(r.udp_latency).c_str(),
                          accumulator(r.syn_latency).c_str(), accumulator(r.queue_wait).c_str());
  line += strf(" emem_hit=%.17g flow_hit=%.17g achieved_pps=%.17g energy_nj=%.17g energy_w=%.17g",
               r.emem_cache_hit_rate, r.flow_cache_hit_rate, r.achieved_pps, r.energy_nj_per_packet, r.energy_watts);
  line += strf(" breakdown_packets=%llu", static_cast<unsigned long long>(r.breakdown.packets()));
  for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
    const auto c = static_cast<obs::Component>(i);
    line += strf(" %s=%s", obs::component_name(c), accumulator(r.breakdown.component(c)).c_str());
  }
  line += strf(" npu_busy=%016llx", static_cast<unsigned long long>(digest(sim.core_busy())));
  return line;
}

struct Instance {
  std::string name;
  ilp::Model model;
};

std::vector<Instance> lp_instances() {
  return {
      {"market_split(20,3)", ilp::make_market_split(20, 3)}, {"market_split(30,6)", ilp::make_market_split(30, 6)},
      {"knapsack(40,5)", ilp::make_knapsack(40, 5)},         {"knapsack(60,8)", ilp::make_knapsack(60, 8)},
      {"assignment(12)", ilp::make_assignment(12)},          {"assignment(16)", ilp::make_assignment(16)},
  };
}

TEST(SimplexEquiv, LpBitIdenticalAcrossInstanceFactories) {
  std::size_t cases = 0;
  for (const auto& c : lp_instances()) cases += check("lp " + c.name + " cold", outcome(ilp::solve_lp(c.model)));
  EXPECT_EQ(cases, 6u);
}

TEST(SimplexEquiv, MilpBitIdenticalAcrossEngines) {
  const std::vector<Instance> milps = {{"market_split(10,3)", ilp::make_market_split(10, 3)},
                                       {"knapsack(20,3)", ilp::make_knapsack(20, 3)},
                                       {"assignment(8)", ilp::make_assignment(8)}};
  ilp::SolveOptions options;
  options.max_nodes = 5'000;
  std::size_t cases = 0;
  for (const auto& c : milps) cases += check("milp " + c.name + " cold", outcome(ilp::solve_milp(c.model, options)));
  EXPECT_EQ(cases, 3u);
}

// A warm re-solve from a recorded basis exercises the install and
// dual-repair path. Assignment LPs end with a degenerate artificial
// still basic, so they record no basis to start from.
TEST(SimplexEquiv, WarmStartBitIdenticalAcrossEngines) {
  std::size_t cases = 0;
  for (const auto& c : lp_instances()) {
    const auto cold = ilp::solve_lp(c.model);
    if (cold.basis.empty()) continue;
    ilp::LpOptions warm;
    warm.warm_basis = cold.basis;
    cases += check("lp " + c.name + " warm", outcome(ilp::solve_lp(c.model, warm)));
  }
  EXPECT_EQ(cases, 4u);
}

TEST(SimplexEquiv, ExampleMappingsBitIdenticalAcrossEngines) {
  std::size_t cases = 0;
  for (const char* nf : {"firewall.p4nf", "router.p4nf", "rate_limiter.p4nf"}) {
    std::ifstream in(std::string(CLARA_EXAMPLES_DIR) + "/nfs/" + nf);
    auto compiled = frontend::compile_p4lite(std::string(std::istreambuf_iterator<char>(in), {}));
    ASSERT_TRUE(compiled.ok()) << nf;
    cir::Function fn = std::move(compiled).value();
    passes::substitute_framework_apis(fn);
    passes::collapse_packet_loops(fn);
    const passes::CostHints hints;
    const auto graph = passes::DataflowGraph::build(fn, hints);
    for (const auto& profile : {lnic::netronome_agilio_cx(), lnic::soc_arm_nic(), lnic::pipeline_asic_nic()}) {
      const mapping::Mapper mapper(profile);  // keeps a pointer: profile outlives it
      cases += check(strf("map %s %s", nf, profile.name.c_str()), outcome(mapper.map(graph, hints)));
    }
  }
  EXPECT_EQ(cases, 9u);
}

/// Spilled packet tails that get evicted: 1500-byte payloads spill past
/// CTM residency into the rotating EMEM buffers the packet ordinal picks
/// (NicApi::packet_access), and the VNF chain's meters and statistics,
/// two 8 MiB EMEM tables under 100k flows, evict some of those lines
/// before their buffer comes round again. Which buffer a packet gets then
/// shows in its latency, so a simulator that kept its ordinal across
/// reset() replays this case differently. No ledger scenario does that.
const obs::ValidationScenario& spill_scenario() {
  static const obs::ValidationScenario scenario{"vnf-chain", "spill",
                                                "tcp=0.8 flows=100000 payload=1500 pps=60000 packets=12000"};
  return scenario;
}

/// The corpus hand port for a ledger scenario with fixed placements
/// (EMEM primary, IMEM secondary); the spill scenario's VNF chain keeps
/// both of its tables in EMEM.
Result<nf::Port> make_scenario_port(const obs::ValidationScenario& s, nicsim::NicSim& sim) {
  if (s.variant == spill_scenario().variant) {
    constexpr nicsim::MemLevel kEmemOnly[] = {nicsim::MemLevel::kEmem, nicsim::MemLevel::kEmem};
    return nf::port(s.nf, nf::build_vnf_chain({.meter_buckets = 1 << 18, .stats_entries = 1 << 18}), sim,
                    kEmemOnly, {});
  }
  auto fn = obs::scenario_function(s);
  if (!fn) return fn.error();
  constexpr nicsim::MemLevel kLevels[] = {nicsim::MemLevel::kEmem, nicsim::MemLevel::kImem};
  return nf::port(s.nf, fn.value(), sim, kLevels, {.flow_cache = s.lpm_flow_cache});
}

/// Replays the scenario's workload three times on one simulator and
/// checks each round: later rounds start from the caches, tables,
/// counters and thread timelines the earlier ones left behind.
std::size_t check_rounds(const obs::ValidationScenario& scenario) {
  const auto trace = workload::generate_trace(workload::parse_profile(scenario.workload).value());
  nicsim::NicSim sim;
  auto port = make_scenario_port(scenario, sim);
  EXPECT_TRUE(port.ok()) << scenario.name() << ": " << port.error().message;
  if (!port.ok()) return 0;
  std::size_t cases = 0;
  for (int round = 0; round < 3; ++round) {
    const auto stats = sim.run(*port.value().program, trace);
    cases += check(strf("sim %s round=%d", scenario.name().c_str(), round), outcome(stats, sim));
  }
  return cases;
}

TEST(SoaEquiv, BatchedRunMatchesScalarOnLedgerScenarios) {
  const auto matrix = obs::AccuracyLedger::default_matrix();
  ASSERT_EQ(matrix.size(), 18u);
  std::size_t cases = 0;
  for (const auto& scenario : matrix) cases += check_rounds(scenario);
  EXPECT_EQ(cases, 54u);
}

TEST(SoaEquiv, BatchedRunMatchesScalarAcrossRepeatedRunsOnOneSim) {
  EXPECT_EQ(check_rounds({"nat", "repeat", "tcp=0.8 flows=2000 payload=300 pps=80000 packets=5000"}), 3u);
}

TEST(SoaEquiv, EvictedSpilledTailsPinThePacketOrdinal) { EXPECT_EQ(check_rounds(spill_scenario()), 3u); }

// The simulators validate and simulate lease: one instance, reset as
// each lease ends and leased again, must replay every scenario's first
// round exactly as a freshly built simulator does, whatever ran on it
// before.
TEST(SoaEquiv, ResetThreadSimMatchesAFreshSimOnEveryScenario) {
  auto scenarios = obs::AccuracyLedger::default_matrix();
  scenarios.push_back({"nat", "repeat", "tcp=0.8 flows=2000 payload=300 pps=80000 packets=5000"});
  scenarios.push_back(spill_scenario());
  ASSERT_EQ(scenarios.size(), 20u);
  const nicsim::NicSim* first = nullptr;
  std::size_t cases = 0;
  for (const bool reverse : {false, true}) {
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
      const auto& scenario = scenarios[reverse ? scenarios.size() - 1 - k : k];
      const auto trace = workload::generate_trace(workload::parse_profile(scenario.workload).value());
      const nicsim::SimLease lease;
      nicsim::NicSim& sim = *lease;
      if (first == nullptr) first = &sim;
      EXPECT_EQ(&sim, first) << "a returned simulator is leased again";
      auto port = make_scenario_port(scenario, sim);
      ASSERT_TRUE(port.ok()) << scenario.name() << ": " << port.error().message;
      const auto stats = sim.run(*port.value().program, trace);
      cases += check(strf("sim %s round=0", scenario.name().c_str()), outcome(stats, sim));
    }
  }
  EXPECT_EQ(cases, 40u);
}

TEST(EngineGoldenTest, GoldenFileHasNoStaleCases) {
  EXPECT_EQ(golden().size(), 6u + 3u + 4u + 9u + 54u + 3u + 3u) << "golden file has cases this test no longer runs";
}

}  // namespace
