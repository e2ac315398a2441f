// Deterministic fault injection + incremental mapping repair
// (DESIGN.md §13, docs/robustness.md).
//
// Covers: FaultPlan parse/serialize round-trips and typed parse errors;
// purity/determinism of the trigger decision; injection sites in the
// simulator and the cache; LNIC unit fail/derate; Mapper::repair after
// resource loss (including jobs-level bit-identity, the report NOTE, the
// nothing-pinned equivalence with map(), and the fallback counts);
// the Analyzer degraded/repaired/greedy flag matrix; sweep
// retry-once-then-record; the hardened CIR parser, including a seeded
// byte-mutation fuzz corpus that must return Result errors and never
// abort; and a structure-aware fuzz of workload-spec values through the
// service.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cir/printer.hpp"
#include "cir/verify.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/cache.hpp"
#include "core/clara.hpp"
#include "core/sweep.hpp"
#include "fault/fault.hpp"
#include "frontend/p4lite.hpp"
#include "lnic/profiles.hpp"
#include "mapping/mapping.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"
#include "common/json.hpp"
#include "nicsim/sim.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "passes/api_subst.hpp"
#include "passes/dataflow.hpp"
#include "serve/service.hpp"
#include "workload/tracegen.hpp"

#ifndef CLARA_EXAMPLES_DIR
#define CLARA_EXAMPLES_DIR "examples"
#endif

namespace {

using namespace clara;

workload::Trace test_trace(std::uint64_t packets = 2000) {
  auto profile =
      workload::parse_profile("tcp=0.8 flows=2000 payload=300 pps=60000 packets=" +
                              std::to_string(packets))
          .value();
  return workload::generate_trace(profile);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- FaultPlan parsing and trigger semantics ---------------------------------

TEST(FaultPlanTest, ParseSerializeRoundTrip) {
  const std::string text =
      "# degraded-mode scenario\n"
      "seed 42\n"
      "site nicsim/drop p=0.25\n"
      "site nicsim/emem_spike every=64 factor=8\n"
      "site ilp/wave_timeout at=2\n"
      "fail-unit csum\n"
      "derate-unit npu0 50\n";
  auto plan = fault::FaultPlan::parse(text);
  ASSERT_TRUE(plan.ok()) << plan.error().message;
  EXPECT_EQ(plan.value().seed, 42u);
  ASSERT_EQ(plan.value().sites.size(), 3u);
  EXPECT_EQ(plan.value().sites[0].site, "nicsim/drop");
  EXPECT_DOUBLE_EQ(plan.value().sites[0].probability, 0.25);
  EXPECT_EQ(plan.value().sites[1].every, 64u);
  EXPECT_DOUBLE_EQ(plan.value().sites[1].factor, 8.0);
  EXPECT_EQ(plan.value().sites[2].at, 2u);
  ASSERT_EQ(plan.value().failed_units.size(), 1u);
  EXPECT_EQ(plan.value().failed_units[0], "csum");
  ASSERT_EQ(plan.value().derated_units.size(), 1u);
  EXPECT_EQ(plan.value().derated_units[0].first, "npu0");
  EXPECT_DOUBLE_EQ(plan.value().derated_units[0].second, 50.0);

  auto round = fault::FaultPlan::parse(plan.value().serialize());
  ASSERT_TRUE(round.ok()) << round.error().message;
  EXPECT_EQ(round.value().seed, plan.value().seed);
  ASSERT_EQ(round.value().sites.size(), plan.value().sites.size());
  for (std::size_t i = 0; i < round.value().sites.size(); ++i) {
    EXPECT_EQ(round.value().sites[i].site, plan.value().sites[i].site);
    EXPECT_DOUBLE_EQ(round.value().sites[i].probability, plan.value().sites[i].probability);
    EXPECT_EQ(round.value().sites[i].every, plan.value().sites[i].every);
    EXPECT_EQ(round.value().sites[i].at, plan.value().sites[i].at);
    EXPECT_DOUBLE_EQ(round.value().sites[i].factor, plan.value().sites[i].factor);
  }
  EXPECT_EQ(round.value().failed_units, plan.value().failed_units);
  EXPECT_EQ(round.value().derated_units, plan.value().derated_units);
}

TEST(FaultPlanTest, ParseErrorsAreTyped) {
  const char* bad[] = {
      "frobnicate 3\n",                  // unknown directive
      "site nicsim/drop\n",              // no trigger
      "site nicsim/drop p=1.5\n",        // probability out of range
      "site nicsim/drop p=nan\n",        // NaN passes no range
      "site nicsim/spike p=1 factor=nan\n",
      "site nicsim/drop every=0\n",      // zero period
      "seed banana\n",                   // bad seed
      "derate-unit npu0 250\n",          // pct out of range
  };
  for (const char* text : bad) {
    auto plan = fault::FaultPlan::parse(text);
    ASSERT_FALSE(plan.ok()) << "accepted: " << text;
    EXPECT_EQ(plan.error().code, ErrorCode::kParse) << text;
  }
}

TEST(FaultPlanTest, ShouldFireIsPureAndDeterministic) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.add_site({"t/at", 0.0, 0, 5, 0.0});
  plan.add_site({"t/every", 0.0, 10, fault::kNoTrigger, 0.0});
  plan.add_site({"t/prob", 0.5, 0, fault::kNoTrigger, 0.0});

  EXPECT_TRUE(plan.should_fire("t/at", 5));
  EXPECT_FALSE(plan.should_fire("t/at", 4));
  EXPECT_FALSE(plan.should_fire("t/at", 6));
  for (std::uint64_t k = 0; k < 40; ++k) {
    EXPECT_EQ(plan.should_fire("t/every", k), (k % 10) == 9) << k;
  }
  // The Bernoulli draw is a pure function of (seed, site, key): repeated
  // queries agree, and at p=0.5 both outcomes occur over a small range.
  int fired = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    const bool first = plan.should_fire("t/prob", k);
    EXPECT_EQ(first, plan.should_fire("t/prob", k));
    fired += first ? 1 : 0;
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
  // An unarmed site never fires.
  EXPECT_FALSE(plan.should_fire("t/unarmed", 5));
}

TEST(FaultPlanTest, InjectRequiresInstalledPlanAndCounts) {
  fault::clear_plan();
  EXPECT_FALSE(fault::active());
  EXPECT_FALSE(fault::inject("t/at", 5));

  fault::FaultPlan plan;
  plan.add_site({"t/at", 0.0, 0, 5, 3.5});
  fault::ScopedPlan scoped(plan);
  EXPECT_TRUE(fault::active());
  auto& counter = obs::metrics().counter("fault/injected", "site=t/at");
  const auto before = counter.value();
  EXPECT_TRUE(fault::inject("t/at", 5));
  EXPECT_FALSE(fault::inject("t/at", 6));
  EXPECT_EQ(counter.value(), before + 1);
  EXPECT_DOUBLE_EQ(fault::site_factor("t/at", 1.0), 3.5);
  EXPECT_DOUBLE_EQ(fault::site_factor("t/other", 1.0), 1.0);
}

TEST(FaultPlanTest, FiringSiteDumpsFlightRecorder) {
  // Any fault/ site firing must auto-dump the flight recorder once
  // (docs/observability.md): the dump is Chrome trace JSON containing
  // the fault_fire event that triggered it.
  auto& rec = obs::recorder();
  rec.reset_auto_dump();
  rec.set_dump_dir(testing::TempDir());
  fault::FaultPlan plan;
  plan.add_site({"t/dump", 0.0, 0, 7, 1.0});
  fault::ScopedPlan scoped(plan);
  ASSERT_TRUE(fault::inject("t/dump", 7));
  const std::string path = rec.last_dump_path();
  ASSERT_FALSE(path.empty()) << "fault fire must trigger an automatic recorder dump";
  EXPECT_NE(path.find("clara_flight_fault_t_dump.json"), std::string::npos) << path;
  const auto doc = Json::parse(read_file(path));
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  // The filename is sanitized; the JSON keeps the raw reason.
  EXPECT_EQ(doc.value().get("clara_flight")->string_at("reason"), "fault_t/dump");
  bool saw_fault_fire = false;
  for (const auto& e : doc.value().get("traceEvents")->as_array()) {
    if (e.string_at("name") == "flight/fault_fire") saw_fault_fire = true;
  }
  EXPECT_TRUE(saw_fault_fire);
  // Later failures in the same process reuse the throttle: no dump storm.
  EXPECT_TRUE(rec.auto_dump("another").empty());
  rec.reset_auto_dump();
  rec.set_dump_dir("");
  std::remove(path.c_str());
}

// --- simulator injection sites -----------------------------------------------

nicsim::RunStats run_nat_sim(const workload::Trace& trace) { return nf::simulate("nat", trace).value(); }

TEST(NicSimFaultTest, DropInjectionIsDeterministic) {
  const auto trace = test_trace();
  fault::clear_plan();
  const auto baseline = run_nat_sim(trace);

  fault::FaultPlan plan;
  plan.seed = 11;
  plan.add_site({"nicsim/drop", 0.0, 50, fault::kNoTrigger, 0.0});
  fault::ScopedPlan scoped(plan);
  const auto faulted_a = run_nat_sim(trace);
  const auto faulted_b = run_nat_sim(trace);

  EXPECT_GT(faulted_a.drops, baseline.drops);
  // Same plan + same trace on fresh simulators: bit-identical outcome.
  EXPECT_EQ(faulted_a.drops, faulted_b.drops);
  EXPECT_EQ(faulted_a.packets, faulted_b.packets);
  EXPECT_EQ(faulted_a.latency.mean(), faulted_b.latency.mean());
}

TEST(NicSimFaultTest, SpikeAndThrottleRaiseLatencyDeterministically) {
  const auto trace = test_trace();
  fault::clear_plan();
  const auto baseline = run_nat_sim(trace);

  fault::FaultPlan plan;
  plan.seed = 3;
  plan.add_site({"nicsim/emem_spike", 0.0, 8, fault::kNoTrigger, 6.0});
  plan.add_site({"nicsim/unit_throttle", 0.0, 4, fault::kNoTrigger, 5.0});
  fault::ScopedPlan scoped(plan);
  const auto faulted_a = run_nat_sim(trace);
  const auto faulted_b = run_nat_sim(trace);

  EXPECT_GT(faulted_a.latency.mean(), baseline.latency.mean());
  EXPECT_EQ(faulted_a.latency.mean(), faulted_b.latency.mean());
  EXPECT_EQ(faulted_a.drops, baseline.drops);  // perf faults, not loss
}

TEST(NicSimFaultTest, QueueOverflowInjectionDropsPackets) {
  const auto trace = test_trace();
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.add_site({"nicsim/queue_overflow", 0.0, 100, fault::kNoTrigger, 0.0});
  fault::ScopedPlan scoped(plan);
  const auto faulted = run_nat_sim(trace);
  EXPECT_GE(faulted.drops, trace.size() / 100 - 1);
}

// --- LNIC unit faults --------------------------------------------------------

TEST(LnicFaultTest, MarkOfflineRemovesUnitFromPools) {
  auto profile = lnic::netronome_agilio_cx();
  const auto healthy_pools = mapping::build_pools(profile.graph);
  const auto healthy_hash = core::hash_profile(profile);

  auto marked = profile.graph.mark_offline("csum");
  ASSERT_TRUE(marked.ok()) << marked.error().message;
  EXPECT_GE(marked.value(), 1);

  const auto faulted_pools = mapping::build_pools(profile.graph);
  EXPECT_LT(faulted_pools.size(), healthy_pools.size());
  for (const auto& pool : faulted_pools) {
    EXPECT_NE(pool.kind, lnic::UnitKind::kChecksumAccel);
  }
  // Fault state is part of the profile's content digest.
  EXPECT_NE(core::hash_profile(profile), healthy_hash);

  auto unknown = profile.graph.mark_offline("no-such-unit");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, ErrorCode::kUnknownCall);
}

TEST(LnicFaultTest, DerateScalesPoolParallelism) {
  auto profile = lnic::netronome_agilio_cx();
  double healthy_npu = 0.0;
  for (const auto& pool : mapping::build_pools(profile.graph)) {
    if (pool.kind == lnic::UnitKind::kNpuCore) healthy_npu += pool.parallelism;
  }
  ASSERT_GT(healthy_npu, 0.0);

  auto derated = profile.graph.derate_units("npu", 0.5);
  ASSERT_TRUE(derated.ok()) << derated.error().message;
  EXPECT_GE(derated.value(), 1);
  double derated_npu = 0.0;
  for (const auto& pool : mapping::build_pools(profile.graph)) {
    if (pool.kind == lnic::UnitKind::kNpuCore) derated_npu += pool.parallelism;
  }
  EXPECT_NEAR(derated_npu, healthy_npu * 0.5, 1e-9);

  auto bad = profile.graph.derate_units("npu", 1.5);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kParse);
}

TEST(LnicFaultTest, ApplyPlanToProfile) {
  fault::FaultPlan plan;
  plan.failed_units.push_back("csum");
  plan.derated_units.emplace_back("npu", 50.0);
  auto profile = lnic::netronome_agilio_cx();
  auto applied = fault::apply_to_profile(plan, profile);
  ASSERT_TRUE(applied.ok()) << applied.error().message;
  EXPECT_GE(applied.value(), 2);

  fault::FaultPlan bogus;
  bogus.failed_units.push_back("warp-core");
  auto missing = fault::apply_to_profile(bogus, profile);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kUnknownCall);
}

// --- incremental mapping repair ----------------------------------------------

struct RepairFixture {
  cir::Function fn;
  passes::CostHints hints;
  passes::DataflowGraph graph;
  lnic::NicProfile faulted_profile;

  RepairFixture()
      : fn(nf::build_nat_nf()),
        graph((passes::substitute_framework_apis(fn), passes::DataflowGraph::build(fn, hints))),
        faulted_profile(lnic::netronome_agilio_cx()) {
    EXPECT_TRUE(faulted_profile.graph.mark_offline("csum").ok());
  }
};

TEST(RepairTest, RepairAfterAcceleratorLoss) {
  RepairFixture fx;
  const auto healthy_profile = lnic::netronome_agilio_cx();
  const mapping::Mapper healthy(healthy_profile);
  auto previous = healthy.map(fx.graph, fx.hints);
  ASSERT_TRUE(previous.ok()) << previous.error().message;
  EXPECT_FALSE(previous.value().repaired);

  const mapping::Mapper faulted(fx.faulted_profile);
  auto& repairs = obs::metrics().counter("ilp/repairs");
  const auto repairs_before = repairs.value();
  auto repaired = faulted.repair(fx.graph, fx.hints, previous.value());
  ASSERT_TRUE(repaired.ok()) << repaired.error().message;
  EXPECT_EQ(repairs.value(), repairs_before + 1);

  const auto& m = repaired.value();
  EXPECT_TRUE(m.repaired);
  EXPECT_GE(m.repair_displaced, 1u);
  EXPECT_EQ(m.node_pool.size(), previous.value().node_pool.size());
  EXPECT_EQ(m.state_region.size(), previous.value().state_region.size());
  // Losing the accelerator cannot make the NF cheaper.
  EXPECT_GE(m.objective, previous.value().objective - 1e-9);
  // Repair pins the survivors, so it can never beat the faulted model's
  // cold optimum.
  auto cold = faulted.map(fx.graph, fx.hints);
  ASSERT_TRUE(cold.ok());
  EXPECT_GE(m.objective, cold.value().objective - 1e-6);

  const auto report = mapping::describe_mapping(m, fx.graph, faulted, fx.fn);
  EXPECT_NE(report.find("repaired incrementally"), std::string::npos);
}

TEST(RepairTest, RepairIsBitIdenticalAcrossJobs) {
  RepairFixture fx;
  const auto healthy_profile = lnic::netronome_agilio_cx();
  const mapping::Mapper healthy(healthy_profile);
  auto previous = healthy.map(fx.graph, fx.hints);
  ASSERT_TRUE(previous.ok());
  const mapping::Mapper faulted(fx.faulted_profile);

  std::vector<mapping::Mapping> runs;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    parallel::set_jobs(jobs);
    auto repaired = faulted.repair(fx.graph, fx.hints, previous.value());
    ASSERT_TRUE(repaired.ok()) << "jobs=" << jobs;
    runs.push_back(std::move(repaired).value());
  }
  parallel::set_jobs(0);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].node_pool, runs[0].node_pool);
    EXPECT_EQ(runs[i].state_region, runs[0].state_region);
    EXPECT_EQ(runs[i].objective, runs[0].objective);  // bit-identical
    EXPECT_EQ(runs[i].repair_displaced, runs[0].repair_displaced);
  }
}

TEST(RepairTest, DerateWithoutDisplacementKeepsAssignments) {
  // A mild derate that leaves every pool Θ-feasible displaces nothing:
  // the repair returns the pinned assignment re-indexed, still flagged.
  auto fn = nf::build_nat_nf();
  passes::substitute_framework_apis(fn);
  passes::CostHints hints;
  const auto graph = passes::DataflowGraph::build(fn, hints);
  const auto healthy_profile = lnic::netronome_agilio_cx();
  const mapping::Mapper healthy(healthy_profile);
  auto previous = healthy.map(graph, hints);
  ASSERT_TRUE(previous.ok());

  auto profile = lnic::netronome_agilio_cx();
  ASSERT_TRUE(profile.graph.derate_units("npu", 0.9).ok());
  const mapping::Mapper faulted(profile);
  auto repaired = faulted.repair(graph, hints, previous.value());
  ASSERT_TRUE(repaired.ok()) << repaired.error().message;
  EXPECT_TRUE(repaired.value().repaired);
  EXPECT_EQ(repaired.value().repair_displaced, 0u);
  EXPECT_EQ(repaired.value().node_pool.size(), previous.value().node_pool.size());
}

TEST(RepairTest, NothingPinnedMatchesColdMap) {
  // A previous mapping whose pools and regions have all vanished pins
  // nothing, so repair() solves map()'s own model and must land on
  // exactly map()'s assignment by exactly the same search. The firewall
  // on the pipeline ASIC makes that search branch.
  for (const bool branching : {false, true}) {
    SCOPED_TRACE(branching ? "firewall on pipeline-asic" : "nat on netronome");
    auto fn = branching ? nf::build_fw_nf() : nf::build_nat_nf();
    passes::substitute_framework_apis(fn);
    passes::CostHints hints;
    const auto graph = passes::DataflowGraph::build(fn, hints);
    const auto profile = branching ? lnic::pipeline_asic_nic() : lnic::netronome_agilio_cx();
    const mapping::Mapper mapper(profile);
    auto cold = mapper.map(graph, hints);
    ASSERT_TRUE(cold.ok()) << cold.error().message;
    const double cold_vars = obs::metrics().gauge("mapping/ilp_variables").value();

    mapping::Mapping previous = cold.value();
    for (auto& sig : previous.pool_sig) sig.pipeline_stage = 99;  // no pool has this stage
    std::fill(previous.state_region.begin(), previous.state_region.end(), kInvalidNode);

    auto& repair_vars = obs::metrics().gauge("mapping/repair_variables");
    repair_vars.set(-1.0);
    auto repaired = mapper.repair(graph, hints, previous);
    ASSERT_TRUE(repaired.ok()) << repaired.error().message;
    EXPECT_EQ(repair_vars.value(), cold_vars);  // its own solve, not the cold fallback
    const auto& m = repaired.value();
    EXPECT_EQ(m.node_pool, cold.value().node_pool);
    EXPECT_EQ(m.state_region, cold.value().state_region);
    EXPECT_EQ(m.ilp_pivots, cold.value().ilp_pivots);
    EXPECT_EQ(m.ilp_nodes_explored, cold.value().ilp_nodes_explored);
    EXPECT_EQ(m.repair_displaced, graph.nodes().size());
    EXPECT_NEAR(m.objective, cold.value().objective, 1e-9 * cold.value().objective);
    if (branching) {
      EXPECT_GT(m.ilp_nodes_explored, 1u);
    }
  }
}

TEST(RepairTest, ColdFallbackReSolvesEveryNode) {
  // Failing the pipeline ASIC's stage SRAM displaces NAT's flow table to
  // DRAM, which the nodes pinned to match-action stages cannot reach:
  // the pinned model has no room, so repair() solves cold and every node
  // counts as re-solved.
  auto fn = nf::build_nat_nf();
  passes::substitute_framework_apis(fn);
  passes::CostHints hints;
  const auto graph = passes::DataflowGraph::build(fn, hints);
  const auto healthy_profile = lnic::pipeline_asic_nic();
  auto previous = mapping::Mapper(healthy_profile).map(graph, hints);
  ASSERT_TRUE(previous.ok()) << previous.error().message;

  auto profile = lnic::pipeline_asic_nic();
  ASSERT_TRUE(profile.graph.mark_offline("stage-sram").ok());
  const mapping::Mapper faulted(profile);
  auto& repair_vars = obs::metrics().gauge("mapping/repair_variables");
  repair_vars.set(-1.0);
  auto repaired = faulted.repair(graph, hints, previous.value());
  ASSERT_TRUE(repaired.ok()) << repaired.error().message;
  EXPECT_EQ(repair_vars.value(), -1.0);  // no pinned model was solved
  auto cold = faulted.map(graph, hints);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(repaired.value().repaired);
  EXPECT_EQ(repaired.value().node_pool, cold.value().node_pool);
  EXPECT_EQ(repaired.value().repair_displaced, graph.nodes().size());
}

TEST(RepairTest, GreedyFallbackReSolvesEveryNode) {
  // A deadline that expires before the pinned model has an incumbent
  // degrades the repair to the greedy mapper, which re-places every node.
  RepairFixture fx;
  const auto healthy_profile = lnic::netronome_agilio_cx();
  auto previous = mapping::Mapper(healthy_profile).map(fx.graph, fx.hints);
  ASSERT_TRUE(previous.ok());

  fault::FaultPlan plan;
  plan.add_site({"ilp/wave_timeout", 0.0, 0, 0, 0.0});
  fault::ScopedPlan scoped(plan);
  const mapping::Mapper faulted(fx.faulted_profile);
  auto repaired = faulted.repair(fx.graph, fx.hints, previous.value());
  ASSERT_TRUE(repaired.ok()) << repaired.error().message;
  const auto& m = repaired.value();
  EXPECT_TRUE(m.repaired);
  EXPECT_TRUE(m.degraded);
  EXPECT_TRUE(m.greedy);
  EXPECT_EQ(m.repair_displaced, fx.graph.nodes().size());
}

// --- Analyzer flag matrix ----------------------------------------------------

TEST(AnalyzerFaultTest, RepairedAnalysisCarriesFlagAndNote) {
  const auto trace = test_trace();
  const auto nat = nf::build_nat_nf();
  core::AnalyzeOptions options;
  options.use_cache = false;

  const core::Analyzer healthy(lnic::netronome_agilio_cx());
  auto base = healthy.analyze(nat, trace, options);
  ASSERT_TRUE(base.ok()) << base.error().message;
  EXPECT_FALSE(base.value().repaired);

  auto profile = lnic::netronome_agilio_cx();
  ASSERT_TRUE(profile.graph.mark_offline("csum").ok());
  const core::Analyzer degraded(std::move(profile));
  auto repaired = degraded.repair(nat, trace, base.value(), options);
  ASSERT_TRUE(repaired.ok()) << repaired.error().message;
  EXPECT_TRUE(repaired.value().repaired);
  EXPECT_TRUE(repaired.value().mapping.repaired);
  EXPECT_FALSE(repaired.value().degraded);
  EXPECT_NE(repaired.value().report.find("repaired incrementally"), std::string::npos);
  // Software checksum costs more than the accelerator it replaced.
  EXPECT_GT(repaired.value().prediction.mean_latency_cycles,
            base.value().prediction.mean_latency_cycles);
}

TEST(AnalyzerFaultTest, RepairIsBitIdenticalAcrossJobs) {
  const auto trace = test_trace();
  const auto nat = nf::build_nat_nf();
  core::AnalyzeOptions options;
  options.use_cache = false;

  const core::Analyzer healthy(lnic::netronome_agilio_cx());
  auto base = healthy.analyze(nat, trace, options);
  ASSERT_TRUE(base.ok());

  std::vector<core::Analysis> runs;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    parallel::set_jobs(jobs);
    auto profile = lnic::netronome_agilio_cx();
    ASSERT_TRUE(profile.graph.mark_offline("csum").ok());
    const core::Analyzer degraded(std::move(profile));
    auto repaired = degraded.repair(nat, trace, base.value(), options);
    ASSERT_TRUE(repaired.ok()) << "jobs=" << jobs;
    runs.push_back(std::move(repaired).value());
  }
  parallel::set_jobs(0);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].mapping.node_pool, runs[0].mapping.node_pool);
    EXPECT_EQ(runs[i].prediction.mean_latency_cycles, runs[0].prediction.mean_latency_cycles);
    EXPECT_EQ(runs[i].report, runs[0].report);
  }
}

TEST(AnalyzerFaultTest, InjectedWaveTimeoutDegradesDeterministically) {
  // `ilp/wave_timeout at=0` fires the deadline check at the first wave,
  // before any incumbent exists — map() degrades to the greedy baseline,
  // flagged degraded. Unlike a tiny wall-clock budget this reproduces
  // bit-identically on any machine.
  const auto trace = test_trace();
  const auto nat = nf::build_nat_nf();
  core::AnalyzeOptions options;
  options.use_cache = false;

  fault::FaultPlan plan;
  plan.add_site({"ilp/wave_timeout", 0.0, 0, 0, 0.0});
  fault::ScopedPlan scoped(plan);

  const core::Analyzer analyzer(lnic::netronome_agilio_cx());
  auto a = analyzer.analyze(nat, trace, options);
  ASSERT_TRUE(a.ok()) << a.error().message;
  EXPECT_TRUE(a.value().degraded);
  EXPECT_TRUE(a.value().mapping.greedy);
  EXPECT_NE(a.value().report.find("NOTE: solver time budget expired"), std::string::npos);

  auto b = analyzer.analyze(nat, trace, options);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().prediction.mean_latency_cycles, b.value().prediction.mean_latency_cycles);
  EXPECT_EQ(a.value().report, b.value().report);
}

TEST(AnalyzerFaultTest, GreedyAblationStillReportsPlainMapping) {
  const auto trace = test_trace();
  const auto nat = nf::build_nat_nf();
  core::AnalyzeOptions options;
  options.use_cache = false;
  options.stages = core::PipelineStages::no_ilp();
  const core::Analyzer analyzer(lnic::netronome_agilio_cx());
  auto a = analyzer.analyze(nat, trace, options);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.value().mapping.greedy);
  EXPECT_FALSE(a.value().degraded);
  EXPECT_FALSE(a.value().repaired);
  EXPECT_EQ(a.value().report.find("repaired incrementally"), std::string::npos);
}

TEST(AnalyzerFaultTest, GreedyRepairReSolvesEveryNode) {
  // Without the ILP stage a repair re-runs the greedy mapper, which
  // re-places every node: none of them counts as pinned.
  const auto trace = test_trace();
  const auto nat = nf::build_nat_nf();
  core::AnalyzeOptions options;
  options.use_cache = false;
  options.stages = core::PipelineStages::no_ilp();

  const core::Analyzer healthy(lnic::netronome_agilio_cx());
  auto base = healthy.analyze(nat, trace, options);
  ASSERT_TRUE(base.ok()) << base.error().message;

  auto profile = lnic::netronome_agilio_cx();
  ASSERT_TRUE(profile.graph.mark_offline("csum").ok());
  const core::Analyzer degraded(std::move(profile));
  auto repaired = degraded.repair(nat, trace, base.value(), options);
  ASSERT_TRUE(repaired.ok()) << repaired.error().message;
  const auto& m = repaired.value().mapping;
  EXPECT_TRUE(m.greedy);
  EXPECT_TRUE(repaired.value().repaired);
  EXPECT_EQ(m.repair_displaced, m.node_pool.size());
  EXPECT_NE(repaired.value().report.find(std::to_string(m.node_pool.size()) + " nodes re-solved"),
            std::string::npos);
}

// --- cache fault sites -------------------------------------------------------

TEST(CacheFaultTest, PoisonDetectionRecomputesIdenticalResults) {
  auto& cache = core::analysis_cache();
  cache.configure({});
  cache.clear();
  const auto trace = test_trace();
  const auto nat = nf::build_nat_nf();
  const core::Analyzer analyzer(lnic::netronome_agilio_cx());

  auto clean = analyzer.analyze(nat, trace);
  ASSERT_TRUE(clean.ok());

  fault::FaultPlan plan;
  plan.add_site({"cache/poison", 1.0, 0, fault::kNoTrigger, 0.0});
  fault::ScopedPlan scoped(plan);
  auto& detected = obs::metrics().counter("fault/cache_poison_detected", "stage=map");
  const auto before = detected.value();
  auto poisoned = analyzer.analyze(nat, trace);
  ASSERT_TRUE(poisoned.ok());
  // Every hit is detected as corrupt and recomputed: same answer,
  // different accounting.
  EXPECT_GT(detected.value(), before);
  EXPECT_EQ(poisoned.value().prediction.mean_latency_cycles,
            clean.value().prediction.mean_latency_cycles);
  EXPECT_EQ(poisoned.value().report, clean.value().report);
}

TEST(CacheFaultTest, EvictStormFlushesButPreservesResults) {
  auto& cache = core::analysis_cache();
  cache.configure({});
  cache.clear();
  const auto trace = test_trace();
  const auto nat = nf::build_nat_nf();
  const core::Analyzer analyzer(lnic::netronome_agilio_cx());

  auto clean = analyzer.analyze(nat, trace);
  ASSERT_TRUE(clean.ok());
  cache.clear();

  fault::FaultPlan plan;
  plan.add_site({"cache/evict_storm", 1.0, 0, fault::kNoTrigger, 0.0});
  fault::ScopedPlan scoped(plan);
  auto& storms = obs::metrics().counter("fault/cache_evict_storms", "stage=map");
  const auto before = storms.value();
  auto stormy = analyzer.analyze(nat, trace);
  ASSERT_TRUE(stormy.ok());
  EXPECT_GT(storms.value(), before);
  EXPECT_EQ(stormy.value().prediction.mean_latency_cycles,
            clean.value().prediction.mean_latency_cycles);
  cache.clear();
}

TEST(CacheFaultTest, SummaryStageTakesPartInPoisonAndStorms) {
  auto& cache = core::analysis_cache();
  cache.configure({});
  cache.clear();
  const core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto profile = test_trace().profile;
  const auto clean = analyzer.summarize(profile);

  fault::FaultPlan plan;
  plan.add_site({"cache/poison", 1.0, 0, fault::kNoTrigger, 0.0});
  plan.add_site({"cache/evict_storm", 1.0, 0, fault::kNoTrigger, 0.0});
  fault::ScopedPlan scoped(plan);
  auto& detected = obs::metrics().counter("fault/cache_poison_detected", "stage=summary");
  auto& storms = obs::metrics().counter("fault/cache_evict_storms", "stage=summary");
  const auto detected_before = detected.value();
  const auto storms_before = storms.value();
  // The cached entry is found corrupt, recomputed, and its re-insert
  // flushes the stage: same summary, fresh object.
  const auto recomputed = analyzer.summarize(profile);
  EXPECT_GT(detected.value(), detected_before);
  EXPECT_GT(storms.value(), storms_before);
  EXPECT_NE(recomputed, clean);
  EXPECT_EQ(recomputed->hints.flow_cache_hit_rate, clean->hints.flow_cache_hit_rate);
  ASSERT_EQ(recomputed->classes.size(), clean->classes.size());
  for (std::size_t i = 0; i < clean->classes.size(); ++i) {
    EXPECT_EQ(recomputed->classes[i].name(), clean->classes[i].name());
    EXPECT_EQ(recomputed->classes[i].count, clean->classes[i].count);
  }
  cache.clear();
}

// --- sweep retry-once-then-record --------------------------------------------

TEST(SweepRetryTest, TransientFailureRecoversOnRetry) {
  const auto grid = core::make_grid({1e4, 2e4, 3e4, 4e4}, {}, 9);
  std::vector<std::atomic<int>> attempts(grid.size());
  const auto eval = [&](const core::SweepPoint& point, core::SweepResult& result) {
    const int attempt = ++attempts[point.index];
    if (point.index == 2 && attempt == 1) {
      result.ok = false;
      result.error = "transient";
      return;
    }
    result.value = point.load_pps;
    result.stats.add(point.load_pps);
  };
  core::SweepOptions options;
  options.jobs = 1;
  core::SweepFailureSummary summary;
  const auto results = core::run_sweep(grid, eval, options, &summary);
  ASSERT_EQ(results.size(), grid.size());
  for (const auto& r : results) EXPECT_TRUE(r.ok) << r.point.index;
  EXPECT_EQ(results[2].attempts, 2u);
  EXPECT_EQ(results[0].attempts, 1u);
  EXPECT_EQ(summary.shards, grid.size());
  EXPECT_EQ(summary.retried, 1u);
  EXPECT_EQ(summary.recovered, 1u);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_FALSE(summary.any_failures());
}

TEST(SweepRetryTest, PersistentFailureIsRecordedNotFatal) {
  const auto grid = core::make_grid({1e4, 2e4, 3e4}, {}, 9);
  const auto eval = [&](const core::SweepPoint& point, core::SweepResult& result) {
    if (point.index == 1) {
      result.ok = false;
      result.error = "shard is cursed";
      return;
    }
    result.value = point.load_pps;
  };
  auto& failures_metric = obs::metrics().counter("sweep/shard_failures");
  auto& retries_metric = obs::metrics().counter("sweep/shard_retries");
  const auto failures_before = failures_metric.value();
  const auto retries_before = retries_metric.value();

  for (const std::size_t jobs : {1u, 2u, 8u}) {
    core::SweepOptions options;
    options.jobs = jobs;
    core::SweepFailureSummary summary;
    const auto results = core::run_sweep(grid, eval, options, &summary);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].attempts, 2u);
    EXPECT_TRUE(results[2].ok);
    EXPECT_EQ(summary.retried, 1u);
    EXPECT_EQ(summary.recovered, 0u);
    EXPECT_EQ(summary.failed, 1u);
    ASSERT_EQ(summary.errors.size(), 1u);
    EXPECT_NE(summary.errors[0].find("shard 1"), std::string::npos);
    EXPECT_NE(summary.errors[0].find("cursed"), std::string::npos);
  }
  EXPECT_EQ(failures_metric.value(), failures_before + 3);
  EXPECT_EQ(retries_metric.value(), retries_before + 3);
}

TEST(SweepRetryTest, SummaryMergesLikeHistograms) {
  core::SweepFailureSummary a;
  a.shards = 8;
  a.retried = 2;
  a.recovered = 1;
  a.failed = 1;
  a.errors = {"shard 3: x"};
  core::SweepFailureSummary b;
  b.shards = 4;
  b.failed = 2;
  b.retried = 2;
  b.errors = {"shard 0: y", "shard 2: z"};
  a.merge(b);
  EXPECT_EQ(a.shards, 12u);
  EXPECT_EQ(a.retried, 4u);
  EXPECT_EQ(a.recovered, 1u);
  EXPECT_EQ(a.failed, 3u);
  ASSERT_EQ(a.errors.size(), 3u);
  EXPECT_NE(a.describe().find("12 total"), std::string::npos);

  // The error list is capped; counts keep accumulating past it.
  core::SweepFailureSummary big;
  for (int i = 0; i < 40; ++i) {
    core::SweepFailureSummary one;
    one.shards = 1;
    one.failed = 1;
    one.errors = {"shard: e"};
    big.merge(one);
  }
  EXPECT_EQ(big.failed, 40u);
  EXPECT_EQ(big.errors.size(), core::SweepFailureSummary::kMaxErrors);
}

TEST(SweepRetryTest, PredictLoadSweepSurvivesInjectedSolverFault) {
  // A load sweep re-predicts a fixed mapping — the solver never reruns —
  // so an armed ilp/wave_timeout site must not disturb it: every point
  // succeeds and the failure summary stays clean.
  const auto trace = test_trace();
  const auto nat = nf::build_nat_nf();
  core::AnalyzeOptions options;
  options.use_cache = false;
  const core::Analyzer analyzer(lnic::netronome_agilio_cx());
  auto analysis = analyzer.analyze(nat, trace, options);
  ASSERT_TRUE(analysis.ok());

  fault::FaultPlan plan;
  plan.add_site({"ilp/wave_timeout", 0.0, 1, fault::kNoTrigger, 0.0});
  fault::ScopedPlan scoped(plan);
  core::SweepFailureSummary summary;
  const auto base = core::summarize(trace, analyzer.profile(), options.predict.payload_buckets);
  const auto sweep = core::predict_load_sweep(analyzer, analysis.value(), base, {2e4, 6e4}, options,
                                              1, &summary);
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_TRUE(sweep[0].ok) << sweep[0].error;
  EXPECT_TRUE(sweep[1].ok) << sweep[1].error;
  EXPECT_EQ(summary.shards, 2u);
  EXPECT_EQ(summary.failed, 0u);
}

// --- hardened CIR parser -----------------------------------------------------

TEST(ParserHardeningTest, OversizedInputRejectedWithParseCode) {
  std::string huge(9u << 20, 'a');
  auto mod = cir::parse_module(huge);
  ASSERT_FALSE(mod.ok());
  EXPECT_EQ(mod.error().code, ErrorCode::kParse);
  EXPECT_NE(mod.error().message.find("too large"), std::string::npos);
}

TEST(ParserHardeningTest, OverlongLineRejected) {
  std::string text = "module m\n; " + std::string(8192, 'x') + "\n";
  auto mod = cir::parse_module(text);
  ASSERT_FALSE(mod.ok());
  EXPECT_EQ(mod.error().code, ErrorCode::kParse);
  EXPECT_NE(mod.error().message.find("too long"), std::string::npos);
}

TEST(ParserHardeningTest, DeepNestingAndImbalanceRejected) {
  const std::string deep = "module m\nfunc f {\nblock b:\n%0 = add " + std::string(64, '(') +
                           "1" + std::string(64, ')') + "\nret\n}\n";
  auto mod = cir::parse_module(deep);
  ASSERT_FALSE(mod.ok());
  EXPECT_EQ(mod.error().code, ErrorCode::kParse);

  const std::string unbalanced = "module m\nfunc f {\nblock b:\n%0 = add ((1\nret\n}\n";
  auto mod2 = cir::parse_module(unbalanced);
  ASSERT_FALSE(mod2.ok());
  EXPECT_EQ(mod2.error().code, ErrorCode::kParse);
}

TEST(ParserHardeningTest, AllParserErrorsCarryParseCode) {
  const char* bad[] = {
      "",                                      // missing header
      "func f {\n}\n",                         // func before module
      "module m\nmodule m\n",                  // duplicate header
      "module m\nwat\n",                       // junk directive
      "module m\nfunc f {\n%0 = add 1\n}\n",   // instruction outside block
      "module m\nfunc f {\nblock b:\nbr nowhere\n}\n",  // unknown label
  };
  for (const char* text : bad) {
    auto mod = cir::parse_module(text);
    ASSERT_FALSE(mod.ok()) << text;
    EXPECT_EQ(mod.error().code, ErrorCode::kParse) << text;
  }
}

// Seeded corpus fuzz: byte mutations of real sources must produce Result
// errors (or valid parses), never a crash or abort. Deterministic — the
// mutation stream derives from fixed seeds, so a failure reproduces.
TEST(ParserFuzzTest, MutatedCirCorpusNeverCrashes) {
  std::vector<std::string> corpus;
  for (auto&& fn : {nf::build_nat_nf(), nf::build_lpm_nf(), nf::build_dpi_nf()}) {
    cir::Module mod;
    mod.name = "fuzz";
    mod.functions.push_back(fn);
    corpus.push_back(cir::print_module(mod));
  }
  // Raw non-CIR text exercises the top-level rejects.
  corpus.push_back(read_file(std::string(CLARA_EXAMPLES_DIR) + "/nfs/firewall.p4nf"));

  std::size_t parsed_ok = 0, rejected = 0;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (std::uint64_t round = 0; round < 60; ++round) {
      Rng rng(parallel::shard_seed(0xF02Du + c, round));
      std::string mutated = corpus[c];
      const std::size_t flips = 1 + rng.next_below(8);
      for (std::size_t f = 0; f < flips && !mutated.empty(); ++f) {
        const std::size_t pos = rng.next_below(mutated.size());
        mutated[pos] = static_cast<char>(rng.next_below(256));
      }
      auto mod = cir::parse_module(mutated);
      if (mod.ok()) {
        ++parsed_ok;
        for (const auto& fn : mod.value().functions) (void)cir::verify(fn);
      } else {
        ++rejected;
        EXPECT_FALSE(mod.error().message.empty());
      }
    }
  }
  // The corpus is real text, so most mutations must be caught as errors.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(parsed_ok + rejected, corpus.size() * 60);
}

TEST(ParserFuzzTest, MutatedP4CorpusNeverCrashes) {
  const char* files[] = {"firewall.p4nf", "rate_limiter.p4nf", "router.p4nf"};
  for (std::size_t c = 0; c < 3; ++c) {
    const auto source = read_file(std::string(CLARA_EXAMPLES_DIR) + "/nfs/" + files[c]);
    ASSERT_FALSE(source.empty()) << files[c];
    for (std::uint64_t round = 0; round < 40; ++round) {
      Rng rng(parallel::shard_seed(0xBEEF + c, round));
      std::string mutated = source;
      const std::size_t flips = 1 + rng.next_below(6);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[rng.next_below(mutated.size())] = static_cast<char>(rng.next_below(256));
      }
      auto fn = frontend::compile_p4lite(mutated);
      if (fn.ok()) {
        (void)cir::verify(fn.value());
      } else {
        EXPECT_FALSE(fn.error().message.empty());
      }
    }
  }
}

// Structure-aware spec fuzz: every workload-spec key (read off the
// default echo, so a key added to the list is fuzzed too) with each
// hostile value, plus the sweep's load points, which share the pps
// range, through the service at jobs=1/2/8. Every answer is ok or kParse
// naming its key, byte-identical at every jobs level, and an accepted
// echo re-parses to the request's digest.
TEST(SpecFuzzTest, HostileValuesAreTypedAndIdenticalAcrossJobs) {
  const auto started = std::chrono::steady_clock::now();
  const char* values[] = {"0",   "-1",  "2147483648", "4294967296", "4294967297",
                          "9007199254740992", "18446744073709551616", "nan", "inf",
                          "-inf", "1e308", "", "x"};
  struct Case {
    core::Request request;
    std::string names;  // what a kParse answer must quote
  };
  std::vector<Case> cases;
  for (const std::string& token : split(workload::WorkloadProfile{}.serialize(), ' ')) {
    const std::string key = token.substr(0, token.find('='));
    for (const char* value : values) {
      Case c;
      c.request.id = key + "=" + value;
      c.request.nf = "lpm";
      c.request.workload = "packets=500 " + key + "=" + value;
      c.names = key + "=";
      cases.push_back(std::move(c));
    }
  }
  ASSERT_EQ(cases.size(), 8 * std::size(values));
  for (const char* value : values) {
    Case c;
    c.request.id = std::string("sweep_pps=") + value;
    c.request.kind = core::RequestKind::kSweep;
    c.request.nf = "lpm";
    c.request.workload = "packets=500";
    c.request.sweep_pps = {std::strtod(value, nullptr)};  // nan and inf included
    c.names = "sweep_pps point";
    cases.push_back(std::move(c));
  }

  std::vector<std::string> reference;
  std::size_t accepted = 0;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    parallel::set_jobs(jobs);
    core::analysis_cache().clear();
    serve::Service service(serve::ServiceOptions{0});
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      const core::Response response = service.handle(c.request);
      const std::string tag = c.request.id + " jobs=" + std::to_string(jobs);
      if (response.ok) {
        accepted += jobs == 1 ? 1 : 0;
        const auto echoed = workload::parse_profile(response.workload);
        ASSERT_TRUE(echoed.ok()) << tag << ": " << echoed.error().message;
        EXPECT_EQ(echoed.value().digest(),
                  workload::parse_profile(c.request.workload).value().digest())
            << tag;
        EXPECT_EQ(echoed.value().serialize(), response.workload) << tag;
      } else {
        EXPECT_EQ(response.error_code, ErrorCode::kParse) << tag << ": " << response.error;
        EXPECT_NE(response.error.find(c.names), std::string::npos) << tag << ": " << response.error;
      }
      const std::string line = response.to_json();
      if (jobs == 1) {
        reference.push_back(line);
      } else {
        EXPECT_EQ(line, reference[i]) << tag;
      }
    }
  }
  parallel::set_jobs(0);
  core::analysis_cache().clear();
  // tcp=0, zipf=0, payload=0 and five in-range seeds.
  EXPECT_EQ(accepted, 8u);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  EXPECT_LT(seconds, 5.0);
}

}  // namespace
