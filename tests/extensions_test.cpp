// Tests for the paper's §6 extension features: energy analysis, partial
// offloading, and symbolic path enumeration (§3.5 alternative).
#include <gtest/gtest.h>

#include "cir/builder.hpp"
#include "core/clara.hpp"
#include "core/energy.hpp"
#include "core/partial.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"
#include "nicsim/sim.hpp"
#include "passes/api_subst.hpp"
#include "passes/dataflow.hpp"
#include "passes/patterns.hpp"
#include "passes/symexec.hpp"
#include "workload/tracegen.hpp"

namespace clara {
namespace {

workload::Trace make_trace(const std::string& spec) {
  return workload::generate_trace(workload::parse_profile(spec).value());
}

/// Runs the pipeline far enough to get a graph + mapping for a fn.
struct Pipeline {
  cir::Function fn;
  lnic::NicProfile profile;
  core::WorkloadSummary workload;
  passes::DataflowGraph graph;
  mapping::Mapper mapper;
  mapping::Mapping mapping;

  Pipeline(cir::Function raw, const workload::Trace& trace)
      : fn(std::move(raw)),
        profile(lnic::netronome_agilio_cx()),
        workload(core::summarize(trace, profile, core::PredictOptions{}.payload_buckets)),
        mapper(profile) {
    passes::substitute_framework_apis(fn);
    passes::collapse_packet_loops(fn);
    graph = passes::DataflowGraph::build(fn, workload.hints);
    mapping::MapOptions options;
    options.pps = trace.profile.pps;
    auto result = mapper.map(graph, workload.hints, options);
    EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
    mapping = std::move(result).value();
  }
};

// --- Energy -----------------------------------------------------------------

TEST(Energy, DefaultsFilled) {
  lnic::ParameterStore params;
  core::ensure_energy_defaults(params, "netronome-agilio-cx");
  EXPECT_TRUE(params.has(core::energy_keys::kNpuPerCycle));
  EXPECT_TRUE(params.has(core::energy_keys::kIdleWatts));
  // Profile-specific defaults differ.
  lnic::ParameterStore soc;
  core::ensure_energy_defaults(soc, "soc-arm");
  EXPECT_GT(soc.scalar(core::energy_keys::kNpuPerCycle), params.scalar(core::energy_keys::kNpuPerCycle));
}

TEST(Energy, DefaultsDoNotOverride) {
  lnic::ParameterStore params;
  params.set_scalar(core::energy_keys::kIdleWatts, 99.0);
  core::ensure_energy_defaults(params, "netronome-agilio-cx");
  EXPECT_DOUBLE_EQ(params.scalar(core::energy_keys::kIdleWatts), 99.0);
}

TEST(Energy, PredictionPositiveAndRateScaling) {
  const auto trace = make_trace("payload=300 pps=60000 packets=5000");
  Pipeline p(nf::build_nat_nf(), trace);
  const auto estimate = core::predict_energy(p.fn, p.graph, p.mapping, p.mapper, p.workload);
  EXPECT_GT(estimate.nj_per_packet, 0.0);
  EXPECT_GT(estimate.watts_at_rate, 14.0);  // at least idle power

  const auto fast_trace = make_trace("payload=300 pps=6000000 packets=5000");
  Pipeline p2(nf::build_nat_nf(), fast_trace);
  const auto fast = core::predict_energy(p2.fn, p2.graph, p2.mapping, p2.mapper, p2.workload);
  EXPECT_GT(fast.watts_at_rate, estimate.watts_at_rate);           // more dynamic power
  EXPECT_LT(fast.nj_per_packet_total, estimate.nj_per_packet_total);  // idle amortized
}

TEST(Energy, DpiCostsMoreThanRewrite) {
  const auto trace = make_trace("payload=1000 pps=60000 packets=5000");
  Pipeline dpi(nf::build_dpi_nf(), trace);
  Pipeline rewrite(nf::build_rewrite_nf(), trace);
  const auto e_dpi = core::predict_energy(dpi.fn, dpi.graph, dpi.mapping, dpi.mapper, dpi.workload);
  const auto e_rw = core::predict_energy(rewrite.fn, rewrite.graph, rewrite.mapping, rewrite.mapper,
                                          rewrite.workload);
  EXPECT_GT(e_dpi.nj_per_packet, 2.0 * e_rw.nj_per_packet);
}

TEST(Energy, SimulatorMeasuresEnergy) {
  const auto stats = nf::simulate("nat", make_trace("payload=300 pps=60000 packets=5000")).value();
  EXPECT_GT(stats.energy_nj_per_packet, 0.0);
  EXPECT_GT(stats.energy_watts, 15.0);
  EXPECT_LT(stats.energy_watts, 60.0);
}

TEST(Energy, PredictionTracksSimulatorWithinFactor) {
  // Energy is a coarser model than latency; require factor-2 agreement.
  const auto trace = make_trace("tcp=0.8 flows=10000 payload=300 pps=60000 packets=10000");
  Pipeline p(nf::build_nat_nf(), trace);
  const auto predicted = core::predict_energy(p.fn, p.graph, p.mapping, p.mapper, p.workload);

  const auto stats = nf::simulate("nat", trace).value();

  EXPECT_GT(predicted.nj_per_packet, stats.energy_nj_per_packet / 2.0);
  EXPECT_LT(predicted.nj_per_packet, stats.energy_nj_per_packet * 2.0);
}

// --- Partial offloading -------------------------------------------------------

TEST(Partial, IncludesEndpointPlans) {
  const auto trace = make_trace("payload=300 pps=60000 packets=3000");
  Pipeline p(nf::build_nat_nf(), trace);
  const auto result = core::plan_partial_offload(p.fn, p.graph, p.mapping, p.mapper, p.workload);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const auto& plans = result.value().plans;
  ASSERT_GE(plans.size(), 2u);
  EXPECT_EQ(plans.front().cut, 0u);                    // all host
  EXPECT_EQ(plans.back().cut, p.graph.size());         // full offload
  EXPECT_GT(plans.front().pcie_us, 0.0);               // host plan pays PCIe
  EXPECT_DOUBLE_EQ(plans.back().pcie_us, 0.0);         // full offload does not
}

TEST(Partial, BestIsMinimal) {
  const auto trace = make_trace("payload=600 pps=60000 packets=3000");
  Pipeline p(nf::build_vnf_chain(), trace);
  const auto result = core::plan_partial_offload(p.fn, p.graph, p.mapping, p.mapper, p.workload);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  for (const auto& plan : r.plans) {
    EXPECT_GE(plan.total_us(), r.best_plan().total_us() - 1e-9);
  }
}

TEST(Partial, NicFilterPlusHostTailPrefersSplit) {
  // The classic partial-offload shape: a NIC-side filter drops half the
  // traffic (halving PCIe crossings), and the surviving packets get a
  // floating-point-heavy tail that is brutal on NPUs (30-cycle FP
  // emulation) but nearly free on a host core. With host cycles priced
  // as the scarce resource, the best plan cuts between filter and tail.
  cir::FunctionBuilder b("filter_then_fp");
  const auto table = b.add_state(cir::StateObject{"allowed", 32, 8192, cir::StatePattern::kHashTable});
  const auto entry = b.create_block("entry");
  const auto tail = b.create_block("fp_tail");
  const auto rejected = b.create_block("rejected");
  b.set_insert_point(entry);
  b.vcall(cir::VCall::kParse, {}, false);
  const auto hash = b.get_hdr(cir::HdrField::kFlowHash);
  const auto hit = b.vcall(cir::VCall::kTableLookup, {cir::Value::of_imm(table), hash});
  b.cond_br(hit, tail, rejected);
  b.set_insert_point(tail);
  cir::Value acc = cir::Value::of_imm(1);
  for (int i = 0; i < 300; ++i) acc = b.fmul(acc, cir::Value::of_imm(3));
  b.store_scratch(cir::Value::of_imm(0), acc);
  b.vcall(cir::VCall::kEmit, {cir::Value::of_imm(1)}, false);
  b.ret();
  b.set_insert_point(rejected);
  b.vcall(cir::VCall::kDrop, {}, false);
  b.ret();

  const auto trace = make_trace("payload=300 pps=60000 packets=3000");
  Pipeline p(b.take(), trace);
  core::HostModel host;
  host.host_core_weight = 20.0;  // host cores are the scarce resource
  const auto result = core::plan_partial_offload(p.fn, p.graph, p.mapping, p.mapper, p.workload, host);
  ASSERT_TRUE(result.ok());
  const auto& best = result.value().best_plan();
  EXPECT_GT(best.cut, 0u);                     // not pure-host
  EXPECT_LT(best.cut, p.graph.size());         // not full offload
  EXPECT_LT(best.crossing_fraction, 0.9);      // the filter pays off
}

TEST(Partial, DescribeListsAllPlans) {
  const auto trace = make_trace("payload=300 pps=60000 packets=3000");
  Pipeline p(nf::build_nat_nf(), trace);
  const auto result = core::plan_partial_offload(p.fn, p.graph, p.mapping, p.mapper, p.workload);
  ASSERT_TRUE(result.ok());
  const auto text = core::describe_partial(result.value(), p.graph);
  EXPECT_NE(text.find("full offload"), std::string::npos);
  EXPECT_NE(text.find("all host"), std::string::npos);
  EXPECT_NE(text.find("<== best"), std::string::npos);
}

// --- Symbolic path enumeration -------------------------------------------------

TEST(SymExec, NatHasHitAndMissPaths) {
  auto fn = nf::build_nat_nf();
  passes::substitute_framework_apis(fn);
  const auto paths = passes::enumerate_paths(fn);
  EXPECT_TRUE(paths.complete);
  ASSERT_EQ(paths.paths.size(), 2u);
  bool saw_hit = false, saw_miss = false;
  for (const auto& path : paths.paths) {
    const auto text = path.describe(fn);
    if (text.find("lookup(flow_table) hit") != std::string::npos &&
        text.find("!(") == std::string::npos) {
      saw_hit = true;
    }
    if (text.find("!(lookup(flow_table) hit)") != std::string::npos) saw_miss = true;
    EXPECT_EQ(path.exit, passes::NfPath::Exit::kEmit);
  }
  EXPECT_TRUE(saw_hit);
  EXPECT_TRUE(saw_miss);
}

TEST(SymExec, FirewallPathsNameTcpFlags) {
  auto fn = nf::build_fw_nf();
  passes::substitute_framework_apis(fn);
  const auto paths = passes::enumerate_paths(fn);
  EXPECT_TRUE(paths.complete);
  // established / non-SYN-drop / SYN+rule-accept / SYN+rule-reject.
  ASSERT_EQ(paths.paths.size(), 4u);
  int drops = 0, emits = 0;
  bool saw_flag_condition = false;
  for (const auto& path : paths.paths) {
    (path.exit == passes::NfPath::Exit::kDrop ? drops : emits)++;
    if (path.describe(fn).find("tcp_flags & 0x1") != std::string::npos) saw_flag_condition = true;
  }
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(emits, 2);
  EXPECT_TRUE(saw_flag_condition);
}

TEST(SymExec, DpiLoopBounded) {
  auto fn = nf::build_dpi_nf();
  passes::substitute_framework_apis(fn);
  const auto paths = passes::enumerate_paths(fn);
  EXPECT_TRUE(paths.complete);
  EXPECT_GE(paths.paths.size(), 2u);   // empty payload vs scanned
  EXPECT_LE(paths.paths.size(), 8u);   // loop bounded, no explosion
  for (const auto& path : paths.paths) {
    EXPECT_LE(path.blocks.size(), 10u);
  }
}

TEST(SymExec, CollapsedDpiHasLinearPaths) {
  auto fn = nf::build_dpi_nf();
  passes::substitute_framework_apis(fn);
  passes::collapse_packet_loops(fn);
  const auto paths = passes::enumerate_paths(fn);
  EXPECT_TRUE(paths.complete);
  // payload>0 x (match/alarm vs pass) + empty-payload path.
  EXPECT_GE(paths.paths.size(), 3u);
}

TEST(SymExec, PathBudgetMarksIncomplete) {
  auto fn = nf::build_fw_nf();
  passes::substitute_framework_apis(fn);
  const auto paths = passes::enumerate_paths(fn, /*max_paths=*/1);
  EXPECT_FALSE(paths.complete);
  EXPECT_EQ(paths.paths.size(), 1u);
}

TEST(SymExec, RewriteSinglePath) {
  auto fn = nf::build_rewrite_nf();
  passes::substitute_framework_apis(fn);
  const auto paths = passes::enumerate_paths(fn);
  ASSERT_EQ(paths.paths.size(), 1u);
  EXPECT_EQ(paths.paths[0].describe(fn).find("(always)"), 0u);
}

TEST(SymExec, MeterConditionNamed) {
  auto fn = nf::build_meter_nf();
  passes::substitute_framework_apis(fn);
  const auto paths = passes::enumerate_paths(fn);
  ASSERT_EQ(paths.paths.size(), 2u);
  bool saw = false;
  for (const auto& path : paths.paths) {
    if (path.describe(fn).find("meter(buckets) conforming") != std::string::npos) saw = true;
  }
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace clara
