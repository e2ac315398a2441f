// Tests for the mapper: pool construction, feasibility, the ILP encoding
// (Π/Γ/Θ), the greedy baseline, and mapping shapes on the built-in
// profiles.
#include <gtest/gtest.h>

#include <memory>

#include "cir/builder.hpp"
#include "mapping/mapping.hpp"
#include "nf/nf_cir.hpp"
#include "passes/api_subst.hpp"
#include "passes/patterns.hpp"

namespace clara::mapping {
namespace {

using passes::CostHints;
using passes::DataflowGraph;

cir::Function lowered(cir::Function fn, bool collapse = true) {
  passes::substitute_framework_apis(fn);
  if (collapse) passes::collapse_packet_loops(fn);
  return fn;
}

struct Prepared {
  std::unique_ptr<const cir::Function> fn;  // on the heap: the graph points into it
  DataflowGraph graph;
};

Prepared prepare(cir::Function raw, const CostHints& hints) {
  auto fn = std::make_unique<const cir::Function>(lowered(std::move(raw)));
  auto graph = DataflowGraph::build(*fn, hints);
  return {std::move(fn), std::move(graph)};
}

TEST(Pools, NetronomePools) {
  const auto profile = lnic::netronome_agilio_cx();
  const auto pools = build_pools(profile.graph);
  // parser, csum, crypto, lpm-engine, npu pool.
  EXPECT_EQ(pools.size(), 5u);
  double npu_parallelism = 0.0;
  for (const auto& pool : pools) {
    if (pool.kind == lnic::UnitKind::kNpuCore) {
      npu_parallelism = pool.parallelism;
      EXPECT_EQ(pool.members.size(), 28u);
    }
  }
  EXPECT_DOUBLE_EQ(npu_parallelism, 224.0);
}

TEST(Pools, AsicStagesStaySeparate) {
  const auto profile = lnic::pipeline_asic_nic();
  const auto pools = build_pools(profile.graph);
  int ma_pools = 0;
  for (const auto& pool : pools) {
    if (pool.kind == lnic::UnitKind::kHeaderEngine) ++ma_pools;
  }
  EXPECT_EQ(ma_pools, 4);  // four pipeline stages, distinct stage ids
}

TEST(Mapper, AccessCyclesUsesNumaAverage) {
  const auto profile = lnic::netronome_agilio_cx();
  const Mapper mapper(profile);
  const UnitPool* npu = nullptr;
  for (const auto& pool : mapper.pools()) {
    if (pool.kind == lnic::UnitKind::kNpuCore) npu = &pool;
  }
  ASSERT_NE(npu, nullptr);
  const auto ctm0 = profile.graph.find_by_name("ctm0").value();
  // 7 of 28 NPUs are local (weight 1), 21 remote (weight 2): avg 1.75.
  EXPECT_NEAR(mapper.access_cycles(*npu, ctm0), 50.0 * 1.75, 1e-9);
  const auto emem = profile.graph.find_by_name("emem").value();
  EXPECT_NEAR(mapper.access_cycles(*npu, emem), 500.0, 1e-9);
}

TEST(Mapper, NatMapsRealistically) {
  const auto profile = lnic::netronome_agilio_cx();
  const Mapper mapper(profile);
  CostHints hints;
  const auto prep = prepare(nf::build_nat_nf(), hints);
  const auto result = mapper.map(prep.graph, hints);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const auto& m = result.value();

  // The checksum site lands on the checksum accelerator; the 8 MiB flow
  // table only fits EMEM.
  bool csum_on_accel = false;
  for (std::size_t i = 0; i < prep.graph.nodes().size(); ++i) {
    for (const auto& site : prep.graph.nodes()[i].vcalls) {
      if (site.v == cir::VCall::kCsum) {
        csum_on_accel = mapper.pools()[m.node_pool[i]].kind == lnic::UnitKind::kChecksumAccel;
      }
    }
  }
  EXPECT_TRUE(csum_on_accel);
  const auto* region = profile.graph.node(m.state_region[0]).memory();
  EXPECT_EQ(region->kind, lnic::MemKind::kEmem);
  EXPECT_GT(m.objective, 0.0);
}

TEST(Mapper, LpmMapsToEngine) {
  const auto profile = lnic::netronome_agilio_cx();
  const Mapper mapper(profile);
  CostHints hints;
  hints.flow_cache_hit_rate = 0.9;
  const auto prep = prepare(nf::build_lpm_nf({.rules = 10000, .use_flow_cache = true}), hints);
  const auto result = mapper.map(prep.graph, hints);
  ASSERT_TRUE(result.ok()) << result.error().message;
  bool lpm_on_engine = false;
  for (std::size_t i = 0; i < prep.graph.nodes().size(); ++i) {
    for (const auto& site : prep.graph.nodes()[i].vcalls) {
      if (site.v == cir::VCall::kLpmLookup) {
        lpm_on_engine = mapper.pools()[result.value().node_pool[i]].kind == lnic::UnitKind::kLpmEngine;
      }
    }
  }
  EXPECT_TRUE(lpm_on_engine);
}

TEST(Mapper, SmallStatePrefersFastMemory) {
  // A small firewall conn table should not end up in EMEM when CTM/IMEM
  // are cheaper and big enough.
  const auto profile = lnic::netronome_agilio_cx();
  const Mapper mapper(profile);
  CostHints hints;
  const auto prep = prepare(nf::build_fw_nf({.conn_entries = 1024, .conn_entry_bytes = 32, .rules = 128}), hints);
  const auto result = mapper.map(prep.graph, hints);
  ASSERT_TRUE(result.ok()) << result.error().message;
  for (const NodeId region : result.value().state_region) {
    EXPECT_NE(profile.graph.node(region).memory()->kind, lnic::MemKind::kEmem);
  }
}

TEST(Mapper, CapacityForcesSpill) {
  // Two state objects that each fit CTM but not together: one must go
  // deeper.
  cir::FunctionBuilder b("two_tables");
  const auto s0 = b.add_state(cir::StateObject{"t0", 64, 2000, cir::StatePattern::kHashTable});  // 128 KiB
  const auto s1 = b.add_state(cir::StateObject{"t1", 64, 2000, cir::StatePattern::kHashTable});  // 128 KiB
  b.set_insert_point(b.create_block("entry"));
  const auto h = b.get_hdr(cir::HdrField::kFlowHash);
  b.vcall(cir::VCall::kTableLookup, {cir::Value::of_imm(s0), h});
  b.vcall(cir::VCall::kTableLookup, {cir::Value::of_imm(s1), h});
  b.vcall(cir::VCall::kEmit, {cir::Value::of_imm(1)}, false);
  b.ret();

  const auto profile = lnic::netronome_agilio_cx();  // CTM = 256 KiB x 0.75 usable
  const Mapper mapper(profile);
  CostHints hints;
  const auto prep = prepare(b.take(), hints);
  const auto result = mapper.map(prep.graph, hints);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const auto& m = result.value();
  // With per-island CTMs, both can be CTM-resident only in *different*
  // CTMs; verify no single region is over capacity.
  std::map<NodeId, double> used;
  for (std::size_t s = 0; s < 2; ++s) {
    used[m.state_region[s]] += 64.0 * 2000.0;
  }
  for (const auto& [region, bytes] : used) {
    const auto* mem = profile.graph.node(region).memory();
    double usable = static_cast<double>(mem->capacity);
    if (mem->kind == lnic::MemKind::kCtm) usable *= 0.75;
    EXPECT_LE(bytes, usable);
  }
}

TEST(Mapper, InfeasibleWhenStateTooBig) {
  cir::FunctionBuilder b("huge");
  const auto s = b.add_state(cir::StateObject{"t", 64, 1ull << 30, cir::StatePattern::kHashTable});  // 64 GiB
  b.set_insert_point(b.create_block("entry"));
  const auto h = b.get_hdr(cir::HdrField::kFlowHash);
  b.vcall(cir::VCall::kTableLookup, {cir::Value::of_imm(s), h});
  b.ret();
  const auto profile = lnic::netronome_agilio_cx();
  const Mapper mapper(profile);
  CostHints hints;
  const auto prep = prepare(b.take(), hints);
  EXPECT_FALSE(mapper.map(prep.graph, hints).ok());
  EXPECT_FALSE(mapper.map_greedy(prep.graph, hints).ok());
}

TEST(Mapper, ThetaRejectsImpossibleRate) {
  // DPI without pattern collapse is NPU-heavy; at an absurd offered rate
  // the Θ service-capacity constraint must bite.
  const auto profile = lnic::netronome_agilio_cx();
  const Mapper mapper(profile);
  CostHints hints;
  hints.params["payload_len"] = 1400.0;
  hints.avg_payload = 1400.0;
  auto fn = lowered(nf::build_dpi_nf(), /*collapse=*/true);
  const auto graph = DataflowGraph::build(fn, hints);
  MapOptions options;
  options.pps = 50e6;  // 50 Mpps of 1400-byte DPI is beyond this NIC
  EXPECT_FALSE(mapper.map(graph, hints, options).ok());
  options.pps = 60'000.0;
  EXPECT_TRUE(mapper.map(graph, hints, options).ok());
}

TEST(Mapper, IlpNeverWorseThanGreedy) {
  const auto profile = lnic::netronome_agilio_cx();
  const Mapper mapper(profile);
  CostHints hints;
  for (auto* builder : {+[] { return nf::build_nat_nf(); }, +[] { return nf::build_fw_nf(); },
                        +[] { return nf::build_hh_nf(); }, +[] { return nf::build_vnf_chain(); }}) {
    const auto prep = prepare(builder(), hints);
    const auto ilp = mapper.map(prep.graph, hints);
    const auto greedy = mapper.map_greedy(prep.graph, hints);
    ASSERT_TRUE(ilp.ok()) << ilp.error().message;
    ASSERT_TRUE(greedy.ok()) << greedy.error().message;
    EXPECT_LE(ilp.value().objective, greedy.value().objective + 1e-6) << prep.fn->name;
  }
}

TEST(Mapper, PipelineAsicRejectsPayloadScan) {
  // The ASIC has only anemic microengines; DPI maps but the Θ capacity
  // dies at moderate rate — and general compute can never reach the MA
  // stages.
  const auto profile = lnic::pipeline_asic_nic();
  const Mapper mapper(profile);
  CostHints hints;
  hints.params["payload_len"] = 1400.0;
  hints.avg_payload = 1400.0;
  const auto prep = prepare(nf::build_dpi_nf(), hints);
  MapOptions options;
  options.pps = 3e6;
  EXPECT_FALSE(mapper.map(prep.graph, hints, options).ok());
}

TEST(Mapper, RewriteMapsOntoAsicStages) {
  // Pure header work should be mappable on the pipeline ASIC.
  const auto profile = lnic::pipeline_asic_nic();
  const Mapper mapper(profile);
  CostHints hints;
  const auto prep = prepare(nf::build_rewrite_nf(), hints);
  const auto result = mapper.map(prep.graph, hints);
  ASSERT_TRUE(result.ok()) << result.error().message;
}

TEST(Mapper, PipelineOrderRespectedOnAsic) {
  const auto profile = lnic::pipeline_asic_nic();
  const Mapper mapper(profile);
  CostHints hints;
  const auto prep = prepare(nf::build_rewrite_nf(), hints);
  const auto result = mapper.map(prep.graph, hints);
  ASSERT_TRUE(result.ok());
  const auto& m = result.value();
  for (const auto& edge : prep.graph.edges()) {
    const int stage_from = mapper.pools()[m.node_pool[edge.from]].pipeline_stage;
    const int stage_to = mapper.pools()[m.node_pool[edge.to]].pipeline_stage;
    EXPECT_LE(stage_from, stage_to);
  }
}

TEST(Mapper, GreedyMarksItself) {
  const auto profile = lnic::netronome_agilio_cx();
  const Mapper mapper(profile);
  CostHints hints;
  const auto prep = prepare(nf::build_hh_nf(), hints);
  const auto greedy = mapper.map_greedy(prep.graph, hints);
  ASSERT_TRUE(greedy.ok());
  EXPECT_TRUE(greedy.value().greedy);
  const auto ilp = mapper.map(prep.graph, hints);
  ASSERT_TRUE(ilp.ok());
  EXPECT_FALSE(ilp.value().greedy);
  EXPECT_GT(ilp.value().ilp_nodes_explored, 0u);
}

TEST(Mapper, ReportMentionsBindings) {
  const auto profile = lnic::netronome_agilio_cx();
  const Mapper mapper(profile);
  CostHints hints;
  const auto prep = prepare(nf::build_nat_nf(), hints);
  const auto result = mapper.map(prep.graph, hints);
  ASSERT_TRUE(result.ok());
  const auto report = describe_mapping(result.value(), prep.graph, mapper, *prep.fn);
  EXPECT_NE(report.find("flow_table"), std::string::npos);
  EXPECT_NE(report.find("checksum"), std::string::npos);
  EXPECT_NE(report.find("emem"), std::string::npos);
}

TEST(Mapper, SocHasNoAccelerCsumChoice) {
  // On the ARM SoC, checksum must run on cores (csum accel is absent) —
  // mapping still succeeds via software fallback.
  const auto profile = lnic::soc_arm_nic();
  const Mapper mapper(profile);
  CostHints hints;
  const auto prep = prepare(nf::build_nat_nf(), hints);
  const auto result = mapper.map(prep.graph, hints);
  ASSERT_TRUE(result.ok()) << result.error().message;
  for (std::size_t i = 0; i < prep.graph.nodes().size(); ++i) {
    for (const auto& site : prep.graph.nodes()[i].vcalls) {
      if (site.v == cir::VCall::kCsum) {
        EXPECT_EQ(mapper.pools()[result.value().node_pool[i]].kind, lnic::UnitKind::kNpuCore);
      }
    }
  }
}

}  // namespace
}  // namespace clara::mapping
