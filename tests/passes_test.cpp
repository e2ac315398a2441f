// Tests for analysis passes: CFG/dominators/loops, block frequencies,
// API substitution, idiom pattern matching, the cost model, and dataflow
// graph construction.
#include <gtest/gtest.h>

#include <bit>
#include <utility>

#include "cir/builder.hpp"
#include "cir/verify.hpp"
#include "lnic/profiles.hpp"
#include "microbench/microbench.hpp"
#include "nf/nf_cir.hpp"
#include "passes/api_subst.hpp"
#include "passes/cfg.hpp"
#include "passes/costmodel.hpp"
#include "passes/dataflow.hpp"
#include "passes/patterns.hpp"

namespace clara::passes {
namespace {

using cir::FunctionBuilder;
using cir::Value;

cir::Function diamond_fn() {
  FunctionBuilder b("diamond");
  const auto entry = b.create_block("entry");
  const auto left = b.create_block("left");
  const auto right = b.create_block("right");
  const auto join = b.create_block("join");
  b.set_insert_point(entry);
  const auto cond = b.cmp_eq(Value::of_imm(1), Value::of_imm(1));
  b.cond_br(cond, left, right);
  b.set_insert_point(left);
  b.br(join);
  b.set_insert_point(right);
  b.br(join);
  b.set_insert_point(join);
  b.ret();
  return b.take();
}

TEST(CfgTest, PredsAndSuccs) {
  const auto fn = diamond_fn();
  const Cfg cfg(fn);
  EXPECT_EQ(cfg.succs(0).size(), 2u);
  EXPECT_EQ(cfg.preds(3).size(), 2u);
  EXPECT_EQ(cfg.preds(0).size(), 0u);
}

TEST(CfgTest, RpoStartsAtEntryEndsAtExit) {
  const auto fn = diamond_fn();
  const Cfg cfg(fn);
  ASSERT_EQ(cfg.rpo().size(), 4u);
  EXPECT_EQ(cfg.rpo().front(), 0u);
  EXPECT_EQ(cfg.rpo().back(), 3u);
}

TEST(CfgTest, Dominators) {
  const auto fn = diamond_fn();
  const Cfg cfg(fn);
  EXPECT_TRUE(cfg.dominates(0, 3));
  EXPECT_TRUE(cfg.dominates(0, 1));
  EXPECT_FALSE(cfg.dominates(1, 3));  // join reachable via right too
  EXPECT_TRUE(cfg.dominates(3, 3));
  EXPECT_EQ(cfg.idom(3), 0u);
}

TEST(CfgTest, UnreachableBlockExcluded) {
  FunctionBuilder b("f");
  const auto entry = b.create_block("entry");
  b.create_block("orphan");
  const auto orphan = 1u;
  b.set_insert_point(entry);
  b.ret();
  b.set_insert_point(orphan);
  b.ret();
  const auto fn = b.take();
  const Cfg cfg(fn);
  EXPECT_TRUE(cfg.reachable(0));
  EXPECT_FALSE(cfg.reachable(1));
  EXPECT_EQ(cfg.rpo().size(), 1u);
}

TEST(CfgTest, FindsNaturalLoop) {
  const auto fn = nf::build_dpi_nf();
  const Cfg cfg(fn);
  const auto loops = find_loops(fn, cfg);
  ASSERT_EQ(loops.size(), 1u);
  const auto loop_block = fn.find_block("scan_loop");
  EXPECT_EQ(loops[0].header, loop_block);
  EXPECT_EQ(loops[0].latch, loop_block);
  EXPECT_EQ(loops[0].body.size(), 1u);
}

TEST(CfgTest, NoLoopsInDiamond) {
  const auto fn = diamond_fn();
  const Cfg cfg(fn);
  EXPECT_TRUE(find_loops(fn, cfg).empty());
}

TEST(Frequencies, DiamondSplitsFlow) {
  const auto fn = diamond_fn();
  const Cfg cfg(fn);
  const auto freq = estimate_block_frequencies(fn, cfg, 0.5, {});
  EXPECT_DOUBLE_EQ(freq[0], 1.0);
  EXPECT_DOUBLE_EQ(freq[1], 0.5);
  EXPECT_DOUBLE_EQ(freq[2], 0.5);
  EXPECT_DOUBLE_EQ(freq[3], 1.0);
}

TEST(Frequencies, BiasedBranch) {
  const auto fn = diamond_fn();
  const Cfg cfg(fn);
  const auto freq = estimate_block_frequencies(fn, cfg, 0.9, {});
  EXPECT_DOUBLE_EQ(freq[1], 0.9);  // target0 = left
  EXPECT_NEAR(freq[2], 0.1, 1e-12);
}

TEST(Frequencies, TripMultiplier) {
  const auto fn = nf::build_dpi_nf();
  const Cfg cfg(fn);
  const auto freq = estimate_block_frequencies(fn, cfg, 0.5, {{"payload_len", 200.0}});
  const auto loop = fn.find_block("scan_loop");
  // entry flow 1.0, branch prob to loop 0.5, trip 200 -> 100 executions.
  EXPECT_NEAR(freq[loop], 100.0, 1e-9);
}

TEST(ApiSubst, RewritesDpdkCalls) {
  auto fn = nf::build_nat_nf();
  const auto report = substitute_framework_apis(fn);
  EXPECT_GE(report.substituted, 4u);  // mtod, hash_lookup, add_key, cksum, tx_burst
  EXPECT_TRUE(report.unknown_calls.empty());
  // All calls are now canonical vcalls.
  for (const auto& block : fn.blocks) {
    for (const auto& instr : block.instrs) {
      if (instr.op == cir::Opcode::kCall) EXPECT_TRUE(cir::is_vcall(instr.callee)) << instr.callee;
    }
  }
  EXPECT_TRUE(cir::verify(fn).ok());
}

TEST(ApiSubst, LpmGetsFlowCacheDefault) {
  auto fn = nf::build_lpm_nf({.rules = 1000, .use_flow_cache = true});
  substitute_framework_apis(fn);
  bool found = false;
  for (const auto& block : fn.blocks) {
    for (const auto& instr : block.instrs) {
      if (instr.op == cir::Opcode::kCall && instr.callee == "vcall_lpm_lookup") {
        found = true;
        ASSERT_EQ(instr.args.size(), 3u);
        EXPECT_TRUE(instr.args[2].is_imm());
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(ApiSubst, ReportsUnknownCalls) {
  FunctionBuilder b("f");
  b.set_insert_point(b.create_block("entry"));
  b.call("my_mystery_helper", {}, false);
  b.ret();
  auto fn = b.take();
  const auto report = substitute_framework_apis(fn);
  EXPECT_EQ(report.substituted, 0u);
  ASSERT_EQ(report.unknown_calls.size(), 1u);
  EXPECT_EQ(report.unknown_calls[0], "my_mystery_helper");
}

TEST(ApiSubst, IdempotentOnCanonical) {
  auto fn = nf::build_fw_nf();
  substitute_framework_apis(fn);
  const auto again = substitute_framework_apis(fn);
  EXPECT_EQ(again.substituted, 0u);
}

TEST(Patterns, CollapsesScanLoop) {
  auto fn = nf::build_dpi_nf();
  const auto report = collapse_packet_loops(fn);
  EXPECT_EQ(report.scan_loops, 1u);
  EXPECT_EQ(report.csum_loops, 0u);
  EXPECT_TRUE(cir::verify(fn).ok()) << cir::verify(fn).error().message;
  // The loop block is now a single vcall + br, no longer self-looping.
  const auto loop = fn.find_block("scan_loop");
  ASSERT_NE(loop, ~0u);
  ASSERT_EQ(fn.blocks[loop].instrs.size(), 2u);
  EXPECT_EQ(fn.blocks[loop].instrs[0].callee, "vcall_payload_scan");
  EXPECT_FALSE(fn.blocks[loop].has_trip);
}

TEST(Patterns, CollapsesCsumLoop) {
  auto fn = nf::build_csum_loop_nf();
  const auto report = collapse_packet_loops(fn);
  EXPECT_EQ(report.csum_loops, 1u);
  EXPECT_EQ(report.scan_loops, 0u);
  EXPECT_TRUE(cir::verify(fn).ok());
  const auto loop = fn.find_block("sum_loop");
  EXPECT_EQ(fn.blocks[loop].instrs[0].callee, "vcall_csum");
}

TEST(Patterns, LeavesNonIdiomLoopsAlone) {
  // A loop over *state* memory is not a packet-byte idiom.
  FunctionBuilder b("f");
  const auto state = b.add_state(cir::StateObject{"s", 8, 64, cir::StatePattern::kArray});
  const auto entry = b.create_block("entry");
  const auto loop = b.create_block("loop");
  const auto out = b.create_block("out");
  b.set_insert_point(entry);
  b.br(loop);
  b.set_insert_point(loop);
  const auto i = b.phi();
  const auto v = b.load_state(state, i);
  (void)v;
  const auto i1 = b.add(i, Value::of_imm(1));
  const auto more = b.cmp_lt(i1, Value::of_imm(64));
  b.cond_br(more, loop, out);
  b.add_incoming(i, Value::of_imm(0), entry);
  b.add_incoming(i, i1, loop);
  b.set_insert_point(out);
  b.ret();
  auto fn = b.take();
  const auto report = collapse_packet_loops(fn);
  EXPECT_EQ(report.total(), 0u);
}

TEST(Patterns, VnfLoopCollapses) {
  auto fn = nf::build_vnf_chain();
  const auto report = collapse_packet_loops(fn);
  EXPECT_EQ(report.scan_loops, 1u);
  EXPECT_TRUE(cir::verify(fn).ok());
}

TEST(InstrMixTest, CountsClasses) {
  auto fn = nf::build_nat_nf();
  substitute_framework_apis(fn);
  const auto translate = fn.find_block("translate");
  const auto mix = instr_mix(fn.blocks[translate], 0, fn.blocks[translate].instrs.size());
  EXPECT_GE(mix.alu, 1u);  // the xor
  EXPECT_EQ(mix.mul, 0u);
  EXPECT_GE(mix.branch, 0u);
}

TEST(InstrMixTest, StateAccessesCounted) {
  auto fn = nf::build_hh_nf();
  substitute_framework_apis(fn);
  InstrMix total;
  for (const auto& block : fn.blocks) total.add(instr_mix(block, 0, block.instrs.size()));
  EXPECT_EQ(total.state_reads.at(0), 1u);  // the explicit counter read-back
}

TEST(InstrMixTest, AddMerges) {
  InstrMix a, b;
  a.alu = 2;
  a.state_reads[0] = 1;
  b.alu = 3;
  b.state_reads[0] = 2;
  b.state_writes[1] = 4;
  a.add(b);
  EXPECT_EQ(a.alu, 5u);
  EXPECT_EQ(a.state_reads[0], 3u);
  EXPECT_EQ(a.state_writes[1], 4u);
}

TEST(CostModel, VcallSupportMatrix) {
  using cir::VCall;
  using lnic::UnitKind;
  EXPECT_TRUE(unit_supports_vcall(UnitKind::kNpuCore, false, VCall::kCrypto));
  EXPECT_TRUE(unit_supports_vcall(UnitKind::kChecksumAccel, false, VCall::kCsum));
  EXPECT_FALSE(unit_supports_vcall(UnitKind::kChecksumAccel, false, VCall::kCrypto));
  EXPECT_FALSE(unit_supports_vcall(UnitKind::kHeaderEngine, false, VCall::kTableLookup));  // parser
  EXPECT_TRUE(unit_supports_vcall(UnitKind::kHeaderEngine, true, VCall::kTableLookup));    // MA stage
  EXPECT_FALSE(unit_supports_vcall(UnitKind::kLpmEngine, false, VCall::kCsum));
  EXPECT_TRUE(unit_supports_vcall(UnitKind::kLpmEngine, false, VCall::kLpmLookup));
}

TEST(CostModel, GeneralComputeSupport) {
  using lnic::UnitKind;
  InstrMix clean;
  clean.alu = 3;
  clean.cmp = 1;
  EXPECT_TRUE(unit_supports_general_compute(UnitKind::kNpuCore, false, clean));
  EXPECT_TRUE(unit_supports_general_compute(UnitKind::kHeaderEngine, true, clean));
  EXPECT_FALSE(unit_supports_general_compute(UnitKind::kHeaderEngine, false, clean));
  InstrMix heavy = clean;
  heavy.mul = 1;
  EXPECT_FALSE(unit_supports_general_compute(UnitKind::kHeaderEngine, true, heavy));
  InstrMix empty;
  EXPECT_TRUE(unit_supports_general_compute(UnitKind::kChecksumAccel, false, empty));
  EXPECT_FALSE(unit_supports_general_compute(UnitKind::kChecksumAccel, false, clean));
}

TEST(CostModel, CsumAccelVsSoftware) {
  const Prices prices(lnic::netronome_agilio_cx().params);
  CostHints hints;
  const double accel =
      vcall_compute_cycles(cir::VCall::kCsum, lnic::UnitKind::kChecksumAccel, 1000.0, nullptr, prices, hints);
  const double sw =
      vcall_compute_cycles(cir::VCall::kCsum, lnic::UnitKind::kNpuCore, 1000.0, nullptr, prices, hints);
  EXPECT_NEAR(accel, 300.0, 1.0);
  EXPECT_NEAR(sw - accel, 1700.0, 1.0);  // the paper's "1700 extra cycles"
}

TEST(CostModel, LpmEngineUsesFlowCacheHitRate) {
  const Prices prices(lnic::netronome_agilio_cx().params);
  cir::StateObject table{"routes", 16, 10000, cir::StatePattern::kArray};
  CostHints all_hit;
  all_hit.flow_cache_hit_rate = 1.0;
  CostHints all_miss;
  all_miss.flow_cache_hit_rate = 0.0;
  const double hit =
      vcall_compute_cycles(cir::VCall::kLpmLookup, lnic::UnitKind::kLpmEngine, 0, &table, prices, all_hit);
  const double miss =
      vcall_compute_cycles(cir::VCall::kLpmLookup, lnic::UnitKind::kLpmEngine, 0, &table, prices, all_miss);
  EXPECT_NEAR(hit, 200.0, 1.0);
  EXPECT_GT(miss, 100000.0);  // DRAM table walk at 10k entries
}

TEST(CostModel, LpmCostGrowsWithEntries) {
  const Prices prices(lnic::netronome_agilio_cx().params);
  CostHints miss;
  miss.flow_cache_hit_rate = 0.0;
  double prev = 0.0;
  for (std::uint64_t entries : {5000ull, 10000ull, 20000ull, 30000ull}) {
    cir::StateObject table{"routes", 16, entries, cir::StatePattern::kArray};
    const double cost =
        vcall_compute_cycles(cir::VCall::kLpmLookup, lnic::UnitKind::kLpmEngine, 0, &table, prices, miss);
    EXPECT_GT(cost, prev);
    prev = cost;
  }
}

TEST(CostModel, StateAccessCounts) {
  cir::StateObject table{"t", 64, 65536, cir::StatePattern::kHashTable};
  EXPECT_DOUBLE_EQ(vcall_state_accesses(cir::VCall::kTableLookup, lnic::UnitKind::kNpuCore, &table), 2.0);
  EXPECT_DOUBLE_EQ(vcall_state_accesses(cir::VCall::kTableLookup, lnic::UnitKind::kHeaderEngine, &table), 1.0);
  // LPM walk memory costs live in the kLpmDram curve on every unit kind.
  EXPECT_DOUBLE_EQ(vcall_state_accesses(cir::VCall::kLpmLookup, lnic::UnitKind::kLpmEngine, &table), 0.0);
  EXPECT_DOUBLE_EQ(vcall_state_accesses(cir::VCall::kLpmLookup, lnic::UnitKind::kNpuCore, &table), 0.0);
  EXPECT_DOUBLE_EQ(vcall_state_accesses(cir::VCall::kCsum, lnic::UnitKind::kNpuCore, nullptr), 0.0);
}

TEST(CostModel, PacketAccessResidencySplit) {
  const Prices prices(lnic::netronome_agilio_cx().params);
  // Small packet: all CTM.
  EXPECT_NEAR(packet_access_cycles(300.0, -1.0, prices), 50.0, 1e-9);
  // Large packet: average between CTM head and EMEM tail.
  const double large = packet_access_cycles(2048.0, -1.0, prices);
  EXPECT_GT(large, 50.0);
  EXPECT_LT(large, 500.0);
  // Offset-directed access.
  EXPECT_NEAR(packet_access_cycles(2048.0, 100.0, prices), 50.0, 1e-9);
  EXPECT_NEAR(packet_access_cycles(2048.0, 1500.0, prices), 500.0, 1e-9);
}

TEST(CostModel, FpEmulationPenalty) {
  const Prices netronome(lnic::netronome_agilio_cx().params);
  const Prices soc(lnic::soc_arm_nic().params);
  InstrMix mix;
  mix.fp = 4;
  const double on_npu = mix_compute_cycles(mix, lnic::UnitKind::kNpuCore, netronome);
  const double on_arm = mix_compute_cycles(mix, lnic::UnitKind::kNpuCore, soc);
  EXPECT_GT(on_npu, 10.0 * on_arm);  // no FPU on the NPU
}

/// Checks that the price table built from `params` holds, field for
/// field, what the store answers: each scalar bit for bit, and each curve
/// evaluating as ParameterStore::eval does at every knot, midway between
/// knots and beyond both ends.
void expect_prices_equal_store(const lnic::ParameterStore& params, const std::string& label) {
  namespace keys = lnic::keys;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const Prices prices(params);
  const std::pair<const char*, double Prices::*> scalars[] = {
      {keys::kMemReadLocal, &Prices::mem_read_local},
      {keys::kMemReadCtm, &Prices::mem_read_ctm},
      {keys::kMemReadImem, &Prices::mem_read_imem},
      {keys::kMemReadEmem, &Prices::mem_read_emem},
      {keys::kEmemCacheHit, &Prices::emem_cache_hit},
      {keys::kInstrAlu, &Prices::instr_alu},
      {keys::kInstrMul, &Prices::instr_mul},
      {keys::kInstrDiv, &Prices::instr_div},
      {keys::kInstrBranch, &Prices::instr_branch},
      {keys::kInstrMove, &Prices::instr_move},
      {keys::kInstrFpEmulation, &Prices::instr_fp_emulation},
      {keys::kParseBase, &Prices::parse_base},
      {keys::kParsePerByte, &Prices::parse_per_byte},
      {keys::kCsumSwExtra, &Prices::csum_sw_extra},
      {keys::kCryptoSwFactor, &Prices::crypto_sw_factor},
      {keys::kFlowCacheHit, &Prices::flow_cache_hit},
      {keys::kFlowCacheCapacity, &Prices::flow_cache_capacity},
      {keys::kIngressDmaBase, &Prices::ingress_base},
      {keys::kIngressDmaPerByte, &Prices::ingress_per_byte},
      {keys::kEgressBase, &Prices::egress_base},
      {keys::kCtmPacketResidency, &Prices::ctm_packet_residency},
      {keys::kSpillPerByte, &Prices::spill_per_byte},
      {keys::kHubService, &Prices::hub_service},
      {keys::kClockHz, &Prices::clock_hz},
  };
  for (const auto& [key, field] : scalars) {
    EXPECT_EQ(bits(prices.*field), bits(params.scalar(key))) << label << ": " << key;
  }
  EXPECT_EQ(bits(prices.mem_read(lnic::MemKind::kLocal)), bits(params.scalar(keys::kMemReadLocal))) << label;
  EXPECT_EQ(bits(prices.mem_read(lnic::MemKind::kCtm)), bits(params.scalar(keys::kMemReadCtm))) << label;
  EXPECT_EQ(bits(prices.mem_read(lnic::MemKind::kImem)), bits(params.scalar(keys::kMemReadImem))) << label;
  EXPECT_EQ(bits(prices.mem_read(lnic::MemKind::kEmem)), bits(params.scalar(keys::kMemReadEmem))) << label;

  const std::pair<const char*, lnic::PiecewiseLinear Prices::*> curves[] = {
      {keys::kCsumAccel, &Prices::csum_accel},
      {keys::kCryptoAccel, &Prices::crypto_accel},
      {keys::kLpmDram, &Prices::lpm_dram},
  };
  for (const auto& [key, field] : curves) {
    std::vector<double> xs = {-1.0, 0.0, 1.0, 1e9};
    if (const auto* curve = params.try_curve(key)) {
      const auto& points = curve->points();
      xs = {points.front().first - 1.0, points.back().first + 1.0};
      for (std::size_t i = 0; i < points.size(); ++i) {
        xs.push_back(points[i].first);
        if (i + 1 < points.size()) xs.push_back((points[i].first + points[i + 1].first) / 2.0);
      }
    }
    for (const double x : xs) {
      EXPECT_EQ(bits((prices.*field).eval(x)), bits(params.eval(key, x))) << label << ": " << key << " at " << x;
    }
  }
}

TEST(CostModel, PriceTableEqualsTheStoreForEveryProfile) {
  for (const auto& profile : lnic::all_profiles()) expect_prices_equal_store(profile.params, profile.name);
  const auto extracted =
      microbench::extract_parameters(nicsim::netronome_config(), lnic::netronome_agilio_cx().params);
  expect_prices_equal_store(extracted.params, "microbench-extracted");
}

// A store may give a curve key a scalar, which eval reads as constant.
TEST(CostModel, PriceTableReadsCurveKeysGivenAsScalars) {
  const auto profile = lnic::netronome_agilio_cx();
  lnic::ParameterStore scalars_only;
  for (const auto& key : profile.params.keys()) {
    scalars_only.set_scalar(key, profile.params.try_scalar(key).value_or(1234.5));
  }
  ASSERT_EQ(scalars_only.try_curve(lnic::keys::kCsumAccel), nullptr);
  expect_prices_equal_store(scalars_only, "scalars-only");
  EXPECT_EQ(Prices(scalars_only).lpm_dram.eval(30000.0), 1234.5);
}

TEST(Dataflow, IsolatesAccelVcalls) {
  auto fn = nf::build_nat_nf();
  substitute_framework_apis(fn);
  CostHints hints;
  const auto graph = DataflowGraph::build(fn, hints);
  int accel_nodes = 0;
  for (const auto& node : graph.nodes()) {
    if (node.accel_candidate) {
      ++accel_nodes;
      EXPECT_EQ(node.end - node.begin, 1u);
      ASSERT_EQ(node.vcalls.size(), 1u);
      EXPECT_TRUE(is_accel_vcall(node.vcalls[0].v));
    }
  }
  EXPECT_EQ(accel_nodes, 2);  // parse + csum
}

TEST(Dataflow, NodeOfCoversAllInstrs) {
  auto fn = nf::build_fw_nf();
  substitute_framework_apis(fn);
  CostHints hints;
  const auto graph = DataflowGraph::build(fn, hints);
  for (std::uint32_t blk = 0; blk < fn.blocks.size(); ++blk) {
    for (std::uint32_t i = 0; i < fn.blocks[blk].instrs.size(); ++i) {
      const auto node = graph.node_of(blk, i);
      ASSERT_NE(node, ~0u) << "block " << blk << " instr " << i;
      EXPECT_EQ(graph.nodes()[node].block, blk);
      EXPECT_GE(i, graph.nodes()[node].begin);
      EXPECT_LT(i, graph.nodes()[node].end);
    }
  }
}

TEST(Dataflow, EdgesFollowCfg) {
  auto fn = nf::build_fw_nf();
  substitute_framework_apis(fn);
  CostHints hints;
  const auto graph = DataflowGraph::build(fn, hints);
  // Every edge connects existing nodes and stays within weight bounds.
  for (const auto& edge : graph.edges()) {
    EXPECT_LT(edge.from, graph.size());
    EXPECT_LT(edge.to, graph.size());
    EXPECT_GT(edge.weight, 0.0);
    EXPECT_LE(edge.weight, 1.0 + 1e-9);
  }
  EXPECT_GT(graph.edges().size(), 0u);
}

TEST(Dataflow, WeightsReflectBranching) {
  auto fn = nf::build_fw_nf();
  substitute_framework_apis(fn);
  CostHints hints;
  hints.branch_prob = 0.5;
  const auto graph = DataflowGraph::build(fn, hints);
  const auto entry_blk = fn.find_block("entry");
  const auto reject_blk = fn.find_block("reject");
  double entry_weight = 0.0, reject_weight = 0.0;
  for (const auto& node : graph.nodes()) {
    if (node.block == entry_blk) entry_weight = node.weight;
    if (node.block == reject_blk) reject_weight = node.weight;
  }
  EXPECT_DOUBLE_EQ(entry_weight, 1.0);
  EXPECT_GT(reject_weight, 0.0);
  EXPECT_LT(reject_weight, 1.0);
}

}  // namespace
}  // namespace clara::passes
