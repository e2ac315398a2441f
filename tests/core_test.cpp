// End-to-end tests of the Clara analyzer: the full paper pipeline
// (substitute -> pattern match -> map -> predict) against the simulated
// hardware, prediction-accuracy bounds per NF, per-packet-type profiles,
// ablations, and interference analysis.
#include <gtest/gtest.h>

#include "cir/builder.hpp"
#include "common/strings.hpp"
#include "core/clara.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"
#include "nicsim/sim.hpp"
#include "workload/tracegen.hpp"

namespace clara::core {
namespace {

workload::Trace make_trace(const std::string& spec) {
  return workload::generate_trace(workload::parse_profile(spec).value());
}

/// Replays `trace` through corpus NF `nf`'s hand port of the analyzed
/// function, its tables where the analysis mapped them.
nicsim::RunStats simulate_mapped(const char* nf, const Analyzer& analyzer, const Analysis& analysis,
                                 const workload::Trace& trace, const nf::PortTuning& tuning = {}) {
  const auto levels = nf::mapped_levels(analyzer.profile(), analysis.mapping.state_region);
  return nf::simulate(nf, analysis.lowered, levels, trace, tuning).value();
}

double relative_error(double predicted, double actual) {
  return std::abs(predicted - actual) / actual;
}

TEST(Analyzer, NatAccuracy) {
  const auto trace = make_trace("tcp=0.8 flows=10000 payload=300 pps=60000 packets=50000");
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto analysis = clara_tool.analyze(nf::build_nat_nf(), trace);
  ASSERT_TRUE(analysis.ok()) << analysis.error().message;

  const auto stats = simulate_mapped("nat", clara_tool, analysis.value(), trace);

  // Paper §4 reports 7% for NAT; hold ourselves to 15%.
  EXPECT_LT(relative_error(analysis.value().prediction.mean_latency_cycles, stats.mean_latency()), 0.15);
}

TEST(Analyzer, LpmAccuracyAcrossTableSizes) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  for (const std::uint64_t rules : {5000ull, 15000ull, 30000ull}) {
    const auto trace = make_trace("tcp=0.8 flows=5000 payload=300 pps=60000 packets=30000");
    const auto analysis =
        clara_tool.analyze(nf::build_lpm_nf({.rules = rules, .use_flow_cache = false}), trace);
    ASSERT_TRUE(analysis.ok()) << analysis.error().message;

    const auto stats = simulate_mapped("lpm", clara_tool, analysis.value(), trace, {.flow_cache = false});
    // Paper reports 12% for LPM.
    EXPECT_LT(relative_error(analysis.value().prediction.mean_latency_cycles, stats.mean_latency()), 0.20)
        << rules << " rules: predicted " << analysis.value().prediction.mean_latency_cycles << " actual "
        << stats.mean_latency();
  }
}

TEST(Analyzer, VnfAccuracyAcrossPayloads) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  for (const int payload : {200, 700, 1400}) {
    const auto trace = make_trace(strf("tcp=0.8 flows=4000 payload=%d pps=60000 packets=20000", payload));
    const auto analysis = clara_tool.analyze(nf::build_vnf_chain(), trace);
    ASSERT_TRUE(analysis.ok()) << analysis.error().message;

    const auto stats = simulate_mapped("vnf-chain", clara_tool, analysis.value(), trace);
    // Paper reports 3% for the VNF chain; scan-dominated, so generous 20%.
    EXPECT_LT(relative_error(analysis.value().prediction.mean_latency_cycles, stats.mean_latency()), 0.20)
        << payload << "B: predicted " << analysis.value().prediction.mean_latency_cycles << " actual "
        << stats.mean_latency();
  }
}

TEST(Analyzer, PredictionTracksPayloadGrowth) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  double prev = 0.0;
  for (const int payload : {200, 600, 1000, 1400}) {
    const auto trace = make_trace(strf("payload=%d pps=60000 packets=5000", payload));
    const auto analysis = clara_tool.analyze(nf::build_vnf_chain(), trace);
    ASSERT_TRUE(analysis.ok());
    EXPECT_GT(analysis.value().prediction.mean_latency_cycles, prev);
    prev = analysis.value().prediction.mean_latency_cycles;
  }
}

TEST(Analyzer, PredictionTracksTableGrowth) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("payload=300 pps=60000 packets=5000 flows=5000");
  double prev = 0.0;
  for (const std::uint64_t rules : {5000ull, 15000ull, 30000ull}) {
    const auto analysis =
        clara_tool.analyze(nf::build_lpm_nf({.rules = rules, .use_flow_cache = false}), trace);
    ASSERT_TRUE(analysis.ok());
    EXPECT_GT(analysis.value().prediction.mean_latency_cycles, prev);
    prev = analysis.value().prediction.mean_latency_cycles;
  }
}

TEST(Analyzer, PerPacketTypeProfiles) {
  // Paper §3.5: "TCP SYN packets experience higher latency" (flow setup).
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("tcp=1.0 flows=2000 payload=300 pps=60000 packets=20000");
  const auto analysis = clara_tool.analyze(nf::build_nat_nf(), trace);
  ASSERT_TRUE(analysis.ok());
  double syn_latency = 0.0, established = 0.0;
  for (const auto& cls : analysis.value().prediction.classes) {
    if (cls.syn && cls.new_flow) syn_latency = cls.latency_cycles;
    if (cls.tcp && !cls.syn && !cls.new_flow) established = cls.latency_cycles;
  }
  ASSERT_GT(syn_latency, 0.0);
  ASSERT_GT(established, 0.0);
  EXPECT_GT(syn_latency, established);  // table insert on the SYN path
}

TEST(Analyzer, ClassFractionsSumToOne) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("tcp=0.5 payload=200:1400 pps=60000 packets=10000");
  const auto analysis = clara_tool.analyze(nf::build_fw_nf(), trace);
  ASSERT_TRUE(analysis.ok());
  double total = 0.0;
  for (const auto& cls : analysis.value().prediction.classes) total += cls.fraction;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Analyzer, ReportsSubstitutionAndPatterns) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("packets=2000 pps=60000");
  const auto analysis = clara_tool.analyze(nf::build_vnf_chain(), trace);
  ASSERT_TRUE(analysis.ok());
  EXPECT_GT(analysis.value().substitution.substituted, 0u);
  EXPECT_EQ(analysis.value().patterns.scan_loops, 1u);
  EXPECT_FALSE(analysis.value().report.empty());
}

TEST(Analyzer, UnknownCallsFailByDefault) {
  cir::FunctionBuilder b("weird");
  b.set_insert_point(b.create_block("entry"));
  b.call("proprietary_helper", {}, false);
  b.vcall(cir::VCall::kEmit, {cir::Value::of_imm(1)}, false);
  b.ret();
  const auto fn = b.take();
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("packets=100 pps=60000");
  EXPECT_FALSE(clara_tool.analyze(fn, trace).ok());

  AnalyzeOptions lax;
  lax.fail_on_unknown_calls = false;
  // Still fails later: the interpreter cannot execute unknown calls.
  EXPECT_FALSE(clara_tool.analyze(fn, trace, lax).ok());
}

TEST(Analyzer, GreedyOptionUsesGreedyMapper) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("packets=2000 pps=60000");
  AnalyzeOptions options;
  options.stages = PipelineStages::no_ilp();
  const auto analysis = clara_tool.analyze(nf::build_hh_nf(), trace, options);
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis.value().mapping.greedy);
}

TEST(Analyzer, PatternAblationChangesPrediction) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("payload=1000 pps=60000 packets=3000");
  AnalyzeOptions with;
  AnalyzeOptions without;
  without.stages = PipelineStages::no_patterns();
  const auto a = clara_tool.analyze(nf::build_dpi_nf(), trace, with);
  const auto b = clara_tool.analyze(nf::build_dpi_nf(), trace, without);
  ASSERT_TRUE(a.ok()) << a.error().message;
  ASSERT_TRUE(b.ok()) << b.error().message;
  EXPECT_EQ(a.value().patterns.scan_loops, 1u);
  EXPECT_EQ(b.value().patterns.scan_loops, 0u);
  // Both predict, but through different cost paths.
  EXPECT_GT(a.value().prediction.mean_latency_cycles, 0.0);
  EXPECT_GT(b.value().prediction.mean_latency_cycles, 0.0);
}

TEST(Analyzer, CacheModelAblation) {
  // Disabling the EMEM cache model must increase predicted latency for a
  // cache-friendly EMEM workload (all accesses priced at full DRAM).
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("flows=500 payload=300 pps=60000 packets=10000");
  AnalyzeOptions with_cache;
  AnalyzeOptions no_cache;
  no_cache.predict.model_emem_cache = false;
  const auto a = clara_tool.analyze(nf::build_nat_nf(), trace, with_cache);
  const auto b = clara_tool.analyze(nf::build_nat_nf(), trace, no_cache);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b.value().prediction.mean_latency_cycles, a.value().prediction.mean_latency_cycles);
}

TEST(Analyzer, ThroughputEstimate) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("payload=300 pps=60000 packets=5000");
  const auto analysis = clara_tool.analyze(nf::build_rewrite_nf(), trace);
  ASSERT_TRUE(analysis.ok());
  EXPECT_GT(analysis.value().prediction.throughput_pps, 60000.0);
  EXPECT_FALSE(analysis.value().prediction.bottleneck.empty());
}

TEST(Analyzer, FlowCacheHitRateEstimatedFromSkew) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto skewed = make_trace("flows=50000 zipf=1.3 payload=300 pps=60000 packets=30000");
  const auto uniform = make_trace("flows=50000 zipf=0.0 payload=300 pps=60000 packets=30000");
  const std::size_t buckets = PredictOptions{}.payload_buckets;
  const auto hints_skewed = summarize(skewed, clara_tool.profile(), buckets).hints;
  const auto hints_uniform = summarize(uniform, clara_tool.profile(), buckets).hints;
  EXPECT_GT(hints_skewed.flow_cache_hit_rate, hints_uniform.flow_cache_hit_rate);
}

TEST(Analyzer, RateEstimatorPaysFpPenalty) {
  // The EWMA NF uses floating point; on the Netronome it is emulated, on
  // the ARM SoC it is native — relative cost should reflect that.
  const auto trace = make_trace("payload=300 pps=60000 packets=5000");
  Analyzer netronome(lnic::netronome_agilio_cx());
  Analyzer soc(lnic::soc_arm_nic());
  const auto on_npu = netronome.analyze(nf::build_rate_estimator_nf(), trace);
  const auto on_arm = soc.analyze(nf::build_rate_estimator_nf(), trace);
  ASSERT_TRUE(on_npu.ok()) << on_npu.error().message;
  ASSERT_TRUE(on_arm.ok()) << on_arm.error().message;
  // Compare cycles normalized by clock (latency in seconds).
  EXPECT_GT(on_npu.value().prediction.mean_latency_us, on_arm.value().prediction.mean_latency_us);
}

TEST(Analyzer, CrossNicComparison) {
  // The paper's "which SmartNIC model is best suited" use case: the two
  // backends should rank differently on different axes. For miss-heavy
  // large-table LPM, the SoC's software radix (flat cost curve, 2 GHz
  // cores) beats the Netronome's DRAM match-action walk on latency; the
  // Netronome's 224-way thread parallelism wins on throughput for the
  // same workload.
  const auto trace = make_trace("flows=30000 zipf=0.2 payload=300 pps=60000 packets=20000");
  const auto lpm = nf::build_lpm_nf({.rules = 20000, .use_flow_cache = true});
  Analyzer netronome(lnic::netronome_agilio_cx());
  Analyzer soc(lnic::soc_arm_nic());
  const auto a = netronome.analyze(lpm, trace);
  const auto b = soc.analyze(lpm, trace);
  ASSERT_TRUE(a.ok()) << a.error().message;
  ASSERT_TRUE(b.ok()) << b.error().message;
  EXPECT_GT(a.value().prediction.mean_latency_us, b.value().prediction.mean_latency_us);
  // Flow-cache-friendly traffic closes most of the latency gap.
  const auto skewed = make_trace("flows=2000 zipf=1.3 payload=300 pps=60000 packets=20000");
  const auto a2 = netronome.analyze(lpm, skewed);
  ASSERT_TRUE(a2.ok());
  EXPECT_LT(a2.value().prediction.mean_latency_us, a.value().prediction.mean_latency_us / 2.0);
}

TEST(Interference, SlicingDegradesPerformance) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("flows=20000 payload=800 pps=200000 packets=20000");
  AnalyzeOptions solo;
  AnalyzeOptions shared;
  shared.predict.nic_share = 0.5;
  shared.predict.foreign_cache_pressure_bytes = 8.0 * 1024 * 1024;
  const auto a = clara_tool.analyze(nf::build_nat_nf(), trace, solo);
  const auto b = clara_tool.analyze(nf::build_nat_nf(), trace, shared);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b.value().prediction.mean_latency_cycles, a.value().prediction.mean_latency_cycles);
  EXPECT_LT(b.value().prediction.emem_cache_hit_rate, a.value().prediction.emem_cache_hit_rate);
}

TEST(Interference, CoResidentAnalysis) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace_a = make_trace("flows=20000 payload=300 pps=100000 packets=10000");
  const auto trace_b = make_trace("payload=1000 pps=100000 packets=10000 seed=9");
  const auto result =
      clara_tool.coresident(nf::build_nat_nf(), trace_a, nf::build_dpi_nf(), trace_b);
  ASSERT_TRUE(result.ok()) << result.error().message;
  // Both NFs see a half-NIC: their solo predictions should be no worse.
  const auto solo_a = clara_tool.analyze(nf::build_nat_nf(), trace_a);
  ASSERT_TRUE(solo_a.ok());
  EXPECT_GE(result.value().first.prediction.mean_latency_cycles,
            solo_a.value().prediction.mean_latency_cycles);
}

TEST(Analyzer, EmptyTraceRejected) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  workload::Trace empty;
  EXPECT_FALSE(clara_tool.analyze(nf::build_rewrite_nf(), empty).ok());
}

TEST(Analyzer, AllNfsAnalyzeOnNetronome) {
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("payload=300 pps=60000 packets=3000");
  for (const auto& entry : nf::corpus()) {
    const auto fn = entry.build();
    const auto analysis = clara_tool.analyze(fn, trace);
    EXPECT_TRUE(analysis.ok()) << fn.name << ": " << (analysis.ok() ? "" : analysis.error().message);
    if (analysis.ok()) {
      EXPECT_GT(analysis.value().prediction.mean_latency_cycles, 0.0) << fn.name;
      EXPECT_GT(analysis.value().prediction.throughput_pps, 0.0) << fn.name;
    }
  }
}

}  // namespace
}  // namespace clara::core
