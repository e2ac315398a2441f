// Cross-cutting validation properties: worst-case bounds vs simulator
// tails, throughput predictions vs simulator saturation, and energy
// consistency across the corpus — parameterized over NFs.
#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "core/clara.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"
#include "nicsim/sim.hpp"
#include "workload/tracegen.hpp"

namespace clara {
namespace {

workload::Trace make_trace(const std::string& spec) {
  return workload::generate_trace(workload::parse_profile(spec).value());
}

TEST(Validation, WorstCaseBoundsNatTail) {
  const auto trace = make_trace("tcp=0.8 flows=50000 zipf=0.2 payload=300:1400 pps=60000 packets=30000");
  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto analysis = analyzer.analyze(nf::build_nat_nf(), trace);
  ASSERT_TRUE(analysis.ok()) << analysis.error().message;
  const auto& pred = analysis.value().prediction;
  EXPECT_GT(pred.worst_case_cycles, pred.mean_latency_cycles);

  const auto levels = nf::mapped_levels(analyzer.profile(), analysis.value().mapping.state_region);
  const auto stats = nf::simulate("nat", analysis.value().lowered, levels, trace).value();
  // The WCET-style bound must dominate the simulator's p99.
  EXPECT_GE(pred.worst_case_cycles, stats.p99_latency())
      << "worst-case " << pred.worst_case_cycles << " vs sim p99 " << stats.p99_latency();
  // ... without being uselessly loose.
  EXPECT_LT(pred.worst_case_cycles, stats.p99_latency() * 10.0);
}

TEST(Validation, WorstCaseBoundsLpmTail) {
  const auto trace = make_trace("flows=20000 zipf=0.8 payload=300 pps=60000 packets=20000");
  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto analysis =
      analyzer.analyze(nf::build_lpm_nf({.rules = 10000, .use_flow_cache = true}), trace);
  ASSERT_TRUE(analysis.ok());

  const auto stats = nf::simulate("lpm", trace).value();
  // Worst case = flow-cache miss + deepest walk; must cover sim p99.
  EXPECT_GE(analysis.value().prediction.worst_case_cycles, stats.p99_latency());
}

TEST(Validation, ThroughputPredictionMatchesSaturation) {
  // Offer far more than the device can take; the simulator's achieved
  // rate is its real capacity, which Clara's bottleneck analysis should
  // bracket within a factor of two.
  const auto trace = make_trace("payload=1400 pps=30000000 packets=40000");
  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  core::AnalyzeOptions options;
  options.map.pps = 60'000;  // map for a feasible rate; predict capacity
  const auto analysis = analyzer.analyze(nf::build_dpi_nf(), trace, options);
  ASSERT_TRUE(analysis.ok()) << analysis.error().message;

  const auto stats = nf::simulate("dpi", trace).value();
  ASSERT_GT(stats.drops, 0u);  // genuinely saturated
  const double predicted = analysis.value().prediction.throughput_pps;
  EXPECT_GT(predicted, stats.achieved_pps / 2.0)
      << "predicted " << predicted << " achieved " << stats.achieved_pps;
  EXPECT_LT(predicted, stats.achieved_pps * 2.0)
      << "predicted " << predicted << " achieved " << stats.achieved_pps;
}

class CorpusAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(CorpusAccuracy, MeanLatencyWithin25Percent) {
  // Every NF with a faithful hand-port must predict within 25% on a
  // standard workload (the headline NFs have tighter dedicated tests).
  const auto trace = make_trace("tcp=0.8 flows=5000 payload=400 pps=60000 packets=15000");
  core::Analyzer analyzer(lnic::netronome_agilio_cx());

  // The hand placements (meter -> CTM, the rest -> IMEM) are where the
  // ILP puts these NFs' small states on this profile.
  const char* const kNfs[] = {"heavy-hitter", "meter", "flow-stats", "rewrite", "dpi"};
  const auto fn = nf::find_nf(kNfs[GetParam()])->build();

  auto analysis = analyzer.analyze(fn, trace);
  ASSERT_TRUE(analysis.ok()) << fn.name << ": " << analysis.error().message;
  const auto stats = nf::simulate(kNfs[GetParam()], trace).value();
  const double err = std::abs(analysis.value().prediction.mean_latency_cycles - stats.mean_latency()) /
                     stats.mean_latency();
  EXPECT_LT(err, 0.25) << fn.name << ": predicted " << analysis.value().prediction.mean_latency_cycles
                       << " actual " << stats.mean_latency();
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusAccuracy, ::testing::Range(0, 5));

class PayloadSweepAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(PayloadSweepAccuracy, DpiTracksPayload) {
  const int payload = GetParam();
  const auto trace = make_trace(strf("payload=%d pps=60000 packets=8000", payload));
  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto analysis = analyzer.analyze(nf::build_dpi_nf(), trace);
  ASSERT_TRUE(analysis.ok());

  const auto stats = nf::simulate("dpi", trace).value();
  const double err = std::abs(analysis.value().prediction.mean_latency_cycles - stats.mean_latency()) /
                     stats.mean_latency();
  EXPECT_LT(err, 0.15) << payload << "B";
}

INSTANTIATE_TEST_SUITE_P(Payloads, PayloadSweepAccuracy, ::testing::Values(100, 400, 800, 1200, 1500));

}  // namespace
}  // namespace clara
