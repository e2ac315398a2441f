// Cache subsystem tests (ctest label `cache`): hit/miss/eviction
// accounting of the content-addressed analysis cache, bit-identical
// results cache-on vs cache-off at every jobs level, deterministic
// deadline degradation, cache-key sensitivity to every Π/Γ/Θ, option
// and workload-profile input, and the summary stage answering for a
// generated trace bit-identically.
#include <gtest/gtest.h>

#include <memory>

#include "cir/builder.hpp"
#include "cir/hash.hpp"
#include "common/parallel.hpp"
#include "core/cache.hpp"
#include "core/clara.hpp"
#include "lnic/params.hpp"
#include "lnic/profiles.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"
#include "obs/metrics.hpp"
#include "workload/tracegen.hpp"

namespace clara::core {
namespace {

class JobsGuard {
 public:
  explicit JobsGuard(std::size_t n) : saved_(parallel::jobs()) { parallel::set_jobs(n); }
  ~JobsGuard() { parallel::set_jobs(saved_); }

 private:
  std::size_t saved_;
};

/// Clears and reconfigures the process-wide cache on entry and restores
/// the default configuration on exit, so tests don't see each other's
/// entries or counters.
class CacheGuard {
 public:
  explicit CacheGuard(CacheConfig config = {}) {
    analysis_cache().clear();
    analysis_cache().configure(config);
  }
  ~CacheGuard() {
    analysis_cache().clear();
    analysis_cache().configure(CacheConfig{});
  }
};

workload::Trace make_trace(const std::string& spec) {
  return workload::generate_trace(workload::parse_profile(spec).value());
}

void expect_same_analysis(const Analysis& a, const Analysis& b, const std::string& what) {
  EXPECT_EQ(a.mapping.node_pool, b.mapping.node_pool) << what;
  EXPECT_EQ(a.mapping.state_region, b.mapping.state_region) << what;
  EXPECT_EQ(a.mapping.objective, b.mapping.objective) << what;
  EXPECT_EQ(a.mapping.greedy, b.mapping.greedy) << what;
  EXPECT_EQ(a.degraded, b.degraded) << what;
  EXPECT_EQ(a.prediction.mean_latency_cycles, b.prediction.mean_latency_cycles) << what;
  EXPECT_EQ(a.prediction.worst_case_cycles, b.prediction.worst_case_cycles) << what;
  EXPECT_EQ(a.prediction.throughput_pps, b.prediction.throughput_pps) << what;
  EXPECT_EQ(a.prediction.bottleneck, b.prediction.bottleneck) << what;
  EXPECT_EQ(a.report, b.report) << what;
}

TEST(AnalysisCacheTest, RepeatedAnalyzeHitsEveryStage) {
  CacheGuard guard;
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000");

  const auto cold = clara_tool.analyze(nf::build_nat_nf(), trace);
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  auto stats = analysis_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);  // lowered + graph + mapping
  EXPECT_GT(stats.bytes, 0u);

  const auto warm = clara_tool.analyze(nf::build_nat_nf(), trace);
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  stats = analysis_cache().stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
  expect_same_analysis(cold.value(), warm.value(), "cold vs warm");
}

TEST(AnalysisCacheTest, WarmPassSkipsIlpSolves) {
  CacheGuard guard;
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000");

  ASSERT_TRUE(clara_tool.analyze(nf::build_hh_nf(), trace).ok());
  auto& solves = obs::metrics().counter("ilp/solves");
  const std::uint64_t before = solves.value();
  ASSERT_TRUE(clara_tool.analyze(nf::build_hh_nf(), trace).ok());
  EXPECT_EQ(solves.value(), before) << "warm pass must not re-run the ILP";
  EXPECT_GT(analysis_cache().stats().hits, 0u);
}

TEST(AnalysisCacheTest, CacheOnOffBitIdenticalAcrossJobs) {
  const auto trace = make_trace("tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000");
  AnalyzeOptions off;
  off.use_cache = false;

  // jobs=1, cache off: the reference result everything must equal.
  std::unique_ptr<Analysis> reference;
  {
    JobsGuard jobs(1);
    Analyzer clara_tool(lnic::netronome_agilio_cx());
    auto r = clara_tool.analyze(nf::build_nat_nf(), trace, off);
    ASSERT_TRUE(r.ok()) << r.error().message;
    reference = std::make_unique<Analysis>(std::move(r).value());
  }

  for (const std::size_t jobs_level : {1u, 2u, 8u}) {
    JobsGuard jobs(jobs_level);
    Analyzer clara_tool(lnic::netronome_agilio_cx());
    const std::string tag = "jobs=" + std::to_string(jobs_level);

    auto uncached = clara_tool.analyze(nf::build_nat_nf(), trace, off);
    ASSERT_TRUE(uncached.ok()) << tag;
    expect_same_analysis(*reference, uncached.value(), tag + " cache=off");

    CacheGuard guard;
    auto cold = clara_tool.analyze(nf::build_nat_nf(), trace);
    ASSERT_TRUE(cold.ok()) << tag;
    expect_same_analysis(*reference, cold.value(), tag + " cache=on cold");
    auto warm = clara_tool.analyze(nf::build_nat_nf(), trace);
    ASSERT_TRUE(warm.ok()) << tag;
    expect_same_analysis(*reference, warm.value(), tag + " cache=on warm");
    EXPECT_GE(analysis_cache().stats().hits, 3u) << tag;
  }
}

// A mapping hit reuses the porting report its entry keeps: for every
// corpus NF it must read as the one a cold or an uncached analysis
// renders.
TEST(AnalysisCacheTest, WarmReportEqualsColdForEveryCorpusNf) {
  CacheGuard guard;
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000");
  AnalyzeOptions off;
  off.use_cache = false;
  for (const auto& entry : nf::corpus()) {
    const auto fn = entry.build();
    const auto cold = clara_tool.analyze(fn, trace);
    ASSERT_TRUE(cold.ok()) << entry.name << ": " << cold.error().message;
    const std::uint64_t hits_before = analysis_cache().stats().hits;
    const auto warm = clara_tool.analyze(fn, trace);
    ASSERT_TRUE(warm.ok()) << entry.name;
    EXPECT_GE(analysis_cache().stats().hits, hits_before + 3) << entry.name << ": the warm pass must hit";
    const auto uncached = clara_tool.analyze(fn, trace, off);
    ASSERT_TRUE(uncached.ok()) << entry.name;
    EXPECT_FALSE(cold.value().report.empty()) << entry.name;
    EXPECT_EQ(cold.value().report, warm.value().report) << entry.name;
    EXPECT_EQ(uncached.value().report, warm.value().report) << entry.name;
  }
}

TEST(AnalysisCacheTest, DeadlineFallbackDeterministicAcrossJobs) {
  const auto trace = make_trace("tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000");
  AnalyzeOptions options;
  options.use_cache = false;  // force a live solve at every jobs level
  options.map.time_budget_ms = 1e-6;

  auto& deadline_hits = obs::metrics().counter("ilp/deadline_hits");
  const std::uint64_t before = deadline_hits.value();

  std::unique_ptr<Analysis> reference;
  for (const std::size_t jobs_level : {1u, 2u, 8u}) {
    JobsGuard jobs(jobs_level);
    Analyzer clara_tool(lnic::netronome_agilio_cx());
    auto r = clara_tool.analyze(nf::build_nat_nf(), trace, options);
    ASSERT_TRUE(r.ok()) << "jobs=" << jobs_level << ": " << r.error().message;
    EXPECT_TRUE(r.value().degraded) << "jobs=" << jobs_level;
    EXPECT_TRUE(r.value().mapping.degraded) << "jobs=" << jobs_level;
    EXPECT_NE(r.value().report.find("time budget expired"), std::string::npos)
        << "jobs=" << jobs_level;
    if (!reference) {
      reference = std::make_unique<Analysis>(std::move(r).value());
    } else {
      expect_same_analysis(*reference, r.value(), "deadline jobs=" + std::to_string(jobs_level));
    }
  }
  EXPECT_GT(deadline_hits.value(), before);

  // The expired-budget fallback is the greedy baseline: same placement,
  // different provenance flags.
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  AnalyzeOptions greedy = options;
  greedy.map.time_budget_ms = 0.0;
  greedy.stages = PipelineStages::no_ilp();
  auto g = clara_tool.analyze(nf::build_nat_nf(), trace, greedy);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g.value().degraded);
  EXPECT_EQ(g.value().mapping.node_pool, reference->mapping.node_pool);
  EXPECT_EQ(g.value().mapping.state_region, reference->mapping.state_region);
}

// A solve must not depend on what the cache solved before: a budgeted
// analysis after an unbudgeted one of the same model answers as it does
// on a fresh cache, down to its pivots and basis.
TEST(AnalysisCacheTest, BudgetedSolveIndependentOfEarlierSolves) {
  const auto trace = make_trace("tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000");
  AnalyzeOptions budgeted;
  budgeted.map.time_budget_ms = 60'000.0;  // a key of its own, never reached
  CacheGuard guard;
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  for (const char* name : {"nat", "lpm", "meter", "rewrite", "firewall", "dpi"}) {
    const cir::Function fn = nf::find_nf(name)->build();
    analysis_cache().clear();
    const auto fresh = clara_tool.analyze(fn, trace, budgeted);
    analysis_cache().clear();
    ASSERT_TRUE(clara_tool.analyze(fn, trace).ok()) << name;
    const auto after = clara_tool.analyze(fn, trace, budgeted);
    ASSERT_TRUE(fresh.ok()) << name << ": " << fresh.error().message;
    ASSERT_TRUE(after.ok()) << name << ": " << after.error().message;
    const mapping::Mapping& a = fresh.value().mapping;
    const mapping::Mapping& b = after.value().mapping;
    EXPECT_EQ(b.node_pool, a.node_pool) << name;
    EXPECT_EQ(b.state_region, a.state_region) << name;
    EXPECT_EQ(b.objective, a.objective) << name;
    EXPECT_EQ(b.ilp_pivots, a.ilp_pivots) << name;
    EXPECT_EQ(b.ilp_basis, a.ilp_basis) << name;
  }
}

TEST(AnalysisCacheTest, KeysSensitiveToEveryInput) {
  const mapping::MapOptions base;
  const std::uint64_t key_base = mapping_key(1, base, true);

  mapping::MapOptions changed = base;
  changed.pps = base.pps + 1.0;
  EXPECT_NE(mapping_key(1, changed, true), key_base);

  changed = base;
  changed.ctm_state_fraction = 0.5;
  EXPECT_NE(mapping_key(1, changed, true), key_base);

  changed = base;
  changed.max_ilp_nodes = base.max_ilp_nodes + 1;
  EXPECT_NE(mapping_key(1, changed, true), key_base);

  EXPECT_NE(mapping_key(1, base, false), key_base);  // ilp vs greedy
  EXPECT_NE(mapping_key(2, base, true), key_base);   // different graph

  changed = base;
  changed.time_budget_ms = 50.0;
  EXPECT_NE(mapping_key(1, changed, true), key_base);

  EXPECT_NE(lowered_key(1, true, true), lowered_key(1, false, true));
  EXPECT_NE(lowered_key(1, true, true), lowered_key(1, true, false));
  EXPECT_NE(lowered_key(1, true, true), lowered_key(2, true, true));

  EXPECT_NE(graph_key(1, 2, 3), graph_key(4, 2, 3));
  EXPECT_NE(graph_key(1, 2, 3), graph_key(1, 4, 3));
  EXPECT_NE(graph_key(1, 2, 3), graph_key(1, 2, 4));
}

TEST(AnalysisCacheTest, SummaryKeySensitiveToEveryProfileField) {
  const auto base =
      workload::parse_profile("tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000 seed=42").value();
  const std::uint64_t key = summary_key(base, 8, 4096.0);
  EXPECT_EQ(summary_key(base, 8, 4096.0), key);
  EXPECT_NE(summary_key(base, 9, 4096.0), key);   // payload buckets
  EXPECT_NE(summary_key(base, 8, 65536.0), key);  // flow-cache capacity

  const std::vector<void (*)(workload::WorkloadProfile&)> edits = {
      [](workload::WorkloadProfile& p) { p.seed += 1; },
      // Past serialize()'s old 6 significant digits: still a different trace.
      [](workload::WorkloadProfile& p) { p.tcp_fraction = 0.8000001; },
      [](workload::WorkloadProfile& p) { p.flows += 1; },
      [](workload::WorkloadProfile& p) { p.zipf_alpha = 1.0000001; },
      [](workload::WorkloadProfile& p) { p.payload_min -= 1; },
      [](workload::WorkloadProfile& p) { p.payload_max += 1; },
      [](workload::WorkloadProfile& p) { p.pps = 60000.01; },
      [](workload::WorkloadProfile& p) { p.packets += 1; },
      [](workload::WorkloadProfile& p) { p.arrivals = workload::ArrivalProcess::kPoisson; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    workload::WorkloadProfile changed = base;
    edits[i](changed);
    EXPECT_NE(summary_key(changed, 8, 4096.0), key) << "edit " << i;
  }
}

TEST(AnalysisCacheTest, SummaryStageAnswersLikeTheGeneratedTrace) {
  CacheGuard guard;
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto profile =
      workload::parse_profile("tcp=0.8 flows=2000 payload=64:1500 pps=60000 packets=2000").value();

  const auto cold = clara_tool.summarize(profile);
  const auto warm = clara_tool.summarize(profile);
  EXPECT_EQ(warm, cold) << "a repeat is served the cached entry";
  auto stats = analysis_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // Uncached requests neither consult nor fill the stage.
  AnalyzeOptions off;
  off.use_cache = false;
  const auto uncached = clara_tool.summarize(profile, off);
  EXPECT_NE(uncached, warm);
  EXPECT_EQ(analysis_cache().stats().hits, stats.hits);
  EXPECT_EQ(analysis_cache().stats().misses, stats.misses);

  // The cached summary prices the NF exactly as its trace does.
  const auto trace = workload::generate_trace(profile);
  const auto direct = summarize(trace, clara_tool.profile(), PredictOptions{}.payload_buckets);
  EXPECT_EQ(warm->mean_payload, trace.mean_payload());
  EXPECT_EQ(warm->distinct_flows, trace.distinct_flows());
  EXPECT_EQ(warm->hints.flow_cache_hit_rate, direct.hints.flow_cache_hit_rate);
  const auto from_summary = clara_tool.analyze(nf::build_nat_nf(), *warm, off);
  const auto from_trace = clara_tool.analyze(nf::build_nat_nf(), trace, off);
  ASSERT_TRUE(from_summary.ok()) << from_summary.error().message;
  ASSERT_TRUE(from_trace.ok()) << from_trace.error().message;
  expect_same_analysis(from_trace.value(), from_summary.value(), "summary vs trace");
  const auto& a = from_trace.value().prediction;
  const auto& b = from_summary.value().prediction;
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].name, b.classes[i].name);
    EXPECT_EQ(a.classes[i].fraction, b.classes[i].fraction);
    EXPECT_EQ(a.classes[i].latency_cycles, b.classes[i].latency_cycles);
  }
  EXPECT_EQ(a.flow_cache_hit_rate, b.flow_cache_hit_rate);
  EXPECT_EQ(a.emem_cache_hit_rate, b.emem_cache_hit_rate);

  // A summary taken for another bucket count is refused, not misread.
  AnalyzeOptions coarse = off;
  coarse.predict.payload_buckets = 4;
  const auto mismatched = clara_tool.analyze(nf::build_nat_nf(), *warm, coarse);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.error().code, ErrorCode::kInternal);
}

TEST(AnalysisCacheTest, ProfileParameterChangesDigest) {
  const auto base = lnic::netronome_agilio_cx();
  auto perturbed = lnic::netronome_agilio_cx();
  perturbed.params.set_scalar(lnic::keys::kCtmPacketResidency,
                              base.params.scalar(lnic::keys::kCtmPacketResidency) + 1.0);
  EXPECT_NE(hash_profile(base), hash_profile(perturbed));

  passes::CostHints hints_a;
  passes::CostHints hints_b;
  hints_b.avg_payload += 1.0;
  EXPECT_NE(hash_hints(hints_a), hash_hints(hints_b));
  hints_b = hints_a;
  hints_b.flow_cache_hit_rate *= 0.5;
  EXPECT_NE(hash_hints(hints_a), hash_hints(hints_b));
}

TEST(AnalysisCacheTest, ProfileChangeMissesMappingButReusesLowering) {
  CacheGuard guard;
  const auto trace = make_trace("tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000");

  Analyzer first(lnic::netronome_agilio_cx());
  ASSERT_TRUE(first.analyze(nf::build_nat_nf(), trace).ok());

  auto profile = lnic::netronome_agilio_cx();
  profile.params.set_scalar(lnic::keys::kCtmPacketResidency,
                            profile.params.scalar(lnic::keys::kCtmPacketResidency) * 2.0);
  Analyzer second(profile);
  EXPECT_NE(first.profile_hash(), second.profile_hash());
  ASSERT_TRUE(second.analyze(nf::build_nat_nf(), trace).ok());

  // Lowering is profile-independent (1 hit); graph and mapping are keyed
  // on the profile digest (2 fresh misses on top of the cold pass's 3).
  const auto stats = analysis_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 5u);
}

TEST(AnalysisCacheTest, FunctionHashSensitiveToContent) {
  const auto build = [](std::int64_t imm) {
    cir::FunctionBuilder b("probe");
    b.set_insert_point(b.create_block("entry"));
    b.vcall(cir::VCall::kEmit, {cir::Value::of_imm(imm)}, false);
    b.ret();
    return b.take();
  };
  EXPECT_EQ(cir::hash_function(build(1)), cir::hash_function(build(1)));
  EXPECT_NE(cir::hash_function(build(1)), cir::hash_function(build(2)));
}

TEST(AnalysisCacheTest, ShardedLruEvictsLeastRecentlyUsed) {
  ShardedLru<int> lru;
  lru.set_capacity(8);  // one slot per shard
  std::uint64_t evicted = 0;
  std::uint64_t added = 0;
  // Keys 0, 8, 16 land in the same shard; each insert evicts its
  // predecessor once the shard is full.
  lru.insert(0, std::make_shared<const int>(10), 100, &evicted, &added);
  EXPECT_EQ(evicted, 0u);
  lru.insert(8, std::make_shared<const int>(11), 100, &evicted, &added);
  EXPECT_EQ(evicted, 1u);
  lru.insert(16, std::make_shared<const int>(12), 100, &evicted, &added);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.bytes(), 100u);
  EXPECT_EQ(lru.find(0), nullptr);
  EXPECT_EQ(lru.find(8), nullptr);
  ASSERT_NE(lru.find(16), nullptr);
  EXPECT_EQ(*lru.find(16), 12);
}

TEST(AnalysisCacheTest, EvictionCountersReachStats) {
  CacheGuard guard(CacheConfig{.enabled = true, .max_entries = 1});
  auto entry = [] {
    auto e = std::make_shared<LoweredEntry>();
    e->fn.name = "stub";
    return e;
  };
  // Same shard (keys ≡ 0 mod 8), capacity one: the second insert evicts.
  analysis_cache().insert_lowered(0, entry());
  analysis_cache().insert_lowered(8, entry());
  const auto stats = analysis_cache().stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(AnalysisCacheTest, DisabledCacheBypassesLookups) {
  CacheGuard guard(CacheConfig{.enabled = false, .max_entries = 256});
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("payload=300 pps=60000 packets=1000");
  ASSERT_TRUE(clara_tool.analyze(nf::build_nat_nf(), trace).ok());
  ASSERT_TRUE(clara_tool.analyze(nf::build_nat_nf(), trace).ok());
  const auto stats = analysis_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(AnalysisCacheTest, UnknownCallErrorCarriesTypedCode) {
  cir::FunctionBuilder b("weird");
  b.set_insert_point(b.create_block("entry"));
  b.call("proprietary_helper", {}, false);
  b.vcall(cir::VCall::kEmit, {cir::Value::of_imm(1)}, false);
  b.ret();
  const auto fn = b.take();

  CacheGuard guard;
  Analyzer clara_tool(lnic::netronome_agilio_cx());
  const auto trace = make_trace("packets=100 pps=60000");
  const auto r = clara_tool.analyze(fn, trace);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kUnknownCall);
  EXPECT_STREQ(to_string(r.error().code), "unknown-call");
}

}  // namespace
}  // namespace clara::core
