// Tests for the LNIC graph model, parameter store, and NIC profiles.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>

#include "lnic/lnic.hpp"
#include "lnic/params.hpp"
#include "lnic/profiles.hpp"

namespace clara::lnic {
namespace {

Graph small_graph() {
  Graph g;
  const auto npu = g.add_compute("npu", ComputeUnit{UnitKind::kNpuCore, 0, 8, 1});
  const auto mem = g.add_memory("mem", MemoryRegion{MemKind::kCtm, 256_KiB, 0, 0});
  g.add_edge(npu, mem, EdgeKind::kMemAccess, 1.0);
  return g;
}

TEST(LnicGraph, AddAndQueryNodes) {
  Graph g = small_graph();
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.compute_units().size(), 1u);
  EXPECT_EQ(g.memory_regions().size(), 1u);
  EXPECT_TRUE(g.switch_hubs().empty());
  EXPECT_TRUE(g.find_by_name("npu").has_value());
  EXPECT_FALSE(g.find_by_name("nope").has_value());
}

TEST(LnicGraph, NodeTypeDispatch) {
  Graph g = small_graph();
  EXPECT_EQ(g.node(0).type(), NodeType::kCompute);
  EXPECT_NE(g.node(0).compute(), nullptr);
  EXPECT_EQ(g.node(0).memory(), nullptr);
  EXPECT_EQ(g.node(1).type(), NodeType::kMemory);
}

TEST(LnicGraph, AccessWeight) {
  Graph g = small_graph();
  EXPECT_DOUBLE_EQ(g.access_weight(0, 1).value(), 1.0);
  const auto far = g.add_memory("far", MemoryRegion{MemKind::kEmem, 1_GiB, -1, 0});
  EXPECT_FALSE(g.access_weight(0, far).has_value());
}

/// The reference answer access_weight() indexes: the first kMemAccess
/// edge joining the two nodes, in either orientation.
std::optional<double> scan_access_weight(const Graph& g, NodeId a, NodeId b) {
  for (const auto& e : g.edges()) {
    if (e.kind != EdgeKind::kMemAccess) continue;
    if ((e.from == a && e.to == b) || (e.from == b && e.to == a)) return e.weight;
  }
  return std::nullopt;
}

/// access_weight() against the edge scan for every ordered node pair.
void expect_index_matches_scan(const Graph& g, const std::string& what) {
  for (NodeId a = 0; a < g.size(); ++a) {
    for (NodeId b = 0; b < g.size(); ++b) {
      EXPECT_EQ(g.access_weight(a, b), scan_access_weight(g, a, b)) << what << ": " << a << " -> " << b;
    }
  }
}

TEST(LnicGraph, AccessWeightFirstEdgeWinsInEitherOrientation) {
  Graph g;
  const auto npu = g.add_compute("npu", ComputeUnit{UnitKind::kNpuCore, 0, 8, 1});
  const auto other = g.add_compute("other", ComputeUnit{UnitKind::kNpuCore, 0, 8, 1});
  const auto dup = g.add_memory("dup", MemoryRegion{MemKind::kCtm, 256_KiB, 0, 0});
  const auto rev = g.add_memory("rev", MemoryRegion{MemKind::kImem, 4_MiB, -1, 0});
  const auto mixed = g.add_memory("mixed", MemoryRegion{MemKind::kEmem, 1_GiB, -1, 0});
  g.add_edge(npu, dup, EdgeKind::kMemAccess, 2.0);
  g.add_edge(npu, dup, EdgeKind::kMemAccess, 3.0);   // duplicate: the first wins
  g.add_edge(dup, npu, EdgeKind::kMemAccess, 4.0);   // ... in either orientation
  g.add_edge(rev, npu, EdgeKind::kMemAccess, 1.5);   // stored memory -> compute
  g.add_edge(npu, mixed, EdgeKind::kHierarchy, 9.0);  // not an access edge
  g.add_edge(npu, mixed, EdgeKind::kMemAccess, 1.25);
  g.add_edge(npu, other, EdgeKind::kPipeline, 7.0);   // never an access weight

  EXPECT_EQ(g.access_weight(npu, dup), 2.0);
  EXPECT_EQ(g.access_weight(dup, npu), 2.0);
  EXPECT_EQ(g.access_weight(npu, rev), 1.5);
  EXPECT_EQ(g.access_weight(rev, npu), 1.5);
  EXPECT_EQ(g.access_weight(npu, mixed), 1.25);
  EXPECT_FALSE(g.access_weight(npu, other).has_value());
  EXPECT_FALSE(g.access_weight(other, dup).has_value());
  expect_index_matches_scan(g, "hand-built");

  // A copy answers from its own copy of the index.
  const Graph copy = g;
  g.add_edge(other, dup, EdgeKind::kMemAccess, 5.0);
  EXPECT_EQ(g.access_weight(other, dup), 5.0);
  EXPECT_FALSE(copy.access_weight(other, dup).has_value());
  expect_index_matches_scan(copy, "copy");
  expect_index_matches_scan(g, "grown");
}

TEST(LnicGraph, ValidatesCleanGraph) {
  EXPECT_TRUE(small_graph().validate().ok());
}

TEST(LnicGraph, RejectsBadMemAccessEdge) {
  Graph g;
  const auto a = g.add_memory("m1", MemoryRegion{});
  const auto b = g.add_memory("m2", MemoryRegion{});
  g.add_edge(a, b, EdgeKind::kMemAccess, 1.0);
  EXPECT_FALSE(g.validate().ok());
}

TEST(LnicGraph, RejectsSubUnityNumaWeight) {
  Graph g;
  const auto npu = g.add_compute("npu", ComputeUnit{});
  const auto mem = g.add_memory("mem", MemoryRegion{});
  g.add_edge(npu, mem, EdgeKind::kMemAccess, 0.5);
  EXPECT_FALSE(g.validate().ok());
}

TEST(LnicGraph, RejectsComputeWithoutMemory) {
  Graph g;
  g.add_compute("npu", ComputeUnit{});
  EXPECT_FALSE(g.validate().ok());
}

TEST(LnicGraph, RejectsBackwardsPipelineEdge) {
  Graph g;
  const auto late = g.add_compute("late", ComputeUnit{UnitKind::kNpuCore, 0, 1, 2});
  const auto early = g.add_compute("early", ComputeUnit{UnitKind::kNpuCore, 0, 1, 0});
  const auto mem = g.add_memory("mem", MemoryRegion{});
  g.add_edge(late, mem, EdgeKind::kMemAccess, 1.0);
  g.add_edge(early, mem, EdgeKind::kMemAccess, 1.0);
  g.add_edge(late, early, EdgeKind::kPipeline);
  EXPECT_FALSE(g.validate().ok());
}

TEST(LnicGraph, RejectsHierarchyBetweenNonMemory) {
  Graph g = small_graph();
  g.add_edge(0, 1, EdgeKind::kHierarchy);  // compute -> memory
  EXPECT_FALSE(g.validate().ok());
}

TEST(LnicGraph, PipelineReachability) {
  Graph g;
  const auto a = g.add_compute("a", ComputeUnit{UnitKind::kHeaderEngine, -1, 1, 0});
  const auto b = g.add_compute("b", ComputeUnit{UnitKind::kNpuCore, -1, 1, 1});
  const auto c = g.add_compute("c", ComputeUnit{UnitKind::kNpuCore, -1, 1, 2});
  g.add_edge(a, b, EdgeKind::kPipeline);
  g.add_edge(b, c, EdgeKind::kPipeline);
  EXPECT_TRUE(g.pipeline_reachable(a, c));
  EXPECT_FALSE(g.pipeline_reachable(c, a));
  EXPECT_TRUE(g.pipeline_reachable(b, b));
}

TEST(LnicGraph, UnitsOfKind) {
  const auto profile = netronome_agilio_cx();
  EXPECT_EQ(profile.graph.units_of_kind(UnitKind::kChecksumAccel).size(), 1u);
  EXPECT_EQ(profile.graph.units_of_kind(UnitKind::kNpuCore).size(), 28u);
}

TEST(PiecewiseLinearTest, InterpolatesAndClamps) {
  PiecewiseLinear pl({{0.0, 10.0}, {100.0, 110.0}});
  EXPECT_DOUBLE_EQ(pl.eval(-5.0), 10.0);   // clamp low
  EXPECT_DOUBLE_EQ(pl.eval(0.0), 10.0);
  EXPECT_DOUBLE_EQ(pl.eval(50.0), 60.0);   // interpolation
  EXPECT_DOUBLE_EQ(pl.eval(100.0), 110.0);
  EXPECT_DOUBLE_EQ(pl.eval(1e9), 110.0);   // clamp high
}

TEST(PiecewiseLinearTest, UnsortedInputSorted) {
  PiecewiseLinear pl({{100.0, 200.0}, {0.0, 0.0}});
  EXPECT_DOUBLE_EQ(pl.eval(50.0), 100.0);
}

TEST(PiecewiseLinearTest, Constant) {
  const auto pl = PiecewiseLinear::constant(7.0);
  EXPECT_DOUBLE_EQ(pl.eval(-100.0), 7.0);
  EXPECT_DOUBLE_EQ(pl.eval(100.0), 7.0);
}

TEST(ParameterStoreTest, ScalarsAndCurves) {
  ParameterStore p;
  p.set_scalar("a", 3.5);
  p.set_curve("c", PiecewiseLinear({{0.0, 1.0}, {10.0, 11.0}}));
  EXPECT_DOUBLE_EQ(p.scalar("a"), 3.5);
  EXPECT_TRUE(p.has("a"));
  EXPECT_TRUE(p.has("c"));
  EXPECT_FALSE(p.has("zzz"));
  EXPECT_DOUBLE_EQ(p.eval("c", 5.0), 6.0);
  EXPECT_DOUBLE_EQ(p.eval("a", 42.0), 3.5);  // scalar constant in x
  EXPECT_FALSE(p.try_scalar("zzz").has_value());
  EXPECT_EQ(p.try_curve("a"), nullptr);
  EXPECT_NE(p.try_curve("c"), nullptr);
}

TEST(ParameterStoreTest, LookupsAcceptAnyStringKey) {
  ParameterStore p;
  p.set_scalar(keys::kInstrFpEmulation, 40.0);  // longer than a small-string buffer
  p.set_curve(keys::kCsumAccel, PiecewiseLinear({{0.0, 60.0}, {1000.0, 300.0}}));
  const char* scalar_key = keys::kInstrFpEmulation;
  const char* curve_key = keys::kCsumAccel;
  // A view into a longer buffer: lookups must not rely on a terminator.
  const std::string padded = std::string(scalar_key) + ".suffix";
  const std::string_view scalar_view(padded.data(), std::string_view(scalar_key).size());
  const std::string scalar_string(scalar_key);

  const PiecewiseLinear* curve = p.try_curve(curve_key);
  ASSERT_NE(curve, nullptr);
  EXPECT_EQ(p.try_curve(std::string_view(curve_key)), curve);
  EXPECT_EQ(p.try_curve(std::string(curve_key)), curve);
  EXPECT_EQ(p.eval(std::string(curve_key), 500.0), p.eval(curve_key, 500.0));

  EXPECT_EQ(p.scalar(scalar_key), 40.0);
  EXPECT_EQ(p.scalar(scalar_view), 40.0);
  EXPECT_EQ(p.scalar(scalar_string), 40.0);
  EXPECT_EQ(p.try_scalar(scalar_view), 40.0);
  EXPECT_EQ(p.eval(scalar_view, 7.0), 40.0);
  for (const std::string_view key : {std::string_view(scalar_key), scalar_view, std::string_view(curve_key)}) {
    EXPECT_TRUE(p.has(key)) << key;
  }
  EXPECT_TRUE(p.has(scalar_string));
  EXPECT_FALSE(p.has(std::string_view(padded)));
  EXPECT_FALSE(p.try_scalar(std::string_view(scalar_key, 3)).has_value());
}

TEST(ParameterStoreTest, SerializeRoundTrip) {
  ParameterStore p;
  p.set_scalar("x.y", 2.25);
  p.set_scalar("neg", -17.0);
  p.set_curve("curve.z", PiecewiseLinear({{0.0, 60.0}, {1000.0, 300.0}}));
  const auto text = p.serialize();
  const auto parsed = ParameterStore::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_DOUBLE_EQ(parsed.value().scalar("x.y"), 2.25);
  EXPECT_DOUBLE_EQ(parsed.value().scalar("neg"), -17.0);
  EXPECT_DOUBLE_EQ(parsed.value().eval("curve.z", 500.0), 180.0);
}

TEST(ParameterStoreTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParameterStore::parse("no equals sign").ok());
  EXPECT_FALSE(ParameterStore::parse("k = notanumber").ok());
  EXPECT_FALSE(ParameterStore::parse("k = [(1,2), (3]").ok());
  EXPECT_FALSE(ParameterStore::parse("k = []").ok());
  EXPECT_FALSE(ParameterStore::parse("= 5").ok());
}

TEST(ParameterStoreTest, ParseIgnoresCommentsAndBlanks) {
  const auto parsed = ParameterStore::parse("# comment\n\nk = 1\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value().scalar("k"), 1.0);
}

class ProfileTest : public ::testing::TestWithParam<int> {};

TEST_P(ProfileTest, GraphValidates) {
  const auto profiles = all_profiles();
  const auto& profile = profiles[static_cast<std::size_t>(GetParam())];
  const auto status = profile.graph.validate();
  EXPECT_TRUE(status.ok()) << profile.name << ": " << (status.ok() ? "" : status.error().message);
}

TEST_P(ProfileTest, ParamsComplete) {
  const auto profiles = all_profiles();
  const auto& profile = profiles[static_cast<std::size_t>(GetParam())];
  const auto status = validate_params(profile.params);
  EXPECT_TRUE(status.ok()) << profile.name << ": " << (status.ok() ? "" : status.error().message);
}

TEST_P(ProfileTest, HasComputeAndMemory) {
  const auto profiles = all_profiles();
  const auto& profile = profiles[static_cast<std::size_t>(GetParam())];
  EXPECT_FALSE(profile.graph.compute_units().empty()) << profile.name;
  EXPECT_FALSE(profile.graph.memory_regions().empty()) << profile.name;
  EXPECT_FALSE(profile.graph.switch_hubs().empty()) << profile.name;
}

TEST_P(ProfileTest, AccessWeightIndexMatchesEdgeScan) {
  const auto profiles = all_profiles();
  const auto& profile = profiles[static_cast<std::size_t>(GetParam())];
  expect_index_matches_scan(profile.graph, profile.name);
  const Graph copy = profile.graph;
  expect_index_matches_scan(copy, profile.name + " copy");
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileTest, ::testing::Values(0, 1, 2));

TEST(Profiles, NetronomePaperNumbers) {
  const auto profile = netronome_agilio_cx();
  const auto& p = profile.params;
  // §3.2: CTM ~50 cycles, IMEM ~250, EMEM ~500; checksum 1000 B ~300.
  EXPECT_DOUBLE_EQ(p.scalar(keys::kMemReadCtm), 50.0);
  EXPECT_DOUBLE_EQ(p.scalar(keys::kMemReadImem), 250.0);
  EXPECT_DOUBLE_EQ(p.scalar(keys::kMemReadEmem), 500.0);
  EXPECT_NEAR(p.eval(keys::kCsumAccel, 1000.0), 300.0, 1.0);
  EXPECT_DOUBLE_EQ(p.scalar(keys::kCsumSwExtra), 1700.0);
  // Metadata modifications 2-5 cycles; parse ~150 for a 40 B header.
  EXPECT_GE(p.scalar(keys::kInstrMove), 2.0);
  EXPECT_LE(p.scalar(keys::kInstrMove), 5.0);
  EXPECT_NEAR(p.scalar(keys::kParseBase) + 40.0 * p.scalar(keys::kParsePerByte), 150.0, 10.0);
}

TEST(Profiles, NetronomeIslandStructure) {
  const auto profile = netronome_agilio_cx();
  // Remote CTM access is NUMA-weighted.
  const auto npu0 = profile.graph.find_by_name("npu0_0");
  const auto ctm0 = profile.graph.find_by_name("ctm0");
  const auto ctm1 = profile.graph.find_by_name("ctm1");
  ASSERT_TRUE(npu0 && ctm0 && ctm1);
  EXPECT_DOUBLE_EQ(profile.graph.access_weight(*npu0, *ctm0).value(), 1.0);
  EXPECT_DOUBLE_EQ(profile.graph.access_weight(*npu0, *ctm1).value(), 2.0);
}

TEST(Profiles, NetronomeParserIsNotMatchAction) {
  const auto profile = netronome_agilio_cx();
  const auto parser = profile.graph.find_by_name("parser");
  ASSERT_TRUE(parser.has_value());
  EXPECT_FALSE(profile.graph.node(*parser).compute()->match_action);
}

TEST(Profiles, AsicStagesAreMatchAction) {
  const auto profile = pipeline_asic_nic();
  const auto stage = profile.graph.find_by_name("ma-stage0");
  ASSERT_TRUE(stage.has_value());
  EXPECT_TRUE(profile.graph.node(*stage).compute()->match_action);
}

TEST(Profiles, DistinctCharacters) {
  // The three profiles should have meaningfully different parameters —
  // that is the point of cross-NIC comparison.
  const auto netronome = netronome_agilio_cx();
  const auto soc = soc_arm_nic();
  const auto asic = pipeline_asic_nic();
  EXPECT_GT(soc.params.scalar(keys::kClockHz), netronome.params.scalar(keys::kClockHz));
  EXPECT_LT(asic.params.scalar(keys::kParseBase), netronome.params.scalar(keys::kParseBase));
  EXPECT_EQ(soc.params.scalar(keys::kFlowCacheCapacity), 0.0);
}

}  // namespace
}  // namespace clara::lnic
