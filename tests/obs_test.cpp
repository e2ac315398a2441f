// Observability-layer tests: metrics registry under concurrency,
// histogram merging, tracer nesting + Chrome JSON export, one clock and
// one thread id shared by spans and flight events, logger
// thread-safety, and the breakdown invariant — the simulator's
// per-component attribution must sum to the measured per-packet latency
// (and the predictor's analytic attribution to its predicted mean).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "core/clara.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"
#include "nicsim/sim.hpp"
#include "obs/breakdown.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "workload/tracegen.hpp"

namespace clara::obs {
namespace {

workload::Trace make_trace(const std::string& spec) {
  return workload::generate_trace(workload::parse_profile(spec).value());
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Minimal structural JSON check: quotes escape correctly and brackets/
/// braces balance outside string literals. Catches the classic exporter
/// bugs (trailing commas aside) without a JSON dependency.
bool balanced_json(const std::string& s) {
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

// --- Metrics ---------------------------------------------------------------

TEST(Metrics, ConcurrentCounterIncrements) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      auto& c = registry.counter("test/hits", "worker=shared");
      for (int i = 0; i < kIncsPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("test/hits", "worker=shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIncsPerThread);
}

TEST(Metrics, LabelsDistinguishInstruments) {
  MetricsRegistry registry;
  registry.counter("pkts", "nf=nat").inc(3);
  registry.counter("pkts", "nf=lpm").inc(5);
  EXPECT_EQ(registry.counter("pkts", "nf=nat").value(), 3u);
  EXPECT_EQ(registry.counter("pkts", "nf=lpm").value(), 5u);
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("pkts{nf=nat} 3"), std::string::npos);
  EXPECT_NE(text.find("pkts{nf=lpm} 5"), std::string::npos);
}

TEST(Metrics, GaugeSetAndConcurrentAdd) {
  MetricsRegistry registry;
  auto& g = registry.gauge("test/level");
  g.set(10.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 1000; ++i) g.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), 10.0 + 4000.0);
}

TEST(Metrics, LatencyHistogramMerge) {
  LatencyHistogram a, b;
  for (int i = 1; i <= 100; ++i) a.observe(i);
  for (int i = 101; i <= 200; ++i) b.observe(i);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.moments().mean(), 100.5);
  EXPECT_DOUBLE_EQ(a.moments().min(), 1.0);
  EXPECT_DOUBLE_EQ(a.moments().max(), 200.0);
  std::uint64_t bucket_sum = 0;
  for (const auto c : a.buckets()) bucket_sum += c;
  EXPECT_EQ(bucket_sum, 200u);
  // Log-bucket quantiles are approximate; p50 must land within the
  // enclosing power-of-two bucket [64, 128).
  const double p50 = a.percentile(0.5);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 128.0);
}

TEST(Metrics, ConcurrentHistogramObserve) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry] {
      auto& h = registry.histogram("test/latency");
      for (int i = 0; i < 5000; ++i) h.observe(100.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.histogram("test/latency").count(), 20000u);
  EXPECT_DOUBLE_EQ(registry.histogram("test/latency").moments().mean(), 100.0);
}

TEST(Metrics, JsonExportIsBalanced) {
  MetricsRegistry registry;
  registry.counter("a/count", "k=v").inc(7);
  registry.gauge("b/load").set(0.5);
  registry.histogram("c/lat").observe(42.0);
  const std::string json = registry.to_json();
  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("a/count"), std::string::npos);
  EXPECT_NE(json.find("b/load"), std::string::npos);
  EXPECT_NE(json.find("c/lat"), std::string::npos);
}

// --- common/stats regression (satellite: percentile/histogram edges) -------

TEST(StatsEdges, PercentileClampsAndHandlesSmallSeries) {
  Series empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

  Series one;
  one.add(7.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(one.percentile(1.0), 7.0);

  Series s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(-0.5), 1.0);   // clamped to min
  EXPECT_DOUBLE_EQ(s.percentile(1.5), 10.0);   // clamped to max
  EXPECT_DOUBLE_EQ(s.percentile(std::nan("")), 1.0);  // NaN treated as 0
}

TEST(StatsEdges, HistogramDegenerateLayouts) {
  Histogram zero_buckets(0.0, 10.0, 0);
  zero_buckets.add(5.0);
  EXPECT_EQ(zero_buckets.total(), 1u);

  Histogram inverted(10.0, 10.0, 4);  // hi <= lo collapses, must not divide by zero
  inverted.add(10.0);
  inverted.add(-1.0);
  EXPECT_EQ(inverted.total(), 2u);

  Histogram h(0.0, 10.0, 5);
  h.add(std::nan(""));
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.total(), 1u);
}

TEST(StatsEdges, HistogramMergeChecksLayout) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 5);
  a.add(1.0);
  b.add(2.0);
  b.add(-5.0);
  b.add(50.0);
  EXPECT_TRUE(a.merge(b));
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);

  Histogram other_layout(0.0, 20.0, 5);
  EXPECT_FALSE(a.merge(other_layout));
  EXPECT_EQ(a.total(), 4u);  // unchanged on rejected merge
}

// --- Tracer ----------------------------------------------------------------

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer().clear();
    tracer().set_enabled(true);
  }
  void TearDown() override {
    tracer().set_enabled(false);
    tracer().clear();
  }
};

TEST_F(TracerTest, ScopesNestAndContain) {
  {
    CLARA_TRACE_SCOPE("outer");
    {
      CLARA_TRACE_SCOPE("inner");
      { CLARA_TRACE_SCOPE("leaf"); }
    }
    { CLARA_TRACE_SCOPE("sibling"); }
  }
  const auto spans = tracer().snapshot();
  ASSERT_EQ(spans.size(), 4u);

  const auto find = [&](const std::string& name) {
    const auto it = std::find_if(spans.begin(), spans.end(),
                                 [&](const TraceSpan& s) { return s.name == name; });
    EXPECT_NE(it, spans.end()) << name;
    return *it;
  };
  const auto outer = find("outer");
  const auto inner = find("inner");
  const auto leaf = find("leaf");
  const auto sibling = find("sibling");

  EXPECT_EQ(outer.parent, TraceSpan::kNoParent);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(spans[inner.parent].name, "outer");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(spans[leaf.parent].name, "inner");
  EXPECT_EQ(leaf.depth, 2u);
  EXPECT_EQ(spans[sibling.parent].name, "outer");

  // Temporal containment: children start no earlier and end no later.
  for (const auto& child : {inner, leaf, sibling}) {
    EXPECT_GE(child.start_ns, outer.start_ns);
    EXPECT_LE(child.start_ns + child.dur_ns, outer.start_ns + outer.dur_ns);
    EXPECT_GE(child.dur_ns, 0);
  }
}

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  tracer().set_enabled(false);
  { CLARA_TRACE_SCOPE("ignored"); }
  EXPECT_EQ(tracer().span_count(), 0u);
}

TEST_F(TracerTest, ChromeJsonRoundTrip) {
  {
    CLARA_TRACE_SCOPE("phase \"quoted\" \\ and nested");
    { CLARA_TRACE_SCOPE("child"); }
  }
  const std::string json = tracer().to_chrome_json();
  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One complete ("X") event per recorded span, every one with a dur.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), tracer().span_count());
  EXPECT_EQ(count_occurrences(json, "\"dur\":"), tracer().span_count());
  // The quote and backslash in the name must be escaped.
  EXPECT_NE(json.find("phase \\\"quoted\\\" \\\\ and nested"), std::string::npos);
}

TEST_F(TracerTest, PipelinePhasesAppearInTrace) {
  const auto trace = make_trace("tcp=0.8 flows=500 payload=200 pps=60000 packets=2000");
  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto analysis = analyzer.analyze(nf::build_nat_nf(), trace);
  ASSERT_TRUE(analysis.ok()) << analysis.error().message;

  (void)nf::simulate("nat", trace);

  const std::string json = tracer().to_chrome_json();
  EXPECT_TRUE(balanced_json(json));
  // Acceptance: nested spans for at least passes, ILP, mapping, nicsim.
  EXPECT_NE(json.find("passes/api_subst"), std::string::npos);
  EXPECT_NE(json.find("ilp/branch_and_bound"), std::string::npos);
  EXPECT_NE(json.find("mapping/map"), std::string::npos);
  EXPECT_NE(json.find("nicsim/run"), std::string::npos);
  // Nesting made it into the export: the ILP span belongs to mapping,
  // which belongs to the top-level analyze span.
  const auto spans = tracer().snapshot();
  const auto it = std::find_if(spans.begin(), spans.end(),
                               [](const TraceSpan& s) { return s.name == "ilp/branch_and_bound"; });
  ASSERT_NE(it, spans.end());
  EXPECT_GE(it->depth, 1u);

  const std::string flame = tracer().flame_summary();
  EXPECT_NE(flame.find("core/analyze"), std::string::npos);
}

TEST_F(TracerTest, ThreadsGetDistinctIds) {
  std::thread a([] { CLARA_TRACE_SCOPE("thread-a"); });
  std::thread b([] { CLARA_TRACE_SCOPE("thread-b"); });
  a.join();
  b.join();
  const auto spans = tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
  EXPECT_EQ(spans[0].parent, TraceSpan::kNoParent);
  EXPECT_EQ(spans[1].parent, TraceSpan::kNoParent);
}

TEST_F(TracerTest, SpansAndFlightEventsShareClockAndThreadIds) {
  // A mark on this thread first, so the recorder has seen a thread the
  // tracer has not; the pause makes a span clock that restarted at
  // tracer().clear() disagree with the recorder's by more than the
  // worker's span lasts.
  recorder().clear();
  record(FlightEventKind::kMark, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  tracer().clear();
  std::thread worker([] {
    CLARA_TRACE_SCOPE("worker/span");
    record(FlightEventKind::kMark, 2);
  });
  worker.join();

  const auto spans = Json::parse(tracer().to_chrome_json());
  const auto flight = Json::parse(recorder().to_chrome_json());
  ASSERT_TRUE(spans.ok() && flight.ok());
  // The exported event named `name`, a flight mark also by its `a`.
  const auto find = [](const Json& doc, const std::string& name, double a = 0.0) -> const Json* {
    for (const auto& e : doc.get("traceEvents")->as_array()) {
      if (e.string_at("name") == name && (a == 0.0 || e.get("args")->number_at("a") == a)) return &e;
    }
    return nullptr;
  };
  const Json* span = find(spans.value(), "worker/span");
  const Json* main_mark = find(flight.value(), "flight/mark", 1.0);
  const Json* worker_mark = find(flight.value(), "flight/mark", 2.0);
  ASSERT_TRUE(span && main_mark && worker_mark);

  EXPECT_EQ(worker_mark->number_at("tid"), span->number_at("tid"));
  EXPECT_NE(main_mark->number_at("tid"), span->number_at("tid"));
  EXPECT_GE(worker_mark->number_at("ts"), span->number_at("ts"));
  EXPECT_LE(worker_mark->number_at("ts"), span->number_at("ts") + span->number_at("dur"));
}

// --- Breakdown -------------------------------------------------------------

TEST(Breakdown, SimulatedComponentsSumToLatency) {
  const auto trace = make_trace("tcp=0.8 flows=2000 payload=300 pps=60000 packets=10000");
  const auto stats = nf::simulate("nat", trace).value();

  ASSERT_GT(stats.packets, 0u);
  EXPECT_EQ(stats.breakdown.packets(), stats.packets);
  // The acceptance invariant: component means sum to the mean latency
  // within one cycle (in fact exactly, up to double rounding — every
  // timeline advance is charged to exactly one component).
  EXPECT_NEAR(stats.breakdown.mean_total_cycles(), stats.mean_latency(), 1.0);

  const auto means = stats.breakdown.means();
  EXPECT_GT(means.at(Component::kIngress), 0.0);
  EXPECT_GT(means.at(Component::kCompute), 0.0);
  EXPECT_GT(means.at(Component::kCsumAccel), 0.0);  // NAT uses the checksum unit
  EXPECT_GT(means.at(Component::kEmemCacheHit) + means.at(Component::kEmemCacheMiss), 0.0)
      << "EMEM-placed flow table must show cache traffic";

  const std::string table_txt = stats.breakdown.render();
  EXPECT_NE(table_txt.find("compute"), std::string::npos);
}

TEST(Breakdown, PredictedComponentsSumToMean) {
  const auto trace = make_trace("tcp=0.8 flows=2000 payload=300 pps=60000 packets=10000");
  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto analysis = analyzer.analyze(nf::build_nat_nf(), trace);
  ASSERT_TRUE(analysis.ok()) << analysis.error().message;
  const auto& pred = analysis.value().prediction;

  EXPECT_GT(pred.mean_latency_cycles, 0.0);
  EXPECT_NEAR(pred.breakdown.total(), pred.mean_latency_cycles, 1.0);
  EXPECT_GT(pred.breakdown.at(Component::kIngress), 0.0);
  EXPECT_GT(pred.breakdown.at(Component::kCompute), 0.0);

  const std::string cmp = render_breakdown_comparison(pred.breakdown, pred.breakdown);
  EXPECT_NE(cmp.find("ingress"), std::string::npos);
  EXPECT_NE(cmp.find("queue-wait"), std::string::npos);
}

TEST(Breakdown, PacketBreakdownTotals) {
  PacketBreakdown pb;
  pb.add(Component::kIngress, 10);
  pb.add(Component::kCompute, 32);
  pb.add(Component::kEgress, 8);
  EXPECT_EQ(pb.total(), 50u);

  BreakdownReport report;
  report.add(pb);
  report.add(pb);
  EXPECT_EQ(report.packets(), 2u);
  EXPECT_DOUBLE_EQ(report.mean_total_cycles(), 50.0);
  EXPECT_DOUBLE_EQ(report.component(Component::kCompute).mean(), 32.0);
}

// --- ILP observability -----------------------------------------------------

TEST(IlpObservability, SolveStatsReachTheMapping) {
  const auto trace = make_trace("tcp=0.8 flows=1000 payload=300 pps=60000 packets=5000");
  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto analysis = analyzer.analyze(nf::build_nat_nf(), trace);
  ASSERT_TRUE(analysis.ok()) << analysis.error().message;
  const auto& mapping = analysis.value().mapping;
  ASSERT_FALSE(mapping.greedy);
  EXPECT_GT(mapping.ilp_pivots, 0u);
  ASSERT_FALSE(mapping.ilp_incumbents.empty());
  // The incumbent trajectory only ever improves (minimization).
  for (std::size_t i = 1; i < mapping.ilp_incumbents.size(); ++i) {
    EXPECT_LT(mapping.ilp_incumbents[i].objective, mapping.ilp_incumbents[i - 1].objective);
  }
}

// --- Logger ----------------------------------------------------------------

TEST(Logger, ConcurrentSinkCallsDoNotInterleave) {
  std::mutex mu;
  std::vector<std::string> lines;
  set_log_sink([&](LogLevel, const std::string& msg) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(msg);
  });
  const LogLevel before = log_level();
  set_log_level(LogLevel::kInfo);

  constexpr int kThreads = 8;
  constexpr int kLines = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        CLARA_INFO << "worker " << t << " line " << i;
      }
    });
  }
  for (auto& t : threads) t.join();
  set_log_level(before);
  set_log_sink(nullptr);  // restore default stderr sink

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads) * kLines);
  // Every line arrived whole: "worker <t> line <i>".
  for (const auto& line : lines) {
    EXPECT_EQ(line.rfind("worker ", 0), 0u) << line;
    EXPECT_NE(line.find(" line "), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace clara::obs
