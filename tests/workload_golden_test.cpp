// Golden traces and summaries of the workload generator (DESIGN.md §6).
//
// Every spec of a seeded corpus is generated with
// workload::generate_trace and summarized with core::summarize on each
// NIC profile at 1, 8 and 64 payload buckets. Each spec is also
// summarized through Analyzer::summarize, which builds no trace, on the
// same NICs and bucket counts; those nine summaries must mix to the same
// digest, or the line gains ` spec-summary=<FNV-1a>`. Each spec must
// reproduce its recorded line exactly:
//
//   <spec, spaces as commas> packets=<n> trace=<FNV-1a> summary=<FNV-1a>
//
// `trace` mixes every field of every packet, in order; `summary` mixes
// all nine summaries: packet and flow counts, the mean payload, every
// hint (doubles by bit pattern), and each class's key fields, count,
// payload sum and representative packet. Generation and summarizing are
// deterministic, so any drift in any bit means a draw, a packet or a
// class changed.
//
// Corpus: about 300 seeded in-range specs (flows 1..200k, zipf 0..8,
// fixed and ranged payloads, paced and Poisson arrivals, 1..20k
// packets), then hand edges: flows on either side of 65,536, zipf 0, 1,
// 1.1 and 8, payload 0:9000, one packet, and two specs that differ only
// in seed, back to back.
//
// A spec whose line is missing or differs fails with its actual line, and
// the test writes every actual line to CLARA_WORKLOAD_GOLDEN_OUT so a
// deliberate change can be reviewed as a diff.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/clara.hpp"
#include "core/predict.hpp"
#include "lnic/profiles.hpp"
#include "workload/tracegen.hpp"

#ifndef CLARA_WORKLOAD_GOLDEN
#define CLARA_WORKLOAD_GOLDEN "tests/data/workload_golden.txt"
#endif
#ifndef CLARA_WORKLOAD_GOLDEN_OUT
#define CLARA_WORKLOAD_GOLDEN_OUT "workload_golden.txt"
#endif

namespace {

using namespace clara;
using workload::ArrivalProcess;
using workload::PacketMeta;
using workload::WorkloadProfile;

/// Log-uniform integer in [lo, hi].
std::uint64_t log_uniform(Rng& rng, double lo, double hi) {
  return static_cast<std::uint64_t>(std::llround(lo * std::exp(rng.next_double() * std::log(hi / lo))));
}

std::vector<WorkloadProfile> corpus() {
  std::vector<WorkloadProfile> specs;
  Rng rng(20261019);
  for (int i = 0; i < 300; ++i) {
    WorkloadProfile p;
    p.tcp_fraction = i % 10 == 0 ? static_cast<double>(i % 20 == 0) : rng.next_double();
    p.flows = static_cast<std::uint32_t>(log_uniform(rng, 1, 200'000));
    p.zipf_alpha = i % 4 == 0 ? rng.next_double() * 8.0 : static_cast<double>(rng.uniform(0, 300)) / 100.0;
    p.payload_min = static_cast<std::uint16_t>(rng.uniform(0, 9000));
    p.payload_max = rng.chance(0.5) ? p.payload_min : static_cast<std::uint16_t>(rng.uniform(p.payload_min, 9000));
    p.pps = std::exp(rng.next_double() * std::log(1e9));
    p.packets = log_uniform(rng, 1, 20'000);
    p.arrivals = rng.chance(0.3) ? ArrivalProcess::kPoisson : ArrivalProcess::kDeterministic;
    p.seed = rng.next_u64();
    specs.push_back(p);
  }
  const auto spec = [&specs](const std::string& text) {
    const auto parsed = workload::parse_profile(text);
    EXPECT_TRUE(parsed.ok()) << text;
    if (parsed.ok()) specs.push_back(parsed.value());
  };
  spec("flows=1 packets=3000 seed=1");
  spec("flows=65536 packets=5000 seed=2");
  spec("flows=65537 packets=5000 seed=3");
  spec("flows=65536 zipf=0 packets=5000 seed=4");
  spec("zipf=0 flows=2000 packets=4000 seed=5");
  spec("zipf=1 flows=2000 packets=4000 seed=6");
  spec("zipf=1.1 flows=2000 packets=4000 seed=7");
  spec("zipf=8 flows=100000 packets=4000 seed=8");
  spec("payload=0:9000 flows=2000 packets=4000 seed=9");
  spec("payload=1500 flows=2000 packets=4000 seed=10");
  spec("packets=1 seed=11");
  spec("packets=1 flows=1 payload=0 seed=12");
  spec("arrivals=poisson pps=1000000 flows=5000 packets=6000 seed=13");
  // perfbench's cold spec twice, differing only in seed.
  spec("tcp=0.8 flows=2000 payload=64:1500 pps=60000 packets=2000 seed=14");
  spec("tcp=0.8 flows=2000 payload=64:1500 pps=60000 packets=2000 seed=15");
  return specs;
}

void mix(Fnv1a& h, const PacketMeta& p) {
  h.mix(p.flow_id).mix(p.src_ip).mix(p.dst_ip);
  h.mix(std::uint64_t{p.src_port}).mix(std::uint64_t{p.dst_port});
  h.mix(std::uint64_t{p.proto}).mix(std::uint64_t{p.tcp_flags});
  h.mix(std::uint64_t{p.payload_len}).mix(p.arrival_ns);
}

void mix(Fnv1a& h, const core::WorkloadSummary& s) {
  h.mix(s.profile.digest()).mix(s.packets).mix(s.mean_payload).mix(s.distinct_flows);
  h.mix(s.hints.avg_payload).mix(s.hints.flow_cache_hit_rate).mix(s.hints.branch_prob);
  for (const auto& [key, value] : s.hints.params) h.mix(std::string_view(key)).mix(value);
  h.mix(s.flow_cache_capacity).mix(static_cast<std::uint64_t>(s.payload_buckets));
  h.mix(static_cast<std::uint64_t>(s.classes.size()));
  for (const auto& c : s.classes) {
    h.mix(std::uint64_t{c.proto}).mix(c.syn).mix(c.new_flow).mix(c.bucket);
    h.mix(c.count).mix(c.payload_sum);
    mix(h, c.rep);
  }
}

const std::vector<lnic::NicProfile>& nics() {
  static const std::vector<lnic::NicProfile> profiles = {lnic::netronome_agilio_cx(), lnic::soc_arm_nic(),
                                                         lnic::pipeline_asic_nic()};
  return profiles;
}

/// One analyzer per NIC, in nics() order.
const std::vector<std::unique_ptr<core::Analyzer>>& analyzers() {
  static const auto all = [] {
    std::vector<std::unique_ptr<core::Analyzer>> out;
    for (const auto& nic : nics()) out.push_back(std::make_unique<core::Analyzer>(nic));
    return out;
  }();
  return all;
}

std::string line(const WorkloadProfile& spec) {
  const auto trace = workload::generate_trace(spec);
  Fnv1a packets;
  for (const auto& p : trace.packets) mix(packets, p);
  Fnv1a summaries;
  for (const auto& nic : nics()) {
    for (const std::size_t buckets : {1, 8, 64}) mix(summaries, core::summarize(trace, nic, buckets));
  }
  // The same nine summaries, each taken in the generator's own pass.
  Fnv1a from_spec;
  for (const auto& analyzer : analyzers()) {
    for (const std::size_t buckets : {1, 8, 64}) {
      core::AnalyzeOptions options;
      options.use_cache = false;
      options.predict.payload_buckets = buckets;
      mix(from_spec, *analyzer->summarize(spec, options));
    }
  }
  std::string tag = spec.serialize();
  for (char& c : tag) c = c == ' ' ? ',' : c;
  std::string out = strf("%s packets=%zu trace=%016llx summary=%016llx", tag.c_str(), trace.size(),
                         static_cast<unsigned long long>(packets.digest()),
                         static_cast<unsigned long long>(summaries.digest()));
  if (from_spec.digest() != summaries.digest()) {
    out += strf(" spec-summary=%016llx", static_cast<unsigned long long>(from_spec.digest()));
  }
  return out;
}

/// Golden file lines keyed by their first field (the spec).
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(CLARA_WORKLOAD_GOLDEN);
    for (std::string text; std::getline(in, text);) {
      if (text.empty() || text.front() == '#') continue;
      out[text.substr(0, text.find(' '))] = text;
    }
    return out;
  }();
  return lines;
}

TEST(WorkloadGoldenTest, EverySpecTraceAndSummary) {
  const auto specs = corpus();
  std::vector<std::string> actual;
  bool differs = false;
  for (const auto& spec : specs) {
    actual.push_back(line(spec));
    const std::string& text = actual.back();
    const auto it = golden().find(text.substr(0, text.find(' ')));
    if (it == golden().end()) {
      ADD_FAILURE() << "no golden line for this spec; actual:\n" << text;
      differs = true;
    } else if (it->second != text) {
      ADD_FAILURE() << "expected:\n" << it->second << "\nactual:\n" << text;
      differs = true;
    }
  }
  EXPECT_EQ(golden().size(), specs.size()) << "golden file has specs this test no longer runs";
  if (differs) {
    std::ofstream out(CLARA_WORKLOAD_GOLDEN_OUT);
    out << "# Golden workloads: <spec> packets=<n> trace=<fnv> summary=<fnv>. "
           "See tests/workload_golden_test.cpp.\n";
    for (const auto& text : actual) out << text << "\n";
  }
}

// Pool workers generate concurrently: each spec's line is the same at
// jobs=4 as alone.
TEST(WorkloadGoldenTest, SameLinesOnPoolWorkers) {
  const auto specs = corpus();
  std::vector<std::string> lines(specs.size());
  parallel::parallel_for_jobs(4, 0, specs.size(), [&](std::size_t i) { lines[i] = line(specs[i]); });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string key = lines[i].substr(0, lines[i].find(' '));
    const auto it = golden().find(key);
    ASSERT_NE(it, golden().end()) << lines[i];
    EXPECT_EQ(it->second, lines[i]);
  }
}

}  // namespace
