// Golden predictions for core::predict (paper §3.5, DESIGN.md §14).
//
// Every corpus NF is analyzed on each NIC profile against three
// workloads: fixed 300-byte payloads, mixed 64..1500-byte payloads (the
// 32-class summary), and 1200-byte payloads at 3 Mpps, where queueing
// terms and saturated pools show. Each case must reproduce its recorded
// prediction exactly: mean and worst-case latency, throughput,
// bottleneck, both hit-rate estimates, every class's latency, every
// breakdown component, and every pool's utilization and queue wait, all
// printed as %.17g. Prediction is deterministic arithmetic, so any drift
// in any digit means the cost model changed.
//
// tests/data/predict_golden.txt holds one line per case: three key
// fields (NF, NIC, workload with spaces as commas), then the prediction.
// A case whose line is missing or differs fails with its actual line.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "core/clara.hpp"
#include "lnic/profiles.hpp"
#include "nf/corpus.hpp"
#include "obs/breakdown.hpp"
#include "workload/tracegen.hpp"

#ifndef CLARA_PREDICT_GOLDEN
#define CLARA_PREDICT_GOLDEN "tests/data/predict_golden.txt"
#endif

namespace {

using namespace clara;

/// Shared by every workload so only the named fields differ.
constexpr const char* kBaseWorkload = "tcp=0.8 flows=2000 packets=4000 seed=7";

std::string outcome(const Result<core::Analysis>& result) {
  if (!result) return strf("error=%s", to_string(result.error().code));
  const core::Prediction& p = result.value().prediction;
  std::string line = strf("mean=%.17g worst=%.17g throughput=%.17g bottleneck=%s emem_hit=%.17g flow_hit=%.17g",
                          p.mean_latency_cycles, p.worst_case_cycles, p.throughput_pps, p.bottleneck.c_str(),
                          p.emem_cache_hit_rate, p.flow_cache_hit_rate);
  line += " classes=";
  for (std::size_t i = 0; i < p.classes.size(); ++i) {
    line += strf(i == 0 ? "%s:%.17g" : ",%s:%.17g", p.classes[i].name.c_str(), p.classes[i].latency_cycles);
  }
  line += " breakdown=";
  for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
    line += strf(i == 0 ? "%s:%.17g" : ",%s:%.17g", obs::component_name(static_cast<obs::Component>(i)),
                 p.breakdown.cycles[i]);
  }
  line += " loads=";
  for (std::size_t i = 0; i < p.loads.size(); ++i) {
    line += strf(i == 0 ? "%s:%.17g:%.17g" : ",%s:%.17g:%.17g", p.loads[i].pool.c_str(), p.loads[i].utilization,
                 p.loads[i].queue_wait_cycles);
  }
  return line;
}

std::vector<std::string> split(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

/// Golden file lines keyed by their first three fields.
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(CLARA_PREDICT_GOLDEN);
    for (std::string line; std::getline(in, line);) {
      const auto tokens = split(line);
      if (tokens.size() < 4 || tokens[0].front() == '#') continue;
      out[tokens[0] + " " + tokens[1] + " " + tokens[2]] = line;
    }
    return out;
  }();
  return lines;
}

TEST(PredictGoldenTest, EveryNfOnEveryNicAndWorkload) {
  const std::vector<lnic::NicProfile> nics = {lnic::netronome_agilio_cx(), lnic::soc_arm_nic(),
                                              lnic::pipeline_asic_nic()};
  const std::vector<std::string> workloads = {"payload=300", "payload=64:1500", "payload=1200 pps=3000000"};
  core::AnalyzeOptions options;
  options.use_cache = false;
  std::size_t cases = 0;
  for (const auto& nic : nics) {
    const core::Analyzer analyzer(nic);
    for (const auto& spec : workloads) {
      const auto profile = workload::parse_profile(std::string(kBaseWorkload) + " " + spec);
      ASSERT_TRUE(profile.ok()) << spec;
      const auto summary =
          core::summarize(workload::generate_trace(profile.value()), nic, options.predict.payload_buckets);
      std::string tag = spec;
      for (char& c : tag) c = c == ' ' ? ',' : c;
      for (const auto& entry : nf::corpus()) {
        const std::string key = strf("%s %s %s", entry.name, nic.name.c_str(), tag.c_str());
        const std::string actual = key + " " + outcome(analyzer.analyze(entry.build(), summary, options));
        const auto it = golden().find(key);
        if (it == golden().end()) {
          ADD_FAILURE() << "no golden line for this case; actual:\n" << actual;
        } else if (it->second != actual) {
          ADD_FAILURE() << "expected:\n" << it->second << "\nactual:\n" << actual;
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 117u);
  EXPECT_EQ(golden().size(), cases) << "golden file has cases this test no longer runs";
}

}  // namespace
