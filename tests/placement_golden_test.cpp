// Golden placements for Mapper::map() and Mapper::repair() (paper §3.4,
// DESIGN.md §5 and §13).
//
// Every corpus NF, lowered the way the Analyzer lowers it, is mapped cold
// on each NIC profile, then repaired on the Netronome profile after each
// of five unit/memory failures and one derate. Each case must reproduce
// its recorded outcome: status (or error code), node -> pool and state ->
// region assignment, simplex pivots and branch-and-bound nodes exactly,
// and the objective to 1e-9 relative. The solver is deterministic, so a
// drift in any of these means the emitted placement model changed.
//
// tests/data/placement_golden.txt holds one line per case: three key
// fields (kind, NF, NIC or fault), then the outcome. A case whose line
// is missing or differs fails with its actual line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "lnic/profiles.hpp"
#include "mapping/mapping.hpp"
#include "nf/corpus.hpp"
#include "passes/api_subst.hpp"
#include "passes/dataflow.hpp"
#include "passes/optimize.hpp"
#include "passes/patterns.hpp"

#ifndef CLARA_PLACEMENT_GOLDEN
#define CLARA_PLACEMENT_GOLDEN "tests/data/placement_golden.txt"
#endif

namespace {

using namespace clara;

/// A corpus NF lowered like the Analyzer lowers it. Not movable: the
/// graph points into `fn`.
struct LoweredNf {
  explicit LoweredNf(const nf::NfEntry& entry) : fn(entry.build()) {
    passes::substitute_framework_apis(fn);
    passes::collapse_packet_loops(fn);
    passes::optimize(fn);
    graph = passes::DataflowGraph::build(fn, hints);
  }
  LoweredNf(const LoweredNf&) = delete;
  LoweredNf& operator=(const LoweredNf&) = delete;

  cir::Function fn;
  passes::CostHints hints;
  passes::DataflowGraph graph;
};

std::string outcome(const Result<mapping::Mapping>& result) {
  if (!result) return strf("error=%s", to_string(result.error().code));
  const auto& m = result.value();
  std::string line = strf("status=%s nodes=%zu pivots=%zu objective=%.17g pools=", ilp::to_string(m.status),
                          m.ilp_nodes_explored, m.ilp_pivots, m.objective);
  for (std::size_t i = 0; i < m.node_pool.size(); ++i) line += strf(i == 0 ? "%u" : ",%u", m.node_pool[i]);
  line += " regions=";
  for (std::size_t s = 0; s < m.state_region.size(); ++s) line += strf(s == 0 ? "%u" : ",%u", m.state_region[s]);
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
    std::ifstream in(CLARA_PLACEMENT_GOLDEN);
    for (std::string line; std::getline(in, line);) {
      const auto tokens = split(line);
      if (tokens.size() < 4 || tokens[0].front() == '#') continue;
      out[tokens[0] + " " + tokens[1] + " " + tokens[2]] = line;
    }
    return out;
  }();
  return lines;
}

/// Exact match on every field but the objective, which must agree to
/// 1e-9 relative.
bool matches(const std::string& expected, const std::string& actual) {
  const auto want = split(expected);
  const auto got = split(actual);
  if (want.size() != got.size()) return false;
  for (std::size_t t = 0; t < want.size(); ++t) {
    const std::string key = "objective=";
    if (want[t].rfind(key, 0) == 0 && got[t].rfind(key, 0) == 0) {
      const double a = std::strtod(want[t].c_str() + key.size(), nullptr);
      const double b = std::strtod(got[t].c_str() + key.size(), nullptr);
      if (std::fabs(a - b) > 1e-9 * std::max(1.0, std::fabs(a))) return false;
    } else if (want[t] != got[t]) {
      return false;
    }
  }
  return true;
}

void check(const std::string& key, const Result<mapping::Mapping>& result) {
  const std::string actual = key + " " + outcome(result);
  const auto it = golden().find(key);
  if (it == golden().end()) {
    ADD_FAILURE() << "no golden line for this case; actual:\n" << actual;
  } else if (!matches(it->second, actual)) {
    ADD_FAILURE() << "expected:\n" << it->second << "\nactual:\n" << actual;
  }
}

std::size_t golden_lines(const std::string& kind) {
  std::size_t n = 0;
  for (const auto& [key, line] : golden()) n += key.rfind(kind + " ", 0) == 0 ? 1 : 0;
  return n;
}

TEST(PlacementGoldenTest, ColdMapOnEveryNic) {
  const std::vector<lnic::NicProfile> nics = {lnic::netronome_agilio_cx(), lnic::soc_arm_nic(),
                                              lnic::pipeline_asic_nic()};
  std::size_t cases = 0;
  for (const auto& entry : nf::corpus()) {
    const LoweredNf nf(entry);
    for (const auto& nic : nics) {
      const mapping::Mapper mapper(nic);
      check(strf("map %s %s", entry.name, nic.name.c_str()), mapper.map(nf.graph, nf.hints));
      ++cases;
    }
  }
  EXPECT_EQ(cases, 39u);
  EXPECT_EQ(golden_lines("map"), cases) << "golden file has cases this test no longer runs";
}

TEST(PlacementGoldenTest, RepairOnNetronome) {
  struct Fault {
    const char* name;
    const char* unit;
    double derate;  // 0 = fail the unit outright
  };
  const std::vector<Fault> faults = {{"fail:csum", "csum", 0.0},       {"fail:lpm-engine", "lpm-engine", 0.0},
                                     {"fail:crypto", "crypto", 0.0},   {"fail:ctm0", "ctm0", 0.0},
                                     {"fail:emem", "emem", 0.0},       {"derate:csum:10", "csum", 0.10}};
  const auto healthy_profile = lnic::netronome_agilio_cx();
  const mapping::Mapper healthy(healthy_profile);
  std::size_t cases = 0;
  for (const auto& entry : nf::corpus()) {
    const LoweredNf nf(entry);
    const auto previous = healthy.map(nf.graph, nf.hints);
    ASSERT_TRUE(previous.ok()) << entry.name << ": " << previous.error().message;
    for (const auto& fault : faults) {
      auto profile = lnic::netronome_agilio_cx();
      auto applied = fault.derate > 0.0 ? profile.graph.derate_units(fault.unit, fault.derate)
                                        : profile.graph.mark_offline(fault.unit);
      ASSERT_TRUE(applied.ok()) << fault.name << ": " << applied.error().message;
      const mapping::Mapper mapper(profile);
      check(strf("repair %s %s", entry.name, fault.name), mapper.repair(nf.graph, nf.hints, previous.value()));
      ++cases;
    }
  }
  EXPECT_EQ(cases, 78u);
  EXPECT_EQ(golden_lines("repair"), cases) << "golden file has cases this test no longer runs";
}

}  // namespace
