// The seeded wire fuzz corpus: real clara-serve/1 request and response
// lines, and the byte mutations applied to them. serve_test's
// MutatedWireCorpusNeverCrashes checks that every mutation parses or is
// a typed kParse error; wire_golden_test pins each mutation's outcome.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/request.hpp"

namespace clara::wire_corpus {

/// Seeded mutations applied to each corpus line.
inline constexpr std::uint64_t kRounds = 80;

struct Line {
  std::string text;
  bool is_response = false;
};

inline core::Request analyze(const char* id, const char* nf = "lpm") {
  core::Request request;
  request.id = id;
  request.nf = nf;
  request.workload = "tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000 seed=42";
  return request;
}

inline std::vector<Line> corpus() {
  std::vector<Line> lines;
  {
    core::Request r = analyze("fuzz-analyze");
    r.nic = "netronome-agilio-cx";
    r.energy = true;
    r.breakdown = true;
    lines.push_back({r.to_json()});
  }
  {
    core::Request r = analyze("fuzz-sweep", "nat");
    r.kind = core::RequestKind::kSweep;
    r.sweep_pps = {10'000.0, 60'000.0};
    lines.push_back({r.to_json()});
  }
  {
    core::Request r = analyze("fuzz-repair", "nat");
    r.kind = core::RequestKind::kRepair;
    r.fault_plan = "fail-unit csum\n";
    lines.push_back({r.to_json()});
  }
  {
    core::Request r = analyze("fuzz-counts");
    r.options.predict.payload_buckets = 65536;
    r.options.map.max_ilp_nodes = 0;
    lines.push_back({r.to_json()});
  }
  // Out-of-range counts, so mutations land next to a rejected value.
  lines.push_back({R"({"proto":"clara-serve/1","id":"fuzz-bad-counts","kind":"analyze",)"
                   R"("map":{"max_ilp_nodes":-1},"predict":{"payload_buckets":65537}})"});
  {
    core::Request r = analyze("t");
    core::Response response = core::error_response(r, ErrorCode::kOverloaded, "busy");
    response.retry_after_ms = 5.0;
    lines.push_back({response.to_json(), true});
  }
  return lines;
}

/// Mutation `round` of corpus line `index`: 1 to 8 bytes overwritten at
/// seeded offsets with seeded values.
inline std::string mutate(const std::string& line, std::size_t index, std::uint64_t round) {
  Rng rng(parallel::shard_seed(0x5E44Eu + index, round));
  std::string mutated = line;
  const std::size_t flips = 1 + rng.next_below(8);
  for (std::size_t f = 0; f < flips && !mutated.empty(); ++f) {
    mutated[rng.next_below(mutated.size())] = static_cast<char>(rng.next_below(256));
  }
  return mutated;
}

}  // namespace clara::wire_corpus
