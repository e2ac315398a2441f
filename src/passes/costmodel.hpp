// Static cost model: prices CIR code on LNIC compute units.
//
// Splits each cost into a compute part (instruction mix × per-class
// cycles; vcall service curves) and a memory part (state accesses ×
// placement-dependent latency). The split matches the ILP structure:
// compute costs multiply the Π assignment variables, memory costs the
// Γ placement variables.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cir/function.hpp"
#include "cir/vcalls.hpp"
#include "lnic/lnic.hpp"
#include "lnic/params.hpp"

namespace clara::passes {

/// Static per-execution instruction mix of a range of instructions.
struct InstrMix {
  std::uint64_t alu = 0;
  std::uint64_t mul = 0;
  std::uint64_t div = 0;
  std::uint64_t cmp = 0;
  std::uint64_t branch = 0;
  std::uint64_t select = 0;
  std::uint64_t fp = 0;
  std::uint64_t packet_loads = 0;
  std::uint64_t packet_stores = 0;
  std::uint64_t scratch_ops = 0;
  std::uint64_t header_ops = 0;
  std::uint64_t phi = 0;
  /// Explicit (load/store) state accesses per state object index.
  std::map<std::uint32_t, std::uint64_t> state_reads;
  std::map<std::uint32_t, std::uint64_t> state_writes;

  void add(const InstrMix& other);
};

/// Mix over instrs [begin, end) of a block.
InstrMix instr_mix(const cir::BasicBlock& block, std::size_t begin, std::size_t end);

/// Workload-derived knobs the static cost model needs before a concrete
/// trace exists (the mapper runs pre-workload; the predictor later uses
/// exact per-packet values).
struct CostHints {
  /// Values for symbolic loop-trip parameters ("payload_len", ...).
  std::map<std::string, double> params;
  /// Average payload length for size-dependent vcalls priced statically.
  double avg_payload = 300.0;
  /// Expected flow-cache hit rate on the LPM engine (workload locality).
  double flow_cache_hit_rate = 0.8;
  /// Probability that a conditional branch takes its first target.
  double branch_prob = 0.5;

  [[nodiscard]] double param(const std::string& name, double fallback) const {
    const auto it = params.find(name);
    return it != params.end() ? it->second : fallback;
  }
};

/// Which vcalls a compute-unit kind can serve. NPUs serve everything
/// (software fallback); accelerators serve their own operation;
/// match-action header engines serve parse/header/table work, while
/// fixed-function parsers (match_action = false) serve only parse.
bool unit_supports_vcall(lnic::UnitKind kind, bool match_action, cir::VCall v);

/// True if the unit kind can execute general-purpose instruction mixes
/// (beyond simple header arithmetic).
bool unit_supports_general_compute(lnic::UnitKind kind, bool match_action, const InstrMix& mix);

/// Cycles for one execution of `mix` on a unit of `kind` (memory costs
/// for state accesses excluded; packet loads are priced separately by
/// the caller because packet residency depends on packet size).
double mix_compute_cycles(const InstrMix& mix, lnic::UnitKind kind, const lnic::ParameterStore& params);

/// Compute-side cycles of one vcall invocation on a unit of `kind`,
/// given the length/size argument `arg` (bytes for csum/crypto/scan,
/// unused otherwise). State-access cycles are excluded — use
/// vcall_state_accesses + Mapper::access_cycles for those.
/// `state` supplies table geometry for lookup-style vcalls.
/// `use_flow_cache` is the kLpmLookup flag (the NF's third argument):
/// when false, every lookup walks the DRAM match-action tables.
double vcall_compute_cycles(cir::VCall v, lnic::UnitKind kind, double arg,
                            const cir::StateObject* state, const lnic::ParameterStore& params,
                            const CostHints& hints, bool use_flow_cache = true);

/// Number of (placement-dependent) state-memory accesses one invocation
/// of the vcall performs on a unit of `kind` (e.g. a hash-table lookup on
/// an NPU touches a bucket then an entry → 2; a software LPM walks a
/// trie → ~log2(entries)).
double vcall_state_accesses(cir::VCall v, lnic::UnitKind kind, const cir::StateObject* state);

/// Packet-byte access cost: packets up to the CTM-residency threshold
/// read at CTM latency; beyond it, the spilled tail reads at EMEM
/// latency. `offset_hint` < 0 prices an average access for a packet of
/// `pkt_len` bytes.
double packet_access_cycles(double pkt_len, double offset_hint, const lnic::ParameterStore& params);

}  // namespace clara::passes
