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

/// Every parameter the cost model reads, looked up once from a NIC's
/// ParameterStore so that pricing a node or a packet class does no
/// string-keyed lookup. Each field holds exactly the value the store
/// returns for its key, so a price computed from the table is the price
/// computed from the store, bit for bit. A curve key the store gives a
/// scalar becomes PiecewiseLinear::constant of it, which evaluates to
/// that scalar at every x, as ParameterStore::eval does. The Mapper
/// builds one per NIC.
struct Prices {
  explicit Prices(const lnic::ParameterStore& params);

  double mem_read_local = 0.0;
  double mem_read_ctm = 0.0;
  double mem_read_imem = 0.0;
  double mem_read_emem = 0.0;
  double emem_cache_hit = 0.0;
  double instr_alu = 0.0;
  double instr_mul = 0.0;
  double instr_div = 0.0;
  double instr_branch = 0.0;
  double instr_move = 0.0;
  double instr_fp_emulation = 0.0;
  double parse_base = 0.0;
  double parse_per_byte = 0.0;
  lnic::PiecewiseLinear csum_accel;
  double csum_sw_extra = 0.0;
  lnic::PiecewiseLinear crypto_accel;
  double crypto_sw_factor = 0.0;
  lnic::PiecewiseLinear lpm_dram;
  double flow_cache_hit = 0.0;
  double flow_cache_capacity = 0.0;
  double ingress_base = 0.0;
  double ingress_per_byte = 0.0;
  double egress_base = 0.0;
  double ctm_packet_residency = 0.0;
  double spill_per_byte = 0.0;
  double hub_service = 0.0;
  double clock_hz = 0.0;

  /// Read latency of a memory level from an on-island NPU.
  [[nodiscard]] double mem_read(lnic::MemKind kind) const;
};

/// Cycles for one execution of `mix` on a unit of `kind` (memory costs
/// for state accesses excluded; packet loads are priced separately by
/// the caller because packet residency depends on packet size).
double mix_compute_cycles(const InstrMix& mix, lnic::UnitKind kind, const Prices& prices);

/// Compute-side cycles of one vcall invocation on a unit of `kind`,
/// given the length/size argument `arg` (bytes for csum/crypto/scan,
/// unused otherwise). State-access cycles are excluded — use
/// vcall_state_accesses + Mapper::access_cycles for those.
/// `state` supplies table geometry for lookup-style vcalls.
/// `use_flow_cache` is the kLpmLookup flag (the NF's third argument):
/// when false, every lookup walks the DRAM match-action tables.
double vcall_compute_cycles(cir::VCall v, lnic::UnitKind kind, double arg,
                            const cir::StateObject* state, const Prices& prices,
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
double packet_access_cycles(double pkt_len, double offset_hint, const Prices& prices);

}  // namespace clara::passes
