#include "passes/costmodel.hpp"

#include <algorithm>
#include <cmath>

namespace clara::passes {

using cir::MemSpace;
using cir::Opcode;
using cir::StateObject;
using cir::VCall;
using lnic::ParameterStore;
using lnic::UnitKind;
namespace keys = lnic::keys;

void InstrMix::add(const InstrMix& other) {
  alu += other.alu;
  mul += other.mul;
  div += other.div;
  cmp += other.cmp;
  branch += other.branch;
  select += other.select;
  fp += other.fp;
  packet_loads += other.packet_loads;
  packet_stores += other.packet_stores;
  scratch_ops += other.scratch_ops;
  header_ops += other.header_ops;
  phi += other.phi;
  for (const auto& [s, c] : other.state_reads) state_reads[s] += c;
  for (const auto& [s, c] : other.state_writes) state_writes[s] += c;
}

InstrMix instr_mix(const cir::BasicBlock& block, std::size_t begin, std::size_t end) {
  InstrMix mix;
  end = std::min(end, block.instrs.size());
  for (std::size_t i = begin; i < end; ++i) {
    const cir::Instr& instr = block.instrs[i];
    switch (instr.op) {
      case Opcode::kAdd: case Opcode::kSub: case Opcode::kAnd: case Opcode::kOr:
      case Opcode::kXor: case Opcode::kShl: case Opcode::kShr:
        ++mix.alu;
        break;
      case Opcode::kMul: ++mix.mul; break;
      case Opcode::kDiv: case Opcode::kRem: ++mix.div; break;
      case Opcode::kEq: case Opcode::kNe: case Opcode::kLt:
      case Opcode::kLe: case Opcode::kGt: case Opcode::kGe:
        ++mix.cmp;
        break;
      case Opcode::kSelect: ++mix.select; break;
      case Opcode::kFAdd: case Opcode::kFMul: ++mix.fp; break;
      case Opcode::kBr: case Opcode::kCondBr: ++mix.branch; break;
      case Opcode::kPhi: ++mix.phi; break;
      case Opcode::kRet: break;
      case Opcode::kCall: break;  // priced via vcall_compute_cycles
      case Opcode::kLoad:
        switch (instr.space) {
          case MemSpace::kPacket: ++mix.packet_loads; break;
          case MemSpace::kScratch: ++mix.scratch_ops; break;
          case MemSpace::kHeader: ++mix.header_ops; break;
          case MemSpace::kState: ++mix.state_reads[instr.state]; break;
        }
        break;
      case Opcode::kStore:
        switch (instr.space) {
          case MemSpace::kPacket: ++mix.packet_stores; break;
          case MemSpace::kScratch: ++mix.scratch_ops; break;
          case MemSpace::kHeader: ++mix.header_ops; break;
          case MemSpace::kState: ++mix.state_writes[instr.state]; break;
        }
        break;
    }
  }
  return mix;
}

bool unit_supports_vcall(UnitKind kind, bool match_action, VCall v) {
  switch (kind) {
    case UnitKind::kNpuCore:
      return true;  // software fallback for everything
    case UnitKind::kHeaderEngine:
      if (!match_action) return v == VCall::kParse;  // fixed-function parser
      switch (v) {
        case VCall::kParse: case VCall::kGetHdr: case VCall::kSetHdr:
        case VCall::kTableLookup: case VCall::kTableUpdate:
        case VCall::kStatsUpdate: case VCall::kMeter:
        case VCall::kEmit: case VCall::kDrop:
          return true;
        default:
          return false;
      }
    case UnitKind::kChecksumAccel:
      return v == VCall::kCsum;
    case UnitKind::kCryptoAccel:
      return v == VCall::kCrypto;
    case UnitKind::kLpmEngine:
      return v == VCall::kLpmLookup;
  }
  return false;
}

bool unit_supports_general_compute(UnitKind kind, bool match_action, const InstrMix& mix) {
  const std::uint64_t total_general = mix.alu + mix.mul + mix.div + mix.cmp + mix.select + mix.fp +
                                      mix.packet_loads + mix.packet_stores + mix.scratch_ops + mix.header_ops;
  switch (kind) {
    case UnitKind::kNpuCore:
      return true;
    case UnitKind::kHeaderEngine:
      // A fixed-function parser hosts no program code at all — not even
      // bare control flow.
      if (!match_action) return total_general + mix.branch + mix.phi == 0;
      // Match-action stages handle header arithmetic but not multiplies,
      // divides, floating point, payload access, or scratch-heavy code.
      return mix.mul == 0 && mix.div == 0 && mix.fp == 0 && mix.packet_loads == 0 && mix.packet_stores == 0 &&
             mix.scratch_ops <= 4;
    default:
      // Fixed-function accelerators execute no general instructions;
      // an empty mix is trivially fine.
      return mix.alu + mix.mul + mix.div + mix.cmp + mix.select + mix.fp + mix.packet_loads + mix.packet_stores +
                 mix.scratch_ops + mix.header_ops ==
             0;
  }
}

namespace {

lnic::PiecewiseLinear curve_price(const ParameterStore& params, const char* key) {
  if (const auto* curve = params.try_curve(key)) return *curve;
  return lnic::PiecewiseLinear::constant(params.scalar(key));
}

}  // namespace

Prices::Prices(const ParameterStore& params)
    : mem_read_local(params.scalar(keys::kMemReadLocal)),
      mem_read_ctm(params.scalar(keys::kMemReadCtm)),
      mem_read_imem(params.scalar(keys::kMemReadImem)),
      mem_read_emem(params.scalar(keys::kMemReadEmem)),
      emem_cache_hit(params.scalar(keys::kEmemCacheHit)),
      instr_alu(params.scalar(keys::kInstrAlu)),
      instr_mul(params.scalar(keys::kInstrMul)),
      instr_div(params.scalar(keys::kInstrDiv)),
      instr_branch(params.scalar(keys::kInstrBranch)),
      instr_move(params.scalar(keys::kInstrMove)),
      instr_fp_emulation(params.scalar(keys::kInstrFpEmulation)),
      parse_base(params.scalar(keys::kParseBase)),
      parse_per_byte(params.scalar(keys::kParsePerByte)),
      csum_accel(curve_price(params, keys::kCsumAccel)),
      csum_sw_extra(params.scalar(keys::kCsumSwExtra)),
      crypto_accel(curve_price(params, keys::kCryptoAccel)),
      crypto_sw_factor(params.scalar(keys::kCryptoSwFactor)),
      lpm_dram(curve_price(params, keys::kLpmDram)),
      flow_cache_hit(params.scalar(keys::kFlowCacheHit)),
      flow_cache_capacity(params.scalar(keys::kFlowCacheCapacity)),
      ingress_base(params.scalar(keys::kIngressDmaBase)),
      ingress_per_byte(params.scalar(keys::kIngressDmaPerByte)),
      egress_base(params.scalar(keys::kEgressBase)),
      ctm_packet_residency(params.scalar(keys::kCtmPacketResidency)),
      spill_per_byte(params.scalar(keys::kSpillPerByte)),
      hub_service(params.scalar(keys::kHubService)),
      clock_hz(params.scalar(keys::kClockHz)) {}

double Prices::mem_read(lnic::MemKind kind) const {
  switch (kind) {
    case lnic::MemKind::kLocal: return mem_read_local;
    case lnic::MemKind::kCtm: return mem_read_ctm;
    case lnic::MemKind::kImem: return mem_read_imem;
    case lnic::MemKind::kEmem: return mem_read_emem;
  }
  return 0.0;
}

double mix_compute_cycles(const InstrMix& mix, UnitKind kind, const Prices& prices) {
  const double alu = prices.instr_alu;
  const double mul = prices.instr_mul;
  const double divc = prices.instr_div;
  const double branch = prices.instr_branch;
  const double move = prices.instr_move;
  const double fp = prices.instr_fp_emulation;
  const double local = prices.mem_read_local;

  // Header engines run header arithmetic at ~1 cycle/op regardless of
  // the NPU tables; they never execute the heavyweight classes (the
  // support predicate guarantees the mix is clean).
  if (kind == UnitKind::kHeaderEngine) {
    return static_cast<double>(mix.alu + mix.cmp + mix.select + mix.branch + mix.header_ops + mix.scratch_ops + mix.phi);
  }

  double cycles = 0.0;
  cycles += static_cast<double>(mix.alu + mix.cmp) * alu;
  cycles += static_cast<double>(mix.mul) * mul;
  cycles += static_cast<double>(mix.div) * divc;
  cycles += static_cast<double>(mix.branch) * branch;
  cycles += static_cast<double>(mix.select) * alu * 2.0;
  cycles += static_cast<double>(mix.fp) * fp;
  cycles += static_cast<double>(mix.header_ops) * move;
  cycles += static_cast<double>(mix.scratch_ops) * local;
  cycles += static_cast<double>(mix.phi) * move;
  return cycles;
}

double vcall_compute_cycles(VCall v, UnitKind kind, double arg, const StateObject* state, const Prices& prices,
                            const CostHints& hints, bool use_flow_cache) {
  const double move = prices.instr_move;
  const double alu = prices.instr_alu;
  switch (v) {
    case VCall::kParse:
      if (kind == UnitKind::kHeaderEngine) {
        // The parser engine works at line rate; only its base fee shows.
        return prices.parse_base * 0.2;
      }
      // NPU software parse: base (CTM->local header copy) + per byte.
      return prices.parse_base + prices.parse_per_byte * 40.0;
    case VCall::kGetHdr:
    case VCall::kSetHdr:
      return move;  // metadata modification: 2-5 cycles (paper §3.2)
    case VCall::kCsum: {
      const double accel = prices.csum_accel.eval(arg);
      if (kind == UnitKind::kChecksumAccel) return accel;
      return accel + prices.csum_sw_extra;  // NPU emulation
    }
    case VCall::kCrypto: {
      const double accel = prices.crypto_accel.eval(arg);
      if (kind == UnitKind::kCryptoAccel) return accel;
      return accel * std::max(1.0, prices.crypto_sw_factor);
    }
    case VCall::kLpmLookup: {
      const double entries = state != nullptr ? static_cast<double>(state->entries) : 1024.0;
      const double dram = prices.lpm_dram.eval(entries);
      if (kind == UnitKind::kLpmEngine) {
        const double hit = prices.flow_cache_hit;
        const double capacity = prices.flow_cache_capacity;
        if (capacity <= 0.0 || !use_flow_cache) return hit + dram;  // every lookup walks DRAM
        const double hr = hints.flow_cache_hit_rate;
        return hit + (1.0 - hr) * dram;  // SRAM probe always; DRAM on miss
      }
      // Software fallback on cores: the same match-action processing in
      // DRAM the paper describes for non-engine implementations (its
      // cost curve is the LPM-vs-entries curve), with no flow cache.
      return dram;
    }
    case VCall::kTableLookup:
      // Hash + key compare; bucket/entry memory accesses priced via Γ.
      return 12.0 * alu + 2.0 * move;
    case VCall::kTableUpdate:
      return 14.0 * alu + 2.0 * move;
    case VCall::kPayloadScan: {
      // Byte-at-a-time automaton on an NPU; packet-residency costs are
      // added by the caller (they depend on the packet size).
      return arg * (3.0 * alu + prices.instr_branch);
    }
    case VCall::kMeter:
      return 10.0 * alu;  // token-bucket arithmetic; state accesses via Γ
    case VCall::kStatsUpdate:
      return 4.0 * alu;
    case VCall::kEmit:
      return prices.egress_base;
    case VCall::kDrop:
      return prices.egress_base * 0.25;
  }
  return 0.0;
}

double vcall_state_accesses(VCall v, UnitKind kind, const StateObject* state) {
  switch (v) {
    case VCall::kTableLookup:
      return kind == UnitKind::kHeaderEngine ? 1.0 : 2.0;  // bucket + entry on cores
    case VCall::kTableUpdate:
      return kind == UnitKind::kHeaderEngine ? 1.0 : 3.0;  // probe + write-back
    case VCall::kLpmLookup:
      return 0.0;  // table-walk memory cost lives in the kLpmDram curve
    case VCall::kMeter:
      return 2.0;  // read + write token state
    case VCall::kStatsUpdate:
      return 2.0;  // read-modify-write counter
    default:
      return 0.0;
  }
}

double packet_access_cycles(double pkt_len, double offset_hint, const Prices& prices) {
  const double residency = prices.ctm_packet_residency;
  const double ctm = prices.mem_read_ctm;
  const double emem = prices.mem_read_emem;
  if (residency <= 0.0) {
    // Packets live in DRAM behind a cache (SoC profile): price at the
    // cache-hit latency, the common case for streaming payload access.
    return prices.emem_cache_hit;
  }
  if (offset_hint >= 0.0) return offset_hint < residency ? ctm : emem;
  if (pkt_len <= residency) return ctm;
  // Average over head (CTM) and spilled tail (EMEM).
  const double head = residency / pkt_len;
  return head * ctm + (1.0 - head) * emem;
}

}  // namespace clara::passes
