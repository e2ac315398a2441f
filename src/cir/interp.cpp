#include "cir/interp.hpp"

#include "common/strings.hpp"

namespace clara::cir {

namespace {

/// Width mask for a type (void/ptr treated as full width).
std::uint64_t type_mask(Type t) {
  switch (t) {
    case Type::kI8: return 0xffULL;
    case Type::kI16: return 0xffffULL;
    case Type::kI32: return 0xffffffffULL;
    default: return ~0ULL;
  }
}

/// Deterministic pseudo-content for packet bytes: prediction only needs
/// branch decisions to be stable, not real payloads.
std::uint64_t synth_byte(std::uint64_t addr) {
  std::uint64_t z = addr + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return (z ^ (z >> 27)) & 0xff;
}

}  // namespace

Interpreter::Interpreter(const Function& fn, VCallHandler& handler)
    : fn_(fn), handler_(handler), state_mem_(fn.state_objects.size()) {
  block_base_.reserve(fn_.blocks.size());
  for (const BasicBlock& bb : fn_.blocks) {
    block_base_.push_back(callee_.size());
    for (const Instr& instr : bb.instrs) {
      callee_.push_back(instr.op == Opcode::kCall ? parse_vcall(instr.callee) : std::nullopt);
    }
  }
}

std::uint64_t Interpreter::eval(const Value& v) const {
  switch (v.kind) {
    case Value::Kind::kReg: return regs_[v.reg];
    case Value::Kind::kImm: return static_cast<std::uint64_t>(v.imm);
    case Value::Kind::kNone: return 0;
  }
  return 0;
}

Result<ExecTrace> Interpreter::run(std::uint64_t max_steps) {
  if (auto status = execute(max_steps); !status) return status.error();
  return trace_;
}

Status Interpreter::execute(std::uint64_t max_steps) {
  ExecTrace& trace = trace_;
  trace.block_counts.assign(fn_.blocks.size(), 0);
  trace.vcalls.clear();
  trace.args.clear();
  trace.steps = 0;
  regs_.assign(fn_.num_regs, 0);
  scratch_.clear();
  header_mem_.clear();
  packet_mem_.clear();
  for (auto& mem : state_mem_) mem.clear();

  std::uint32_t block = 0;
  std::uint32_t prev_block = ~0u;

  while (true) {
    if (block >= fn_.blocks.size()) return make_error("interpreter: branch to invalid block");
    ++trace.block_counts[block];
    const BasicBlock& bb = fn_.blocks[block];

    // Phis execute in parallel at block entry.
    phi_writes_.clear();
    std::size_t i = 0;
    for (; i < bb.instrs.size() && bb.instrs[i].op == Opcode::kPhi; ++i) {
      const Instr& phi = bb.instrs[i];
      bool matched = false;
      for (std::size_t a = 0; a < phi.phi_preds.size(); ++a) {
        if (phi.phi_preds[a] == prev_block) {
          phi_writes_.emplace_back(phi.dst, eval(phi.args[a]) & type_mask(phi.type));
          matched = true;
          break;
        }
      }
      if (!matched) return make_error(strf("interpreter: phi in '%s' has no edge from predecessor", bb.label.c_str()));
    }
    for (const auto& [dst, val] : phi_writes_) regs_[dst] = val;

    for (; i < bb.instrs.size(); ++i) {
      const Instr& instr = bb.instrs[i];
      if (++trace.steps > max_steps) return make_error("interpreter: step limit exceeded");
      const std::uint64_t mask = type_mask(instr.type);

      switch (instr.op) {
        case Opcode::kAdd: regs_[instr.dst] = (eval(instr.args[0]) + eval(instr.args[1])) & mask; break;
        case Opcode::kSub: regs_[instr.dst] = (eval(instr.args[0]) - eval(instr.args[1])) & mask; break;
        case Opcode::kMul: regs_[instr.dst] = (eval(instr.args[0]) * eval(instr.args[1])) & mask; break;
        case Opcode::kFAdd: regs_[instr.dst] = (eval(instr.args[0]) + eval(instr.args[1])) & mask; break;
        case Opcode::kFMul: regs_[instr.dst] = (eval(instr.args[0]) * eval(instr.args[1])) & mask; break;
        case Opcode::kDiv: {
          const std::uint64_t d = eval(instr.args[1]);
          if (d == 0) return make_error("interpreter: division by zero");
          regs_[instr.dst] = (eval(instr.args[0]) / d) & mask;
          break;
        }
        case Opcode::kRem: {
          const std::uint64_t d = eval(instr.args[1]);
          if (d == 0) return make_error("interpreter: remainder by zero");
          regs_[instr.dst] = (eval(instr.args[0]) % d) & mask;
          break;
        }
        case Opcode::kAnd: regs_[instr.dst] = (eval(instr.args[0]) & eval(instr.args[1])) & mask; break;
        case Opcode::kOr: regs_[instr.dst] = (eval(instr.args[0]) | eval(instr.args[1])) & mask; break;
        case Opcode::kXor: regs_[instr.dst] = (eval(instr.args[0]) ^ eval(instr.args[1])) & mask; break;
        case Opcode::kShl: regs_[instr.dst] = (eval(instr.args[0]) << (eval(instr.args[1]) & 63)) & mask; break;
        case Opcode::kShr: regs_[instr.dst] = (eval(instr.args[0]) >> (eval(instr.args[1]) & 63)) & mask; break;
        case Opcode::kEq: regs_[instr.dst] = eval(instr.args[0]) == eval(instr.args[1]) ? 1 : 0; break;
        case Opcode::kNe: regs_[instr.dst] = eval(instr.args[0]) != eval(instr.args[1]) ? 1 : 0; break;
        case Opcode::kLt: regs_[instr.dst] = eval(instr.args[0]) < eval(instr.args[1]) ? 1 : 0; break;
        case Opcode::kLe: regs_[instr.dst] = eval(instr.args[0]) <= eval(instr.args[1]) ? 1 : 0; break;
        case Opcode::kGt: regs_[instr.dst] = eval(instr.args[0]) > eval(instr.args[1]) ? 1 : 0; break;
        case Opcode::kGe: regs_[instr.dst] = eval(instr.args[0]) >= eval(instr.args[1]) ? 1 : 0; break;
        case Opcode::kSelect:
          regs_[instr.dst] = (eval(instr.args[0]) != 0 ? eval(instr.args[1]) : eval(instr.args[2])) & mask;
          break;
        case Opcode::kLoad: {
          const std::uint64_t addr = eval(instr.args[0]);
          std::uint64_t value = 0;
          switch (instr.space) {
            case MemSpace::kPacket: {
              const auto it = packet_mem_.find(addr);
              value = it != packet_mem_.end() ? it->second : synth_byte(addr);
              break;
            }
            case MemSpace::kHeader: {
              const auto it = header_mem_.find(addr);
              value = it != header_mem_.end() ? it->second : 0;
              break;
            }
            case MemSpace::kScratch: {
              const auto it = scratch_.find(addr);
              value = it != scratch_.end() ? it->second : 0;
              break;
            }
            case MemSpace::kState: {
              const auto& mem = state_mem_[instr.state];
              const auto it = mem.find(addr);
              value = it != mem.end() ? it->second : 0;
              break;
            }
          }
          regs_[instr.dst] = value & mask;
          break;
        }
        case Opcode::kStore: {
          const std::uint64_t addr = eval(instr.args[0]);
          const std::uint64_t value = eval(instr.args[1]) & mask;
          switch (instr.space) {
            case MemSpace::kPacket: packet_mem_[addr] = value; break;
            case MemSpace::kHeader: header_mem_[addr] = value; break;
            case MemSpace::kScratch: scratch_[addr] = value; break;
            case MemSpace::kState: state_mem_[instr.state][addr] = value; break;
          }
          break;
        }
        case Opcode::kCall: {
          const auto v = callee_[block_base_[block] + i];
          if (!v) {
            return make_error(strf("interpreter: unsubstituted call '%s' (run the API substitution pass first)",
                                   instr.callee.c_str()));
          }
          VCallEvent event;
          event.block = block;
          event.instr = static_cast<std::uint32_t>(i);
          event.v = *v;
          event.first_arg = static_cast<std::uint32_t>(trace.args.size());
          event.num_args = static_cast<std::uint32_t>(instr.args.size());
          for (const auto& arg : instr.args) trace.args.push_back(eval(arg));
          event.result = handler_.handle(*v, trace.args_of(event));
          if (instr.dst != kNoReg) regs_[instr.dst] = event.result;
          trace.vcalls.push_back(event);
          break;
        }
        case Opcode::kBr:
          prev_block = block;
          block = instr.target0;
          goto next_block;
        case Opcode::kCondBr:
          prev_block = block;
          block = eval(instr.args[0]) != 0 ? instr.target0 : instr.target1;
          goto next_block;
        case Opcode::kRet:
          return {};
        case Opcode::kPhi:
          return make_error("interpreter: phi after non-phi instruction");
      }
    }
    return make_error(strf("interpreter: block '%s' fell through without a terminator", bb.label.c_str()));
  next_block:;
  }
}

}  // namespace clara::cir
