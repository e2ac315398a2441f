// Concrete CIR interpreter.
//
// Clara does not execute the ported program (none exists) — but it does
// need to know, per packet, which blocks run and with what vcall
// arguments (paper §3.5: "simulate the execution for the set of packets,
// and identify how a packet traverses the parameterized LNIC"). The
// interpreter provides exactly that: it runs a CIR function against a
// model environment (the VCallHandler answers header reads and table
// lookups from a workload model) and records an execution trace — block
// visit counts plus every vcall with its concrete arguments. The
// prediction engine prices the trace against the mapping; the
// interpreter itself knows nothing about hardware.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cir/function.hpp"
#include "cir/vcalls.hpp"
#include "common/result.hpp"

namespace clara::cir {

/// Supplies vcall results during interpretation. Implementations model
/// the packet (header fields) and NF state (table contents).
class VCallHandler {
 public:
  virtual ~VCallHandler() = default;
  virtual std::uint64_t handle(VCall v, std::span<const std::uint64_t> args) = 0;
};

struct VCallEvent {
  std::uint32_t block = 0;
  std::uint32_t instr = 0;
  VCall v = VCall::kDrop;
  std::uint64_t result = 0;
  /// The event's arguments are ExecTrace::args[first_arg, first_arg + num_args).
  std::uint32_t first_arg = 0;
  std::uint32_t num_args = 0;
};

struct ExecTrace {
  /// Executions of each block (indexed like Function::blocks).
  std::vector<std::uint64_t> block_counts;
  std::vector<VCallEvent> vcalls;
  /// Every event's arguments, back to back in event order.
  std::vector<std::uint64_t> args;
  std::uint64_t steps = 0;

  [[nodiscard]] std::span<const std::uint64_t> args_of(const VCallEvent& event) const {
    return {args.data() + event.first_arg, event.num_args};
  }
};

/// One interpreter serves any number of runs of its function: it decodes
/// each call's vcall once, at construction, and keeps its register file,
/// memories and trace across runs, clearing them at the start of each,
/// so a warm run allocates only for the memory cells it writes.
class Interpreter {
 public:
  /// `fn` and `handler` must outlive the interpreter, and `fn` must not
  /// change while it exists.
  Interpreter(const Function& fn, VCallHandler& handler);

  /// Runs from the entry block to a ret, recording into trace(). Fails on
  /// unsubstituted (non-vcall) calls, division by zero, or exceeding
  /// max_steps — the step bound protects against non-terminating IR.
  Status execute(std::uint64_t max_steps = 10'000'000);

  /// The last execute()'s trace, partial when it failed. Valid until the
  /// next execute().
  [[nodiscard]] const ExecTrace& trace() const { return trace_; }

  /// execute(), returning a copy of its trace.
  Result<ExecTrace> run(std::uint64_t max_steps = 10'000'000);

 private:
  [[nodiscard]] std::uint64_t eval(const Value& v) const;

  const Function& fn_;
  VCallHandler& handler_;
  /// Per instruction, at block_base_[block] + index: a call's decoded
  /// vcall, or nullopt for an unsubstituted call and every other opcode.
  std::vector<std::size_t> block_base_;
  std::vector<std::optional<VCall>> callee_;

  ExecTrace trace_;
  std::vector<std::uint64_t> regs_;
  std::unordered_map<std::uint64_t, std::uint64_t> scratch_;
  std::unordered_map<std::uint64_t, std::uint64_t> header_mem_;
  std::unordered_map<std::uint64_t, std::uint64_t> packet_mem_;
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> state_mem_;  // one per state object
  std::vector<std::pair<std::uint32_t, std::uint64_t>> phi_writes_;
};

}  // namespace clara::cir
