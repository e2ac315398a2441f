// Tests for the CIR: builder, verifier, printer/parser round trip,
// interpreter semantics.
#include <gtest/gtest.h>

#include "cir/builder.hpp"
#include "cir/interp.hpp"
#include "cir/printer.hpp"
#include "cir/verify.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"

namespace clara::cir {
namespace {

/// Simple handler: get_hdr returns canned values, tables always hit.
class FixedHandler final : public VCallHandler {
 public:
  explicit FixedHandler(std::uint64_t payload = 300, std::uint64_t proto = 6) {
    fields_[static_cast<std::size_t>(HdrField::kPayloadLen)] = payload;
    fields_[static_cast<std::size_t>(HdrField::kProto)] = proto;
    fields_[static_cast<std::size_t>(HdrField::kFlowHash)] = 0xabcdef;
    fields_[static_cast<std::size_t>(HdrField::kTcpFlags)] = 1;
    fields_[static_cast<std::size_t>(HdrField::kDstPort)] = 80;
  }
  std::uint64_t handle(VCall v, std::span<const std::uint64_t> args) override {
    switch (v) {
      case VCall::kGetHdr: return fields_[args[0]];
      case VCall::kTableLookup: return table_hit ? 1 : 0;
      case VCall::kMeter: return 1;
      case VCall::kCsum: return 0x1234;
      default: return 0;
    }
  }
  bool table_hit = true;

 private:
  std::uint64_t fields_[kNumHdrFields] = {};
};

Function simple_fn() {
  FunctionBuilder b("simple");
  const auto entry = b.create_block("entry");
  b.set_insert_point(entry);
  const auto x = b.add(Value::of_imm(2), Value::of_imm(3));
  b.store_scratch(Value::of_imm(0), x);
  b.ret();
  return b.take();
}

TEST(Builder, ProducesVerifiableFunction) {
  const auto fn = simple_fn();
  EXPECT_TRUE(verify(fn).ok());
  EXPECT_EQ(fn.blocks.size(), 1u);
  EXPECT_EQ(fn.num_regs, 1u);
}

TEST(Builder, FindBlockAndState) {
  const auto fn = nf::build_nat_nf();
  EXPECT_NE(fn.find_block("entry"), ~0u);
  EXPECT_NE(fn.find_block("translate"), ~0u);
  EXPECT_EQ(fn.find_block("zzz"), ~0u);
  EXPECT_EQ(fn.find_state("flow_table"), 0u);
  EXPECT_EQ(fn.find_state("zzz"), ~0u);
}

TEST(Verifier, RejectsEmptyFunction) {
  Function fn;
  fn.name = "empty";
  EXPECT_FALSE(verify(fn).ok());
}

TEST(Verifier, RejectsMissingTerminator) {
  FunctionBuilder b("f");
  b.set_insert_point(b.create_block("entry"));
  b.add(Value::of_imm(1), Value::of_imm(2));
  const auto fn = b.take();  // no ret
  EXPECT_FALSE(verify(fn).ok());
}

TEST(Verifier, RejectsTerminatorMidBlock) {
  FunctionBuilder b("f");
  b.set_insert_point(b.create_block("entry"));
  b.ret();
  b.add(Value::of_imm(1), Value::of_imm(2));
  b.ret();
  EXPECT_FALSE(verify(b.take()).ok());
}

TEST(Verifier, RejectsUseBeforeDef) {
  FunctionBuilder b("f");
  const auto entry = b.create_block("entry");
  const auto next = b.create_block("next");
  b.set_insert_point(entry);
  b.br(next);
  b.set_insert_point(next);
  // Use register 5 that nothing defines.
  Function fn = b.take();
  Instr use;
  use.op = Opcode::kAdd;
  use.dst = 6;
  use.args = {Value::of_reg(5), Value::of_imm(1)};
  fn.blocks[1].instrs.insert(fn.blocks[1].instrs.begin(), use);
  Instr ret;
  ret.op = Opcode::kRet;
  fn.blocks[1].instrs.push_back(ret);
  fn.num_regs = 7;
  EXPECT_FALSE(verify(fn).ok());
}

TEST(Verifier, RejectsDoubleDefinition) {
  Function fn = simple_fn();
  // Duplicate the defining instruction.
  fn.blocks[0].instrs.insert(fn.blocks[0].instrs.begin(), fn.blocks[0].instrs[0]);
  EXPECT_FALSE(verify(fn).ok());
}

TEST(Verifier, RejectsDefOnOnlyOnePath) {
  // value defined in the 'then' arm only, used after the join.
  FunctionBuilder b("f");
  const auto entry = b.create_block("entry");
  const auto then_blk = b.create_block("then");
  const auto join = b.create_block("join");
  b.set_insert_point(entry);
  const auto cond = b.cmp_eq(Value::of_imm(1), Value::of_imm(1));
  b.cond_br(cond, then_blk, join);
  b.set_insert_point(then_blk);
  const auto v = b.add(Value::of_imm(1), Value::of_imm(2));
  b.br(join);
  b.set_insert_point(join);
  b.store_scratch(Value::of_imm(0), v);  // v not defined on the entry->join edge
  b.ret();
  EXPECT_FALSE(verify(b.take()).ok());
}

TEST(Verifier, AcceptsPhiMerge) {
  FunctionBuilder b("f");
  const auto entry = b.create_block("entry");
  const auto then_blk = b.create_block("then");
  const auto join = b.create_block("join");
  b.set_insert_point(entry);
  const auto cond = b.cmp_eq(Value::of_imm(1), Value::of_imm(1));
  b.cond_br(cond, then_blk, join);
  b.set_insert_point(then_blk);
  const auto v = b.add(Value::of_imm(1), Value::of_imm(2));
  b.br(join);
  b.set_insert_point(join);
  const auto merged = b.phi();
  b.add_incoming(merged, v, then_blk);
  b.add_incoming(merged, Value::of_imm(0), entry);
  b.store_scratch(Value::of_imm(0), merged);
  b.ret();
  EXPECT_TRUE(verify(b.take()).ok());
}

TEST(Verifier, RejectsPhiMissingPred) {
  FunctionBuilder b("f");
  const auto entry = b.create_block("entry");
  const auto then_blk = b.create_block("then");
  const auto join = b.create_block("join");
  b.set_insert_point(entry);
  const auto cond = b.cmp_eq(Value::of_imm(1), Value::of_imm(1));
  b.cond_br(cond, then_blk, join);
  b.set_insert_point(then_blk);
  b.br(join);
  b.set_insert_point(join);
  const auto merged = b.phi();
  b.add_incoming(merged, Value::of_imm(1), then_blk);  // entry edge missing
  b.store_scratch(Value::of_imm(0), merged);
  b.ret();
  EXPECT_FALSE(verify(b.take()).ok());
}

TEST(Verifier, RejectsBadStateIndex) {
  Function fn = simple_fn();
  Instr load;
  load.op = Opcode::kLoad;
  load.space = MemSpace::kState;
  load.state = 3;  // no states declared
  load.dst = 1;
  load.args = {Value::of_imm(0)};
  fn.blocks[0].instrs.insert(fn.blocks[0].instrs.begin(), load);
  fn.num_regs = 2;
  EXPECT_FALSE(verify(fn).ok());
}

TEST(Verifier, RejectsWrongVcallArity) {
  FunctionBuilder b("f");
  b.set_insert_point(b.create_block("entry"));
  b.call("vcall_csum", {}, true);  // csum needs 1 arg
  b.ret();
  EXPECT_FALSE(verify(b.take()).ok());
}

TEST(Verifier, RejectsVcallStateOutOfRange) {
  FunctionBuilder b("f");
  b.set_insert_point(b.create_block("entry"));
  b.call("vcall_table_lookup", {Value::of_imm(2), Value::of_imm(1)}, true);  // state 2 undeclared
  b.ret();
  EXPECT_FALSE(verify(b.take()).ok());
}

TEST(Verifier, RejectsValuedCallOnVoidVcall) {
  FunctionBuilder b("f");
  b.set_insert_point(b.create_block("entry"));
  b.call("vcall_drop", {}, true);  // drop produces no value
  b.ret();
  EXPECT_FALSE(verify(b.take()).ok());
}

TEST(Verifier, ModuleDuplicateFunctionNames) {
  Module mod;
  mod.name = "m";
  mod.functions.push_back(simple_fn());
  mod.functions.push_back(simple_fn());
  EXPECT_FALSE(verify(mod).ok());
}

TEST(VCalls, NameRoundTrip) {
  for (int i = 0; i <= static_cast<int>(VCall::kDrop); ++i) {
    const auto v = static_cast<VCall>(i);
    const auto parsed = parse_vcall(vcall_name(v));
    ASSERT_TRUE(parsed.has_value()) << vcall_name(v);
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(parse_vcall("vcall_bogus").has_value());
}

TEST(VCalls, HdrFieldRoundTrip) {
  for (std::uint8_t i = 0; i < kNumHdrFields; ++i) {
    const auto f = static_cast<HdrField>(i);
    EXPECT_EQ(parse_hdr_field(hdr_field_name(f)).value(), f);
  }
  EXPECT_FALSE(parse_hdr_field("bogus").has_value());
}

TEST(VCalls, FrameworkMapping) {
  EXPECT_EQ(framework_api_to_vcall("rte_hash_lookup").value(), VCall::kTableLookup);
  EXPECT_EQ(framework_api_to_vcall("bpf_map_update_elem").value(), VCall::kTableUpdate);
  EXPECT_EQ(framework_api_to_vcall("click_network_header").value(), VCall::kParse);
  EXPECT_FALSE(framework_api_to_vcall("memcpy").has_value());
}

// --- Printer / parser round trip ------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  Module mod;
  mod.name = "roundtrip";
  mod.functions.push_back(nf::corpus()[GetParam()].build());
  const auto text1 = print_module(mod);
  const auto parsed = parse_module(text1);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message << "\n" << text1;
  EXPECT_TRUE(verify(parsed.value()).ok());
  const auto text2 = print_module(parsed.value());
  EXPECT_EQ(text1, text2);
}

INSTANTIATE_TEST_SUITE_P(AllNfs, RoundTripTest, ::testing::Range<std::size_t>(0, nf::corpus().size()));

TEST(Parser, RejectsMissingModuleHeader) {
  EXPECT_FALSE(parse_module("func f {\n block e:\n ret\n}\n").ok());
}

TEST(Parser, RejectsUnknownOpcode) {
  EXPECT_FALSE(parse_module("module m\nfunc f {\nblock e:\n%0 = frobnicate.i64 1, 2\nret\n}\n").ok());
}

TEST(Parser, RejectsUnknownBranchTarget) {
  EXPECT_FALSE(parse_module("module m\nfunc f {\nblock e:\nbr nowhere\n}\n").ok());
}

TEST(Parser, RejectsUnknownState) {
  EXPECT_FALSE(parse_module("module m\nfunc f {\nblock e:\n%0 = load.i64 state(nope)[0]\nret\n}\n").ok());
}

TEST(Parser, RejectsUnterminatedFunction) {
  EXPECT_FALSE(parse_module("module m\nfunc f {\nblock e:\nret\n").ok());
}

TEST(Parser, AcceptsComments) {
  const auto parsed = parse_module("module m\n; comment\nfunc f {\nblock e:\n  ; inner\n  ret\n}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().functions.size(), 1u);
}

TEST(Parser, ParsesTripAnnotation) {
  const auto parsed = parse_module(
      "module m\nfunc f {\nblock e [trip=2*payload_len+3]:\nret\n}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const auto& block = parsed.value().functions[0].blocks[0];
  EXPECT_TRUE(block.has_trip);
  EXPECT_DOUBLE_EQ(block.trip.scale, 2.0);
  EXPECT_EQ(block.trip.param, "payload_len");
  EXPECT_DOUBLE_EQ(block.trip.bias, 3.0);
}

// --- Interpreter ------------------------------------------------------------

TEST(Interp, ArithmeticAndControl) {
  FunctionBuilder b("f");
  const auto entry = b.create_block("entry");
  const auto yes = b.create_block("yes");
  const auto no = b.create_block("no");
  b.set_insert_point(entry);
  const auto v = b.mul(Value::of_imm(6), Value::of_imm(7));
  const auto cond = b.cmp_eq(v, Value::of_imm(42));
  b.cond_br(cond, yes, no);
  b.set_insert_point(yes);
  b.store_scratch(Value::of_imm(0), Value::of_imm(1));
  b.ret();
  b.set_insert_point(no);
  b.ret();
  const auto fn = b.take();

  FixedHandler handler;
  Interpreter interp(fn, handler);
  const auto result = interp.run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().block_counts[yes], 1u);
  EXPECT_EQ(result.value().block_counts[no], 0u);
}

TEST(Interp, TypeMasking) {
  FunctionBuilder b("f");
  b.set_insert_point(b.create_block("entry"));
  const auto v = b.add(Value::of_imm(255), Value::of_imm(1), Type::kI8);  // wraps to 0
  const auto cond = b.cmp_eq(v, Value::of_imm(0));
  const auto out = b.select(cond, Value::of_imm(1), Value::of_imm(2));
  b.store_scratch(Value::of_imm(0), out);
  b.ret();
  const auto fn = b.take();
  FixedHandler handler;
  Interpreter interp(fn, handler);
  EXPECT_TRUE(interp.run().ok());
}

TEST(Interp, DivisionByZeroFails) {
  FunctionBuilder b("f");
  b.set_insert_point(b.create_block("entry"));
  b.div(Value::of_imm(1), Value::of_imm(0));
  b.ret();
  const auto fn = b.take();
  FixedHandler handler;
  Interpreter interp(fn, handler);
  EXPECT_FALSE(interp.run().ok());
}

TEST(Interp, LoopExecutesTripTimes) {
  // The DPI scan loop should run payload_len times.
  const auto fn = nf::build_dpi_nf();
  FixedHandler handler(/*payload=*/123);
  Interpreter interp(fn, handler);
  const auto result = interp.run();
  ASSERT_TRUE(result.ok()) << result.error().message;
  const auto loop = fn.find_block("scan_loop");
  EXPECT_EQ(result.value().block_counts[loop], 123u);
}

TEST(Interp, StepLimitTriggers) {
  const auto fn = nf::build_dpi_nf();
  FixedHandler handler(/*payload=*/10000);
  Interpreter interp(fn, handler);
  EXPECT_FALSE(interp.run(/*max_steps=*/100).ok());
}

TEST(Interp, RecordsVcallEventsWithArgs) {
  const auto fn = nf::build_lpm_nf({.rules = 5000, .use_flow_cache = true});
  // LPM uses framework names; substitute first via raw interpretation
  // failure check.
  FixedHandler handler;
  Interpreter interp(fn, handler);
  EXPECT_FALSE(interp.run().ok());  // unsubstituted rte_* calls are an error
}

TEST(Interp, ScratchMemoryPersists) {
  FunctionBuilder b("f");
  const auto entry = b.create_block("entry");
  const auto yes = b.create_block("yes");
  const auto no = b.create_block("no");
  b.set_insert_point(entry);
  b.store_scratch(Value::of_imm(4), Value::of_imm(99));
  const auto back = b.load_scratch(Value::of_imm(4));
  const auto cond = b.cmp_eq(back, Value::of_imm(99));
  b.cond_br(cond, yes, no);
  b.set_insert_point(yes);
  b.ret();
  b.set_insert_point(no);
  b.ret();
  const auto fn = b.take();
  FixedHandler handler;
  Interpreter interp(fn, handler);
  const auto result = interp.run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().block_counts[yes], 1u);
}

TEST(Interp, StateMemoryDefaultsToZero) {
  FunctionBuilder b("f");
  const auto state = b.add_state(StateObject{"s", 8, 16, StatePattern::kArray});
  const auto entry = b.create_block("entry");
  const auto yes = b.create_block("yes");
  const auto no = b.create_block("no");
  b.set_insert_point(entry);
  const auto v = b.load_state(state, Value::of_imm(3));
  const auto cond = b.cmp_eq(v, Value::of_imm(0));
  b.cond_br(cond, yes, no);
  b.set_insert_point(yes);
  b.ret();
  b.set_insert_point(no);
  b.ret();
  const auto fn = b.take();
  FixedHandler handler;
  Interpreter interp(fn, handler);
  const auto result = interp.run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().block_counts[yes], 1u);
}

// One interpreter serves many runs; each starts from zeroed memories,
// whatever the run before it stored, even when that run failed.
TEST(Interp, ReusedInterpreterStartsEachRunFromEmptyMemories) {
  FunctionBuilder b("f");
  const auto state = b.add_state(StateObject{"s", 8, 16, StatePattern::kArray});
  const auto entry = b.create_block("entry");
  const auto yes = b.create_block("yes");
  const auto no = b.create_block("no");
  b.set_insert_point(entry);
  const auto seen = b.bor(b.load_scratch(Value::of_imm(4)), b.load_state(state, Value::of_imm(3)));
  b.store_scratch(Value::of_imm(4), Value::of_imm(7));
  b.store_state(state, Value::of_imm(3), Value::of_imm(9));
  b.cond_br(b.cmp_eq(seen, Value::of_imm(0)), yes, no);
  b.set_insert_point(yes);
  b.ret();
  b.set_insert_point(no);
  b.ret();
  const auto fn = b.take();
  FixedHandler handler;
  Interpreter interp(fn, handler);
  for (int run = 0; run < 3; ++run) {
    if (run == 2) {
      EXPECT_FALSE(interp.execute(/*max_steps=*/5).ok());
    }
    ASSERT_TRUE(interp.execute().ok()) << "run " << run;
    EXPECT_EQ(interp.trace().block_counts[yes], 1u) << "run " << run;
    EXPECT_EQ(interp.trace().block_counts[no], 0u) << "run " << run;
  }
}

TEST(SymExprTest, Evaluation) {
  const auto c = SymExpr::constant(5.0);
  EXPECT_TRUE(c.is_constant());
  EXPECT_DOUBLE_EQ(c.eval(123.0), 5.0);
  const auto e = SymExpr::of_param("len", 2.0, 1.0);
  EXPECT_FALSE(e.is_constant());
  EXPECT_DOUBLE_EQ(e.eval(10.0), 21.0);
}

}  // namespace
}  // namespace clara::cir
