// Bytecode-verifier tests: a hand-encoded malformed BCFunction per rule,
// each asserting exact (function, pc, reason) attribution, plus a
// positive sweep proving every function the compiler emits for the full
// Rodinia suite (all three modes) verifies clean.
#include "vm/verifier.h"

#include "driver/compiler.h"
#include "rodinia/rodinia.h"
#include "support/metrics.h"
#include "vm/compile.h"

#include <gtest/gtest.h>

#include <array>

using namespace paralift;
using namespace paralift::vm;

namespace {

/// Wraps one function as a module, registering it as the entry "f".
BCModule singleFn(BCFunction fn) {
  BCModule m;
  fn.name = "f";
  m.byName["f"] = 0;
  m.fns.push_back(std::move(fn));
  return m;
}

Instr ins(BC op, int32_t a = 0, int32_t b = 0, int32_t c = 0, int32_t d = 0,
          int64_t imm = 0) {
  Instr i;
  i.op = op;
  i.a = a;
  i.b = b;
  i.c = c;
  i.d = d;
  i.imm = imm;
  return i;
}

/// The error every negative test asserts on: exactly-attributed pc and a
/// reason containing `needle`.
void expectError(const VerifyResult &r, size_t pc, const std::string &needle,
                 const std::string &function = "f") {
  ASSERT_FALSE(r.ok()) << "expected a verification error";
  const VerifyError &e = r.errors.front();
  EXPECT_EQ(e.function, function) << r.str();
  EXPECT_EQ(e.pc, pc) << r.str();
  EXPECT_NE(e.reason.find(needle), std::string::npos)
      << "reason '" << e.reason << "' does not mention '" << needle << "'";
}

} // namespace

//===----------------------------------------------------------------------===//
// Layer 1: structural rules
//===----------------------------------------------------------------------===//

TEST(VerifierStructural, BadJumpTarget) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::Jump, 0, 0, 0, 0, /*imm=*/5)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "jump target 5 outside the function");
  EXPECT_EQ(r.errors.front().op, BC::Jump);
  // The rendered form is the stable one-line attribution format.
  EXPECT_EQ(r.errors.front().str(),
            "fn 'f' (#0) pc 0 (Jump): jump target 5 outside the function "
            "(instruction count 1)");
}

TEST(VerifierStructural, OutOfBoundsRegister) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/3, 7), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "register d=3 out of range (numRegs 2)");
}

TEST(VerifierStructural, ExtrasRangeOverflow) {
  BCFunction f;
  f.numRegs = 1;
  f.numResults = 1;
  f.instrs = {ins(BC::Ret, 0, /*b=*/0, /*c=*/1)}; // extras is empty
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "extras range [0, 1) overflows extras (size 0)");
}

TEST(VerifierStructural, ExtrasRegisterOutOfRange) {
  BCFunction f;
  f.numRegs = 2;
  f.extras = {9}; // range is in bounds; the register inside it is not
  f.instrs = {ins(BC::ConstI, 0, 0, 0, 0, 1),
              ins(BC::Store, /*a=*/0, /*b=*/0, /*c=*/1, /*d=*/1), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "extras[0]=9 out of range (numRegs 2)");
}

TEST(VerifierStructural, CallArityMismatch) {
  BCModule m;
  BCFunction g;
  g.name = "g";
  g.numRegs = 3;
  g.numArgs = 2;
  g.numResults = 1;
  g.extras = {0};
  g.instrs = {ins(BC::Ret, 0, /*b=*/0, /*c=*/1)};
  BCFunction f;
  f.name = "f";
  f.numRegs = 2;
  f.extras = {0, 1};
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),
              // passes 1 arg, g takes 2
              ins(BC::Call, 0, /*b=*/0, /*c=*/1, /*d=*/1, /*imm=*/1),
              ins(BC::Ret)};
  m.byName["f"] = 0;
  m.byName["g"] = 1;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(g));
  VerifyResult r = verifyModule(m);
  expectError(r, 1, "call passes 1 args but 'g' takes 2");
}

TEST(VerifierStructural, RetArityMismatch) {
  BCFunction f;
  f.numRegs = 1;
  f.numResults = 2;
  f.extras = {0};
  f.instrs = {ins(BC::ConstI, 0, 0, 0, 0, 1), ins(BC::Ret, 0, 0, /*c=*/1)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "Ret returns 1 values but the function declares 2");
}

TEST(VerifierStructural, OutOfEnumOpcode) {
  // The interpreter steps over an opcode it has no case for, so unless
  // the opcode itself is rejected the Load through an int register
  // behind it runs.
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 42),
              ins(static_cast<BC>(200)),
              ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "opcode 200 outside the BC enum");
  EXPECT_EQ(r.errors.size(), 1u) << r.str();
}

TEST(VerifierStructural, BadShapeIndex) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::Alloca, 0, 0, 0, 0, /*imm=*/3), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "shape index 3 out of range");
}

TEST(VerifierStructural, ClosureCaptureOutOfRange) {
  BCModule m;
  BCFunction body;
  body.name = "<closure>";
  body.numRegs = 1;
  body.numArgs = 1;
  body.instrs = {ins(BC::Ret)};
  BCFunction f;
  f.name = "f";
  f.numRegs = 2;
  Closure c;
  c.fnIndex = 1;
  c.captureRegs = {7}; // enclosing frame has 2 registers
  f.closures.push_back(c);
  f.instrs = {ins(BC::ParallelOmp, 0, 0, 0, 0, /*imm=*/0), ins(BC::Ret)};
  m.byName["f"] = 0;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(body));
  VerifyResult r = verifyModule(m);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors.front().pc, VerifyError::kNoPc);
  EXPECT_NE(r.errors.front().reason.find("capture register 7 out of range"),
            std::string::npos)
      << r.str();
}

TEST(VerifierStructural, FrameLimitAndArgOverflow) {
  BCFunction f;
  f.numRegs = 2;
  f.numArgs = 5; // argument copy would overflow the frame
  f.instrs = {ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors.front().reason.find("numArgs 5 exceeds numRegs 2"),
            std::string::npos)
      << r.str();
}

//===----------------------------------------------------------------------===//
// Layer 2: flow-sensitive typestate rules
//===----------------------------------------------------------------------===//

TEST(VerifierFlow, UninitializedRead) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::AddI, /*a=*/0, /*b=*/1, 0, /*d=*/1), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "reads r0 as int but it is uninitialized");
}

TEST(VerifierFlow, UninitializedOnOnePath) {
  // r1 is only written when the branch is taken; the read after the join
  // must be rejected even though one path defines it.
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 1; // r0: condition (caller-typed)
  f.instrs = {
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/2), // 0: if !r0 goto 2
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 42),             // 1: r1 = 42
      ins(BC::Copy, /*a=*/1, 0, 0, /*d=*/2),             // 2: r2 = r1
      ins(BC::Ret),                                      // 3
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 2, "Copy reads uninitialized r1");
}

TEST(VerifierFlow, IntUsedAsMemref) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 42),
              ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "Load reads r0 as a memref but it is int");
}

TEST(VerifierFlow, FloatOpOnInt) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),
              ins(BC::SqrtF, /*a=*/0, 0, 0, /*d=*/1), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "reads r0 as float but it is int");
}

TEST(VerifierFlow, LoadRankMismatch) {
  BCFunction f;
  f.numRegs = 3;
  f.shapes.push_back({TypeKind::F32, {4}}); // rank-1 static shape
  f.extras = {1, 1};
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/1, 0),
              ins(BC::Alloca, 0, /*b=*/0, /*c=*/0, /*d=*/0, /*imm=*/0),
              // 2 indices into a rank-1 memref
              ins(BC::Load, /*a=*/0, /*b=*/0, /*c=*/2, /*d=*/2), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 2, "Load indexes 2 dims but the memref in r0 has rank 1");
}

TEST(VerifierFlow, DimRankViolation) {
  BCFunction f;
  f.numRegs = 2;
  f.shapes.push_back({TypeKind::F32, {4, 4}});
  f.instrs = {ins(BC::Alloca, 0, 0, 0, /*d=*/0, 0),
              ins(BC::Dim, /*a=*/0, 0, 0, /*d=*/1, /*imm=*/5), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "Dim index 5 out of range for rank 2");
}

TEST(VerifierFlow, UnbalancedScopesOnRet) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::ScopePush), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "Ret with 1 unmatched ScopePush");
}

TEST(VerifierFlow, ScopePopUnderflow) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::ScopePop), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "ScopePop without a matching ScopePush");
}

TEST(VerifierFlow, MisplacedSimtBarrier) {
  // A SimtBarrier in a host-callable function aborts serial execution;
  // it is only legal directly inside a gpu-block scf closure body.
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::SimtBarrier), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "SimtBarrier outside a SIMT");
}

TEST(VerifierFlow, MisplacedTeamBarrier) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::TeamBarrier), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "TeamBarrier outside an omp closure body");
}

TEST(VerifierFlow, SimtBarrierAcceptedInGpuBlockBody) {
  // The legal placement: f launches a gpu-block scf closure whose body
  // (and only whose body) suspends at the barrier.
  BCModule m;
  BCFunction body;
  body.name = "<closure>";
  body.numRegs = 1;
  body.numArgs = 1; // one induction variable
  body.instrs = {ins(BC::SimtBarrier), ins(BC::Ret)};
  BCFunction f;
  f.name = "f";
  f.numRegs = 3;
  Closure c;
  c.fnIndex = 1;
  c.numIvs = 1;
  c.lbs = {0};
  c.ubs = {1};
  c.steps = {2};
  c.gpuBlock = true;
  f.closures.push_back(c);
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 0),
              ins(BC::ConstI, 0, 0, 0, /*d=*/1, 4),
              ins(BC::ConstI, 0, 0, 0, /*d=*/2, 1),
              ins(BC::ParallelScf, 0, 0, 0, 0, /*imm=*/0), ins(BC::Ret)};
  m.byName["f"] = 0;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(body));
  VerifyResult r = verifyModule(m);
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST(VerifierFlow, TypeConflictAcrossPathsRejectedOnRead) {
  // r1 is an int on one path and a float on the other; using it as an
  // int operand after the join is Slot-union type confusion.
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 1;
  f.instrs = {
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/3), // 0
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 1),              // 1: r1 int
      ins(BC::Jump, 0, 0, 0, 0, /*imm=*/4),              // 2
      ins(BC::ConstF, 0, 0, 0, /*d=*/1),                 // 3: r1 float
      ins(BC::AddI, /*a=*/1, /*b=*/1, 0, /*d=*/2),       // 4: read as int
      ins(BC::Ret),                                      // 5
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 4, "conflicting types");
}

TEST(VerifierFlow, FallOffEndWithResults) {
  BCFunction f;
  f.numRegs = 1;
  f.numResults = 1;
  f.extras = {0};
  f.instrs = {ins(BC::ConstI, 0, 0, 0, 0, 1)}; // no Ret
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors.front().pc, VerifyError::kNoPc);
  EXPECT_NE(
      r.errors.front().reason.find("reaches the end of the function without"),
      std::string::npos)
      << r.str();
}

TEST(VerifierFlow, StructuralErrorsSuppressFlowLayer) {
  // The OOB register would also be an uninitialized read; only the
  // structural error may be reported (the flow layer would index with
  // the invalid field).
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::Copy, /*a=*/5, 0, 0, /*d=*/0), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  ASSERT_FALSE(r.ok());
  for (const VerifyError &e : r.errors)
    EXPECT_EQ(e.reason.find("uninitialized"), std::string::npos) << e.str();
}

//===----------------------------------------------------------------------===//
// Block boundaries: typestates live only at block leaders, so every edge
// into a leader, and every pc a block runs through, must keep the exact
// attribution a per-instruction analysis gives.
//===----------------------------------------------------------------------===//

TEST(VerifierBlocks, JumpIntoStraightLineRunReportsAtReadingPc) {
  // pc 3..6 is one straight-line run; only the edge from pc 2 into its
  // middle carries r1 as a float, so the conflict shows at pc 5 alone.
  BCFunction f;
  f.numRegs = 3;
  f.instrs = {
      ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),             // 0
      ins(BC::ConstF, 0, 0, 0, /*d=*/1),                // 1: r1 float
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/5), // 2
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 2),             // 3: r1 int
      ins(BC::ConstI, 0, 0, 0, /*d=*/2, 3),             // 4
      ins(BC::AddI, /*a=*/1, /*b=*/0, 0, /*d=*/2),      // 5: reads r1
      ins(BC::Ret),                                     // 6
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 5, "reads r1 as int but it is path-dependent");
  EXPECT_EQ(r.errors.size(), 1u) << r.str();
}

TEST(VerifierBlocks, BackEdgeConflictOnSecondTrip) {
  // r1 enters the loop header as an int; the body turns it into a float,
  // so the header's read is only wrong once the back-edge has been taken.
  BCFunction f;
  f.numRegs = 3;
  f.instrs = {
      ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),             // 0
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 1),             // 1: r1 int
      ins(BC::AddI, /*a=*/1, /*b=*/0, 0, /*d=*/2),      // 2: loop header
      ins(BC::ConstF, 0, 0, 0, /*d=*/1),                // 3: r1 float
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/6), // 4
      ins(BC::Jump, 0, 0, 0, 0, /*imm=*/2),             // 5: back-edge
      ins(BC::Ret),                                     // 6
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 2, "reads r1 as int but it is path-dependent");
  EXPECT_EQ(r.errors.size(), 1u) << r.str();
}

TEST(VerifierBlocks, JumpIfFalseToNextPcReportsOnce) {
  // Both edges of the branch enter pc 2; the bad read after them is one
  // error, not one per edge.
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {
      ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),             // 0
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/2), // 1: target pc+1
      ins(BC::ConstF, 0, 0, 0, /*d=*/1),                // 2
      ins(BC::AddI, /*a=*/1, /*b=*/0, 0, /*d=*/0),      // 3: float as int
      ins(BC::Ret),                                     // 4
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 3, "reads r1 as int but it is float");
  EXPECT_EQ(r.errors.size(), 1u) << r.str();
}

TEST(VerifierBlocks, DeadCodeAfterRetAndJumpIsNotReported) {
  // pc 1 (after a Jump) and pc 4 (after a Ret) read uninitialized
  // registers, but no path reaches them.
  BCFunction f;
  f.numRegs = 3;
  f.instrs = {
      ins(BC::Jump, 0, 0, 0, 0, /*imm=*/2),        // 0
      ins(BC::AddI, /*a=*/1, /*b=*/1, 0, /*d=*/2), // 1: dead
      ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),        // 2
      ins(BC::Ret),                                // 3
      ins(BC::SqrtF, /*a=*/2, 0, 0, /*d=*/1),      // 4: dead
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST(VerifierBlocks, ScopeDepthClashAtLoopHeaderReportedOnce) {
  // The header at pc 1 is entered at depth 0 from pc 0 and at depth 1
  // over the back-edge from pc 4.
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {
      ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),             // 0
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 2),             // 1: loop header
      ins(BC::ScopePush),                               // 2
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/5), // 3
      ins(BC::Jump, 0, 0, 0, 0, /*imm=*/1),             // 4: back-edge
      ins(BC::ScopePop),                                // 5
      ins(BC::Ret),                                     // 6
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "depth differs between predecessor paths");
  EXPECT_EQ(r.errors.size(), 1u) << r.str();
}

TEST(VerifierBlocks, JumpToEndSlotWithResults) {
  // Target 3 is the end slot n: legal as a jump target, but a function
  // with results must not get there.
  BCFunction f;
  f.numRegs = 1;
  f.numResults = 1;
  f.extras = {0};
  f.instrs = {
      ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),             // 0
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/3), // 1: to the end
      ins(BC::Ret, 0, /*b=*/0, /*c=*/1),                // 2
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  ASSERT_EQ(r.errors.size(), 1u) << r.str();
  EXPECT_EQ(r.errors.front().pc, VerifyError::kNoPc);
  EXPECT_NE(r.errors.front().reason.find(
                "reaches the end of the function without Ret"),
            std::string::npos)
      << r.str();
}

//===----------------------------------------------------------------------===//
// Interprocedural typestate propagation: type confusion smuggled across
// Call / closure boundaries must be rejected, in any function order.
//===----------------------------------------------------------------------===//

TEST(VerifierInterproc, CallArgTypeConfusionRejected) {
  // f ConstIs an arbitrary integer and Calls g, whose body dereferences
  // that argument as a memref. The callee is analyzed under the
  // typestate the call site actually passes, so the forged pointer is
  // caught where it would be dereferenced.
  BCModule m;
  BCFunction f;
  f.name = "f";
  f.numRegs = 1;
  f.extras = {0};
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 0x41414141),
              ins(BC::Call, 0, /*b=*/0, /*c=*/1, /*d=*/0, /*imm=*/1),
              ins(BC::Ret)};
  BCFunction g;
  g.name = "g";
  g.numRegs = 2;
  g.numArgs = 1;
  g.instrs = {ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1), ins(BC::Ret)};
  m.byName["f"] = 0;
  m.byName["g"] = 1;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(g));
  VerifyResult r = verifyModule(m);
  expectError(r, 0, "Load reads r0 as a memref but it is int", "g");
}

TEST(VerifierInterproc, CallResultTypeConfusionRejected) {
  // g returns an int; f binds the result and dereferences it as a
  // memref. Results carry the callee's Ret typestates, not blanket
  // trust.
  BCModule m;
  BCFunction g;
  g.name = "g";
  g.numRegs = 1;
  g.numResults = 1;
  g.extras = {0};
  g.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 7),
              ins(BC::Ret, 0, /*b=*/0, /*c=*/1)};
  BCFunction f;
  f.name = "f";
  f.numRegs = 2;
  f.extras = {0};
  f.instrs = {ins(BC::Call, 0, /*b=*/0, /*c=*/0, /*d=*/1, /*imm=*/1),
              ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1), ins(BC::Ret)};
  m.byName["f"] = 0;
  m.byName["g"] = 1;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(g));
  VerifyResult r = verifyModule(m);
  expectError(r, 1, "Load reads r0 as a memref but it is int", "f");
}

TEST(VerifierInterproc, ClosureBodyBeforeLauncherStillSeeded) {
  // The closure body sits at a LOWER function index than its launcher
  // (the compiler emits bodies after their parent, but adversarial
  // bytecode need not); capture typestates must still reach it.
  BCModule m;
  BCFunction body;
  body.name = "<closure>";
  body.numRegs = 2;
  body.numArgs = 1; // one capture: an int in the enclosing frame
  body.instrs = {ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1),
                 ins(BC::Ret)};
  BCFunction f;
  f.name = "f";
  f.numRegs = 1;
  Closure c;
  c.fnIndex = 0;
  c.captureRegs = {0};
  f.closures.push_back(c);
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 5),
              ins(BC::ParallelOmp, 0, 0, 0, 0, /*imm=*/0), ins(BC::Ret)};
  m.byName["f"] = 1;
  m.fns.push_back(std::move(body));
  m.fns.push_back(std::move(f));
  VerifyResult r = verifyModule(m);
  expectError(r, 0, "Load reads r0 as a memref but it is int", "<closure>");
}

TEST(VerifierInterproc, UnknownElemLoadResultIsNotAMemref) {
  // A Load with no static element kind yields a scalar: data read from
  // memory can never be treated as a descriptor pointer.
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 1; // r0: host-provided memref of unknown elem kind
  f.instrs = {ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1),
              ins(BC::Load, /*a=*/1, 0, /*c=*/0, /*d=*/2), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "Load reads r1 as a memref but it is a scalar");
}

TEST(VerifierInterproc, HostArgMergedWithConstIsNotAMemref) {
  // r1 is a host argument on one path and an attacker-chosen integer on
  // the other; the merge must carry the concrete side's constraints,
  // not the trusted side's blanket permissions.
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 2; // r0: condition, r1: host-provided value
  f.instrs = {
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/2), // 0
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 0xdead),         // 1
      ins(BC::Load, /*a=*/1, 0, /*c=*/0, /*d=*/2),       // 2
      ins(BC::Ret),                                      // 3
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 2, "Load reads r1 as a memref but it is int");
}

TEST(VerifierInterproc, TeamBarrierInDualContextFunctionRejected) {
  // g holds a TeamBarrier and is reachable both from an omp body (has a
  // team) and from the entry via Call (teamless: the barrier would
  // silently no-op there while the team side synchronizes).
  BCModule m;
  BCFunction f;
  f.name = "f";
  f.numRegs = 1;
  Closure c;
  c.fnIndex = 1;
  f.closures.push_back(c);
  f.instrs = {ins(BC::ParallelOmp, 0, 0, 0, 0, /*imm=*/0),
              ins(BC::Call, 0, /*b=*/0, /*c=*/0, /*d=*/0, /*imm=*/2),
              ins(BC::Ret)};
  BCFunction body;
  body.name = "<closure>";
  body.numRegs = 1;
  body.instrs = {ins(BC::Call, 0, /*b=*/0, /*c=*/0, /*d=*/0, /*imm=*/2),
                 ins(BC::Ret)};
  BCFunction g;
  g.name = "g";
  g.numRegs = 1;
  g.instrs = {ins(BC::TeamBarrier), ins(BC::Ret)};
  m.byName["f"] = 0;
  m.byName["g"] = 2;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(body));
  m.fns.push_back(std::move(g));
  VerifyResult r = verifyModule(m);
  expectError(r, 0, "reachable from both a team (omp) context", "g");
}

TEST(VerifierInterproc, CalledMemrefHelperStillVerifiesClean) {
  // The benign counterpart: a helper receiving a real memref from its
  // call site dereferences it — clean, with the rank statically checked
  // from the propagated typestate.
  BCModule m;
  BCFunction f;
  f.name = "f";
  f.numRegs = 1;
  f.shapes.push_back({TypeKind::F32, {4}});
  f.extras = {0};
  f.instrs = {ins(BC::Alloca, 0, /*b=*/0, /*c=*/0, /*d=*/0, /*imm=*/0),
              ins(BC::Call, 0, /*b=*/0, /*c=*/1, /*d=*/0, /*imm=*/1),
              ins(BC::Ret)};
  BCFunction g;
  g.name = "g";
  g.numRegs = 3;
  g.numArgs = 1;
  g.extras = {1};
  g.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/1, 0),
              ins(BC::Load, /*a=*/0, /*b=*/0, /*c=*/1, /*d=*/2),
              ins(BC::Ret)};
  m.byName["f"] = 0;
  m.byName["g"] = 1;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(g));
  VerifyResult r = verifyModule(m);
  EXPECT_TRUE(r.ok()) << r.str();
}

//===----------------------------------------------------------------------===//
// VerifiedModule token + metrics
//===----------------------------------------------------------------------===//

TEST(VerifiedModuleToken, CreateSucceedsOnValidAndFailsOnInvalid) {
  BCFunction ok;
  ok.numRegs = 1;
  ok.instrs = {ins(BC::Ret)};
  BCModule good = singleFn(std::move(ok));
  EXPECT_TRUE(VerifiedModule::create(good).has_value());

  BCFunction bad;
  bad.numRegs = 1;
  bad.instrs = {ins(BC::Jump, 0, 0, 0, 0, 99)};
  BCModule evil = singleFn(std::move(bad));
  VerifyResult why;
  EXPECT_FALSE(VerifiedModule::create(evil, &why).has_value());
  EXPECT_FALSE(why.ok());
}

TEST(VerifierMetrics, CountersTrackFunctionsAndErrors) {
  auto &reg = metrics::MetricsRegistry::instance();
  uint64_t fns0 = reg.counterValue("vm.verify.functions");
  uint64_t errs0 = reg.counterValue("vm.verify.errors");
  BCFunction bad;
  bad.numRegs = 1;
  bad.instrs = {ins(BC::Jump, 0, 0, 0, 0, 99)};
  verifyModule(singleFn(std::move(bad)));
  EXPECT_EQ(reg.counterValue("vm.verify.functions"), fns0 + 1);
  EXPECT_EQ(reg.counterValue("vm.verify.errors"), errs0 + 1);
}

//===----------------------------------------------------------------------===//
// Positive sweep: everything the compiler emits verifies clean
//===----------------------------------------------------------------------===//

namespace {

class RodiniaVerifyTest
    : public ::testing::TestWithParam<const rodinia::Benchmark *> {};

void expectCompilesAndVerifies(const std::string &source,
                               const transforms::PipelineOptions *opts,
                               const std::string &what) {
  DiagnosticEngine diag;
  driver::CompileResult cc = opts ? driver::compile(source, *opts, diag)
                                  : driver::compileForSimt(source, diag);
  ASSERT_TRUE(cc.ok) << what << ": " << diag.str();
  BCModule bc = compileModule(cc.module.get());
  VerifyResult r = verifyModule(bc);
  EXPECT_TRUE(r.ok()) << what << ":\n" << r.str();
}

} // namespace

TEST_P(RodiniaVerifyTest, SimtModeVerifiesClean) {
  const rodinia::Benchmark &b = *GetParam();
  expectCompilesAndVerifies(b.cudaSource, nullptr, b.id + " simt");
}

TEST_P(RodiniaVerifyTest, FullPipelineVerifiesClean) {
  const rodinia::Benchmark &b = *GetParam();
  transforms::PipelineOptions opts;
  expectCompilesAndVerifies(b.cudaSource, &opts, b.id + " full");
}

TEST_P(RodiniaVerifyTest, McudaModeVerifiesClean) {
  const rodinia::Benchmark &b = *GetParam();
  transforms::PipelineOptions opts = transforms::PipelineOptions::mcuda();
  expectCompilesAndVerifies(b.cudaSource, &opts, b.id + " mcuda");
}

TEST_P(RodiniaVerifyTest, OpenmpReferenceVerifiesClean) {
  const rodinia::Benchmark &b = *GetParam();
  if (!b.openmpSource)
    GTEST_SKIP() << "no OpenMP reference";
  transforms::PipelineOptions opts;
  expectCompilesAndVerifies(b.openmpSource, &opts, b.id + " openmp");
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RodiniaVerifyTest,
    [] {
      std::vector<const rodinia::Benchmark *> all;
      for (const auto &b : rodinia::suite())
        all.push_back(&b);
      return ::testing::ValuesIn(all);
    }(),
    [](const ::testing::TestParamInfo<const rodinia::Benchmark *> &info) {
      return info.param->id;
    });

//===----------------------------------------------------------------------===//
// Seeded mutation soak: single-field corruptions of real compiler output
//===----------------------------------------------------------------------===//

namespace {

/// The bytecode of every Rodinia module under the four pipelines the
/// compile-variants benchmark workload compiles (full, optimizations
/// off, inner loops parallel, MCUDA).
const std::vector<std::pair<std::string, BCModule>> &variantModules() {
  static const auto mods = [] {
    transforms::PipelineOptions innerPar;
    innerPar.innerSerialize = false;
    const std::array<std::pair<const char *, transforms::PipelineOptions>, 4>
        variants = {{{"full", {}},
                     {"optdisabled",
                      transforms::PipelineOptions::optDisabled()},
                     {"innerpar", innerPar},
                     {"mcuda", transforms::PipelineOptions::mcuda()}}};
    std::vector<std::pair<std::string, BCModule>> out;
    for (const auto &b : rodinia::suite())
      for (const auto &[name, opts] : variants) {
        DiagnosticEngine diag;
        driver::CompileResult cc = driver::compile(b.cudaSource, opts, diag);
        if (cc.ok)
          out.emplace_back(b.id + "/" + name, compileModule(cc.module.get()));
      }
    return out;
  }();
  return mods;
}

uint64_t splitmix(uint64_t &s) {
  uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum class Field {
  Opcode,
  A,
  B,
  C,
  D,
  Imm,
  JumpTarget,
  Extras,
  OutOfEnumOpcode,
  kCount
};

/// Overwrites one field of one instruction (or one extras entry) of a
/// random function in `m`, drawn from `seed`. Register-like values are
/// mostly in range, so most mutants reach the flow layer; the rest probe
/// the structural checks. Returns a label naming the mutation.
std::string mutate(BCModule &m, Field field, uint64_t seed) {
  std::vector<uint32_t> bodies;
  for (uint32_t i = 0; i < m.fns.size(); ++i)
    if (!m.fns[i].instrs.empty())
      bodies.push_back(i);
  uint32_t fi = bodies[splitmix(seed) % bodies.size()];
  BCFunction &fn = m.fns[fi];
  const size_t n = fn.instrs.size();
  auto regLike = [&]() -> int32_t {
    uint64_t r = splitmix(seed);
    if (r % 8 != 0)
      return static_cast<int32_t>((r >> 3) %
                                  std::max<uint32_t>(fn.numRegs, 1));
    static constexpr int32_t kWild[] = {-1, 0x7fffffff};
    return r % 16 == 0 ? kWild[(r >> 4) % 2]
                       : static_cast<int32_t>(fn.numRegs);
  };
  size_t pc = splitmix(seed) % n;
  if (field == Field::JumpTarget) {
    std::vector<size_t> jumps;
    for (size_t p = 0; p < n; ++p)
      if (fn.instrs[p].op == BC::Jump || fn.instrs[p].op == BC::JumpIfFalse)
        jumps.push_back(p);
    if (jumps.empty())
      field = Field::Imm;
    else
      pc = jumps[splitmix(seed) % jumps.size()];
  }
  if (field == Field::Extras && fn.extras.empty())
    field = Field::A;
  Instr &in = fn.instrs[pc];
  std::string where = "fn " + std::to_string(fi) + " pc " + std::to_string(pc);
  switch (field) {
  case Field::Opcode:
    in.op = static_cast<BC>(splitmix(seed) % (size_t(BC::ScopePop) + 1));
    return where + " op=" + std::to_string(int(in.op));
  case Field::OutOfEnumOpcode: {
    constexpr size_t kFirst = size_t(BC::ScopePop) + 1;
    in.op = static_cast<BC>(kFirst + splitmix(seed) % (256 - kFirst));
    return where + " op=" + std::to_string(int(in.op));
  }
  case Field::A:
    in.a = regLike();
    return where + " a=" + std::to_string(in.a);
  case Field::B:
    in.b = regLike();
    return where + " b=" + std::to_string(in.b);
  case Field::C:
    in.c = regLike();
    return where + " c=" + std::to_string(in.c);
  case Field::D:
    in.d = regLike();
    return where + " d=" + std::to_string(in.d);
  case Field::Imm:
    in.imm = static_cast<int64_t>(splitmix(seed) % (n + 3)) - 1;
    return where + " imm=" + std::to_string(in.imm);
  case Field::JumpTarget:
    in.imm = static_cast<int64_t>(splitmix(seed) % (n + 1));
    return where + " target=" + std::to_string(in.imm);
  case Field::Extras: {
    size_t e = splitmix(seed) % fn.extras.size();
    fn.extras[e] = regLike();
    return "fn " + std::to_string(fi) + " extras[" + std::to_string(e) +
           "]=" + std::to_string(fn.extras[e]);
  }
  case Field::kCount:
    break;
  }
  return where;
}

/// Mutants per (module, pipeline) pair and field.
constexpr int kMutantsPerField = 8;

/// Every mutant of the soak, in a fixed order: "<job> <mutation>" plus
/// the field it corrupted.
template <typename F> void forEachMutant(F &&visit) {
  const auto &mods = variantModules();
  for (size_t j = 0; j < mods.size(); ++j)
    for (int f = 0; f < int(Field::kCount); ++f)
      for (int k = 0; k < kMutantsPerField; ++k) {
        BCModule m = mods[j].second;
        uint64_t seed = (uint64_t(j) << 32) ^ (uint64_t(f) << 16) ^ uint64_t(k);
        std::string label =
            mods[j].first + " " + mutate(m, Field(f), seed);
        visit(label, m, Field(f));
      }
}

} // namespace

TEST(VerifierMutationSoak, EveryMutantGetsAStableAttributedVerdict) {
  ASSERT_EQ(variantModules().size(), rodinia::suite().size() * 4);
  size_t mutants = 0, rejected = 0;
  forEachMutant([&](const std::string &label, const BCModule &m,
                    Field field) {
    ++mutants;
    VerifyResult first = verifyModule(m);
    VerifyResult second = verifyModule(m);
    EXPECT_EQ(first.ok(), second.ok()) << label;
    EXPECT_EQ(first.str(), second.str()) << label;
    rejected += !first.ok();
    for (const VerifyError &e : first.errors) {
      ASSERT_LT(e.fnIndex, m.fns.size()) << label << ": " << e.str();
      EXPECT_TRUE(e.pc == VerifyError::kNoPc ||
                  e.pc < m.fns[e.fnIndex].instrs.size())
          << label << ": " << e.str();
    }
    // The only corruption is the opcode, so it is the only error, and it
    // is attributed to the corrupted instruction.
    if (field == Field::OutOfEnumOpcode) {
      ASSERT_EQ(first.errors.size(), 1u) << label << ": " << first.str();
      const VerifyError &e = first.errors.front();
      EXPECT_GT(unsigned(e.op), unsigned(BC::ScopePop)) << label;
      EXPECT_NE(e.reason.find("outside the BC enum"), std::string::npos)
          << label << ": " << e.str();
    }
  });
  EXPECT_EQ(mutants, variantModules().size() * size_t(Field::kCount) *
                         kMutantsPerField);
  // A soak whose corruptions never trip the verifier tests nothing.
  EXPECT_GT(rejected, mutants / 4);
}
