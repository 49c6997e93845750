// Bytecode for the ParaLift VM: a register machine compiled from the IR.
//
// Serial structured control flow (scf.for/if/while and omp.wsloop chunking)
// is flattened to jumps within one frame. Region ops that execute on other
// threads (omp.parallel) or with SIMT semantics (scf.parallel) become
// closures: separately compiled functions receiving captured values plus
// induction variables as leading registers.
//
// Both the transpiled-CUDA and the reference-OpenMP sides of every
// benchmark run on this same VM, so relative performance comparisons
// isolate the compiler's effects: neither side gets a better code
// generator or memory hierarchy than the other.
#pragma once

#include "ir/type.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace paralift::vm {

using ir::Type;
using ir::TypeKind;

/// One 8-byte VM register.
union Slot {
  int64_t i;
  double f;
  void *p;
};

constexpr unsigned kMaxRank = 6;

/// Runtime memref descriptor: base pointer + row-major sizes.
struct MemRef {
  TypeKind elem = TypeKind::F32;
  uint8_t rank = 0;
  char *data = nullptr;
  int64_t sizes[kMaxRank] = {};

  int64_t numElements() const {
    int64_t n = 1;
    for (unsigned i = 0; i < rank; ++i)
      n *= sizes[i];
    return n;
  }
  int64_t byteSize() const {
    return numElements() * ir::byteWidth(elem);
  }
};

// Per-opcode invariants, enforced statically by vm/verifier.cpp before
// any untrusted module executes (the interpreter itself never re-checks
// them). Shared invariants, stated once:
//  - every register operand (a/b/c/d where used, and every register named
//    inside an extras range) is < BCFunction::numRegs;
//  - every extras[b..b+c) range lies inside BCFunction::extras;
//  - every register is written before it is read on every path, and read
//    with the Slot view (i/f/p) it was written with. Arguments carry the
//    join of what every invocation site (Call / closure launch) passes;
//    only functions nothing but the host invokes keep the blanket `Any`
//    contract, where typing is the trusted caller's responsibility.
enum class BC : uint8_t {
  ConstI,    ///< d <- imm
  ConstF,    ///< d <- fimm
  Copy,      ///< d <- a (a initialized; d inherits a's typestate)
  // Integer arithmetic (a, b -> d); t selects 32/64-bit wrapping.
  // a and b must hold ints; d becomes int.
  AddI, SubI, MulI, DivSI, RemSI, AndI, OrI, XOrI, ShLI, ShRSI, MinSI, MaxSI,
  CmpI,      ///< d <- pred(a, b); pred in imm; int operands, int result
  // Float arithmetic (a, b -> d); t selects f32 rounding.
  // a and b must hold floats; d becomes float.
  AddF, SubF, MulF, DivF, RemF, MinF, MaxF, PowF,
  // Float unary (a -> d); a must hold a float.
  NegF, SqrtF, ExpF, LogF, AbsF, SinF, CosF, TanhF, FloorF, CeilF,
  CmpF,      ///< d <- pred(a, b); pred in imm; float operands, int result
  Select,    ///< d <- a ? b : c; a int; b/c initialized; d joins b and c
  SIToFP,    ///< d.f <- (double)a.i; a int
  FPToSI,    ///< d.i <- (int64)a.f; a float
  TruncI32,  ///< d.i <- sign-extended int32 of a.i; a int
  Alloca,    ///< d <- stack memref; imm = valid shape idx (rank <= kMaxRank,
             ///< no negative static extent); extras[b..b+c) int extent regs,
             ///< c == the shape's dynamic-dim count
  AllocHeap, ///< like Alloca but heap-lifetime (freed at invocation end)
  Dealloc,   ///< frees a (a memref; no-op for arena buffers)
  Load,      ///< d <- a[extras[b..b+c)]; a memref of rank c, int indices;
             ///< t = elem kind, must agree with the memref's element class
  Store,     ///< a[extras[b..b+c)] <- d; a memref of rank c, int indices;
             ///< d typed like the element
  Dim,       ///< d <- a.sizes[imm]; a memref, imm < rank (and < kMaxRank)
  SubView,   ///< d <- subview(a, extras[b..b+c)); a memref, c <= rank,
             ///< int indices; d memref of rank (rank - c)
  Jump,        ///< pc <- imm; imm on an instruction boundary in [0, size]
               ///< (size = fall off the end, legal only with 0 results)
  JumpIfFalse, ///< if !a: pc <- imm; a int; same target rule as Jump
  Call,      ///< imm = valid callee index; extras[b..b+c) initialized args,
             ///< extras[b+c..b+c+d) result regs; c == callee.numArgs,
             ///< d == callee.numResults. Argument typestates propagate
             ///< into the callee (its body is verified under what every
             ///< call site passes) and result regs take the callee's
             ///< joined Ret typestates — no cross-frame type confusion
  Ret,       ///< return extras[b..b+c) (initialized); c == numResults;
             ///< all ScopePush marks popped on this path
  GetTid,      ///< d <- current team thread id
  GetTeamSize, ///< d <- current team size
  TeamBarrier, ///< omp.barrier; only where a team ALWAYS exists: the
               ///< omp-body-reachable set (via Call / serial scf
               ///< closures) minus anything also reachable from a
               ///< teamless context (an entry or lockstep path, where
               ///< the barrier would silently no-op while the team
               ///< side synchronizes)
  SimtBarrier, ///< polygeist.barrier: lockstep suspension point; only
               ///< directly inside a gpu-block scf closure body — the
               ///< lockstep engine cannot suspend across a Call frame,
               ///< and serial execution aborts on it
  ParallelOmp, ///< imm = valid closure idx with numIvs == 0: fresh team
  ParallelScf, ///< imm = valid closure idx: SIMT/serial execution
  ScopePush,   ///< arena mark (allocas inside loops are scoped); push/pop
               ///< depth must be equal on every path into a join point
  ScopePop,    ///< must have a matching ScopePush on every path
};

struct Instr {
  BC op;
  TypeKind t = TypeKind::None;
  int32_t a = 0, b = 0, c = 0, d = 0;
  int64_t imm = 0;
  double fimm = 0;
};

/// Static memref shape template referenced by Alloca/AllocHeap.
struct ShapeInfo {
  TypeKind elem;
  std::vector<int64_t> dims; ///< Type::kDynamic entries consume extent regs
};

/// A parallel region body compiled as a separate function. Frame layout of
/// the closure function: [captures..., ivs..., locals...].
///
/// Invariants (verifier-enforced): fnIndex is a valid function whose
/// numArgs == captureRegs.size() + numIvs; captureRegs/lbs/ubs/steps name
/// valid *enclosing-frame* registers; lbs/ubs/steps each have exactly
/// numIvs entries (int-typed at the launch site).
struct Closure {
  uint32_t fnIndex = 0;
  std::vector<int32_t> captureRegs; ///< registers in the enclosing frame
  uint8_t numIvs = 0;               ///< 0 for omp.parallel
  std::vector<int32_t> lbs, ubs, steps; ///< enclosing-frame registers
  bool gpuBlock = false;
  bool gpuGrid = false;
};

/// Invariants: numArgs <= numRegs (arguments are the leading registers of
/// the frame); control cannot fall off the end of instrs unless
/// numResults == 0.
struct BCFunction {
  std::string name;
  uint32_t numRegs = 0;
  uint32_t numArgs = 0;
  uint32_t numResults = 0;
  std::vector<Instr> instrs;
  std::vector<int32_t> extras;
  std::vector<ShapeInfo> shapes;
  std::vector<Closure> closures;
};

struct BCModule {
  std::vector<BCFunction> fns;
  std::unordered_map<std::string, uint32_t> byName;

  const BCFunction *lookup(const std::string &name) const {
    auto it = byName.find(name);
    return it == byName.end() ? nullptr : &fns[it->second];
  }
};

} // namespace paralift::vm
