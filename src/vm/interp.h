// The ParaLift VM: executes bytecode on the thread-pool runtime.
//
// Three execution regimes:
//  - plain serial interpretation (host code, serialized loops);
//  - team execution for omp.parallel/omp.wsloop/omp.barrier;
//  - lockstep SIMT execution for gpu.block scf.parallel loops: every
//    thread of a block gets its own context, contexts run until they hit
//    a SimtBarrier, and resume together — giving ground-truth CUDA
//    __syncthreads semantics for validating the transpilation pipelines.
//
// == Bytecode verification ==
//
// `Slot` is an untyped i/f/p union and the interpreter indexes frames and
// extras tables without checking, so malformed bytecode would be memory
// corruption, not an exception. An Interp can therefore only be built from
// a `VerifiedModule` (vm/verifier.h), whose creation proves every
// register/extras/shape/closure/callee index in range, every Call/Ret
// arity consistent, every register read typed (no int read as a memref
// pointer, no uninitialized read) — interprocedurally, with argument
// typestates propagated from every Call/launch site and Ret typestates
// back into Call results, so type confusion cannot be smuggled across a
// frame boundary either — every Load/Store/SubView/Dim rank-consistent
// with the memref it touches, scopes balanced, and barriers placed where
// their execution regime always exists. The interpreter re-checks none
// of these descriptor facts at run time.
//
// What no static analysis can remove is the *data-dependent* index
// comparison (idx vs sizes[i]) on Load/Store/SubView: that is
// `ExecOptions::boundsCheck`. With it on, hostile index math traps and
// the process answers the request with an error (tryCall) instead of
// corrupting memory; turning it off is only for trusted data.
#pragma once

#include "runtime/thread_pool.h"
#include "vm/bytecode.h"
#include "vm/verifier.h"

#include <cstring>
#include <deque>
#include <memory>

namespace paralift::vm {

/// Per-execution memory arena with scope marks (allocas inside loops are
/// released at the end of each iteration).
///
/// Released storage is recycled, not freed: release() only rewinds the
/// cursors, so the next iteration's allocas reuse the previous
/// iteration's descriptors and buffers in place (a buffer regrows only
/// when a larger request lands on its slot). A loop that allocas the
/// same shapes every iteration performs zero allocations after the
/// first — previously every iteration freed and re-malloc'd.
///
/// Contract: allocate() always returns ZEROED storage — fresh buffers
/// are value-initialized and recycled ones are memset — so iteration N
/// observes exactly what iteration 1 did (and what the old
/// free-and-remalloc scheme guaranteed), never stale bytes from a
/// previous iteration.
class Arena {
public:
  MemRef *newDesc() {
    if (descsUsed_ == descs_.size())
      descs_.push_back(std::make_unique<MemRef>());
    MemRef *m = descs_[descsUsed_++].get();
    *m = MemRef{}; // recycled descriptors must not leak stale fields
    return m;
  }
  char *allocate(size_t bytes) {
    if (bufsUsed_ == bufs_.size())
      bufs_.emplace_back();
    Buf &b = bufs_[bufsUsed_++];
    if (b.cap < bytes) {
      reserved_ += bytes - b.cap;
      b.data = std::make_unique<char[]>(bytes); // value-init: zeroed
      b.cap = bytes;
    } else if (bytes > 0) {
      std::memset(b.data.get(), 0, bytes); // recycled: re-zero
    }
    return b.data.get();
  }
  struct Mark {
    size_t descs, bufs;
  };
  Mark mark() const { return {descsUsed_, bufsUsed_}; }
  void release(Mark m) {
    descsUsed_ = m.descs;
    bufsUsed_ = m.bufs;
  }

  /// Introspection for tests: live (cursor) counts and pooled capacity.
  size_t liveDescs() const { return descsUsed_; }
  size_t liveBuffers() const { return bufsUsed_; }
  size_t pooledDescs() const { return descs_.size(); }
  size_t pooledBuffers() const { return bufs_.size(); }
  /// Total buffer bytes this arena has reserved (monotonic; recycling
  /// never shrinks it) — what ExecOptions::maxArenaBytes caps.
  uint64_t reservedBytes() const { return reserved_; }

private:
  struct Buf {
    std::unique_ptr<char[]> data;
    size_t cap = 0;
  };
  std::vector<std::unique_ptr<MemRef>> descs_;
  std::vector<Buf> bufs_;
  size_t descsUsed_ = 0;
  size_t bufsUsed_ = 0;
  uint64_t reserved_ = 0;
};

struct ExecOptions {
  /// Data-dependent index checking (idx vs sizes) on Load/Store/SubView.
  /// See "Bytecode verification" above.
  bool boundsCheck = true;
  /// Per-execution-arena byte cap (each serial run and each team/SIMT
  /// thread context has its own arena). A breach traps — surfaced as a
  /// CallResult error by tryCall — instead of allocating until the
  /// process is OOM-killed. 0 = unlimited.
  uint64_t maxArenaBytes = 0;
};

/// Outcome of Interp::tryCall: results on success, a non-empty error
/// otherwise — unknown function, arity mismatch, or a runtime trap
/// (index out of bounds under boundsCheck, arena-cap breach, an
/// injected "vm.exec" fault). Traps are counted in the "vm.exec.errors"
/// metric. Lets a long-lived server answer a bad request instead of
/// aborting the process.
struct CallResult {
  std::vector<Slot> results;
  std::string error;
  bool ok() const { return error.empty(); }
};

class Interp {
public:
  /// The token proves every structural and typestate invariant (see
  /// "Bytecode verification" above). The module behind the token must
  /// outlive this Interp.
  Interp(const VerifiedModule &verified, runtime::ThreadPool &pool,
         ExecOptions opts = {})
      : mod_(verified.module()), pool_(pool), opts_(opts) {}

  /// Calls a named function; args are pre-populated registers (scalars or
  /// MemRef* created via makeMemRef). Returns the function results.
  /// Aborts via fatalError on an unknown name, arity mismatch, or
  /// runtime trap — use tryCall where the process must survive bad
  /// requests.
  std::vector<Slot> call(const std::string &name, std::vector<Slot> args);

  /// Like call(), but surfaces unknown-function/arity errors *and*
  /// runtime traps (bounds violations under boundsCheck, arena-cap
  /// breaches) as a structured CallResult instead of killing the
  /// process. Traps unwind cleanly: team threads contain their own trap
  /// and the first one is re-surfaced on the calling thread after the
  /// parallel region joins.
  CallResult tryCall(const std::string &name, std::vector<Slot> args);

  /// Wraps an external buffer in a descriptor owned by this Interp (alive
  /// until destruction).
  Slot makeMemRef(TypeKind elem, void *data,
                  const std::vector<int64_t> &sizes);

private:
  struct Ctx {
    runtime::Team *team = nullptr;
    unsigned tid = 0;
    Arena *arena = nullptr;
  };

  /// Why run() returned: the function finished (Ret or end of code), or
  /// it suspended at a SimtBarrier.
  enum class Stop { Done, Barrier };

  /// The dispatch loop shared by the serial interpreter and the lockstep
  /// engine: executes `fn` from `pc` until a Ret, a SimtBarrier (`pc` is
  /// left just past it, so a second call resumes there) or the end of
  /// the code.
  Stop run(const BCFunction &fn, Slot *regs, Ctx &ctx,
           std::vector<Arena::Mark> &scopes, size_t &pc,
           std::vector<Slot> *results);

  void exec(const BCFunction &fn, Slot *regs, Ctx &ctx,
            std::vector<Slot> *results);
  void execParallelOmp(const Closure &c, Slot *regs);
  void execParallelScf(const Closure &c, Slot *regs, Ctx &ctx);
  void execLockstep(const BCFunction &body, const std::vector<Slot> &base,
                    const std::vector<int64_t> &lbs,
                    const std::vector<int64_t> &ubs,
                    const std::vector<int64_t> &steps, unsigned numCaptures);

  MemRef *doAlloca(const BCFunction &fn, const Instr &in, Slot *regs,
                   Arena &arena);

  const BCModule &mod_;
  runtime::ThreadPool &pool_;
  ExecOptions opts_;
  Arena external_; ///< descriptors for user-supplied buffers
};

} // namespace paralift::vm
