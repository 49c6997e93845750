// The ParaLift embedding API: CUDA-subset source -> optimized CPU module
// -> executable bytecode.
//
// The primary interface is driver::CompilerSession (driver/session.h): a
// long-lived object owning the shared thread pool and run
// configuration, compiling any number of modules — batched, so the
// pool's workers compile queued modules in parallel. Suites,
// benchmarks, and embedders compiling more than one module should hold a
// session:
//
//   driver::SessionOptions so;
//   so.threads = 4;                 // one pool for the whole suite
//   driver::CompilerSession session(so);
//   auto &job = session.addSource("vecnorm.cu", source);
//   session.compileAll();
//   driver::Executor exec(job.result().module.get(), /*maxThreads=*/8);
//   exec.run("launch", {Executor::buffer(out), Executor::buffer(in),
//                       int64_t(n)});
//
// The free functions below compile exactly one module through a
// temporary single-job session, so they follow the same compile path,
// diagnostics and verification gates as any session job:
//
//   DiagnosticEngine diag;
//   auto cc = driver::compile(source, PipelineOptions{}, diag);
//
// Use them for one module; to compile several, queue them on one session
// instead so they share its pool.
#pragma once

#include "driver/session.h"
#include "runtime/thread_pool.h"
#include "vm/compile.h"
#include "vm/interp.h"

#include <memory>
#include <variant>

namespace paralift::driver {

/// One-shot compile: full pipeline (frontend -> optimization/cpuify/
/// omp-lowering) through a temporary session configured by `so` (threads,
/// verification; see SessionOptions). Every call runs every pass on the
/// freshly parsed module.
CompileResult compile(const std::string &source,
                      const transforms::PipelineOptions &opts,
                      DiagnosticEngine &diag, SessionOptions so = {});

/// One-shot frontend view for the lockstep SIMT reference executor: a
/// session running the one-pass "inline-kernels" pipeline (device
/// functions inlined into kernels). Barriers are preserved; kernels
/// execute on the lockstep SIMT emulator giving ground-truth CUDA
/// semantics.
CompileResult compileForSimt(const std::string &source,
                             DiagnosticEngine &diag);

/// Executes a compiled module on the thread-pool runtime.
class Executor {
public:
  struct Buffer {
    ir::TypeKind elem;
    void *data;
    std::vector<int64_t> dims;
  };
  using Arg = std::variant<int64_t, double, Buffer>;

  static Buffer bufferF32(float *data, std::vector<int64_t> dims) {
    return {ir::TypeKind::F32, data, std::move(dims)};
  }
  static Buffer bufferF64(double *data, std::vector<int64_t> dims) {
    return {ir::TypeKind::F64, data, std::move(dims)};
  }
  static Buffer bufferI32(int32_t *data, std::vector<int64_t> dims) {
    return {ir::TypeKind::I32, data, std::move(dims)};
  }

  Executor(ir::ModuleOp module, unsigned maxThreads,
           bool boundsCheck = true);

  /// Team size for subsequent runs (1..maxThreads).
  void setNumThreads(unsigned n) { pool_.setNumThreads(n); }
  /// Nested-parallel policy (Spawn = PolygeistInnerPar cost model).
  void setNestedPolicy(runtime::NestedPolicy p) {
    pool_.setNestedPolicy(p);
  }

  /// Invokes a host function. Scalar results are returned as raw slots.
  /// Aborts on an unknown name or arity mismatch; use tryRun where the
  /// caller must survive bad requests.
  std::vector<vm::Slot> run(const std::string &fn,
                            const std::vector<Arg> &args);

  /// Like run(), but surfaces unknown-function/arity errors structurally.
  vm::CallResult tryRun(const std::string &fn, const std::vector<Arg> &args);

private:
  vm::BCModule bc_;
  runtime::ThreadPool pool_;
  std::unique_ptr<vm::Interp> interp_;
};

} // namespace paralift::driver
