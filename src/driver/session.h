// CompilerSession: the batch, multi-module embedding API of the ParaLift
// compiler.
//
// A session is a long-lived object owning everything that should be
// shared across compiles instead of rebuilt per call: the runtime
// ThreadPool whose team compiles modules in parallel, and the run
// configuration (threads, verification, timing, deadlines). Sources are
// queued with addSource (each returns a CompileJob handle carrying a
// per-module DiagnosticEngine stamped with the module's name), then
// compileAll() compiles every queued module, up to `threads` modules at
// once. A job's result, diagnostics and latency are read after the
// compileAll that covered it returns.
//
//   driver::CompilerSession session({.threads = 4});
//   auto &a = session.addSource("a.cu", srcA, PipelineOptions{});
//   auto &b = session.addSource("b.cu", srcB, PipelineOptions{});
//   session.compileAll();
//   driver::Executor exec(a.result().module.get(), 8);
//
// One session compiles N modules concurrently and amortizes worker
// startup across every compile; the driver::compile and
// driver::compileForSimt free functions are one-shot wrappers over a
// temporary session (driver/compiler.h).
//
// Batch scheduling
// ----------------
// Every job, in every configuration, compiles through one path: the
// PassManager's module batch (transforms::ModuleBatch), one per pipeline
// group. The SIMT oracle's frontend view is no special case either: it is
// the one-pass pipelineSpec "inline-kernels". All groups' modules form
// one queue, in group then job order, and the pool's team drains it:
// each worker claims the next module and runs it start to finish —
// parse, then every pass in order. Every module compiles once, cold:
// no pass result is kept between modules, batches or processes.
// Parallelism comes from the modules; the functions of one module run
// one after another on its worker. Each CompileJob is marked done (its
// latencySeconds() stamped) the moment its own last pass completes
// rather than at end of batch. Pass execution is deterministic per
// input, so outputs are bit-for-bit identical to serial compiles at any
// thread count. Under --timing, each module keeps its own (module,
// pass) records, appended in group then job order.
//
// The queue drains on the calling thread, in job order, at threads=1,
// when compileAll is itself called inside a parallel region, and with
// per-module instrumentation (configurePassManager), so those hooks
// observe one module at a time. Such batches get the same per-step
// cancellation, deadline, and arena-cap checks.
//
// Memory
// ------
// Every job's module lives in its own ir::IRArena (see ir/arena.h and
// op.h "Design notes"): all ops, values, blocks, regions and attribute
// storage for one module come from that module's bump allocator, and the
// OwnedModule held by CompileResult is the arena handle. Consequences
// for session users:
//
//  - Job teardown is O(1) in IR size. Dropping a CompileJob's result (or
//    the session) releases each module as a handful of slab frees, not a
//    node-by-node destructor walk — cheap even for batches that built
//    millions of ops.
//  - Arena memory is monotonic per module while the module is alive.
//    Passes that erase ops (canonicalize, CSE, DSE) unlink them from the
//    IR but return nothing to the allocator; the bytes are reclaimed
//    when the module is destroyed. Peak RSS of a batch therefore tracks
//    the *created*, not the surviving, op count.
//  - Modules never share arenas. A module parsed or cloned from
//    another (ir::parseModuleInto, ir::cloneOpInto) lands directly in
//    the destination module's arena, so no op changes owner.
//
// Observability
// -------------
// The compiler carries a unified tracing + metrics layer (support/trace.h,
// support/metrics.h); sessions are its main driver:
//
//  - Tracing. With the process-wide trace recorder enabled
//    (trace::enable(), or $PARALIFT_TRACE=FILE, written at exit), a
//    session's compiles land in the Chrome trace_event JSON that
//    trace::writeJson() writes ("catapult" format — load in
//    about://tracing or Perfetto; --trace-json=FILE at the CLI). Each
//    worker thread is a named lane ("worker-N"); every job contributes
//    an async span from batch start to job completion, nested over its
//    frontend parse span, and one span per (module, pass) step (a
//    failed step is annotated "step: failed"). When disabled (the
//    default), instrumentation costs one relaxed atomic load per site —
//    the recorder is compiled in but never buffers.
//
// Failure semantics
// -----------------
// The session is the process's failure-containment boundary; the
// guarantees below are what the fault-injection soak (tests/test_faults)
// asserts, and what an embedding daemon may rely on:
//
//  - Job vs batch vs process. Any failure inside one job's compile — a
//    frontend error, a throwing pass, a verifier rejection, an injected
//    fault (support/failpoint.h), a breached arena cap, a cancelled or
//    timed-out token — fails *that job only*: it resolves with
//    ok() == false and at least one diagnostic attributing the failure
//    (module name, failing pass or stage, reason). The rest of the batch
//    compiles normally, compileAll() returns with every job ready(), and
//    the process never terminates on a job failure. Exceptions escaping
//    a module's compile are additionally contained at its dispatch
//    (ModuleBatch::runModule, scheduler.task_exceptions metric); any
//    job cut short that way is swept and marked failed when the queue
//    drains, so every job still resolves.
//
//  - Cancellation and deadlines. CompileJob::cancel() requests
//    cooperative cancellation; SessionOptions::jobTimeoutSeconds arms a
//    per-job deadline at batch start. Both are polled at pass/step
//    boundaries only — the pass currently executing always finishes, so
//    the IR stays consistent; the job then fails with "cancelled
//    ..." or "deadline exceeded after Ns in pass P" before its next
//    pass. A compile that is between passes reacts within one step; one
//    stuck *inside* a pass is not interrupted (cooperative, not
//    preemptive).
//
//  - Memory bounds. SessionOptions::maxArenaBytesPerModule caps each
//    job's IR arena; a module whose arena exceeds the cap at a pass/step
//    boundary fails with a per-job OOM diagnostic ("IR arena limit
//    exceeded ... in pass P") instead of growing until the kernel
//    OOM-kills the process.
//
//  - Metrics. A process-wide MetricsRegistry aggregates named counters,
//    gauges, and log2-bucket latency histograms across every subsystem:
//    "scheduler.*" (tasks: module dispatches; task_exceptions:
//    dispatches cut short), "session.*" (jobs completed/failed,
//    job-latency histogram), "pm.pass_seconds",
//    "pass.<pass>.<stat>" (mirrors of every Pass::Statistic), and
//    "arena.reserved_bytes" (live IR slab bytes; .peak tracks the
//    high-water mark). MetricsRegistry::textSnapshot()/jsonSnapshot()
//    render it (--metrics / --metrics=FILE at the CLI). The registry is
//    process-global on purpose: one snapshot shows scheduler, arena,
//    and per-pass activity side by side, regardless of how many
//    sessions produced it.
#pragma once

#include "frontend/irgen.h"
#include "support/diagnostics.h"
#include "transforms/passes.h"

#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace paralift::runtime {
class ThreadPool;
}

namespace paralift::driver {

struct CompileResult {
  ir::OwnedModule module;
  bool ok = false;
};

class CompileJob;

struct SessionOptions {
  /// Workers in the session's shared pool: how many modules compile at
  /// once, each start to finish on one worker. 1 disables the pool
  /// entirely.
  unsigned threads = 1;

  /// Verify every module after every pass, attributing breakage to the
  /// pass; a broken module fails alone (job-level isolation).
  bool verifyEach = false;
  /// Record per-pass wall-clock + IR-arena growth into timingReport().
  bool collectTiming = false;
  /// Also collect pass statistics needing extra IR walks
  /// (statisticsStr()).
  bool collectStatistics = false;

  /// Per-job compile deadline in seconds, armed when the batch starts
  /// compiling; 0 disables. A job that exceeds it fails with "deadline
  /// exceeded after Ns in pass P" at its next pass/step boundary while
  /// the rest of the batch completes normally (see "Failure semantics").
  /// (--job-timeout at the CLI.)
  double jobTimeoutSeconds = 0;
  /// Per-module IR-arena byte cap; a job whose module arena exceeds it
  /// at a pass boundary fails with a clean per-job OOM diagnostic.
  /// 0 = off.
  uint64_t maxArenaBytesPerModule = 0;

  /// Has no effect; deleted once e2ebench stops assigning it.
  bool memoryCache = false;
  /// Has no effect; deleted once e2ebench stops assigning it.
  bool useEnvCache = true;

  /// When set: run this textual pipeline (registry syntax, e.g.
  /// "inline,repeat(canonicalize,cse),cpuify") instead of the standard
  /// buildPipeline over each job's PipelineOptions. An *empty* spec is a
  /// valid zero-pass pipeline (paralift-opt's round-trip mode);
  /// "inline-kernels" is the SIMT oracle's frontend view
  /// (driver::compileForSimt).
  std::optional<std::string> pipelineSpec;

  /// Called on every PassManager the session builds, before the
  /// verify-each and timing hooks are installed — the hook for bespoke
  /// instrumentation (paralift-opt's --print-ir-before/after). Setting
  /// it drains the batch on the calling thread, so the hooks observe one
  /// module at a time, in job order (see "Batch scheduling").
  std::function<void(transforms::PassManager &)> configurePassManager;
};

class CompilerSession;

/// Handle for one queued module; owned by (and referencing) the session,
/// valid until the session is destroyed. result(), take(), diagnostics(),
/// ok() and latencySeconds() may only be called once a compileAll has
/// covered the job (asserted).
class CompileJob {
public:
  const std::string &name() const { return name_; }
  const transforms::PipelineOptions &pipelineOptions() const {
    return pipelineOpts_;
  }

  /// True once a compileAll has resolved the job (successfully or not).
  bool ready() const;

  /// The compiled module. Valid until the session dies or take() moves
  /// it out.
  CompileResult &result();
  /// Moves the result out of the job.
  CompileResult take();
  /// This job's diagnostics (each stamped with the module name handed to
  /// addSource).
  const DiagnosticEngine &diagnostics();
  /// Whether frontend + pipeline + final verification all succeeded.
  bool ok();

  /// Seconds from the start of the compileAll batch that compiled this
  /// job to the moment it was marked done. Jobs resolve incrementally,
  /// so the mean/median over a batch measures job-completion latency
  /// (bench_compile reports both).
  double latencySeconds();

  /// Requests cooperative cancellation of this job (thread-safe,
  /// idempotent, callable mid-batch from any thread). The job stops at
  /// its next pass/step boundary and fails with a "cancelled" diagnostic;
  /// a job cancelled before its batch starts never runs a pass. Other
  /// jobs are unaffected. No-op once the job is Done.
  void cancel() { cancel_.cancel(); }
  /// This job's cancellation/deadline token (see
  /// transforms::CancellationToken); the session arms its deadline from
  /// SessionOptions::jobTimeoutSeconds at batch start.
  const transforms::CancellationToken &cancellation() const {
    return cancel_;
  }

private:
  friend class CompilerSession;
  enum class State { Queued, Compiling, Done };

  CompilerSession *session_ = nullptr;
  std::string name_;
  std::string source_;               ///< empty for addModule jobs
  bool preparsed_ = false;           ///< addModule: skip the frontend
  transforms::PipelineOptions pipelineOpts_;
  transforms::CancellationToken cancel_;
  DiagnosticEngine diag_;
  CompileResult result_;
  double latencySeconds_ = -1;
  State state_ = State::Queued;
};

class CompilerSession {
public:
  explicit CompilerSession(SessionOptions opts = {});
  ~CompilerSession();
  CompilerSession(const CompilerSession &) = delete;
  CompilerSession &operator=(const CompilerSession &) = delete;

  /// Queues a CUDA-subset source for compilation under `name` (the
  /// attribution stamped onto the job's diagnostics). The returned
  /// reference stays valid for the session's lifetime.
  CompileJob &addSource(std::string name, std::string source,
                        transforms::PipelineOptions pipeline = {});
  /// Queues an already-parsed module (paralift-opt's textual-IR input,
  /// benchmark harnesses cloning a pre-parsed suite).
  CompileJob &addModule(std::string name, ir::OwnedModule module,
                        transforms::PipelineOptions pipeline = {});

  /// Compiles every job still queued: every pipeline group's modules
  /// drain from one queue across the pool's team (see "Batch
  /// scheduling" above and PassManager::makeBatch). With per-module
  /// instrumentation (configurePassManager) the queue drains on the
  /// calling thread, one module at a time. Already-compiled jobs are not recompiled (a
  /// second compileAll is a no-op for them). Returns whether every job
  /// in the session has compiled successfully.
  bool compileAll();

  size_t jobCount() const;
  CompileJob &job(size_t i);

  /// Every job compiled and succeeded.
  bool ok() const;

  /// Per-pass timing accumulated across every compile this session ran
  /// (SessionOptions::collectTiming): one record per (module, pass) step
  /// that executed, in module then pipeline order. Blocks while a batch
  /// is in flight; the reference is stable until the next compileAll
  /// starts.
  const transforms::PassTimingReport &timingReport() const;
  /// Rendered statistics of every pipeline this session ran
  /// (SessionOptions::collectStatistics). Blocks while a batch is in
  /// flight.
  std::string statisticsStr() const;

  const SessionOptions &options() const { return opts_; }

private:
  friend class CompileJob;

  /// Jobs to compile in this batch (flips them to Compiling).
  std::vector<CompileJob *> takeQueued();
  void markDone(CompileJob &job, bool ok);
  /// Frontend for one job: parse + IR verification; false (with the
  /// reason in the job's diagnostics) when either fails. Thread-safe
  /// across distinct jobs; it runs as each module's prepare step.
  bool runFrontendOne(CompileJob &job);
  /// End-of-pipeline verification gate, run as each module's chain
  /// completes: skipped when verify-each already covered the final
  /// module (any non-empty pipeline); otherwise reports "final module is
  /// invalid" into `diag`. Returns the updated ok.
  bool finalVerify(const transforms::PassManager &pm, ir::ModuleOp module,
                   DiagnosticEngine &diag, bool ok) const;

  SessionOptions opts_;
  std::unique_ptr<runtime::ThreadPool> pool_;

  mutable std::mutex mutex_;
  std::deque<std::unique_ptr<CompileJob>> jobs_;

  /// Serializes compileAll runs, and gates the timing/statistics
  /// accessors against a batch mutating those structures mid-run.
  mutable std::mutex compileMutex_;
  /// Start of the in-flight (or last) batch; job completion latencies
  /// are measured from here. Written at batch start, before any job of
  /// the batch can complete.
  std::chrono::steady_clock::time_point batchStart_{};

  transforms::PassTimingReport timing_;
  /// PassManagers kept alive so statistics stay queryable after runs.
  std::vector<std::unique_ptr<transforms::PassManager>> pms_;
};

} // namespace paralift::driver
