// The ParaLift pass-manager layer (in the spirit of mlir::PassManager):
//
//  - Pass: a named, parameterized, restartable unit of IR transformation
//    with declared options (for textual pipelines) and statistics counters.
//  - FunctionPass: a pass that runs independently on each func.
//  - Instrumentation: hooks around every pass execution. Built-ins cover
//    --print-ir-before/after and verify-after-each-pass with a "pass X
//    broke invariant Y" diagnostic.
//    Per-pass wall-clock and IR-arena timing (enableTiming) is collected
//    by the executor itself.
//  - PassManager: owns an ordered pipeline of passes plus instrumentations
//    and executes it through one engine, ModuleBatch: each module runs
//    its whole pipeline, pass after pass, on the thread that dispatches
//    it. makeBatch prepares many modules for any number of threads to
//    dispatch; run() is a batch of one on the calling thread.
//
// Textual pipelines ("unroll{max-trip=16},cpuify{mincut=false}",
// "repeat{n=2}(canonicalize,cse)") are parsed/printed by
// transforms/registry.{h,cpp}; PassManager::pipelineSpec round-trips the
// canonical form.
#pragma once

#include "ir/ophelpers.h"
#include "support/diagnostics.h"
#include "support/metrics.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace paralift::transforms {

using ir::ModuleOp;

//===----------------------------------------------------------------------===//
// Pass
//===----------------------------------------------------------------------===//

class Pass {
public:
  Pass(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}
  virtual ~Pass() = default;
  Pass(const Pass &) = delete;
  Pass &operator=(const Pass &) = delete;

  /// The pipeline-spec name ("canonicalize", "cpuify", ...).
  const std::string &name() const { return name_; }
  const std::string &description() const { return description_; }

  /// True for FunctionPass subclasses: the pass runs per-func.
  virtual bool isFunctionPass() const { return false; }

  /// Module-scope entry point. Returns false on a hard error (which must
  /// also be reported through `diag`).
  virtual bool run(ModuleOp module, DiagnosticEngine &diag) = 0;

  // Options -------------------------------------------------------------------
  // Subclasses declare options in their constructor; the registry's
  // pipeline parser applies `name{key=value,...}` through setOption.

  /// Sets a declared option from its textual value. Returns false (and
  /// fills `err`) for unknown keys or unparseable values.
  bool setOption(const std::string &key, const std::string &value,
                 std::string *err = nullptr);

  /// Canonical spec of this pass: name plus any non-default options, e.g.
  /// "unroll{max-trip=16}". parse(spec()) reconstructs the pass exactly.
  /// Virtual so composite passes (repeat) can append their child list.
  virtual std::string spec() const;

  /// Child passes of a composite pass (repeat), or nullptr. Used by
  /// statistics rendering and the registry.
  virtual const std::vector<std::unique_ptr<Pass>> *childPasses() const {
    return nullptr;
  }

  // Statistics ----------------------------------------------------------------

  struct Statistic {
    std::string name;
    std::atomic<uint64_t> value{0};
    /// Registry twin ("pass.<pass-name>.<stat-name>"), resolved when the
    /// statistic is created, so one metrics snapshot includes every pass
    /// counter alongside scheduler/session figures.
    metrics::Counter *mirror = nullptr;
    Statistic(std::string n) : name(std::move(n)) {}
    void operator+=(uint64_t d) {
      value.fetch_add(d, std::memory_order_relaxed);
      if (mirror)
        mirror->add(d);
    }
  };

  /// Finds or creates the named counter. Counter bumps are thread-safe,
  /// but creation is not: one pass object runs on several modules at
  /// once in a threaded batch, so passes must create their statistics up
  /// front in their constructor.
  Statistic &statistic(const std::string &name);
  const std::vector<std::unique_ptr<Statistic>> &statistics() const {
    return stats_;
  }

  /// Statistics whose collection needs extra IR walks (before/after op
  /// counts) are only gathered when enabled; counters that fall out of
  /// the transform itself are always collected. PassManager toggles this
  /// per run (see PassManager::enableStatistics); a composite pass
  /// forwards the setting to its children.
  void setStatisticsEnabled(bool on) {
    statsEnabled_ = on;
    if (const auto *children = childPasses())
      for (const auto &c : *children)
        c->setStatisticsEnabled(on);
  }
  bool statisticsEnabled() const { return statsEnabled_; }

protected:
  void declareBoolOption(const std::string &key, bool *storage, bool dflt);
  /// Values outside [min, max] are rejected by setOption.
  void declareIntOption(const std::string &key, int64_t *storage,
                        int64_t dflt, int64_t min = INT64_MIN,
                        int64_t max = INT64_MAX);

private:
  struct Option {
    enum class Kind { Bool, Int };
    std::string key;
    Kind kind;
    bool *boolStorage = nullptr;
    int64_t *intStorage = nullptr;
    int64_t dflt = 0; // bool options store 0/1
    int64_t min = INT64_MIN;
    int64_t max = INT64_MAX;
  };

  std::string name_;
  std::string description_;
  std::vector<Option> options_;
  std::vector<std::unique_ptr<Statistic>> stats_;
  bool statsEnabled_ = false;
};

/// A pass that transforms one function at a time and never looks outside
/// it. run() applies runOnFunction to every func in order; the
/// PassManager does the same, timing and containing each call.
class FunctionPass : public Pass {
public:
  using Pass::Pass;
  bool isFunctionPass() const final { return true; }
  bool run(ModuleOp module, DiagnosticEngine &diag) final;
  virtual bool runOnFunction(ir::Op *func, DiagnosticEngine &diag) = 0;
};

/// repeat{n=K}(a,b,...): a composite pass running its children K times in
/// sequence — the declarative form of the canonicalize/cse fixpoint pairs
/// in the standard pipeline. Children must be function passes (the repeat
/// is then itself a function pass whose spec covers the whole body); the
/// registry rejects module passes inside repeat.
class RepeatPass : public FunctionPass {
public:
  RepeatPass();
  /// `child` must be a FunctionPass.
  void addChild(std::unique_ptr<Pass> child);

  std::string spec() const override;
  const std::vector<std::unique_ptr<Pass>> *childPasses() const override {
    return &children_;
  }
  bool runOnFunction(ir::Op *func, DiagnosticEngine &diag) override;

private:
  int64_t n_ = 2;
  std::vector<std::unique_ptr<Pass>> children_;
};

/// Number of ops nested under `root` (inclusive); the cheap size metric
/// used by pass statistics.
size_t countNestedOps(ir::Op *root);
/// Number of nested ops of one kind.
size_t countNestedOps(ir::Op *root, ir::OpKind kind);

//===----------------------------------------------------------------------===//
// Instrumentation
//===----------------------------------------------------------------------===//

/// Instrumentations nest around each (module, pass) step of a batch:
/// beforePass hooks fire in installation order and afterPass hooks in
/// reverse, so the first-installed instrumentation is outermost. Steps of
/// one module never overlap, but in a multi-module batch the hooks of
/// different modules may run concurrently on different workers.
class Instrumentation {
public:
  virtual ~Instrumentation() = default;
  virtual void beforePass(const Pass &pass, ModuleOp module) {
    (void)pass;
    (void)module;
  }
  /// Runs after the pass completes (even when it failed). Returning false
  /// (or reporting an error) fails the module; abort reasons must be
  /// reported through `diag`.
  virtual bool afterPass(const Pass &pass, ModuleOp module,
                         DiagnosticEngine &diag) {
    (void)pass;
    (void)module;
    (void)diag;
    return true;
  }
};

/// Per-pass wall-clock timing and IR-arena growth, one record per
/// (module, pass) step that executed, in module then pipeline order.
/// Filled when PassManager::enableTiming installed the report: every
/// step clocks its pass bodies into its module's records, and
/// ModuleBatch::foldTiming appends them.
struct PassTimingReport {
  struct Record {
    std::string spec; ///< canonical pass spec at execution time
    double seconds = 0;
    /// IR-arena growth (bytes) of the module the pass ran on: the
    /// difference in IRArena::bytesAllocated() across the pass. Arena
    /// memory is monotonic per module (erase is unlink-without-free), so
    /// this attributes the IR materialized by the pass to that pass.
    uint64_t arenaDeltaBytes = 0;
    /// Module the time is attributed to (its diagnostics' module name;
    /// empty for unnamed modules): one row per (module, pass), so
    /// --timing reports per-module per-pass time in a threaded batch.
    std::string module;
  };
  std::vector<Record> records;
  double totalSeconds() const;
  uint64_t totalArenaDeltaBytes() const;
  /// Renders the report as a table ("===- Pass execution timing -===").
  std::string str() const;
};

/// Verifies the module after every pass; on violation reports
///   pass 'X' broke invariant: Y
/// and aborts the pipeline. This replaces the old end-of-pipeline-only
/// verifier check, which could not attribute breakage to a pass.
class VerifyInstrumentation : public Instrumentation {
public:
  bool afterPass(const Pass &pass, ModuleOp module,
                 DiagnosticEngine &diag) override;
};

/// Prints the IR before/after passes to `out` (default stderr). An empty
/// filter matches every pass; otherwise only passes whose name equals the
/// filter are printed.
class IRPrintInstrumentation : public Instrumentation {
public:
  IRPrintInstrumentation(bool before, bool after, std::string filter,
                         std::FILE *out = stderr)
      : before_(before), after_(after), filter_(std::move(filter)),
        out_(out) {}
  void beforePass(const Pass &pass, ModuleOp module) override;
  bool afterPass(const Pass &pass, ModuleOp module,
                 DiagnosticEngine &diag) override;

private:
  bool matches(const Pass &pass) const {
    return filter_.empty() || pass.name() == filter_;
  }
  bool before_, after_;
  std::string filter_;
  std::FILE *out_;
};

//===----------------------------------------------------------------------===//
// CancellationToken
//===----------------------------------------------------------------------===//

/// Cooperative cancellation and deadline for one compile job. The batch
/// executor (makeBatch, via BatchOptions::cancels) polls it at step
/// boundaries — an expired job fails with an attributed diagnostic
/// ("cancelled ..." / "deadline exceeded after Ns in pass P") before its
/// next pass starts; the pass currently executing is never interrupted
/// mid-flight, so the IR stays consistent. Thread-safe: any
/// thread may cancel() while workers poll.
class CancellationToken {
public:
  /// Requests cancellation. Idempotent.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelRequested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms a deadline `seconds` from now; seconds <= 0 disarms.
  void setDeadline(double seconds);

  /// True once cancel() was called or the armed deadline passed.
  bool expired() const;

  /// Why the job should stop: "cancelled" or "deadline exceeded after
  /// <N>s"; empty while the job may keep running. Stable once non-empty
  /// (deadlines never un-expire and cancel is one-way).
  std::string expiredReason() const;

private:
  std::atomic<bool> cancelled_{false};
  /// Steady-clock deadline in nanoseconds since epoch; 0 = disarmed.
  std::atomic<int64_t> deadlineNanos_{0};
  double timeoutSeconds_ = 0;
};

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

class ModuleBatch;

class PassManager {
public:
  PassManager() = default;
  ~PassManager();
  PassManager(const PassManager &) = delete;
  PassManager &operator=(const PassManager &) = delete;

  void addPass(std::unique_ptr<Pass> pass);
  const std::vector<std::unique_ptr<Pass>> &passes() const { return passes_; }

  void addInstrumentation(std::unique_ptr<Instrumentation> ins);

  /// Collects per-pass timing into `report` (owned by the caller): run()
  /// appends its records before returning; makeBatch callers append
  /// them with ModuleBatch::foldTiming once every module ran.
  void enableTiming(PassTimingReport *report) { timing_ = report; }
  /// Installs verify-after-each-pass.
  void enableVerifyEach();
  /// Installs IR printing around passes (see IRPrintInstrumentation).
  void enableIRPrinting(bool before, bool after, std::string filter = "",
                        std::FILE *out = stderr);

  /// Also collect the statistics that need extra IR walks (off by
  /// default so compile hot paths pay nothing for unread counters).
  void enableStatistics() { collectStats_ = true; }

  /// Knobs for a module batch (makeBatch).
  /// Instrumentations installed via enable*/addInstrumentation wrap every
  /// step of every module in the batch.
  struct BatchOptions {
    /// Invoked on the dispatching thread the moment a module's last pass
    /// has completed, before the next module is dispatched. This is what
    /// lets CompileJobs resolve incrementally inside one batch.
    std::function<void(size_t index, bool ok)> onModuleDone;
    /// Per-module cancellation/deadline tokens, parallel to the
    /// modules/items vector (missing or null slots are never cancelled).
    /// Polled before every pass/step; an expired module fails with the
    /// token's reason attributed to the pass it would have run next.
    std::vector<const CancellationToken *> cancels;
    /// Per-module IR-arena byte cap, polled before every step; a module
    /// whose arena exceeds it fails with a per-job OOM diagnostic
    /// instead of growing until the process dies. 0 = unlimited.
    uint64_t maxArenaBytes = 0;
  };

  /// Runs every pass in order over `module` on the calling thread: a
  /// ModuleBatch of this one pre-parsed module. Stops at the first
  /// failure (a pass returning false, a new diagnostic error, or an
  /// instrumentation abort) and returns false.
  bool run(ModuleOp module, DiagnosticEngine &diag);

  /// One module of a batch (makeBatch). Either `module` is a live module
  /// op, or `prepare` produces one when the module is dispatched — so a
  /// threaded batch parses its modules in parallel too.
  struct BatchItem {
    ir::Op *module = nullptr; ///< pre-parsed module, or null with prepare
    DiagnosticEngine *diag = nullptr;
    /// Parses/builds the module; nullopt on frontend failure (which must
    /// be reported through `diag`).
    std::function<std::optional<ModuleOp>()> prepare;
  };

  /// Prepares `items` for dispatch through this pipeline, the one
  /// pass-execution engine. The caller dispatches each module once with
  /// ModuleBatch::runModule, from any thread: each call prepares its
  /// module, then runs every pass in order, and opts.onModuleDone
  /// resolves the module the moment its own last step lands. Distinct
  /// modules may run concurrently; sessions drain the modules of every
  /// pipeline group from one shared queue. Pass execution on a given
  /// input is deterministic, so outputs are bit-for-bit identical to
  /// serial compiles regardless of interleaving. A failing module (pass
  /// error, verifier breakage, expired token) stops advancing and keeps
  /// its partially transformed IR; the rest of the batch continues
  /// unaffected (job-level isolation).
  ///
  /// This PassManager must outlive the batch; ModuleBatch::results()
  /// holds per-module success once every module ran.
  std::unique_ptr<ModuleBatch> makeBatch(std::vector<BatchItem> items,
                                         BatchOptions opts);

  /// The canonical textual pipeline, e.g. "inline,canonicalize,
  /// unroll{max-trip=16}". Feeding it back through the registry's
  /// pipeline parser reconstructs this pipeline exactly (round-trip).
  std::string pipelineSpec() const;

  /// Renders non-zero statistics of all passes as a table.
  std::string statisticsStr() const;

private:
  friend class ModuleBatch;

  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<std::unique_ptr<Instrumentation>> instrumentations_;
  bool collectStats_ = false;
  PassTimingReport *timing_ = nullptr;
};

//===----------------------------------------------------------------------===//
// ModuleBatch
//===----------------------------------------------------------------------===//

/// The modules of one pipeline group, handed out by
/// PassManager::makeBatch. Each module is dispatched once, with
/// runModule, and compiles start to finish on the dispatching thread.
class ModuleBatch {
public:
  ~ModuleBatch();

  /// Compiles module `i`: prepare, then every pass in order, all on the
  /// calling thread. Call once per module; distinct modules may run
  /// concurrently on different threads. This is the
  /// last line of containment: an exception escaping the module's
  /// machinery (or the "scheduler.task" failpoint, which fires before
  /// the module starts) is counted in "scheduler.task_exceptions" and
  /// leaves the module unfinished, never unwinding into the caller.
  /// Every call counts one "scheduler.tasks".
  void runModule(size_t i);

  /// Per-module success, in item order; stable once every module ran.
  /// A module whose dispatch was cut short by a contained exception
  /// never finished and reads as failed.
  const std::vector<char> &results() const { return ok_; }
  /// Whether module `i` reached the end of its pipeline (succeeded or
  /// failed) rather than being cut short.
  bool finished(size_t i) const;

  /// Appends the (module, pass) timing records collected while the
  /// modules ran to the report PassManager::enableTiming installed, in
  /// module order then pipeline order. Call once, after every module
  /// ran; no-op without an installed report.
  void foldTiming() const;

private:
  friend class PassManager;

  /// One module's state; only the thread running the module touches it.
  struct Mod;

  ModuleBatch(PassManager &pm, PassManager::BatchOptions opts);

  /// The module's pipeline loop (runModule minus containment).
  void compile(size_t i);
  /// Opens the module's step for `pass`: runs every beforePass hook.
  void enterStep(size_t i, Pass &pass);
  /// Closes the open step: every afterPass hook, in reverse installation
  /// order. False when a hook aborted or reported an error.
  bool exitStep(size_t i);
  /// Runs `pass` over module i; false when the module failed (fail(i)
  /// has run).
  bool runPass(size_t i, Pass &pass);
  /// Polls the module's cancellation token and arena cap; on violation
  /// records the diagnostic, fails the module, and returns true (stop
  /// the module). Called only between steps.
  bool checkJobLimits(size_t i, Pass &pass);
  void finish(size_t i, bool ok);
  /// Fails module i: closes an open step (afterPass hooks still observe a
  /// failed pass) and finishes it.
  void fail(size_t i);
  void addTiming(size_t i, const std::string &spec, double seconds,
                 uint64_t arenaDelta);

  PassManager &pm_;
  PassManager::BatchOptions opts_;
  std::vector<std::unique_ptr<Mod>> mods_;
  std::vector<char> ok_; ///< element i written only by module i's thread
};

/// Renders one "  <secs> s (<pct>%)  ir <+arenaMB>  <label>" timing row
/// (per-module IR-arena growth); shared by PassTimingReport::str and the
/// benchmark aggregators so the two table formats cannot drift.
std::string formatTimingRow(double seconds, double total,
                            uint64_t arenaDeltaBytes,
                            const std::string &label);

} // namespace paralift::transforms
