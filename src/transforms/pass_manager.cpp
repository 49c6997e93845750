#include "transforms/pass_manager.h"

#include "ir/hasher.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/failpoint.h"
#include "support/trace.h"

#include <chrono>
#include <sstream>
#include <stdexcept>

namespace paralift::transforms {

//===----------------------------------------------------------------------===//
// Pass options
//===----------------------------------------------------------------------===//

void Pass::declareBoolOption(const std::string &key, bool *storage,
                             bool dflt) {
  *storage = dflt;
  Option o;
  o.key = key;
  o.kind = Option::Kind::Bool;
  o.boolStorage = storage;
  o.dflt = dflt ? 1 : 0;
  options_.push_back(std::move(o));
}

void Pass::declareIntOption(const std::string &key, int64_t *storage,
                            int64_t dflt, int64_t min, int64_t max) {
  *storage = dflt;
  Option o;
  o.key = key;
  o.kind = Option::Kind::Int;
  o.intStorage = storage;
  o.dflt = dflt;
  o.min = min;
  o.max = max;
  options_.push_back(std::move(o));
}

bool Pass::setOption(const std::string &key, const std::string &value,
                     std::string *err) {
  for (Option &o : options_) {
    if (o.key != key)
      continue;
    if (o.kind == Option::Kind::Bool) {
      if (value == "true" || value == "1") {
        *o.boolStorage = true;
      } else if (value == "false" || value == "0") {
        *o.boolStorage = false;
      } else {
        if (err)
          *err = "invalid value '" + value + "' for boolean option '" + key +
                 "' of pass '" + name_ + "'";
        return false;
      }
      return true;
    }
    try {
      size_t consumed = 0;
      int64_t v = std::stoll(value, &consumed);
      if (consumed != value.size())
        throw std::invalid_argument(value);
      if (v < o.min || v > o.max) {
        if (err)
          *err = "value " + value + " out of range [" +
                 std::to_string(o.min) + ", " + std::to_string(o.max) +
                 "] for option '" + key + "' of pass '" + name_ + "'";
        return false;
      }
      *o.intStorage = v;
    } catch (const std::exception &) {
      if (err)
        *err = "invalid value '" + value + "' for integer option '" + key +
               "' of pass '" + name_ + "'";
      return false;
    }
    return true;
  }
  if (err) {
    std::string known;
    for (const Option &o : options_)
      known += (known.empty() ? "" : ", ") + o.key;
    *err = "unknown option '" + key + "' for pass '" + name_ + "'" +
           (known.empty() ? " (pass takes no options)"
                          : " (known options: " + known + ")");
  }
  return false;
}

std::string Pass::spec() const {
  std::string opts;
  for (const Option &o : options_) {
    std::string value;
    switch (o.kind) {
    case Option::Kind::Bool:
      if ((*o.boolStorage ? 1 : 0) == o.dflt)
        continue;
      value = *o.boolStorage ? "true" : "false";
      break;
    case Option::Kind::Int:
      if (*o.intStorage == o.dflt)
        continue;
      value = std::to_string(*o.intStorage);
      break;
    }
    if (!opts.empty())
      opts += ",";
    opts += o.key + "=" + value;
  }
  return opts.empty() ? name_ : name_ + "{" + opts + "}";
}

Pass::Statistic &Pass::statistic(const std::string &name) {
  for (auto &s : stats_)
    if (s->name == name)
      return *s;
  stats_.push_back(std::make_unique<Statistic>(name));
  // Mirror into the process-wide registry so pass counters appear in the
  // same snapshot as cache/scheduler/session metrics. Creation happens
  // in pass constructors (single-threaded); bumps stay lock-free.
  stats_.back()->mirror = &metrics::MetricsRegistry::instance().counter(
      "pass." + this->name() + "." + name);
  return *stats_.back();
}

//===----------------------------------------------------------------------===//
// FunctionPass
//===----------------------------------------------------------------------===//

bool FunctionPass::run(ModuleOp module, DiagnosticEngine &diag) {
  bool ok = true;
  for (ir::Op *op : module.body())
    if (op->kind() == ir::OpKind::Func)
      ok = runOnFunction(op, diag) && ok;
  return ok;
}

//===----------------------------------------------------------------------===//
// RepeatPass
//===----------------------------------------------------------------------===//

RepeatPass::RepeatPass()
    : FunctionPass("repeat", "run the child passes n times in sequence") {
  declareIntOption("n", &n_, 2, /*min=*/1, /*max=*/1024);
}

void RepeatPass::addChild(std::unique_ptr<Pass> child) {
  assert(child->isFunctionPass() &&
         "repeat children must be function passes");
  children_.push_back(std::move(child));
}

std::string RepeatPass::spec() const {
  std::string out = Pass::spec() + "(";
  for (size_t i = 0; i < children_.size(); ++i)
    out += (i ? "," : "") + children_[i]->spec();
  return out + ")";
}

bool RepeatPass::runOnFunction(ir::Op *func, DiagnosticEngine &diag) {
  size_t errorsAtStart = diag.numErrors();
  for (int64_t i = 0; i < n_; ++i)
    for (auto &c : children_)
      if (!static_cast<FunctionPass &>(*c).runOnFunction(func, diag) ||
          diag.numErrors() > errorsAtStart)
        return false;
  return true;
}

size_t countNestedOps(ir::Op *root) {
  size_t n = 0;
  root->walk([&](ir::Op *) { ++n; });
  return n;
}

size_t countNestedOps(ir::Op *root, ir::OpKind kind) {
  size_t n = 0;
  root->walk([&](ir::Op *op) {
    if (op->kind() == kind)
      ++n;
  });
  return n;
}

//===----------------------------------------------------------------------===//
// Instrumentation
//===----------------------------------------------------------------------===//

double PassTimingReport::totalSeconds() const {
  double t = 0;
  for (const Record &r : records)
    t += r.seconds;
  return t;
}

uint64_t PassTimingReport::totalArenaDeltaBytes() const {
  uint64_t t = 0;
  for (const Record &r : records)
    t += r.arenaDeltaBytes;
  return t;
}

std::string formatTimingRow(double seconds, double total,
                            uint64_t arenaDeltaBytes,
                            const std::string &label) {
  char buf[224];
  double pct = total > 0 ? 100.0 * seconds / total : 0.0;
  std::snprintf(buf, sizeof(buf), "  %10.6f s (%5.1f%%)  ir %+9.2f MB  %s\n",
                seconds, pct, arenaDeltaBytes / (1024.0 * 1024.0),
                label.c_str());
  return buf;
}

std::string PassTimingReport::str() const {
  double total = totalSeconds();
  std::ostringstream os;
  os << "===-------------------------------------------------------------===\n";
  os << "                      Pass execution timing\n";
  os << "===-------------------------------------------------------------===\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  Total: %.6f s, IR-arena +%.2f MB\n",
                total, totalArenaDeltaBytes() / (1024.0 * 1024.0));
  os << buf;
  for (const Record &r : records)
    os << formatTimingRow(
        r.seconds, total, r.arenaDeltaBytes,
        r.module.empty() ? r.spec : r.spec + "  [" + r.module + "]");
  return os.str();
}

namespace {

/// Per-pass wall-time distribution across every pass execution in the
/// process, shared with the metrics snapshot.
metrics::Histogram &passSecondsHistogram() {
  static metrics::Histogram *h =
      &metrics::MetricsRegistry::instance().histogram("pm.pass_seconds");
  return *h;
}

/// Builds a trace-span name only when tracing is on, so the disabled
/// path never allocates for the concatenation.
std::string spanName(const char *prefix, const std::string &rest) {
  if (!trace::enabled())
    return {};
  std::string s(prefix);
  s += rest;
  return s;
}

} // namespace

bool VerifyInstrumentation::afterPass(const Pass &pass, ModuleOp module,
                                      DiagnosticEngine &diag) {
  std::vector<std::string> errors = ir::verify(module.op);
  for (const std::string &e : errors)
    diag.error(SourceLoc(),
               "pass '" + pass.name() + "' broke invariant: " + e);
  return errors.empty();
}

void IRPrintInstrumentation::beforePass(const Pass &pass, ModuleOp module) {
  if (!before_ || !matches(pass))
    return;
  std::fprintf(out_, "// ===== IR before pass '%s' =====\n%s\n",
               pass.spec().c_str(), ir::printOp(module.op).c_str());
}

bool IRPrintInstrumentation::afterPass(const Pass &pass, ModuleOp module,
                                       DiagnosticEngine &) {
  if (after_ && matches(pass))
    std::fprintf(out_, "// ===== IR after pass '%s' =====\n%s\n",
                 pass.spec().c_str(), ir::printOp(module.op).c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// CancellationToken
//===----------------------------------------------------------------------===//

namespace {
int64_t steadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
} // namespace

void CancellationToken::setDeadline(double seconds) {
  if (seconds <= 0) {
    deadlineNanos_.store(0, std::memory_order_relaxed);
    return;
  }
  timeoutSeconds_ = seconds;
  deadlineNanos_.store(steadyNowNanos() +
                           static_cast<int64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
}

bool CancellationToken::expired() const {
  if (cancelled_.load(std::memory_order_relaxed))
    return true;
  int64_t deadline = deadlineNanos_.load(std::memory_order_relaxed);
  return deadline != 0 && steadyNowNanos() >= deadline;
}

std::string CancellationToken::expiredReason() const {
  if (cancelled_.load(std::memory_order_relaxed))
    return "cancelled";
  int64_t deadline = deadlineNanos_.load(std::memory_order_relaxed);
  if (deadline != 0 && steadyNowNanos() >= deadline) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "deadline exceeded after %gs",
                  timeoutSeconds_);
    return buf;
  }
  return {};
}

//===----------------------------------------------------------------------===//
// Pass-execution containment
//===----------------------------------------------------------------------===//

namespace {

/// Every pass-execution boundary goes through here: evaluates the
/// "pass.run" failpoint, runs `body`, and converts any escaping
/// exception into a structured diagnostic attributed to the pass — a
/// throwing pass fails its module, never the batch or the process.
template <typename Fn>
bool runPassContained(const std::string &passName, DiagnosticEngine &diag,
                      Fn &&body) {
  try {
    failpoint::evaluate("pass.run");
    return body();
  } catch (const std::exception &e) {
    diag.error(SourceLoc(),
               "pass '" + passName + "' threw: " + e.what());
  } catch (...) {
    diag.error(SourceLoc(), "pass '" + passName +
                                "' threw a non-standard exception");
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

PassManager::~PassManager() = default;

void PassManager::addPass(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

void PassManager::addInstrumentation(std::unique_ptr<Instrumentation> ins) {
  instrumentations_.push_back(std::move(ins));
}

void PassManager::enableVerifyEach() {
  addInstrumentation(std::make_unique<VerifyInstrumentation>());
}

void PassManager::enableIRPrinting(bool before, bool after,
                                   std::string filter, std::FILE *out) {
  addInstrumentation(std::make_unique<IRPrintInstrumentation>(
      before, after, std::move(filter), out));
}

namespace {

std::vector<ir::Op *> collectFuncs(ModuleOp module) {
  std::vector<ir::Op *> funcs;
  for (ir::Op *op : module.body())
    if (op->kind() == ir::OpKind::Func)
      funcs.push_back(op);
  return funcs;
}

} // namespace

const Hash128 &PassManager::hashOf(ir::Op *func, CacheState &st) {
  auto it = st.irHash.find(func);
  if (it == st.irHash.end())
    it = st.irHash.emplace(func, ir::hashOp(func)).first;
  return it->second;
}

ir::Op *PassManager::spliceFunction(ModuleOp module, ir::Op *oldFunc,
                                    const std::string &text) {
  // Cached entries hold a standalone printed func; wrap it into module
  // syntax for the parser. Parse directly into the destination module's
  // arena — ops must never migrate between arenas.
  DiagnosticEngine localDiag;
  ir::Op *top = ir::parseModuleInto(module.op->arena(),
                                    "module {\n" + text + "\n}\n", localDiag);
  if (!top || localDiag.hasErrors()) {
    if (top)
      ir::Op::destroy(top);
    return nullptr;
  }
  ir::Op *newFunc = nullptr;
  for (ir::Op *op : top->region(0).front())
    if (op->kind() == ir::OpKind::Func) {
      newFunc = op;
      break;
    }
  if (!newFunc) {
    ir::Op::destroy(top);
    return nullptr;
  }
  newFunc->removeFromParent();
  ir::Op::destroy(top); // detach the scaffolding; memory stays in the arena
  module.body().insertBefore(oldFunc, newFunc);
  oldFunc->erase();
  return newFunc;
}

bool PassManager::applyHit(ModuleOp module, ir::Op *func,
                           PassResultCache::Entry &&hit, bool lazy,
                           CacheState &st) {
  // An identity entry: the pass left this IR unchanged, so the hash
  // chain already holds its output hash and any pending text is current.
  if (hit.identity())
    return true;
  if (lazy) {
    // Accept the hit without splicing: the hash chain advances and the
    // latest cached text supersedes any earlier pending text.
    st.irHash[func] = hit.outputHash;
    st.pending[func] = std::move(hit.ir);
    return true;
  }
  ir::Op *replacement = spliceFunction(module, func, hit.ir);
  if (!replacement)
    return false;
  st.irHash.erase(func);
  // A leftover lazy entry from an earlier pass would otherwise
  // materialize outdated IR over the spliced result at the next
  // materialize of `func`.
  st.pending.erase(func);
  st.irHash[replacement] = hit.outputHash;
  return true;
}

ir::Op *PassManager::materialize(ModuleOp module, ir::Op *func,
                                 CacheState &st) {
  auto pendingIt = st.pending.find(func);
  if (pendingIt == st.pending.end())
    return func;
  std::string text = std::move(pendingIt->second);
  st.pending.erase(pendingIt);
  ir::Op *replacement = spliceFunction(module, func, text);
  if (!replacement)
    return nullptr;
  // The old op is gone; the hash chain continues under the
  // replacement's identity.
  auto hashIt = st.irHash.find(func);
  if (hashIt != st.irHash.end()) {
    Hash128 h = hashIt->second;
    st.irHash.erase(hashIt);
    st.irHash[replacement] = h;
  }
  return replacement;
}

bool PassManager::materializeAll(ModuleOp module, CacheState &st) {
  while (!st.pending.empty())
    if (!materialize(module, st.pending.begin()->first, st))
      return false;
  return true;
}

bool PassManager::spliceModule(ModuleOp module,
                               const PassResultCache::Entry &entry,
                               CacheState &st) {
  if (entry.identity())
    return true; // the pass left every function as it was
  DiagnosticEngine localDiag;
  ir::Op *top =
      ir::parseModuleInto(module.op->arena(), entry.ir, localDiag);
  if (!top || localDiag.hasErrors()) {
    if (top)
      ir::Op::destroy(top);
    return false;
  }
  for (ir::Op *op : collectFuncs(module))
    op->erase();
  st.irHash.clear();
  st.pending.clear();
  std::vector<ir::Op *> newOps;
  for (ir::Op *op : top->region(0).front())
    newOps.push_back(op);
  size_t funcIdx = 0;
  for (ir::Op *op : newOps) {
    op->removeFromParent();
    module.body().push_back(op);
    if (op->kind() != ir::OpKind::Func)
      continue;
    // The entry records the per-function result hashes; fall back to
    // rehashing only when the metadata is absent (older cache files).
    if (funcIdx < entry.funcHashes.size())
      st.irHash[op] = entry.funcHashes[funcIdx];
    else
      st.irHash[op] = ir::hashOp(op);
    ++funcIdx;
  }
  ir::Op::destroy(top); // detach the scaffolding module op
  return true;
}

bool PassManager::run(ModuleOp module, DiagnosticEngine &diag) {
  std::vector<BatchItem> items(1);
  items[0].module = module.op;
  items[0].diag = &diag;
  std::unique_ptr<ModuleBatch> batch =
      makeBatch(std::move(items), BatchOptions());
  batch->runModule(0);
  batch->foldTiming();
  if (!batch->finished(0))
    diag.error(SourceLoc(), "pass pipeline aborted before completion "
                            "(exception contained at module dispatch)");
  return batch->results()[0] != 0;
}

//===----------------------------------------------------------------------===//
// Module batches
//===----------------------------------------------------------------------===//

namespace {
const char *const kRoundTripError =
    "pass-cache: cached IR failed to re-parse (print/parse round-trip bug)";

/// Module-dispatch counters in the process-wide registry, resolved once.
struct DispatchCounters {
  metrics::Counter &tasks;
  metrics::Counter &taskExceptions;
};

DispatchCounters &dispatchCounters() {
  auto &reg = metrics::MetricsRegistry::instance();
  static DispatchCounters *c =
      new DispatchCounters{reg.counter("scheduler.tasks"),
                           reg.counter("scheduler.task_exceptions")};
  return *c;
}
} // namespace

struct ModuleBatch::Mod {
  ir::Op *module = nullptr;
  DiagnosticEngine *diag = nullptr;
  std::function<std::optional<ModuleOp>()> prepare;
  PassManager::CacheState st;
  size_t passIdx = 0;
  /// The current step's beforePass hooks ran and its afterPass hooks
  /// have not (see enterStep / exitStep).
  bool stepOpen = false;
  /// The current step ran the pass on some IR rather than replaying it
  /// all from the cache (the step's trace annotation).
  bool stepExecuted = false;
  /// The module reached finish(), successfully or not.
  bool finished = false;
  /// One record per executed (module, pass) step, under enableTiming.
  std::vector<PassTimingReport::Record> timing;
};

ModuleBatch::ModuleBatch(PassManager &pm, PassManager::BatchOptions opts)
    : pm_(pm), opts_(std::move(opts)) {
  for (const auto &pass : pm_.passes_) {
    bool lazy = true;
    for (const auto &ins : pm_.instrumentations_)
      lazy = lazy && !ins->inspectsIR(*pass);
    lazy_.push_back(lazy ? 1 : 0);
  }
}

ModuleBatch::~ModuleBatch() = default;

bool ModuleBatch::finished(size_t i) const { return mods_[i]->finished; }

void ModuleBatch::addTiming(size_t i, const std::string &spec,
                            double seconds, uint64_t arenaDelta) {
  Mod &m = *mods_[i];
  m.timing.push_back({spec, seconds, arenaDelta, m.diag->moduleName()});
}

void ModuleBatch::foldTiming() const {
  if (!pm_.timing_)
    return;
  // Append (never merge into existing rows): a pipeline running the same
  // spec at two positions keeps two rows, one per execution.
  for (const auto &m : mods_)
    pm_.timing_->records.insert(pm_.timing_->records.end(),
                                m->timing.begin(), m->timing.end());
}

void ModuleBatch::finish(size_t i, bool ok) {
  Mod &m = *mods_[i];
  if (ok && m.module) {
    if (!pm_.materializeAll(ModuleOp(m.module), m.st)) {
      m.diag->error(SourceLoc(), kRoundTripError);
      ok = false;
    }
  }
  m.finished = true;
  ok_[i] = ok ? 1 : 0;
  if (opts_.onModuleDone)
    opts_.onModuleDone(i, ok);
}

void ModuleBatch::fail(size_t i) {
  Mod &m = *mods_[i];
  // Leave the failed module's (partially transformed) IR materialized;
  // a round-trip failure here is secondary to the abort being reported.
  if (m.module)
    pm_.materializeAll(ModuleOp(m.module), m.st);
  if (m.stepOpen)
    exitStep(i);
  finish(i, false);
}

bool ModuleBatch::enterStep(size_t i, Pass &pass) {
  Mod &m = *mods_[i];
  ModuleOp module(m.module);
  // Before a pass some instrumentation inspects, every pending replay is
  // spliced so the hooks (and the pass) observe real IR.
  if (!lazy_[m.passIdx] && !pm_.materializeAll(module, m.st)) {
    m.diag->error(SourceLoc(), kRoundTripError);
    fail(i);
    return false;
  }
  m.stepOpen = true;
  for (auto &ins : pm_.instrumentations_)
    ins->beforePass(pass, module);
  return true;
}

bool ModuleBatch::exitStep(size_t i) {
  Mod &m = *mods_[i];
  m.stepOpen = false;
  Pass &pass = *pm_.passes_[m.passIdx];
  ModuleOp module(m.module);
  size_t errorsBefore = m.diag->numErrors();
  bool ok = true;
  // Reverse order so instrumentations nest (first installed = outermost).
  for (auto it = pm_.instrumentations_.rbegin();
       it != pm_.instrumentations_.rend(); ++it)
    ok = (*it)->afterPass(pass, module, *m.diag) && ok;
  return ok && m.diag->numErrors() == errorsBefore;
}

bool ModuleBatch::checkJobLimits(size_t i, Pass &pass) {
  Mod &m = *mods_[i];
  if (i < opts_.cancels.size() && opts_.cancels[i]) {
    std::string reason = opts_.cancels[i]->expiredReason();
    if (!reason.empty()) {
      m.diag->error(SourceLoc(),
                    reason + " in pass '" + pass.name() + "'");
      fail(i);
      return true;
    }
  }
  if (opts_.maxArenaBytes && m.module) {
    uint64_t bytes = m.module->arena().bytesAllocated();
    if (bytes > opts_.maxArenaBytes) {
      m.diag->error(SourceLoc(),
                    "IR arena limit exceeded (" + std::to_string(bytes) +
                        " > " + std::to_string(opts_.maxArenaBytes) +
                        " bytes) in pass '" + pass.name() + "'");
      fail(i);
      return true;
    }
  }
  return false;
}

void ModuleBatch::runModule(size_t i) {
  DispatchCounters &c = dispatchCounters();
  // Pass steps catch what they throw (compile); this covers the rest —
  // the failpoint, prepare's diagnostics, finish's hooks — so a throw
  // never reaches the dispatching thread's loop. The module stays
  // unfinished, and its owner resolves it as failed.
  try {
    failpoint::evaluate("scheduler.task");
    compile(i);
  } catch (...) {
    c.taskExceptions.add();
  }
  c.tasks.add();
}

void ModuleBatch::compile(size_t i) {
  Mod &m = *mods_[i];
  {
    trace::TraceSpan span(spanName("start:", m.diag->moduleName()), "pm");
    if (m.prepare) {
      // The prepare hook crosses into frontend code; contain anything it
      // throws as this module's parse failure (the session's own hook
      // catches too — this covers other callers of makeBatch).
      std::optional<ModuleOp> parsed;
      try {
        parsed = m.prepare();
      } catch (const std::exception &e) {
        m.diag->error(SourceLoc(),
                      std::string("module preparation threw: ") + e.what());
      } catch (...) {
        m.diag->error(SourceLoc(),
                      "module preparation threw a non-standard exception");
      }
      if (!parsed) {
        finish(i, false);
        return;
      }
      m.module = parsed->op;
    }
    // Initial keying: one structural-hash walk per function.
    if (pm_.cache_) {
      ModuleOp module(m.module);
      for (ir::Op *func : collectFuncs(module))
        m.st.irHash[func] = ir::hashOp(func);
    }
  }
  for (; m.passIdx < pm_.passes_.size(); ++m.passIdx) {
    Pass &pass = *pm_.passes_[m.passIdx];
    // Step boundary: cancellation/deadline and the arena cap are polled
    // here, where the module is quiescent.
    if (checkJobLimits(i, pass))
      return;
    bool ok = false;
    {
      trace::TraceSpan span(spanName("pass:", pass.name()), "pm");
      // Pass bodies are individually contained (runPassContained); this
      // outer catch covers the step machinery itself — hooks, cache
      // probes, materialization, hashing.
      try {
        ok = enterStep(i, pass) &&
             (pass.isFunctionPass()
                  ? runFunctionPass(i, static_cast<FunctionPass &>(pass))
                  : runModulePass(i, pass));
      } catch (const std::exception &e) {
        m.diag->error(SourceLoc(), "pass step '" + pass.name() +
                                       "' threw: " + e.what());
        fail(i);
        return;
      } catch (...) {
        m.diag->error(SourceLoc(),
                      "pass step '" + pass.name() +
                          "' threw a non-standard exception");
        fail(i);
        return;
      }
      if (span.active()) {
        if (ok)
          span.annotate("cache", m.stepExecuted ? "run" : "replay");
        else
          span.annotate("step", "failed");
      }
    }
    if (!ok)
      return;
    if (!exitStep(i)) {
      fail(i);
      return;
    }
    m.stepExecuted = false;
  }
  finish(i, true);
}

bool ModuleBatch::runModulePass(size_t i, Pass &pass) {
  Mod &m = *mods_[i];
  ModuleOp module(m.module);
  DiagnosticEngine &diag = *m.diag;
  PassResultCache *cache = pm_.cache_;
  Hash128 input;
  std::string spec;
  if (cache) {
    // Module granularity: key on the fold of the per-function hashes (the
    // module body holds only funcs). The "module:" spec prefix keeps the
    // key space disjoint from per-function entries.
    spec = "module:" + pass.spec();
    for (ir::Op *func : collectFuncs(module))
      input = combineHash(input, pm_.hashOf(func, m.st));
    if (auto hit = cache->lookup(input, spec)) {
      if (pm_.spliceModule(module, *hit, m.st)) {
        cache->notePassReplayed();
        return true;
      }
      // Unparseable entry: recompute (rare; the corrupt key is simply
      // overwritten by the store below).
    }
    if (!pm_.materializeAll(module, m.st)) {
      diag.error(SourceLoc(), kRoundTripError);
      fail(i);
      return false;
    }
    cache->notePassExecuted();
  }
  m.stepExecuted = true;
  size_t errorsBefore = diag.numErrors();
  uint64_t arenaStart = module.op->arena().bytesAllocated();
  auto t0 = std::chrono::steady_clock::now();
  bool okRun = runPassContained(pass.name(), diag,
                                [&] { return pass.run(module, diag); });
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  passSecondsHistogram().observe(secs);
  if (pm_.timing_)
    addTiming(i, pass.spec(), secs,
              module.op->arena().bytesAllocated() - arenaStart);
  if (!okRun || diag.numErrors() > errorsBefore) {
    fail(i);
    return false;
  }
  if (cache) {
    m.st.irHash.clear();
    PassResultCache::Entry entry;
    Hash128 output;
    for (ir::Op *func : collectFuncs(module)) {
      Hash128 h = ir::hashOp(func);
      m.st.irHash[func] = h;
      entry.funcHashes.push_back(h);
      output = combineHash(output, h);
    }
    // The chain key of a module entry is the same per-function fold the
    // next module pass derives its input from. An unchanged module is
    // stored as an identity entry: no text, nothing to splice on replay.
    entry.outputHash = output;
    if (output == input)
      entry.funcHashes.clear();
    else
      entry.ir = ir::printOp(module.op);
    cache->store(input, spec, std::move(entry));
  }
  return true;
}

bool ModuleBatch::runFunctionPass(size_t i, FunctionPass &pass) {
  Mod &m = *mods_[i];
  ModuleOp module(m.module);
  PassResultCache *cache = pm_.cache_;
  const std::string spec = pass.spec();
  const bool lazy = lazy_[m.passIdx] != 0;
  // One scan: hits advance in place; misses (and corrupt hits) collect
  // for one execution. Without a cache every function runs.
  std::vector<FuncRun> toRun;
  for (ir::Op *func : collectFuncs(module)) {
    Hash128 input;
    if (cache) {
      input = pm_.hashOf(func, m.st);
      if (auto hit = cache->lookup(input, spec))
        if (pm_.applyHit(module, func, std::move(*hit), lazy, m.st))
          continue;
      // The pass must run on this function's real IR.
      func = pm_.materialize(module, func, m.st);
      if (!func) {
        m.diag->error(SourceLoc(), kRoundTripError);
        fail(i);
        return false;
      }
    }
    toRun.push_back({func, input});
  }
  if (!toRun.empty())
    return executeMisses(i, pass, spec, toRun);
  if (cache)
    cache->notePassReplayed();
  return true;
}

bool ModuleBatch::executeMisses(size_t i, FunctionPass &pass,
                                const std::string &spec,
                                const std::vector<FuncRun> &toRun) {
  Mod &m = *mods_[i];
  PassResultCache *cache = pm_.cache_;
  m.stepExecuted = true;
  if (cache)
    cache->notePassExecuted();
  size_t errorsBefore = m.diag->numErrors();
  uint64_t arenaStart = m.module->arena().bytesAllocated();
  double stepSecs = 0;
  bool ok = true;
  for (const FuncRun &r : toRun) {
    auto t0 = std::chrono::steady_clock::now();
    ok = runPassContained(pass.name(), *m.diag,
                          [&] { return pass.runOnFunction(r.func, *m.diag); }) &&
         ok;
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    passSecondsHistogram().observe(secs);
    stepSecs += secs;
  }
  if (pm_.timing_)
    addTiming(i, spec, stepSecs,
              m.module->arena().bytesAllocated() - arenaStart);
  if (!ok || m.diag->numErrors() > errorsBefore) {
    fail(i); // a failed module stores nothing for the step
    return false;
  }
  if (!cache)
    return true;
  for (const FuncRun &r : toRun) {
    // A function the pass left unchanged is stored as an identity
    // entry, skipping the print here and the splice on every replay.
    Hash128 outputHash = ir::hashOp(r.func);
    cache->store(r.input, spec,
                 outputHash == r.input ? std::string() : ir::printOp(r.func),
                 outputHash);
    m.st.irHash[r.func] = outputHash;
  }
  return true;
}

std::unique_ptr<ModuleBatch>
PassManager::makeBatch(std::vector<BatchItem> items, BatchOptions opts) {
  for (auto &pass : passes_)
    pass->setStatisticsEnabled(collectStats_);

  std::unique_ptr<ModuleBatch> batch(new ModuleBatch(*this, std::move(opts)));
  batch->mods_.reserve(items.size());
  for (BatchItem &item : items) {
    auto mod = std::make_unique<ModuleBatch::Mod>();
    mod->module = item.module;
    mod->diag = item.diag;
    mod->prepare = std::move(item.prepare);
    batch->mods_.push_back(std::move(mod));
  }
  batch->ok_.assign(items.size(), 0);
  return batch;
}

std::string PassManager::pipelineSpec() const {
  std::string out;
  for (const auto &p : passes_) {
    if (!out.empty())
      out += ",";
    out += p->spec();
  }
  return out;
}

std::string PassManager::statisticsStr() const {
  std::ostringstream os;
  os << "===-------------------------------------------------------------===\n";
  os << "                         Pass statistics\n";
  os << "===-------------------------------------------------------------===\n";
  char buf[160];
  // One level of recursion covers composite (repeat) passes.
  auto emit = [&](const Pass &p, auto &emitRef) -> void {
    for (const auto &s : p.statistics()) {
      uint64_t v = s->value.load(std::memory_order_relaxed);
      if (v == 0)
        continue;
      std::snprintf(buf, sizeof(buf), "  %8llu  %-16s %s\n",
                    static_cast<unsigned long long>(v), p.name().c_str(),
                    s->name.c_str());
      os << buf;
    }
    if (const auto *children = p.childPasses())
      for (const auto &c : *children)
        emitRef(*c, emitRef);
  };
  for (const auto &p : passes_)
    emit(*p, emit);
  return os.str();
}

} // namespace paralift::transforms
