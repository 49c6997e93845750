#include "transforms/pass_manager.h"

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
  // same snapshot as scheduler/session metrics. Creation happens
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
  size_t passIdx = 0;
  /// The current step's beforePass hooks ran and its afterPass hooks
  /// have not (see enterStep / exitStep).
  bool stepOpen = false;
  /// The module reached finish(), successfully or not.
  bool finished = false;
  /// One record per executed (module, pass) step, under enableTiming.
  std::vector<PassTimingReport::Record> timing;
};

ModuleBatch::ModuleBatch(PassManager &pm, PassManager::BatchOptions opts)
    : pm_(pm), opts_(std::move(opts)) {}

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
  m.finished = true;
  ok_[i] = ok ? 1 : 0;
  if (opts_.onModuleDone)
    opts_.onModuleDone(i, ok);
}

void ModuleBatch::fail(size_t i) {
  if (mods_[i]->stepOpen)
    exitStep(i);
  finish(i, false);
}

void ModuleBatch::enterStep(size_t i, Pass &pass) {
  Mod &m = *mods_[i];
  m.stepOpen = true;
  for (auto &ins : pm_.instrumentations_)
    ins->beforePass(pass, ModuleOp(m.module));
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
  if (m.prepare) {
    trace::TraceSpan span(spanName("start:", m.diag->moduleName()), "pm");
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
      // outer catch covers the step machinery itself — the hooks.
      try {
        enterStep(i, pass);
        ok = runPass(i, pass);
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
      if (!ok && span.active())
        span.annotate("step", "failed");
    }
    if (!ok)
      return;
    if (!exitStep(i)) {
      fail(i);
      return;
    }
  }
  finish(i, true);
}

bool ModuleBatch::runPass(size_t i, Pass &pass) {
  Mod &m = *mods_[i];
  ModuleOp module(m.module);
  DiagnosticEngine &diag = *m.diag;
  // A function pass runs once per function, each call timed and
  // contained on its own; a module pass runs once.
  std::vector<ir::Op *> funcs;
  if (pass.isFunctionPass()) {
    funcs = collectFuncs(module);
    if (funcs.empty())
      return true; // nothing ran, so the step records no timing
  }
  size_t errorsBefore = diag.numErrors();
  uint64_t arenaStart = module.op->arena().bytesAllocated();
  double stepSecs = 0;
  bool ok = true;
  auto timed = [&](auto &&body) {
    auto t0 = std::chrono::steady_clock::now();
    ok = runPassContained(pass.name(), diag, body) && ok;
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    passSecondsHistogram().observe(secs);
    stepSecs += secs;
  };
  if (pass.isFunctionPass()) {
    auto &fp = static_cast<FunctionPass &>(pass);
    for (ir::Op *func : funcs)
      timed([&] { return fp.runOnFunction(func, diag); });
  } else {
    timed([&] { return pass.run(module, diag); });
  }
  if (pm_.timing_)
    addTiming(i, pass.spec(), stepSecs,
              module.op->arena().bytesAllocated() - arenaStart);
  if (!ok || diag.numErrors() > errorsBefore) {
    fail(i);
    return false;
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
