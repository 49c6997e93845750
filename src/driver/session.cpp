#include "driver/session.h"

#include "ir/verifier.h"
#include "runtime/thread_pool.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "transforms/registry.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>

namespace paralift::driver {

namespace {
/// Session-level figures in the process-wide registry, resolved once.
struct SessionMetrics {
  metrics::Counter &jobsCompleted;
  metrics::Counter &jobsFailed;
  metrics::Histogram &jobLatency;
};

SessionMetrics &sessionMetrics() {
  auto &reg = metrics::MetricsRegistry::instance();
  static SessionMetrics *m = new SessionMetrics{
      reg.counter("session.jobs_completed"),
      reg.counter("session.jobs_failed"),
      reg.histogram("session.job_latency_s")};
  return *m;
}
} // namespace

//===----------------------------------------------------------------------===//
// CompileJob
//===----------------------------------------------------------------------===//

bool CompileJob::ready() const {
  std::lock_guard<std::mutex> lock(session_->mutex_);
  return state_ == State::Done;
}

CompileResult &CompileJob::result() {
  assert(ready() && "job read before a compileAll covered it");
  return result_;
}

CompileResult CompileJob::take() {
  assert(ready() && "job read before a compileAll covered it");
  return std::move(result_);
}

const DiagnosticEngine &CompileJob::diagnostics() {
  assert(ready() && "job read before a compileAll covered it");
  return diag_;
}

bool CompileJob::ok() {
  assert(ready() && "job read before a compileAll covered it");
  return result_.ok;
}

double CompileJob::latencySeconds() {
  assert(ready() && "job read before a compileAll covered it");
  std::lock_guard<std::mutex> lock(session_->mutex_);
  return latencySeconds_;
}

//===----------------------------------------------------------------------===//
// CompilerSession
//===----------------------------------------------------------------------===//

CompilerSession::CompilerSession(SessionOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.threads > 1)
    pool_ = std::make_unique<runtime::ThreadPool>(opts_.threads);
}

CompilerSession::~CompilerSession() = default;

CompileJob &CompilerSession::addSource(std::string name, std::string source,
                                       transforms::PipelineOptions pipeline) {
  std::lock_guard<std::mutex> lock(mutex_);
  jobs_.push_back(std::make_unique<CompileJob>());
  CompileJob &job = *jobs_.back();
  job.session_ = this;
  job.name_ = std::move(name);
  job.source_ = std::move(source);
  job.pipelineOpts_ = pipeline;
  job.diag_.setModuleName(job.name_);
  return job;
}

CompileJob &CompilerSession::addModule(std::string name,
                                       ir::OwnedModule module,
                                       transforms::PipelineOptions pipeline) {
  std::lock_guard<std::mutex> lock(mutex_);
  jobs_.push_back(std::make_unique<CompileJob>());
  CompileJob &job = *jobs_.back();
  job.session_ = this;
  job.name_ = std::move(name);
  job.preparsed_ = true;
  job.result_.module = std::move(module);
  job.pipelineOpts_ = pipeline;
  job.diag_.setModuleName(job.name_);
  return job;
}

std::vector<CompileJob *> CompilerSession::takeQueued() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CompileJob *> out;
  for (auto &job : jobs_)
    if (job->state_ == CompileJob::State::Queued) {
      job->state_ = CompileJob::State::Compiling;
      out.push_back(job.get());
    }
  return out;
}

void CompilerSession::markDone(CompileJob &job, bool ok) {
  double latency;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.result_.ok = ok;
    job.latencySeconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      batchStart_)
            .count();
    latency = job.latencySeconds_;
    job.state_ = CompileJob::State::Done;
  }
  // Closes the async span opened at batch start; matched by (name, id).
  if (trace::enabled())
    trace::asyncEnd("job:" + job.name_, reinterpret_cast<uintptr_t>(&job));
  SessionMetrics &m = sessionMetrics();
  (ok ? m.jobsCompleted : m.jobsFailed).add();
  m.jobLatency.observe(latency);
}

bool CompilerSession::runFrontendOne(CompileJob &job) {
  trace::TraceSpan span(trace::enabled() ? "parse:" + job.name_
                                         : std::string(),
                        "frontend");
  // Parser containment: a throwing frontend (or an injected
  // "parse.module" fault) fails this job with an attributed diagnostic;
  // the rest of the batch parses and compiles normally.
  try {
    failpoint::evaluate("parse.module");
    job.result_.module = frontend::compileToIR(job.source_, job.diag_);
  } catch (const std::exception &e) {
    job.diag_.error(SourceLoc(),
                    "module parse threw: " + std::string(e.what()));
    return false;
  } catch (...) {
    job.diag_.error(SourceLoc(),
                    "module parse threw a non-standard exception");
    return false;
  }
  if (job.diag_.hasErrors())
    return false;
  auto errors = ir::verify(job.result_.module.op());
  for (const std::string &e : errors)
    job.diag_.error(SourceLoc(), "frontend produced invalid IR: " + e);
  return errors.empty();
}

bool CompilerSession::finalVerify(const transforms::PassManager &pm,
                                  ir::ModuleOp module,
                                  DiagnosticEngine &diag, bool ok) const {
  // With verify-each on, every intermediate module (including the final
  // one) has already been verified — except by a zero-pass pipeline
  // (round-trip mode), where the instrumentation never fires.
  if (!ok || (opts_.verifyEach && !pm.passes().empty()))
    return ok;
  for (const std::string &e : ir::verify(module.op)) {
    diag.error(SourceLoc(), "final module is invalid: " + e);
    ok = false;
  }
  return ok;
}

bool CompilerSession::compileAll() {
  std::lock_guard<std::mutex> compileLock(compileMutex_);
  std::vector<CompileJob *> batch = takeQueued();
  if (!batch.empty()) {
    batchStart_ = std::chrono::steady_clock::now();
    // Per-job deadlines run from batch start: "deadline exceeded after
    // Ns" measures the same window latencySeconds() reports.
    if (opts_.jobTimeoutSeconds > 0)
      for (CompileJob *job : batch)
        job->cancel_.setDeadline(opts_.jobTimeoutSeconds);
    // One async span per job, from batch admission to markDone — in the
    // trace these are the per-job "queue + compile" lifetimes that start
    // together and resolve one by one as modules finish.
    if (trace::enabled())
      for (CompileJob *job : batch)
        trace::asyncBegin("job:" + job->name_,
                          reinterpret_cast<uintptr_t>(job));
    // Group jobs by pipeline; each group compiles against one
    // PassManager, whose module batch covers every job of the group. The
    // key is the built pipeline's canonical spec — not the
    // PipelineOptions fields — so a future option can never silently
    // misgroup jobs onto another job's pipeline; the PassManager built
    // for each group's first job is the one the group then runs.
    struct Group {
      std::string key;
      std::unique_ptr<transforms::PassManager> pm;
      std::vector<CompileJob *> jobs;
    };
    std::vector<Group> groups;
    if (opts_.pipelineSpec) {
      auto pm = std::make_unique<transforms::PassManager>();
      DiagnosticEngine specDiag;
      if (!transforms::buildPipelineFromSpec(*pm, *opts_.pipelineSpec,
                                             specDiag)) {
        for (CompileJob *job : batch) {
          job->diag_.mergeFrom(specDiag);
          markDone(*job, false);
        }
      } else {
        groups.push_back({*opts_.pipelineSpec, std::move(pm), batch});
      }
    } else {
      for (CompileJob *job : batch) {
        auto pm = std::make_unique<transforms::PassManager>();
        transforms::buildPipeline(*pm, job->pipelineOpts_);
        std::string key = pm->pipelineSpec();
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const Group &g) { return g.key == key; });
        if (it == groups.end()) {
          groups.push_back({std::move(key), std::move(pm), {}});
          it = groups.end() - 1;
        }
        it->jobs.push_back(job);
      }
    }
    // Every group's modules go onto one queue, in group then job order;
    // each team member claims the next module and compiles it start to
    // finish, so each job is marked done the moment its own pipeline
    // completes.
    std::vector<std::unique_ptr<transforms::ModuleBatch>> batches;
    std::vector<std::pair<size_t, size_t>> queue; // (group, job in group)
    for (Group &group : groups) {
      // Instrumentation nesting: custom hooks outermost, then
      // verify-each.
      transforms::PassManager &pm = *group.pm;
      if (opts_.collectStatistics)
        pm.enableStatistics();
      if (opts_.configurePassManager)
        opts_.configurePassManager(pm);
      if (opts_.verifyEach)
        pm.enableVerifyEach();
      if (opts_.collectTiming)
        pm.enableTiming(&timing_);

      std::vector<transforms::PassManager::BatchItem> items;
      for (CompileJob *job : group.jobs) {
        transforms::PassManager::BatchItem item;
        item.diag = &job->diag_;
        if (job->preparsed_)
          item.module = job->result_.module.op();
        else
          item.prepare = [this, job]() -> std::optional<ir::ModuleOp> {
            if (!runFrontendOne(*job))
              return std::nullopt;
            return job->result_.module.get();
          };
        items.push_back(std::move(item));
      }
      transforms::PassManager::BatchOptions bo;
      bo.maxArenaBytes = opts_.maxArenaBytesPerModule;
      for (CompileJob *job : group.jobs)
        bo.cancels.push_back(&job->cancel_);
      transforms::PassManager *pmPtr = &pm;
      std::vector<CompileJob *> groupJobs = group.jobs;
      bo.onModuleDone = [this, pmPtr, groupJobs](size_t idx, bool ok) {
        CompileJob *job = groupJobs[idx];
        {
          trace::TraceSpan span(trace::enabled() ? "finalize:" + job->name_
                                                 : std::string(),
                                "session");
          ok = finalVerify(*pmPtr, job->result_.module.get(), job->diag_,
                           ok);
        }
        markDone(*job, ok);
      };
      for (size_t j = 0; j < group.jobs.size(); ++j)
        queue.emplace_back(batches.size(), j);
      batches.push_back(pm.makeBatch(std::move(items), std::move(bo)));
    }
    std::atomic<size_t> next{0};
    auto drain = [&](unsigned worker) {
      if (trace::enabled()) {
        char name[32];
        std::snprintf(name, sizeof(name), "worker-%u", worker);
        trace::setThreadName(name);
      }
      for (size_t k; (k = next.fetch_add(1, std::memory_order_relaxed)) <
                     queue.size();)
        batches[queue[k].first]->runModule(queue[k].second);
    };
    // Per-module instrumentation observes one module at a time (see
    // "Batch scheduling" in the header), and a batch started inside a
    // parallel region must not fork a nested team: both drain on the
    // calling thread, in job order.
    if (pool_ && !opts_.configurePassManager &&
        !runtime::ThreadPool::insideParallel())
      pool_->parallel([&](unsigned tid, runtime::Team &) { drain(tid); });
    else
      drain(0);
    // Containment sweep: a module cut short by a contained exception
    // (ModuleBatch::runModule, e.g. an injected "scheduler.task" fault)
    // leaves its job un-resolved even though the queue drained. Every
    // job must resolve, so any job still not Done here failed —
    // attribute and mark it.
    for (CompileJob *job : batch) {
      bool done;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        done = job->state_ == CompileJob::State::Done;
      }
      if (!done) {
        job->diag_.error(SourceLoc(),
                         "compile task aborted before completion "
                         "(exception contained at module dispatch)");
        markDone(*job, false);
      }
    }
    for (auto &batch : batches)
      batch->foldTiming();
    // Retained only for statisticsStr(); a long-lived session that never
    // reads statistics must not accumulate one PassManager per batch.
    if (opts_.collectStatistics)
      for (Group &group : groups)
        pms_.push_back(std::move(group.pm));
  }
  return ok();
}

size_t CompilerSession::jobCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

CompileJob &CompilerSession::job(size_t i) {
  std::lock_guard<std::mutex> lock(mutex_);
  return *jobs_.at(i);
}

bool CompilerSession::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto &job : jobs_)
    if (job->state_ != CompileJob::State::Done || !job->result_.ok)
      return false;
  return true;
}

const transforms::PassTimingReport &CompilerSession::timingReport() const {
  std::lock_guard<std::mutex> lock(compileMutex_);
  return timing_;
}

std::string CompilerSession::statisticsStr() const {
  std::lock_guard<std::mutex> lock(compileMutex_);
  std::string out;
  for (const auto &pm : pms_)
    out += pm->statisticsStr();
  return out;
}

} // namespace paralift::driver
