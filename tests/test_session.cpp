// CompilerSession tests: N-module Rodinia batches under a threaded pool
// are result-identical to serial one-shot compiles
// (in every pipeline mode), job-level failure isolation (one bad module
// doesn't poison the session), double-compileAll idempotence,
// incremental job resolution, multi-function modules compiled whole on
// one worker, the "inline-kernels" frontend view
// matching compileForSimt, instrumented batches observing one module at
// a time, per-module diagnostic attribution, and identical modules of one
// batch compiling to identical IR.
#include "driver/compiler.h"
#include "frontend/irgen.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "rodinia/rodinia.h"
#include "support/failpoint.h"
#include "support/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace paralift;
using transforms::PipelineOptions;

namespace {

driver::SessionOptions batchOptions(unsigned threads) {
  driver::SessionOptions so;
  so.threads = threads;
  return so;
}

/// Serial one-shot reference compile (no pool sharing).
std::string serialReference(const std::string &source,
                            const PipelineOptions &opts) {
  DiagnosticEngine diag;
  auto cc = driver::compile(source, opts, diag);
  EXPECT_TRUE(cc.ok) << diag.str();
  return ir::printOp(cc.module.op());
}

/// A module whose cpuify hard-errors (barrier outside any parallel
/// nest), flanked by healthy functions in other jobs.
const char *kBadModule = R"(module {
  func {sym_name = "bad", res_types = []} {
    polygeist.barrier
    return
  }
})";

const char *kGoodModule = R"(module {
  func {sym_name = "fine", res_types = []} {
    [%0: memref<?xf32>]:
    %1 = const.int {value = 0} : index
    %2 = const.float {value = 2.0} : f32
    memref.store(%2, %0, %1)
    return
  }
})";

ir::OwnedModule parseOk(const std::string &text) {
  DiagnosticEngine diag;
  auto m = ir::parseModule(text, diag);
  EXPECT_TRUE(m.has_value()) << diag.str();
  return std::move(*m);
}

} // namespace

//===----------------------------------------------------------------------===//
// Batch == serial (the acceptance contract)
//===----------------------------------------------------------------------===//

TEST(SessionBatchTest, RodiniaBatchMatchesSerialAllModes) {
  // The golden contract: the batch at pm-threads=4 is bit-for-bit
  // identical to serial one-shot compiles, in every pipeline mode — so
  // the order in which workers take modules is unobservable in outputs.
  struct Mode {
    const char *name;
    PipelineOptions opts;
  };
  const Mode modes[] = {{"full", PipelineOptions{}},
                        {"optDisabled", PipelineOptions::optDisabled()},
                        {"mcuda", PipelineOptions::mcuda()}};
  for (const Mode &mode : modes) {
    std::vector<std::string> expected;
    for (const auto &b : rodinia::suite())
      expected.push_back(serialReference(b.cudaSource, mode.opts));

    // The whole suite as one batch on a threaded pool.
    driver::CompilerSession session(batchOptions(/*threads=*/4));
    std::vector<driver::CompileJob *> jobs;
    for (const auto &b : rodinia::suite())
      jobs.push_back(&session.addSource(b.id, b.cudaSource, mode.opts));
    EXPECT_TRUE(session.compileAll()) << mode.name;

    size_t i = 0;
    for (const auto &b : rodinia::suite()) {
      ASSERT_TRUE(jobs[i]->ok()) << mode.name << "/" << b.id << ": "
                                 << jobs[i]->diagnostics().str();
      EXPECT_EQ(ir::printOp(jobs[i]->result().module.op()), expected[i])
          << mode.name << "/" << b.id;
      ++i;
    }
  }
}

TEST(SessionBatchTest, MixedPipelineGroupsInOneSession) {
  // Jobs with different PipelineOptions batch into separate groups but
  // live in one session; each matches its serial reference.
  const auto &b = rodinia::suite().front();
  std::string fullRef = serialReference(b.cudaSource, PipelineOptions{});
  std::string mcudaRef =
      serialReference(b.cudaSource, PipelineOptions::mcuda());

  driver::CompilerSession session(batchOptions(2));
  auto &full = session.addSource("full", b.cudaSource, PipelineOptions{});
  auto &mcuda =
      session.addSource("mcuda", b.cudaSource, PipelineOptions::mcuda());
  auto &full2 = session.addSource("full2", b.cudaSource, PipelineOptions{});
  EXPECT_TRUE(session.compileAll());
  EXPECT_EQ(ir::printOp(full.result().module.op()), fullRef);
  EXPECT_EQ(ir::printOp(full2.result().module.op()), fullRef);
  EXPECT_EQ(ir::printOp(mcuda.result().module.op()), mcudaRef);
}

TEST(SessionBatchTest, IdenticalSourcesInOneBatch) {
  // Three copies of one source in one batch. On four workers the copies
  // may run a pass at the same moment; on one worker each finishes
  // before the next starts. Either way every output equals a single
  // compile.
  const auto &b = rodinia::suite().front();
  const std::string expected = serialReference(b.cudaSource, {});
  for (unsigned threads : {4u, 1u}) {
    driver::CompilerSession session(batchOptions(threads));
    std::vector<driver::CompileJob *> jobs;
    for (int copy = 0; copy < 3; ++copy)
      jobs.push_back(&session.addSource(b.id + "#" + std::to_string(copy),
                                        b.cudaSource, PipelineOptions{}));
    EXPECT_TRUE(session.compileAll()) << "threads=" << threads;
    for (driver::CompileJob *job : jobs) {
      ASSERT_TRUE(job->ok()) << job->diagnostics().str();
      EXPECT_EQ(ir::printOp(job->result().module.op()), expected)
          << "threads=" << threads;
    }
  }
}

namespace {

/// One source of 8 host functions, each launching its own kernel: the
/// shape of the multi-file observability batch in CI.
std::string eightFunctionSource(int file) {
  std::string f = std::to_string(file), src;
  for (int j = 1; j <= 8; ++j) {
    std::string n = std::to_string(j), k = "obs" + f + "_" + n;
    src += "__global__ void " + k +
           "(float* a, int n){ int i = blockIdx.x; if (i < n) { for (int t "
           "= 0; t < 32; ++t) { a[i] = a[i] * " + n + ".0f + " + f +
           ".0f; } } }\n"
           "void run" + f + "_" + n + "(float* a, int n){ " + k +
           "<<<n,1>>>(a, n); }\n";
  }
  return src;
}

} // namespace

TEST(SessionBatchTest, MultiFunctionModulesMatchSerial) {
  // 3 modules x 8 host functions, a shape where one module holds many
  // functions. Each module compiles whole on one worker: the IR is
  // byte-identical at 1 and 4 threads, every job is exactly one module
  // dispatch, and a job cancelled while the batch runs fails alone.
  const std::string pipeline = "inline-kernels,repeat{n=2}(canonicalize,"
                               "cse),unroll{max-trip=16},cpuify,omp-lower";
  auto &reg = metrics::MetricsRegistry::instance();
  auto addSources = [](driver::CompilerSession &session) {
    std::vector<driver::CompileJob *> jobs;
    for (int f = 1; f <= 3; ++f)
      jobs.push_back(&session.addSource("obs" + std::to_string(f) + ".cu",
                                        eightFunctionSource(f)));
    return jobs;
  };
  std::vector<std::string> serial;
  for (unsigned threads : {1u, 4u}) {
    driver::SessionOptions so = batchOptions(threads);
    so.pipelineSpec = pipeline;
    driver::CompilerSession session(std::move(so));
    std::vector<driver::CompileJob *> jobs = addSources(session);
    uint64_t tasksBefore = reg.counterValue("scheduler.tasks");
    ASSERT_TRUE(session.compileAll()) << "threads=" << threads;
    EXPECT_EQ(reg.counterValue("scheduler.tasks") - tasksBefore,
              jobs.size())
        << "threads=" << threads;
    std::vector<std::string> out;
    for (driver::CompileJob *job : jobs)
      out.push_back(ir::printOp(job->result().module.op()));
    if (threads == 1)
      serial = out;
    else
      EXPECT_EQ(out, serial);
  }

  for (unsigned threads : {1u, 4u}) {
    // Every function-pass run sleeps 5 ms, so each module spends over
    // 100 ms in its passes; the middle job is cancelled once the first
    // pass has started.
    std::string err;
    ASSERT_TRUE(failpoint::configure("pass.run=delay(5)", &err)) << err;
    driver::SessionOptions so = batchOptions(threads);
    so.pipelineSpec = pipeline;
    driver::CompilerSession session(std::move(so));
    std::vector<driver::CompileJob *> jobs = addSources(session);
    uint64_t runsBefore = reg.counterValue("failpoint.triggered.pass.run");
    std::thread batch([&] { session.compileAll(); });
    for (int spin = 0; spin < 100000 && reg.counterValue(
                           "failpoint.triggered.pass.run") == runsBefore;
         ++spin)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    jobs[1]->cancel();
    batch.join();
    failpoint::clearAll();
    EXPECT_FALSE(jobs[1]->ok()) << "threads=" << threads;
    std::string diag = jobs[1]->diagnostics().str();
    EXPECT_NE(diag.find("cancelled in pass"), std::string::npos) << diag;
    for (size_t i : {0u, 2u}) {
      ASSERT_TRUE(jobs[i]->ok()) << jobs[i]->diagnostics().str();
      EXPECT_EQ(ir::printOp(jobs[i]->result().module.op()), serial[i])
          << "threads=" << threads;
    }
  }
}

//===----------------------------------------------------------------------===//
// Failure isolation
//===----------------------------------------------------------------------===//

TEST(SessionIsolationTest, OneBadModuleDoesNotPoisonTheBatch) {
  std::string goodRef;
  {
    driver::CompilerSession ref(batchOptions(1));
    auto &job = ref.addModule("ref", parseOk(kGoodModule));
    ASSERT_TRUE(ref.compileAll());
    goodRef = ir::printOp(job.result().module.op());
  }

  driver::CompilerSession session(batchOptions(4));
  auto &good1 = session.addModule("good1.ir", parseOk(kGoodModule));
  auto &bad = session.addModule("bad.ir", parseOk(kBadModule));
  auto &good2 = session.addModule("good2.ir", parseOk(kGoodModule));
  EXPECT_FALSE(session.compileAll());

  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.diagnostics().str().find(
                "barrier outside thread-parallel loop"),
            std::string::npos)
      << bad.diagnostics().str();
  EXPECT_TRUE(good1.ok()) << good1.diagnostics().str();
  EXPECT_TRUE(good2.ok()) << good2.diagnostics().str();
  EXPECT_EQ(ir::printOp(good1.result().module.op()), goodRef);
  EXPECT_EQ(ir::printOp(good2.result().module.op()), goodRef);
}

TEST(SessionIsolationTest, FrontendFailureIsolatesToo) {
  const auto &b = rodinia::suite().front();
  driver::CompilerSession session(batchOptions(2));
  auto &bad = session.addSource("broken.cu", "void f() { x = 1; }");
  auto &good = session.addSource("ok.cu", b.cudaSource);
  EXPECT_FALSE(session.compileAll());
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.diagnostics().hasErrors());
  EXPECT_TRUE(good.ok()) << good.diagnostics().str();
}

//===----------------------------------------------------------------------===//
// compileAll semantics
//===----------------------------------------------------------------------===//

TEST(SessionTest, DoubleCompileAllIsIdempotent) {
  const auto &b = rodinia::suite().front();
  driver::CompilerSession session(batchOptions(2));
  auto &j1 = session.addSource("a", b.cudaSource);
  auto &j2 = session.addSource("b", b.cudaSource);
  ASSERT_TRUE(session.compileAll());
  std::string out1 = ir::printOp(j1.result().module.op());
  std::string out2 = ir::printOp(j2.result().module.op());
  ir::Op *raw1 = j1.result().module.op();

  // Second compileAll: nothing recompiles, results (and the module
  // objects themselves) are untouched.
  EXPECT_TRUE(session.compileAll());
  EXPECT_EQ(j1.result().module.op(), raw1);
  EXPECT_EQ(ir::printOp(j1.result().module.op()), out1);
  EXPECT_EQ(ir::printOp(j2.result().module.op()), out2);
}

TEST(SessionTest, JobsAddedAfterCompileAllJoinTheNextBatch) {
  const auto &b = rodinia::suite().front();
  driver::CompilerSession session(batchOptions(1));
  auto &j1 = session.addSource("first", b.cudaSource);
  ASSERT_TRUE(session.compileAll());
  EXPECT_TRUE(j1.ok());

  auto &j2 = session.addSource("second", b.cudaSource);
  EXPECT_FALSE(session.ok()); // second not compiled yet
  ASSERT_TRUE(session.compileAll());
  EXPECT_TRUE(j2.ok());
  EXPECT_EQ(ir::printOp(j1.result().module.op()),
            ir::printOp(j2.result().module.op()));
}

TEST(SessionTest, AsyncCompileAllAndFutures) {
  driver::CompilerSession session(batchOptions(2));
  std::vector<driver::CompileJob *> jobs;
  for (const auto &b : rodinia::suite())
    jobs.push_back(&session.addSource(b.id, b.cudaSource));
  EXPECT_TRUE(session.compileAll());
  // Every job has resolved once compileAll returns; read in any order.
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
    EXPECT_TRUE((*it)->ready());
    EXPECT_TRUE((*it)->ok()) << (*it)->diagnostics().str();
  }
  EXPECT_TRUE(session.ok());
}

TEST(SessionTest, FuturesResolveIncrementally) {
  // Completion-order probe: a job is marked done (its latency stamped)
  // the moment its own pipeline completes. With threads=1 the queue
  // drains one module after another, so over the 16-module suite the
  // first job resolves well before the last: its latency must be under
  // half the batch's largest.
  // A session that marked jobs done only at the end of the batch would
  // stamp them all within microseconds of each other.
  driver::CompilerSession session(batchOptions(1));
  for (const auto &b : rodinia::suite())
    session.addSource(b.id, b.cudaSource);
  ASSERT_TRUE(session.compileAll());
  double minLatency = 1e30, maxLatency = 0;
  for (size_t i = 0; i < session.jobCount(); ++i) {
    driver::CompileJob &job = session.job(i);
    EXPECT_TRUE(job.ready());
    double latency = job.latencySeconds();
    EXPECT_GE(latency, 0.0);
    minLatency = std::min(minLatency, latency);
    maxLatency = std::max(maxLatency, latency);
  }
  EXPECT_LT(minLatency, maxLatency / 2);
}

//===----------------------------------------------------------------------===//
// Modes and attribution
//===----------------------------------------------------------------------===//

TEST(SessionTest, FrontendViewMatchesCompileForSimt) {
  // The SIMT oracle's frontend view is the one-pass "inline-kernels"
  // pipeline: a threaded batch on that spec and compileForSimt must both
  // equal the frontend followed by kernel-only inlining.
  driver::SessionOptions so = batchOptions(2);
  so.pipelineSpec = "inline-kernels";
  driver::CompilerSession session(std::move(so));
  std::vector<driver::CompileJob *> jobs;
  for (const auto &b : rodinia::suite())
    jobs.push_back(&session.addSource(b.id, b.cudaSource));
  ASSERT_TRUE(session.compileAll());
  size_t i = 0;
  for (const auto &b : rodinia::suite()) {
    DiagnosticEngine refDiag;
    ir::OwnedModule ref = frontend::compileToIR(b.cudaSource, refDiag);
    ASSERT_FALSE(refDiag.hasErrors()) << b.id << ": " << refDiag.str();
    transforms::runInliner(ref.get(), /*onlyInKernels=*/true);
    std::string expected = ir::printOp(ref.op());

    DiagnosticEngine diag;
    auto simt = driver::compileForSimt(b.cudaSource, diag);
    ASSERT_TRUE(simt.ok) << b.id << ": " << diag.str();
    EXPECT_EQ(ir::printOp(simt.module.op()), expected) << b.id;
    EXPECT_EQ(ir::printOp(jobs[i]->result().module.op()), expected) << b.id;
    ++i;
  }
}

TEST(SessionTest, InstrumentedBatchObservesOneModuleAtATime) {
  // Per-module instrumentation (configurePassManager) drains the batch
  // on the calling thread even with a 4-thread pool: every hook sees one
  // module at a time, modules in job order.
  struct StepProbe : transforms::Instrumentation {
    std::mutex *mu = nullptr;
    std::vector<ir::Op *> *steps = nullptr;
    void beforePass(const transforms::Pass &, ir::ModuleOp module) override {
      std::lock_guard<std::mutex> lock(*mu);
      steps->push_back(module.op);
    }
  };
  auto tempFile = [](const std::string &tag) {
    return (std::filesystem::temp_directory_path() /
            ("paralift-session-test-" + tag + "-" +
             std::to_string(::getpid()) + ".ir"))
        .string();
  };
  auto readFile = [](const std::string &path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const auto &suite = rodinia::suite();
  ASSERT_GE(suite.size(), 4u);
  std::mutex mu;
  std::vector<ir::Op *> steps;
  // Compiles `sources` in one session, printing the IR after every
  // cpuify into `path`; the probe records each step's module.
  auto compileInstrumented = [&](const std::vector<size_t> &sources,
                                 unsigned threads, const std::string &path,
                                 std::vector<ir::Op *> &modules) {
    std::FILE *out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr) << path;
    driver::SessionOptions so = batchOptions(threads);
    so.configurePassManager = [&](transforms::PassManager &pm) {
      pm.enableIRPrinting(/*before=*/false, /*after=*/true, "cpuify", out);
      auto probe = std::make_unique<StepProbe>();
      probe->mu = &mu;
      probe->steps = &steps;
      pm.addInstrumentation(std::move(probe));
    };
    driver::CompilerSession session(std::move(so));
    std::vector<driver::CompileJob *> jobs;
    for (size_t k : sources)
      jobs.push_back(&session.addSource(suite[k].id, suite[k].cudaSource));
    bool ok = session.compileAll();
    std::fclose(out);
    ASSERT_TRUE(ok);
    for (driver::CompileJob *job : jobs)
      modules.push_back(job->result().module.op());
  };

  std::string expected;
  for (size_t k = 0; k < 4; ++k) {
    std::string path = tempFile("single" + std::to_string(k));
    std::vector<ir::Op *> modules;
    compileInstrumented({k}, 1, path, modules);
    expected += readFile(path);
    std::remove(path.c_str());
  }
  ASSERT_FALSE(expected.empty());

  steps.clear();
  std::string path = tempFile("batch");
  std::vector<ir::Op *> modules;
  compileInstrumented({0, 1, 2, 3}, 4, path, modules);
  EXPECT_EQ(readFile(path), expected);
  std::remove(path.c_str());

  // Every step of module i precedes every step of module i+1.
  ASSERT_EQ(modules.size(), 4u);
  std::vector<size_t> order;
  for (ir::Op *m : steps) {
    auto it = std::find(modules.begin(), modules.end(), m);
    ASSERT_NE(it, modules.end());
    order.push_back(static_cast<size_t>(it - modules.begin()));
  }
  ASSERT_FALSE(order.empty());
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  for (size_t k = 0; k < 4; ++k)
    EXPECT_NE(std::find(order.begin(), order.end(), k), order.end()) << k;
}

TEST(SessionTest, DiagnosticsCarryModuleName) {
  driver::CompilerSession session(batchOptions(2));
  auto &bad1 = session.addSource("alpha.cu", "void f() { x = 1; }");
  auto &bad2 = session.addSource("beta.cu", "int f() { return y + 1; }");
  EXPECT_FALSE(session.compileAll());
  EXPECT_NE(bad1.diagnostics().str().find("alpha.cu:"), std::string::npos)
      << bad1.diagnostics().str();
  EXPECT_NE(bad2.diagnostics().str().find("beta.cu:"), std::string::npos)
      << bad2.diagnostics().str();
  // Attribution must not bleed across jobs.
  EXPECT_EQ(bad1.diagnostics().str().find("beta.cu:"), std::string::npos);
}

TEST(SessionTest, LegacyWrapperStillUnprefixed) {
  // The one-shot wrappers keep their pre-session diagnostic format (no
  // module prefix) so existing embedders' error matching is unaffected.
  DiagnosticEngine diag;
  auto cc = driver::compile("void f() { x = 1; }", PipelineOptions{}, diag);
  EXPECT_FALSE(cc.ok);
  ASSERT_TRUE(diag.hasErrors());
  for (const auto &d : diag.diagnostics())
    EXPECT_TRUE(d.module.empty()) << d.str();
}

TEST(SessionTest, SessionTimingAggregatesAcrossBatch) {
  driver::SessionOptions so = batchOptions(2);
  so.collectTiming = true;
  driver::CompilerSession session(std::move(so));
  for (const auto &b : rodinia::suite())
    session.addSource(b.id, b.cudaSource);
  ASSERT_TRUE(session.compileAll());
  const auto &report = session.timingReport();
  ASSERT_FALSE(report.records.empty());
  // Batch mode: one record per pass of the (single) group's pipeline.
  for (const auto &r : report.records)
    EXPECT_GE(r.seconds, 0.0);
}
