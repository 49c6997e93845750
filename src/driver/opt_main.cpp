// paralift-opt: the mlir-opt analogue for ParaLift IR. Reads textual IR
// files (or CUDA-subset files with --cuda), runs a pass pipeline through
// one CompilerSession, and prints the resulting IR of every module.
//
// Usage:
//   paralift-opt [file...] [--cuda] [--passes=PIPELINE] [--list-passes]
//                [--timing] [--stats] [--verify-each] [--verify-bytecode]
//                [--pm-threads=N]
//                [--trace-json=FILE] [--metrics[=FILE]]
//                [--print-ir-before[=PASS]] [--print-ir-after[=PASS]]
//                [--job-timeout=SECONDS] [--failpoints=SPEC]
//
// --job-timeout=SECONDS arms a per-module compile deadline: a module
// that exceeds it fails with an attributed "deadline exceeded"
// diagnostic while the rest of the batch completes (exit stays nonzero).
// --failpoints=SPEC arms the deterministic fault-injection subsystem
// (support/failpoint.h; same grammar as $PARALIFT_FAILPOINTS), e.g.
// --failpoints='pass.run=throw:7,0.1;scheduler.task=delay(5)'. Any
// failure a fault provokes is contained to the affected module.
// Infrastructure exceptions escaping the session entirely print a
// "paralift-opt: fatal:" line and exit 3 instead of aborting.
//
// PIPELINE is a comma-separated list of registered pass names, each with
// optional {key=value,...} parameters and (for repeat) a parenthesized
// child list. With no file, reads stdin. With no --passes, just
// parse/verify/print (round-trip mode). Multiple positional files compile
// as one batch session: --pm-threads=N compiles up to N files at once,
// each file start to finish on one worker. Every file runs every pass;
// nothing is kept between runs.
// Examples:
//   paralift-opt kernel.ir --passes=canonicalize,cse,barrier-elim
//   paralift-opt kernel.cu --cuda --passes='cpuify{mincut=false},omp-lower'
//   paralift-opt a.cu b.cu c.cu --cuda --pm-threads=4
//     --passes='repeat{n=2}(canonicalize,cse),cpuify,omp-lower'
//
// Workers take files from one queue in command-line order; every file's
// output is ready the moment its own last pass lands. Outputs are
// identical at every --pm-threads value.
//
// --verify-bytecode additionally lowers every successful module to VM
// bytecode and runs the static verifier (vm/verifier.h) over it: any
// structural or typestate violation is reported to stderr with
// (function, pc, opcode, reason) attribution and exits 1. Results feed
// the vm.verify.functions / vm.verify.errors counters, visible via
// --metrics. The pipeline must lower to VM-executable IR first (e.g.
// --cuda with cpuify,omp-lower or the default SIMT lowering).
//
// Observability: --trace-json=FILE records a Chrome trace_event JSON of
// the whole run (worker lanes, per-pass spans, per-job async spans;
// load in Perfetto). --metrics prints the process-wide metrics snapshot
// (scheduler/session/arena/pass counters and latency histograms) to
// stderr; --metrics=FILE writes it as JSON instead. See the
// "Observability" section in driver/session.h.
#include "driver/compiler.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "transforms/registry.h"
#include "vm/compile.h"
#include "vm/verifier.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace paralift;

namespace {

int listPasses() {
  std::printf("Available passes:\n");
  for (const auto &p : transforms::passRegistry())
    std::printf("  %-22s %s\n", p.name.c_str(), p.description.c_str());
  return 0;
}

int usage(const char *argv0) {
  std::printf(
      "usage: %s [file...] [--cuda] [--passes=PIPELINE] [--list-passes]\n"
      "       [--timing] [--stats] [--verify-each] [--verify-bytecode]\n"
      "       [--pm-threads=N]\n"
      "       [--trace-json=FILE] [--metrics[=FILE]]\n"
      "       [--print-ir-before[=PASS]] [--print-ir-after[=PASS]]\n"
      "       [--job-timeout=SECONDS] [--failpoints=SPEC]\n"
      "\n"
      "PIPELINE example: 'inline,repeat{n=2}(canonicalize,cse),\n"
      "                   unroll{max-trip=16},cpuify{mincut=false}'\n"
      "\n"
      "Multiple files compile as one batch session; --pm-threads=N\n"
      "compiles up to N files at once.\n",
      argv0);
  return 0;
}

std::string readInput(const std::string &path) {
  std::ostringstream buf;
  if (path.empty()) {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
      std::exit(2);
    }
    buf << in.rdbuf();
  }
  return buf.str();
}

/// Parses a strictly positive integer; -1 on junk.
long long parsePositive(const std::string &value) {
  try {
    size_t consumed = 0;
    long long n = std::stoll(value, &consumed);
    return consumed == value.size() ? n : -1;
  } catch (const std::exception &) {
    return -1;
  }
}

/// Parses a strictly positive double; -1 on junk.
double parsePositiveSeconds(const std::string &value) {
  try {
    size_t consumed = 0;
    double d = std::stod(value, &consumed);
    return (consumed == value.size() && d > 0) ? d : -1;
  } catch (const std::exception &) {
    return -1;
  }
}

/// Writes the --trace-json and --metrics sinks when destroyed. optMain
/// declares it right after the session, so it runs at every exit while
/// the session's jobs (and their arenas) are still alive.
struct ObservabilitySinks {
  std::string traceJsonPath;
  bool metricsToStderr = false;
  std::string metricsJsonPath;

  ~ObservabilitySinks() {
    if (!traceJsonPath.empty())
      trace::writeJson(traceJsonPath);
    auto &reg = metrics::MetricsRegistry::instance();
    if (metricsToStderr)
      std::fprintf(stderr, "%s", reg.textSnapshot().c_str());
    if (!metricsJsonPath.empty()) {
      std::ofstream os(metricsJsonPath, std::ios::binary | std::ios::trunc);
      if (os)
        os << reg.jsonSnapshot();
    }
  }
};

int optMain(int argc, char **argv);

} // namespace

int main(int argc, char **argv) {
  // Top-level containment: per-job failures are already contained by the
  // session, so anything reaching here is infrastructure trouble
  // (bad_alloc, a filesystem surprise). Report and exit nonzero instead
  // of std::terminate's abort + core.
  try {
    return optMain(argc, argv);
  } catch (const std::exception &e) {
    std::fprintf(stderr, "paralift-opt: fatal: %s\n", e.what());
    return 3;
  } catch (...) {
    std::fprintf(stderr, "paralift-opt: fatal: non-standard exception\n");
    return 3;
  }
}

namespace {

int optMain(int argc, char **argv) {
  std::vector<std::string> paths;
  std::string passes;
  bool cuda = false;
  bool timing = false;
  bool stats = false;
  bool verifyEach = false;
  bool verifyBytecode = false;
  std::string traceJsonPath;
  bool metricsToStderr = false;
  std::string metricsJsonPath;
  bool printBefore = false, printAfter = false;
  std::string printBeforeFilter, printAfterFilter;
  unsigned pmThreads = 1;
  double jobTimeoutSeconds = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-passes")
      return listPasses();
    if (arg == "--cuda") {
      cuda = true;
    } else if (arg.rfind("--passes=", 0) == 0) {
      passes = arg.substr(9);
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--verify-each") {
      verifyEach = true;
    } else if (arg == "--verify-bytecode") {
      verifyBytecode = true;
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      traceJsonPath = arg.substr(13);
      if (traceJsonPath.empty()) {
        std::fprintf(stderr, "error: --trace-json requires a path\n");
        return 2;
      }
    } else if (arg == "--metrics") {
      metricsToStderr = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metricsJsonPath = arg.substr(10);
      if (metricsJsonPath.empty()) {
        std::fprintf(stderr, "error: --metrics= requires a path\n");
        return 2;
      }
    } else if (arg == "--print-ir-before") {
      printBefore = true;
    } else if (arg.rfind("--print-ir-before=", 0) == 0) {
      printBefore = true;
      printBeforeFilter = arg.substr(18);
    } else if (arg == "--print-ir-after") {
      printAfter = true;
    } else if (arg.rfind("--print-ir-after=", 0) == 0) {
      printAfter = true;
      printAfterFilter = arg.substr(17);
    } else if (arg.rfind("--pm-threads=", 0) == 0) {
      // stoll accepts negatives and trailing junk; validate strictly.
      long long n = parsePositive(arg.substr(13));
      if (n < 1 || n > 1024) {
        std::fprintf(stderr,
                     "error: invalid --pm-threads value '%s' (expected "
                     "1..1024)\n",
                     arg.substr(13).c_str());
        return 2;
      }
      pmThreads = static_cast<unsigned>(n);
    } else if (arg.rfind("--job-timeout=", 0) == 0) {
      jobTimeoutSeconds = parsePositiveSeconds(arg.substr(14));
      if (jobTimeoutSeconds < 0) {
        std::fprintf(stderr,
                     "error: invalid --job-timeout value '%s' (expected a "
                     "positive seconds count)\n",
                     arg.substr(14).c_str());
        return 2;
      }
    } else if (arg.rfind("--failpoints=", 0) == 0) {
      std::string err;
      if (!failpoint::configure(arg.substr(13), &err)) {
        std::fprintf(stderr, "error: invalid --failpoints spec: %s\n",
                     err.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  // Validate the pipeline spec up front so a typo is one clean error, not
  // one per input file.
  {
    DiagnosticEngine specDiag;
    transforms::PassManager specCheck;
    if (!transforms::buildPipelineFromSpec(specCheck, passes, specDiag)) {
      std::fprintf(stderr, "%s", specDiag.str().c_str());
      return 1;
    }
  }

  driver::SessionOptions so;
  so.threads = pmThreads;
  so.jobTimeoutSeconds = jobTimeoutSeconds;
  so.verifyEach = verifyEach;
  so.collectTiming = timing;
  so.collectStatistics = stats;
  // --cuda inputs run the frontend, then device-function inlining (the
  // frontend view compileForSimt produces), then the explicit pipeline.
  so.pipelineSpec = cuda ? (passes.empty() ? std::string("inline-kernels")
                                           : "inline-kernels," + passes)
                         : passes;
  // IR printing observes one module at a time; setting the hook makes
  // the session compile the files one after another.
  if (printBefore || printAfter)
    so.configurePassManager = [&](transforms::PassManager &pm) {
      // Separate instrumentations: the before/after filters are
      // independent.
      if (printBefore)
        pm.enableIRPrinting(/*before=*/true, /*after=*/false,
                            printBeforeFilter);
      if (printAfter)
        pm.enableIRPrinting(/*before=*/false, /*after=*/true,
                            printAfterFilter);
    };

  if (!traceJsonPath.empty())
    trace::enable();
  driver::CompilerSession session(std::move(so));
  ObservabilitySinks sinks{traceJsonPath, metricsToStderr, metricsJsonPath};

  // Queue every input. With no file, stdin is the single input.
  if (paths.empty())
    paths.push_back("");
  std::vector<driver::CompileJob *> jobs;
  for (const std::string &path : paths) {
    std::string input = readInput(path);
    // Single-file output keeps the historic unprefixed diagnostic format
    // (scripts match on it); batches need the per-module attribution.
    std::string name = paths.size() > 1
                           ? (path.empty() ? std::string("<stdin>") : path)
                           : std::string();
    if (cuda) {
      jobs.push_back(&session.addSource(name, std::move(input)));
    } else {
      DiagnosticEngine parseDiag;
      parseDiag.setModuleName(name);
      auto parsed = ir::parseModule(input, parseDiag);
      if (!parsed) {
        std::fprintf(stderr, "%s", parseDiag.str().c_str());
        return 1;
      }
      jobs.push_back(&session.addModule(name, std::move(*parsed)));
    }
  }

  session.compileAll();

  if (timing)
    std::fprintf(stderr, "%s", session.timingReport().str().c_str());
  if (stats)
    std::fprintf(stderr, "%s", session.statisticsStr().c_str());

  int rc = 0;
  if (verifyBytecode) {
    // Touch the counters up front so a clean run still reports
    // "vm.verify.errors": 0 in the --metrics snapshot.
    metrics::MetricsRegistry::instance().counter("vm.verify.functions");
    metrics::MetricsRegistry::instance().counter("vm.verify.errors");
    for (driver::CompileJob *job : jobs) {
      if (!job->ok())
        continue; // reported below
      vm::BCModule bc = vm::compileModule(job->result().module.get());
      vm::VerifyResult vr = vm::verifyModule(bc);
      if (!vr.ok()) {
        const char *name =
            job->name().empty() ? "<stdin>" : job->name().c_str();
        std::fprintf(stderr, "%s: bytecode verification failed:\n%s", name,
                     vr.str().c_str());
        rc = 1;
      }
    }
  }
  for (driver::CompileJob *job : jobs) {
    // Never print invalid IR: the session verified the final module
    // (via --verify-each or the end-of-pipeline check, including for
    // zero-pass round-trip runs), so a failed job only reports.
    if (!job->ok()) {
      std::fprintf(stderr, "%s", job->diagnostics().str().c_str());
      rc = 1;
      continue;
    }
    // Successful jobs may still carry warnings; surface them instead of
    // dropping them.
    if (!job->diagnostics().diagnostics().empty())
      std::fprintf(stderr, "%s", job->diagnostics().str().c_str());
    if (jobs.size() > 1)
      std::printf("// ===== module %s =====\n", job->name().c_str());
    std::fputs(ir::printOp(job->result().module.op()).c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return rc;
}

} // namespace
