// Supporting table: compilation-time cost of each pipeline stage across
// the Rodinia suite (not a paper figure; quantifies the compiler itself).
//
// --json=FILE additionally emits a machine-readable BENCH_compile.json
// (suite-session latency per thread count with its paired ratio to the
// serial one-shot arm, mean/median/p95 job-completion latency, arena
// parse/clone/teardown cost, tracing-disabled vs -enabled overhead, failpoint
// disarmed vs armed-inert overhead, and a MetricsRegistry snapshot) so
// the perf trajectory is tracked across PRs.
#include "bench_common.h"

#include "ir/parser.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

using namespace paralift;
using namespace paralift::bench;

namespace {

double timeCompile(const rodinia::Benchmark &b,
                   const transforms::PipelineOptions &opts) {
  return medianTime(
      [&] {
        DiagnosticEngine diag;
        driver::compile(b.cudaSource, opts, diag);
      },
      3);
}

void printTable() {
  std::printf("\n=== Compile time per benchmark (seconds) ===\n\n");
  std::printf("%-28s%12s%12s%12s\n", "benchmark", "full", "optdis",
              "mcuda");
  for (const auto &b : rodinia::suite()) {
    transforms::PipelineOptions full;
    std::printf("%-28s%12.4f%12.4f%12.4f\n", b.name.c_str(),
                timeCompile(b, full),
                timeCompile(b, transforms::PipelineOptions::optDisabled()),
                timeCompile(b, transforms::PipelineOptions::mcuda()));
  }
}

/// Per-pass compile-time breakdown across the suite for the full
/// pipeline.
void printPassBreakdown() {
  std::printf("\n=== Per-pass compile time, full pipeline (seconds, summed "
              "over suite) ===\n\n");
  timeSuiteCompiles(transforms::PipelineOptions{}, parseSuiteModules())
      .print();
}

/// One measured batch compile of the whole suite through a session.
struct SchedulerMeasurement {
  double wallSeconds = 0;      ///< compileAll wall clock
  double meanJobSeconds = 0;   ///< mean CompileJob-completion latency
  double medianJobSeconds = 0; ///< median CompileJob-completion latency
  double p95JobSeconds = 0;    ///< p95 CompileJob-completion latency
};

/// p95 by the nearest-rank method on a sorted sample.
double p95Of(const std::vector<double> &sorted) {
  if (sorted.empty())
    return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(0.95 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

/// One suite batch through one session of `threads` workers.
SchedulerMeasurement measureSuiteSessionOnce(unsigned threads) {
  driver::CompilerSession session = makeSuiteSession(threads);
  std::vector<driver::CompileJob *> jobs;
  for (const auto &b : rodinia::suite())
    jobs.push_back(&session.addSource(b.id, b.cudaSource,
                                      transforms::PipelineOptions{}));
  double t0 = now();
  session.compileAll();
  SchedulerMeasurement m;
  m.wallSeconds = now() - t0;
  std::vector<double> lats;
  for (driver::CompileJob *job : jobs)
    lats.push_back(job->latencySeconds());
  std::sort(lats.begin(), lats.end());
  for (double l : lats)
    m.meanJobSeconds += l;
  m.meanJobSeconds /= lats.empty() ? 1 : lats.size();
  m.medianJobSeconds = lats.empty() ? 0 : lats[lats.size() / 2];
  m.p95JobSeconds = p95Of(lats);
  return m;
}

/// The median rep by wall clock.
SchedulerMeasurement medianByWall(std::vector<SchedulerMeasurement> ms) {
  std::sort(ms.begin(), ms.end(),
            [](const SchedulerMeasurement &a, const SchedulerMeasurement &b) {
              return a.wallSeconds < b.wallSeconds;
            });
  return ms[ms.size() / 2];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

SchedulerMeasurement measureSuiteSession(unsigned threads, int reps = 7) {
  std::vector<SchedulerMeasurement> ms;
  for (int r = 0; r < reps; ++r)
    ms.push_back(measureSuiteSessionOnce(threads));
  return medianByWall(std::move(ms));
}

/// The suite compiled one module at a time, each through its own
/// one-shot session: the serial baseline.
double timeSerialOneShot() {
  double t0 = now();
  for (const auto &b : rodinia::suite()) {
    driver::CompilerSession session = makeSuiteSession();
    session.addSource(b.id, b.cudaSource, transforms::PipelineOptions{});
    session.compileAll();
  }
  return now() - t0;
}

struct SchedulerRow {
  unsigned threads;
  SchedulerMeasurement batch; ///< the median rep by wall clock
  /// Median over reps of this rep's batch wall / the same rep's serial
  /// wall.
  double ratioToSerial = 0;
};

struct SuiteSessionTable {
  double serialSeconds = 0; ///< one-shot sessions, one module at a time
  std::vector<SchedulerRow> rows;
};

/// Suite-session mode: the whole Rodinia suite queued on one
/// CompilerSession, whose workers compile whole modules from one queue
/// (each CompileJob resolves the moment its module's last pass lands).
/// The table reports batch wall clock AND job-completion latency per
/// thread count, each against a serial one-shot baseline timed in the
/// same reps.
SuiteSessionTable printSuiteSessionMode() {
  std::printf("\n=== Suite-session batch compile, module queue (whole "
              "suite, seconds) ===\n");
  std::printf("(hardware: %u cores; wall-clock wins need >1 — job-latency "
              "wins appear even on 1)\n\n",
              std::thread::hardware_concurrency());
  // Paired reps: every rep times the serial arm and each thread count
  // back to back, alternating the order from rep to rep as
  // measureTracingOverhead does, so host drift lands on every arm alike.
  // Each row's ratio is the median of its per-rep ratios to serial.
  constexpr int kReps = 7;
  const std::vector<unsigned> threadCounts{1, 2, 4};
  const size_t n = threadCounts.size();
  std::vector<double> serial;
  std::vector<std::vector<SchedulerMeasurement>> batches(n);
  std::vector<std::vector<double>> ratios(n);
  for (int r = 0; r < kReps; ++r) {
    std::vector<SchedulerMeasurement> rep(n);
    double s = 0;
    if (r % 2 == 0) {
      s = timeSerialOneShot();
      for (size_t k = 0; k < n; ++k)
        rep[k] = measureSuiteSessionOnce(threadCounts[k]);
    } else {
      for (size_t k = n; k-- > 0;)
        rep[k] = measureSuiteSessionOnce(threadCounts[k]);
      s = timeSerialOneShot();
    }
    serial.push_back(s);
    for (size_t k = 0; k < n; ++k) {
      batches[k].push_back(rep[k]);
      ratios[k].push_back(rep[k].wallSeconds / s);
    }
  }
  SuiteSessionTable table;
  table.serialSeconds = median(serial);
  std::printf("  serial per-module (one-shot sessions)  %10.4f s\n\n",
              table.serialSeconds);
  std::printf("  %-12s%12s%10s%14s%14s%14s\n", "pm-threads", "wall",
              "/serial", "mean-job", "median-job", "p95-job");
  for (size_t k = 0; k < n; ++k) {
    SchedulerRow row;
    row.threads = threadCounts[k];
    row.batch = medianByWall(batches[k]);
    row.ratioToSerial = median(ratios[k]);
    std::printf("  %-10u%10.4f s%9.2fx%12.4f s%12.4f s%12.4f s\n",
                row.threads, row.batch.wallSeconds, row.ratioToSerial,
                row.batch.meanJobSeconds, row.batch.medianJobSeconds,
                row.batch.p95JobSeconds);
    table.rows.push_back(row);
  }
  return table;
}

/// IR-memory cost across the suite: parse (textual IR -> arena-backed
/// module), clone (cloneModule into a fresh arena), and teardown
/// (OwnedModule destruction, which is an O(1)-per-module slab release).
/// These are the three paths the per-module arena is built to speed up;
/// the rows land in BENCH_compile.json so the trajectory is tracked
/// across PRs.
struct IrMemoryTimes {
  double parseSeconds = 0;
  double cloneSeconds = 0;
  double teardownSeconds = 0;
  size_t modules = 0; ///< valid suite modules per round
  int rounds = 0;
};

IrMemoryTimes measureIrMemory(const SuiteModules &suite, int rounds = 20,
                              int reps = 3) {
  IrMemoryTimes out;
  out.rounds = rounds;
  std::vector<std::string> texts;
  for (size_t i = 0; i < suite.modules.size(); ++i)
    if (suite.isValid(i))
      texts.push_back(ir::printOp(suite.modules[i].get().op));
  out.modules = texts.size();
  std::vector<double> parseT, cloneT, tearT;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<ir::OwnedModule> parsed;
    parsed.reserve(texts.size() * rounds);
    double t0 = now();
    for (int r = 0; r < rounds; ++r)
      for (const std::string &text : texts) {
        DiagnosticEngine diag;
        auto m = ir::parseModule(text, diag);
        if (m)
          parsed.push_back(std::move(*m));
      }
    parseT.push_back(now() - t0);

    std::vector<ir::OwnedModule> clones;
    clones.reserve(parsed.size());
    t0 = now();
    for (ir::OwnedModule &m : parsed)
      clones.push_back(ir::cloneModule(m.get()));
    cloneT.push_back(now() - t0);

    t0 = now();
    parsed.clear();
    clones.clear();
    tearT.push_back(now() - t0);
  }
  auto med = [](std::vector<double> &v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out.parseSeconds = med(parseT);
  out.cloneSeconds = med(cloneT);
  out.teardownSeconds = med(tearT);
  return out;
}

void printIrMemory(const IrMemoryTimes &m) {
  std::printf("\n=== IR-memory cost, whole suite x%d (arena-backed "
              "parse/clone/teardown) ===\n\n",
              m.rounds);
  std::printf("  parse    : %10.6f s  (%zu modules x%d)\n", m.parseSeconds,
              m.modules, m.rounds);
  std::printf("  clone    : %10.6f s\n", m.cloneSeconds);
  std::printf("  teardown : %10.6f s  (parse+clone modules, slab release)\n",
              m.teardownSeconds);
}

/// Wall clock of one 4-thread suite batch with the trace recorder
/// off vs on. The disabled row is the always-on cost of the
/// instrumentation (one relaxed atomic load per site — must stay within
/// noise of the pre-observability baseline); the enabled row adds the
/// per-event recording cost.
struct TracingOverhead {
  double disabledWall = 0;
  double enabledWall = 0;
  double overheadPct = 0;
};

TracingOverhead measureTracingOverhead() {
  // Interleaved paired reps: the suite batch is tens of milliseconds,
  // so a single sample is dominated by scheduling noise, not the
  // tracing branch. Each rep measures both arms back to back and the
  // overhead is the median of the per-rep ratios — pairing cancels
  // machine drift that would bias a min-vs-min comparison.
  constexpr int kReps = 7;
  TracingOverhead t;
  t.disabledWall = std::numeric_limits<double>::infinity();
  t.enabledWall = std::numeric_limits<double>::infinity();
  std::vector<double> ratios;
  for (int i = 0; i < kReps; ++i) {
    double off = measureSuiteSession(4).wallSeconds;
    trace::enable();
    double on = measureSuiteSession(4).wallSeconds;
    trace::disable();
    t.disabledWall = std::min(t.disabledWall, off);
    t.enabledWall = std::min(t.enabledWall, on);
    if (off > 0)
      ratios.push_back(on / off);
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    t.overheadPct = 100.0 * (ratios[ratios.size() / 2] - 1.0);
  }
  return t;
}

void printTracingOverhead(const TracingOverhead &t) {
  std::printf("\n=== Tracing overhead (4-thread suite batch) ===\n\n");
  std::printf("  tracing disabled : %10.4f s\n", t.disabledWall);
  std::printf("  tracing enabled  : %10.4f s  (%+.1f%% median paired)\n",
              t.enabledWall, t.overheadPct);
}

/// Wall clock of one 4-thread suite batch with failpoints disarmed
/// (the default: every site is one relaxed atomic load) vs armed with
/// an inert spec (probability-0 trigger on the hottest site, so the
/// slow-path site lookup runs on every pass but no fault ever fires).
/// The disarmed arm is the always-on cost of the instrumentation and
/// must stay within noise of a build without it.
struct FailpointOverhead {
  double disarmedWall = 0;
  double armedWall = 0;
  double overheadPct = 0;
};

FailpointOverhead measureFailpointOverhead() {
  // Same paired-rep methodology as measureTracingOverhead: median of
  // per-rep ratios cancels machine drift.
  constexpr int kReps = 7;
  FailpointOverhead t;
  t.disarmedWall = std::numeric_limits<double>::infinity();
  t.armedWall = std::numeric_limits<double>::infinity();
  std::vector<double> ratios;
  for (int i = 0; i < kReps; ++i) {
    failpoint::clearAll();
    double off = measureSuiteSession(4).wallSeconds;
    std::string err;
    if (!failpoint::configure("pass.run=error:0,0.0", &err)) {
      std::fprintf(stderr, "bench_compile: failpoint spec rejected: %s\n",
                   err.c_str());
      break;
    }
    double on = measureSuiteSession(4).wallSeconds;
    failpoint::clearAll();
    t.disarmedWall = std::min(t.disarmedWall, off);
    t.armedWall = std::min(t.armedWall, on);
    if (off > 0)
      ratios.push_back(on / off);
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    t.overheadPct = 100.0 * (ratios[ratios.size() / 2] - 1.0);
  }
  return t;
}

void printFailpointOverhead(const FailpointOverhead &t) {
  std::printf("\n=== Failpoint overhead (4-thread suite batch) ===\n\n");
  std::printf("  failpoints disarmed    : %10.4f s\n", t.disarmedWall);
  std::printf("  armed, inert spec      : %10.4f s  (%+.1f%% median paired)\n",
              t.armedWall, t.overheadPct);
}

void writeJson(const std::string &path, const SuiteSessionTable &table,
               const IrMemoryTimes &im, const TracingOverhead &to,
               const FailpointOverhead &fo) {
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_compile: cannot write '%s'\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"compile\",\n");
  std::fprintf(f, "  \"suite\": \"rodinia\",\n");
  std::fprintf(f, "  \"modules\": %zu,\n", rodinia::suite().size());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"serial_one_shot_s\": %.6f,\n", table.serialSeconds);
  std::fprintf(f, "  \"suite_session\": [\n");
  const std::vector<SchedulerRow> &rows = table.rows;
  for (size_t i = 0; i < rows.size(); ++i) {
    const SchedulerRow &r = rows[i];
    const SchedulerMeasurement &m = r.batch;
    std::fprintf(f,
                 "    {\"pm_threads\": %u, \"wall_s\": %.6f, "
                 "\"ratio_to_serial\": %.3f, \"mean_job_s\": %.6f, "
                 "\"median_job_s\": %.6f, \"p95_job_s\": %.6f}%s\n",
                 r.threads, m.wallSeconds, r.ratioToSerial, m.meanJobSeconds,
                 m.medianJobSeconds, m.p95JobSeconds,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"ir_memory\": {\"parse_s\": %.6f, \"clone_s\": %.6f, "
               "\"teardown_s\": %.6f, \"modules\": %zu, \"rounds\": %d},\n",
               im.parseSeconds, im.cloneSeconds, im.teardownSeconds,
               im.modules, im.rounds);
  std::fprintf(f,
               "  \"tracing\": {\"disabled_wall_s\": %.6f, "
               "\"enabled_wall_s\": %.6f, \"enabled_overhead_pct\": %.2f},\n",
               to.disabledWall, to.enabledWall, to.overheadPct);
  std::fprintf(f,
               "  \"failpoints\": {\"disarmed_wall_s\": %.6f, "
               "\"armed_inert_wall_s\": %.6f, "
               "\"armed_overhead_pct\": %.2f},\n",
               fo.disarmedWall, fo.armedWall, fo.overheadPct);
  // Process-wide registry snapshot over everything this run compiled:
  // the trajectory of scheduler/arena activity across PRs.
  const auto &reg = metrics::MetricsRegistry::instance();
  std::fprintf(f,
               "  \"metrics\": {\"scheduler_tasks\": %llu, "
               "\"session_jobs_completed\": %llu, "
               "\"arena_peak_bytes\": %lld}\n",
               static_cast<unsigned long long>(
                   reg.counterValue("scheduler.tasks")),
               static_cast<unsigned long long>(
                   reg.counterValue("session.jobs_completed")),
               static_cast<long long>(reg.gaugePeak("arena.reserved_bytes")));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::string jsonPath = parseJsonPathArg(argc, argv);
  printTable();
  printPassBreakdown();
  SuiteSessionTable sessionTable = printSuiteSessionMode();
  SuiteModules suite = parseSuiteModules();
  IrMemoryTimes irMem = measureIrMemory(suite);
  printIrMemory(irMem);
  TracingOverhead tracing = measureTracingOverhead();
  printTracingOverhead(tracing);
  FailpointOverhead failpoints = measureFailpointOverhead();
  printFailpointOverhead(failpoints);
  if (!jsonPath.empty())
    writeJson(jsonPath, sessionTable, irMem, tracing, failpoints);
  return 0;
}
