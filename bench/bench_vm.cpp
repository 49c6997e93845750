// VM-tier benchmark (ROADMAP "Faster dispatch" tracking file):
// suite-execution wall time of the bytecode interpreter. Every Interp
// runs a VerifiedModule (vm/verifier.h), so the only remaining knob is
// the data-dependent index check:
//
//   checked   - boundsCheck on: per-access idx-vs-size comparisons, the
//               configuration driver::Executor and e2ebench run
//   unchecked - boundsCheck off: the trusted-data fast path
//
// Plus a one-time cost row: verifying the whole suite's bytecode, and the
// unchecked suite total next to the baseline this file recorded for the
// previous interpreter, which made one function call per instruction.
//
// --json=FILE emits BENCH_vm.json with per-benchmark and suite-total
// rows so the trajectory is tracked across PRs.
#include "bench_common.h"

#include "support/metrics.h"
#include "vm/compile.h"
#include "vm/interp.h"
#include "vm/verifier.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace paralift;
using namespace paralift::bench;

namespace {

constexpr int kScale = 8;
constexpr unsigned kThreads = 2;
constexpr int kReps = 7;
constexpr int kConfigs = 2;
/// Unchecked suite total of the one-call-per-instruction interpreter, as
/// this file recorded it before the single dispatch loop (same scale and
/// threads); the dispatch-loop target is >= 1.5x against it. It is a
/// recorded figure, so host drift moves the ratio: for a same-host
/// comparison, run the older commit's bench_vm next to this one.
constexpr double kBaselineUncheckedS = 0.144;

/// The Executor::run argument conversion, against an explicit Interp so
/// each configuration drives the same bytecode.
std::vector<vm::Slot> toSlots(vm::Interp &interp,
                              const std::vector<driver::Executor::Arg> &args) {
  std::vector<vm::Slot> slots;
  slots.reserve(args.size());
  for (const driver::Executor::Arg &a : args) {
    if (auto *i = std::get_if<int64_t>(&a)) {
      vm::Slot s;
      s.i = *i;
      slots.push_back(s);
    } else if (auto *f = std::get_if<double>(&a)) {
      vm::Slot s;
      s.f = *f;
      slots.push_back(s);
    } else {
      const auto &b = std::get<driver::Executor::Buffer>(a);
      slots.push_back(interp.makeMemRef(b.elem, b.data, b.dims));
    }
  }
  return slots;
}

struct BenchRow {
  std::string id;
  double checked = 0;
  double unchecked = 0;
};

struct VerifyCost {
  double wallSeconds = 0;
  uint64_t functions = 0;
  uint64_t errors = 0;
};

/// Times both configurations with their reps interleaved (rotating order
/// each rep) so slow machine drift lands on each configuration equally
/// instead of biasing whichever was timed last.
void timeConfigs(const rodinia::Benchmark &b, vm::Interp *interps[kConfigs],
                 double out[kConfigs]) {
  std::vector<double> times[kConfigs];
  for (int r = 0; r < kReps; ++r) {
    for (int k = 0; k < kConfigs; ++k) {
      int c = (r + k) % kConfigs;
      rodinia::Workload w = b.makeWorkload(kScale);
      vm::Interp &in = *interps[c];
      std::vector<vm::Slot> slots = toSlots(in, w.args());
      double t0 = now();
      in.call("run", std::move(slots));
      times[c].push_back(now() - t0);
    }
  }
  for (int c = 0; c < kConfigs; ++c) {
    std::sort(times[c].begin(), times[c].end());
    out[c] = times[c][times[c].size() / 2];
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0)
      jsonPath = arg.substr(7);
  }

  // Compile the whole suite once (full pipeline, shared batch session,
  // no env cache) and lower each module to bytecode.
  SuiteSession suite = compileSuiteSession(transforms::PipelineOptions{});
  std::vector<std::optional<vm::BCModule>> bytecodes;
  for (driver::CompileJob *job : suite.jobs)
    bytecodes.push_back(job ? std::optional<vm::BCModule>(vm::compileModule(
                                  job->result().module.get()))
                            : std::nullopt);

  // One-time verification cost over the whole suite's bytecode.
  auto &reg = metrics::MetricsRegistry::instance();
  uint64_t fns0 = reg.counterValue("vm.verify.functions");
  uint64_t errs0 = reg.counterValue("vm.verify.errors");
  VerifyCost vc;
  vc.wallSeconds = medianTime(
      [&] {
        for (const auto &bc : bytecodes)
          if (bc) {
            vm::VerifyResult r = vm::verifyModule(*bc);
            if (!r.ok())
              std::fprintf(stderr, "UNEXPECTED verify failure:\n%s",
                           r.str().c_str());
          }
      },
      3);
  vc.functions = reg.counterValue("vm.verify.functions") - fns0;
  vc.errors = reg.counterValue("vm.verify.errors") - errs0;

  std::printf("=== Bytecode verification (one-time, whole suite x3) ===\n\n");
  std::printf("  verify wall      : %10.6f s (%llu function passes, "
              "%llu errors)\n",
              vc.wallSeconds, static_cast<unsigned long long>(vc.functions),
              static_cast<unsigned long long>(vc.errors));

  std::printf("\n=== Suite execution wall (seconds, scale=%d, threads=%u, "
              "median of %d) ===\n\n",
              kScale, kThreads, kReps);
  std::printf("%-28s%14s%14s\n", "benchmark", "checked", "unchecked");

  std::vector<BenchRow> rows;
  double totChecked = 0, totUnchecked = 0;
  size_t idx = 0;
  for (const auto &b : rodinia::suite()) {
    size_t i = idx++;
    if (!bytecodes[i])
      continue;
    std::optional<vm::VerifiedModule> token =
        vm::VerifiedModule::create(*bytecodes[i]);
    if (!token) {
      std::fprintf(stderr, "verify failed for %s; skipping\n", b.id.c_str());
      continue;
    }
    runtime::ThreadPool pool(std::max(kThreads, 8u));
    pool.setNumThreads(kThreads);

    vm::ExecOptions checkedOpts;
    checkedOpts.boundsCheck = true;
    vm::Interp checked(*token, pool, checkedOpts);
    vm::ExecOptions uncheckedOpts;
    uncheckedOpts.boundsCheck = false;
    vm::Interp unchecked(*token, pool, uncheckedOpts);

    BenchRow row;
    row.id = b.id;
    vm::Interp *interps[kConfigs] = {&checked, &unchecked};
    double t[kConfigs];
    timeConfigs(b, interps, t);
    row.checked = t[0];
    row.unchecked = t[1];
    totChecked += row.checked;
    totUnchecked += row.unchecked;
    std::printf("%-28s%14.6f%14.6f\n", b.id.c_str(), row.checked,
                row.unchecked);
    rows.push_back(std::move(row));
  }
  std::printf("%-28s%14.6f%14.6f\n", "TOTAL", totChecked, totUnchecked);
  double checkedOverUnchecked =
      totUnchecked > 0 ? totChecked / totUnchecked : 0.0;
  double speedup = totUnchecked > 0 ? kBaselineUncheckedS / totUnchecked : 0.0;
  std::printf("\n  checked / unchecked : %.3fx\n", checkedOverUnchecked);
  std::printf("  unchecked total %.3f s vs %.3f s for the one-call-per-"
              "instruction baseline: %.2fx (target >= 1.5x)\n",
              totUnchecked, kBaselineUncheckedS, speedup);

  if (!jsonPath.empty()) {
    std::FILE *f = std::fopen(jsonPath.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_vm: cannot write '%s'\n", jsonPath.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"vm\",\n");
    std::fprintf(f, "  \"suite\": \"rodinia\",\n");
    std::fprintf(f, "  \"modules\": %zu,\n", rodinia::suite().size());
    std::fprintf(f, "  \"scale\": %d,\n", kScale);
    std::fprintf(f, "  \"threads\": %u,\n", kThreads);
    std::fprintf(f,
                 "  \"verify\": {\"wall_s\": %.6f, \"functions\": %llu, "
                 "\"errors\": %llu},\n",
                 vc.wallSeconds,
                 static_cast<unsigned long long>(vc.functions),
                 static_cast<unsigned long long>(vc.errors));
    std::fprintf(f, "  \"execution\": [\n");
    for (size_t i = 0; i < rows.size(); ++i)
      std::fprintf(f,
                   "    {\"benchmark\": \"%s\", \"checked_s\": %.6f, "
                   "\"unchecked_s\": %.6f}%s\n",
                   rows[i].id.c_str(), rows[i].checked, rows[i].unchecked,
                   i + 1 < rows.size() ? "," : "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"suite_total\": {\"checked_s\": %.6f, "
                 "\"unchecked_s\": %.6f, \"checked_over_unchecked\": %.3f, "
                 "\"baseline_unchecked_s\": %.3f, "
                 "\"speedup_over_baseline\": %.3f}\n",
                 totChecked, totUnchecked, checkedOverUnchecked,
                 kBaselineUncheckedS, speedup);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", jsonPath.c_str());
  }
  return 0;
}
