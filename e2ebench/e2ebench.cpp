// e2ebench: closed-loop, single-process source-to-result benchmark of
// ParaLift over the Rodinia suite.
//
// One iteration takes every job's CUDA source to verified bytecode (a
// fresh CompilerSession with its own memory cache, compileAll, then
// vm::compileModule + vm::VerifiedModule::create per job), runs each
// job's `run` entry once on fresh inputs, and checks the outputs against
// the lockstep SIMT oracle computed once before timing. Every layer is
// timed from outside, around the calls this file makes into it; program
// counters are read as deltas of the process-wide MetricsRegistry.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out FILE] [--state-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates traced
// and untraced iterations, reports the per-layer metrics of the traced
// ones, prints a per-layer self-time table and the tracing overhead, and
// writes the benchmark's spans as Chrome trace JSON to --trace-out. The
// last stdout line is a JSON object with every metric the mode measures.
// See DESIGN.md next to this file for the workloads and metrics.
#include "driver/compiler.h"
#include "frontend/irgen.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "ir/ophelpers.h"
#include "rodinia/rodinia.h"
#include "runtime/thread_pool.h"
#include "support/metrics.h"
#include "transforms/pass_manager.h"
#include "transforms/passes.h"
#include "vm/compile.h"
#include "vm/interp.h"
#include "vm/verifier.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace paralift;

namespace {

constexpr unsigned kCompileThreads = 2;
constexpr unsigned kTeamThreads = 2;
constexpr int kMinSamples = 11; // a tail needs ten samples beyond it
constexpr double kMaxLoopSeconds = 150;

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double median(std::vector<double> v) {
  if (v.empty())
    return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest sample with at least ten samples beyond it, and its
/// percentile rank; the maximum when there are fewer than eleven.
struct Tail {
  double value = 0;
  double percentile = 100;
};
Tail tail(std::vector<double> v) {
  if (v.empty())
    return {};
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  if (n < 11)
    return {v.back(), 100};
  size_t k = n - 11;
  return {v[k], 100.0 * k / (n - 1)};
}

/// SplitMix64: the benchmark's only randomness (module order).
struct Rng {
  uint64_t state;
  uint64_t next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  void shuffle(std::vector<size_t> &v) {
    for (size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }
};

// --- Workloads ---------------------------------------------------------------

struct Variant {
  std::string name;
  transforms::PipelineOptions opts;
};

struct WorkloadSpec {
  std::string name;
  int scale;
  unsigned team; ///< threads of the execution team
  runtime::NestedPolicy policy;
  std::vector<Variant> variants;
};

transforms::PipelineOptions innerPar() {
  transforms::PipelineOptions o;
  o.innerSerialize = false;
  return o;
}

std::optional<WorkloadSpec> findWorkload(const std::string &name) {
  using runtime::NestedPolicy;
  if (name == "run-innerser")
    return WorkloadSpec{name, 8, kTeamThreads, NestedPolicy::Serialize,
                        {{"innerser", {}}}};
  // Runs by hand only: too unsteady under host load to gate on (see
  // DESIGN.md).
  if (name == "run-innerpar")
    return WorkloadSpec{name, 8, kTeamThreads, NestedPolicy::Spawn,
                        {{"innerpar", innerPar()}}};
  // Scale-1 runs exist for the output check; on a team of one their few
  // milliseconds measure interpretation rather than thread wake-ups.
  if (name == "compile-variants")
    return WorkloadSpec{
        name, 1, 1, NestedPolicy::Serialize,
        {{"full", {}},
         {"optdisabled", transforms::PipelineOptions::optDisabled()},
         {"innerpar", innerPar()},
         {"mcuda", transforms::PipelineOptions::mcuda()}}};
  return std::nullopt;
}

/// One (module, pipeline) pair compiled and run once per iteration.
struct Job {
  const rodinia::Benchmark *bench;
  size_t module; ///< index into rodinia::suite(), shared by variants
  const Variant *variant;
  std::string key; ///< "<module id>/<variant>"
};

// --- Spans -------------------------------------------------------------------

/// In-memory span recorder for the benchmark's own calls into each layer.
/// Every call is made from the main thread, so spans nest as a stack.
class Spans {
public:
  struct Span {
    std::string name;
    std::string layer;
    int parent;
    double start, end;
  };

  bool on = false;

  int begin(std::string name, std::string layer) {
    if (!on)
      return -1;
    spans_.push_back({std::move(name), std::move(layer),
                      open_.empty() ? -1 : open_.back(), now(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    if (id < 0)
      return;
    spans_[id].end = now();
    open_.pop_back();
  }

  const std::vector<Span> &spans() const { return spans_; }

  /// Chrome trace_event JSON ('X' events, one lane).
  bool writeChrome(const std::string &path) const {
    std::ofstream out(path);
    if (!out)
      return false;
    double t0 = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span &s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"parent\": %d}}%s\n",
                    s.name.c_str(), s.layer.c_str(), (s.start - t0) * 1e6,
                    (s.end - s.start) * 1e6, s.parent,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

  /// Per-span-kind self time (duration minus the part its children
  /// cover), grouped by layer and by name up to the first ':'.
  void printSelfTimes() const {
    std::vector<double> childTime(spans_.size(), 0);
    for (const Span &s : spans_)
      if (s.parent >= 0)
        childTime[s.parent] += s.end - s.start;
    struct Row {
      size_t count = 0;
      double total = 0, self = 0;
    };
    std::map<std::pair<std::string, std::string>, Row> rows;
    double all = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span &s = spans_[i];
      Row &r = rows[{s.layer, s.name.substr(0, s.name.find(':'))}];
      double dur = s.end - s.start;
      r.count++;
      r.total += dur;
      r.self += dur - childTime[i];
      all += dur - childTime[i];
    }
    std::printf("%-10s %-22s %8s %12s %12s %7s\n", "layer", "span", "count",
                "total_s", "self_s", "self%");
    for (const auto &[k, r] : rows)
      std::printf("%-10s %-22s %8zu %12.6f %12.6f %6.2f%%\n",
                  k.first.c_str(), k.second.c_str(), r.count, r.total,
                  r.self, all > 0 ? 100 * r.self / all : 0);
  }

private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

struct SpanScope {
  Spans &spans;
  int id;
  SpanScope(Spans &s, std::string name, std::string layer)
      : spans(s), id(s.begin(std::move(name), std::move(layer))) {}
  ~SpanScope() { spans.end(id); }
};

// --- Counters ----------------------------------------------------------------

/// Every counter, gauge and histogram figure of the MetricsRegistry's
/// flat JSON snapshot.
std::map<std::string, double> snapshotMetrics() {
  std::map<std::string, double> out;
  std::istringstream in(metrics::MetricsRegistry::instance().jsonSnapshot());
  std::string line;
  while (std::getline(in, line)) {
    size_t q0 = line.find('"');
    size_t q1 = line.find('"', q0 + 1);
    size_t colon = line.find(':', q1);
    if (q0 == std::string::npos || q1 == std::string::npos ||
        colon == std::string::npos)
      continue;
    out[line.substr(q0 + 1, q1 - q0 - 1)] =
        std::strtod(line.c_str() + colon + 1, nullptr);
  }
  return out;
}

// --- Execution and checking --------------------------------------------------

struct Outputs {
  std::vector<float> f;
  std::vector<int32_t> i;
};

std::vector<vm::Slot> toSlots(vm::Interp &interp,
                              const std::vector<driver::Executor::Arg> &args) {
  std::vector<vm::Slot> slots;
  for (const driver::Executor::Arg &a : args) {
    vm::Slot s;
    if (auto *i = std::get_if<int64_t>(&a))
      s.i = *i;
    else if (auto *f = std::get_if<double>(&a))
      s.f = *f;
    else {
      const auto &b = std::get<driver::Executor::Buffer>(a);
      s = interp.makeMemRef(b.elem, b.data, b.dims);
    }
    slots.push_back(s);
  }
  return slots;
}

/// Why an attempt failed; Ok when it did not.
enum class Outcome {
  Ok,
  CompileFailed,
  VerifyFailed,
  Trap,
  Mismatch,
  Nondeterministic,
  NonFinite
};

const char *outcomeName(Outcome o) {
  switch (o) {
  case Outcome::Ok: return "ok";
  case Outcome::CompileFailed: return "compile failed";
  case Outcome::VerifyFailed: return "bytecode verify failed";
  case Outcome::Trap: return "trap";
  case Outcome::Mismatch: return "output differs from the SIMT oracle";
  case Outcome::Nondeterministic: return "bytecode differs between compiles";
  case Outcome::NonFinite: return "non-finite output values";
  }
  return "?";
}

/// Compares with the oracle at tests/test_rodinia.cpp's tolerance (floats
/// within 2e-3 absolute + 2e-3 relative, ints exact). A non-finite value
/// matches only the same non-finite value in the oracle; any non-finite
/// value makes the attempt fail.
Outcome check(const Outputs &got, const Outputs &want, size_t *nonFinite) {
  *nonFinite = 0;
  if (got.f.size() != want.f.size() || got.i.size() != want.i.size())
    return Outcome::Mismatch;
  bool mismatch = false;
  for (size_t k = 0; k < got.f.size(); ++k) {
    float a = got.f[k], b = want.f[k];
    if (!std::isfinite(a)) {
      ++*nonFinite;
      if (!(std::isnan(a) && std::isnan(b)) && a != b)
        mismatch = true;
    } else if (!std::isfinite(b) ||
               std::fabs(a - b) > 2e-3 + 2e-3 * std::fabs(b)) {
      mismatch = true;
    }
  }
  if (got.i != want.i)
    mismatch = true;
  if (mismatch)
    return Outcome::Mismatch;
  return *nonFinite ? Outcome::NonFinite : Outcome::Ok;
}

Outputs runOracle(const rodinia::Benchmark &b, int scale) {
  DiagnosticEngine diag;
  driver::CompileResult cc = driver::compileForSimt(b.cudaSource, diag);
  if (!cc.ok)
    fatalError("SIMT oracle failed to compile " + b.id + ":\n" + diag.str());
  rodinia::Workload w = b.makeWorkload(scale);
  driver::Executor exec(cc.module.get(), 1);
  exec.run("run", w.args());
  return {w.floatState(), w.intState()};
}

/// Structural hash of a BCModule (FNV-1a over every field that affects
/// execution), for the determinism check.
struct Hasher {
  uint64_t h = 1469598103934665603ull;
  void bytes(const void *p, size_t n) {
    auto *c = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i)
      h = (h ^ c[i]) * 1099511628211ull;
  }
  template <typename T> void pod(const T &v) { bytes(&v, sizeof v); }
  template <typename T> void vec(const std::vector<T> &v) {
    pod(v.size());
    for (const T &x : v)
      pod(x);
  }
};

uint64_t hashModule(const vm::BCModule &m) {
  Hasher h;
  for (const vm::BCFunction &f : m.fns) {
    h.bytes(f.name.data(), f.name.size());
    h.pod(f.numRegs);
    h.pod(f.numArgs);
    h.pod(f.numResults);
    for (const vm::Instr &in : f.instrs) {
      h.pod(in.op);
      h.pod(in.t);
      h.pod(in.a);
      h.pod(in.b);
      h.pod(in.c);
      h.pod(in.d);
      h.pod(in.imm);
      h.pod(in.fimm);
    }
    h.vec(f.extras);
    for (const vm::ShapeInfo &s : f.shapes) {
      h.pod(s.elem);
      h.vec(s.dims);
    }
    for (const vm::Closure &c : f.closures) {
      h.pod(c.fnIndex);
      h.vec(c.captureRegs);
      h.pod(c.numIvs);
      h.vec(c.lbs);
      h.vec(c.ubs);
      h.vec(c.steps);
      h.pod(c.gpuBlock);
      h.pod(c.gpuGrid);
    }
  }
  return h.h;
}

uint64_t countInstrs(const vm::BCModule &m) {
  uint64_t n = 0;
  for (const vm::BCFunction &f : m.fns)
    n += f.instrs.size();
  return n;
}

uint64_t countOps(ir::ModuleOp m) {
  uint64_t n = 0;
  m.op->walk([&](ir::Op *) { ++n; });
  return n;
}

/// "unroll{max-trip=8}" -> "unroll": the pass name of a timing record.
std::string passName(const std::string &spec) {
  size_t end = spec.find_first_of("{(");
  return spec.substr(0, end);
}

// --- Determinism record -------------------------------------------------------

struct Fingerprint {
  uint64_t instrs = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint &) const = default;
};

/// Fingerprints of an earlier run of this workload in the same build
/// directory, so "across two runs" is checked without storing anything
/// outside it.
std::map<std::string, Fingerprint> loadFingerprints(const std::string &path) {
  std::map<std::string, Fingerprint> out;
  std::ifstream in(path);
  std::string key;
  Fingerprint fp;
  while (in >> key >> fp.instrs >> fp.hash)
    out[key] = fp;
  return out;
}

void saveFingerprints(const std::string &path,
                      const std::map<std::string, Fingerprint> &fps) {
  std::ofstream out(path);
  for (const auto &[k, fp] : fps)
    out << k << ' ' << fp.instrs << ' ' << fp.hash << '\n';
}

// --- Runtime probes -----------------------------------------------------------

/// Median over batches of the per-operation time of `op` (microseconds).
template <typename Fn> double probeMicros(int batches, int perBatch, Fn op) {
  std::vector<double> per;
  for (int b = 0; b < batches; ++b) {
    double t0 = now();
    for (int i = 0; i < perBatch; ++i)
      op();
    per.push_back((now() - t0) * 1e6 / perBatch);
  }
  return median(per);
}

struct RuntimeProbe {
  double forkJoinUs = 0, nestedSpawnUs = 0, nestedSerialUs = 0,
         barrierUs = 0;
};

/// Empty-region fork/join, nested-region and Team::barrier latency of
/// ThreadPool::parallel at team kTeamThreads, under both nested policies.
RuntimeProbe probeRuntime() {
  RuntimeProbe r;
  runtime::ThreadPool pool(kTeamThreads);
  runtime::TeamFn empty = [](unsigned, runtime::Team &) {};
  r.forkJoinUs = probeMicros(31, 200, [&] { pool.parallel(empty); });

  auto nested = [&](runtime::NestedPolicy p) {
    pool.setNestedPolicy(p);
    std::vector<double> per;
    for (int b = 0; b < 31; ++b)
      pool.parallel([&](unsigned tid, runtime::Team &) {
        if (tid != 0)
          return;
        double t0 = now();
        for (int i = 0; i < 50; ++i)
          pool.parallel(empty);
        per.push_back((now() - t0) * 1e6 / 50);
      });
    return median(per);
  };
  r.nestedSpawnUs = nested(runtime::NestedPolicy::Spawn);
  r.nestedSerialUs = nested(runtime::NestedPolicy::Serialize);

  std::vector<double> per;
  for (int b = 0; b < 31; ++b)
    pool.parallel([&](unsigned tid, runtime::Team &team) {
      double t0 = now();
      for (int i = 0; i < 500; ++i)
        team.barrier();
      if (tid == 0)
        per.push_back((now() - t0) * 1e6 / 500);
    });
  r.barrierUs = median(per);
  return r;
}

// --- The benchmark -------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string traceOut;
  std::string stateDir;
};

struct Metric {
  double value;
  std::string unit;
};

class Bench {
public:
  Bench(const Options &o, WorkloadSpec spec)
      : opt_(o), spec_(std::move(spec)), rng_{o.seed} {
    const auto &suite = rodinia::suite();
    for (size_t m = 0; m < suite.size(); ++m)
      for (const Variant &v : spec_.variants)
        jobs_.push_back({&suite[m], m, &v, suite[m].id + "/" + v.name});
    outcomes_.assign(jobs_.size(), {});
    moduleExec_.assign(suite.size(), {});
  }

  int run();

private:
  using Inputs = std::vector<rodinia::Workload>;

  Inputs makeInputs() const {
    Inputs in;
    for (const Job &j : jobs_)
      in.push_back(j.bench->makeWorkload(spec_.scale));
    return in;
  }

  /// One set-up round: a team pool and fresh inputs for every job. The
  /// first round's pool runs every iteration; later rounds (one after
  /// each iteration, supplying the next one's inputs) discard theirs
  /// outside the timed region, so set-up is sampled across the whole run.
  void setupRound() {
    SpanScope s(spans_, "setup", "bench");
    inputs_.clear();
    double t0 = now();
    auto pool = std::make_unique<runtime::ThreadPool>(spec_.team);
    pool->setNestedPolicy(spec_.policy);
    inputs_ = makeInputs();
    setupTimes_.push_back(now() - t0);
    if (!pool_)
      pool_ = std::move(pool);
  }

  void iterate(bool traced);
  void measureLayers(const std::vector<size_t> &order,
                     std::map<std::string, double> &sample);
  void record(size_t job, Outcome o) {
    ++attempted_;
    auto &slot = outcomes_[job];
    slot[o]++;
    if (o != Outcome::Ok)
      ++failed_;
    if (o != Outcome::Ok && o != Outcome::NonFinite)
      correct_ = false;
  }

  void report(const std::map<std::string, Metric> &metrics) const;
  std::map<std::string, Metric> endToEnd() const;
  std::map<std::string, Metric> perLayer() const;
  void printOverhead() const;

  Options opt_;
  WorkloadSpec spec_;
  Rng rng_;
  std::vector<Job> jobs_;
  std::vector<Outputs> oracle_; ///< per suite module
  std::unique_ptr<runtime::ThreadPool> pool_;
  Inputs inputs_;
  Spans spans_;

  std::vector<double> setupTimes_;
  // Per iteration, split by whether the iteration was traced.
  std::vector<double> compileTimes_[2], execTimes_[2];
  std::vector<std::vector<double>> moduleExec_; ///< per module, traced runs
  std::vector<std::map<std::string, double>> layerSamples_;
  std::vector<std::map<Outcome, uint64_t>> outcomes_;
  std::map<std::string, Fingerprint> fingerprints_;
  std::map<std::string, Fingerprint> previousRun_;
  uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
  size_t nonFiniteVals_ = 0, checkedVals_ = 0;
  RuntimeProbe probe_;
};

void Bench::iterate(bool traced) {
  spans_.on = traced;
  SpanScope iterSpan(spans_, "iteration", "bench");
  std::vector<size_t> order(jobs_.size());
  for (size_t i = 0; i < order.size(); ++i)
    order[i] = i;
  rng_.shuffle(order);

  std::map<std::string, double> sample;

  // Source text -> verified bytecode for every job.
  std::vector<std::optional<vm::BCModule>> bc(jobs_.size());
  std::vector<std::optional<vm::VerifiedModule>> verified(jobs_.size());
  std::vector<Outcome> compileOutcome(jobs_.size(), Outcome::Ok);
  double t0 = now();
  {
    SpanScope cs(spans_, "compile", "bench");
    driver::SessionOptions so;
    so.threads = kCompileThreads;
    so.memoryCache = true;
    so.useEnvCache = false;
    so.collectTiming = traced;
    so.collectStatistics = traced;
    driver::CompilerSession session(std::move(so));
    std::vector<driver::CompileJob *> cjobs(jobs_.size());
    for (size_t j : order)
      cjobs[j] = &session.addSource(jobs_[j].key, jobs_[j].bench->cudaSource,
                                    jobs_[j].variant->opts);
    std::map<std::string, double> before;
    if (traced)
      before = snapshotMetrics();
    double a0 = now();
    {
      SpanScope s(spans_, "driver.compileAll", "driver");
      session.compileAll();
    }
    double compileAll = now() - a0;
    std::map<std::string, double> after;
    if (traced)
      after = snapshotMetrics();

    double vmCompile = 0, vmVerify = 0;
    uint64_t instrs = 0, opsOut = 0;
    double arenaBytes = 0;
    std::vector<double> latencies;
    for (size_t j : order) {
      driver::CompileJob &cj = *cjobs[j];
      if (!cj.ok()) {
        compileOutcome[j] = Outcome::CompileFailed;
        continue;
      }
      ir::ModuleOp mod = cj.result().module.get();
      if (traced) {
        latencies.push_back(cj.latencySeconds());
        opsOut += countOps(mod);
        arenaBytes += cj.result().module.arena().stats().bytesReserved;
      }
      double v0 = now();
      {
        SpanScope s(spans_, "vm.compile:" + jobs_[j].key, "vm");
        bc[j] = vm::compileModule(mod);
      }
      double v1 = now();
      {
        SpanScope s(spans_, "vm.verify:" + jobs_[j].key, "vm");
        verified[j] = vm::VerifiedModule::create(*bc[j]);
      }
      vmCompile += v1 - v0;
      vmVerify += now() - v1;
      if (!verified[j]) {
        compileOutcome[j] = Outcome::VerifyFailed;
        continue;
      }
      Fingerprint fp{countInstrs(*bc[j]), hashModule(*bc[j])};
      instrs += fp.instrs;
      auto [it, fresh] = fingerprints_.emplace(jobs_[j].key, fp);
      auto prev = previousRun_.find(jobs_[j].key);
      if ((!fresh && !(it->second == fp)) ||
          (prev != previousRun_.end() && !(prev->second == fp)))
        compileOutcome[j] = Outcome::Nondeterministic;
    }

    if (traced) {
      sample["driver.compile_all_s"] = compileAll;
      sample["driver.job_latency_s.p50"] = median(latencies);
      sample["vm.compile_s"] = vmCompile;
      sample["vm.verify_s"] = vmVerify;
      sample["vm.bytecode_instrs"] = static_cast<double>(instrs);
      sample["transforms.ir_ops_out"] = static_cast<double>(opsOut);
      sample["ir.arena_peak_bytes"] = arenaBytes;
      for (const auto &[name, v] : after) {
        double d = v - before[name];
        if (name.rfind("pass.", 0) == 0)
          sample["transforms.applied." + name.substr(5)] = d;
        else if (name == "scheduler.tasks" || name == "scheduler.steals" ||
                 name == "scheduler.idle_wakeups" || name == "cache.hits" ||
                 name == "cache.misses")
          sample[name] = d;
      }
      double lookups = sample["cache.hits"] + sample["cache.misses"];
      sample["cache.hit_ratio"] =
          lookups > 0 ? sample["cache.hits"] / lookups : 0;
      for (const auto &r : session.timingReport().records)
        sample["transforms.pass_s." + passName(r.spec)] += r.seconds;
    }
  }
  compileTimes_[traced].push_back(now() - t0);

  // Run every job once on fresh inputs; only the `run` calls are timed.
  double execTotal = 0;
  std::vector<double> perModule(moduleExec_.size(), 0);
  {
    SpanScope es(spans_, "exec", "bench");
    for (size_t j : order) {
      if (compileOutcome[j] != Outcome::Ok &&
          compileOutcome[j] != Outcome::Nondeterministic) {
        record(j, compileOutcome[j]);
        continue;
      }
      vm::Interp interp(*verified[j], *pool_);
      std::vector<vm::Slot> slots = toSlots(interp, inputs_[j].args());
      double e0 = now();
      vm::CallResult r;
      {
        SpanScope s(spans_, "vm.exec:" + jobs_[j].key, "vm");
        r = interp.tryCall("run", std::move(slots));
      }
      double dt = now() - e0;
      execTotal += dt;
      perModule[jobs_[j].module] += dt;

      SpanScope s(spans_, "check", "bench");
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", jobs_[j].key.c_str(),
                     r.error.c_str());
        record(j, Outcome::Trap);
        continue;
      }
      size_t nonFinite = 0;
      Outputs got{inputs_[j].floatState(), inputs_[j].intState()};
      Outcome o = check(got, oracle_[jobs_[j].module], &nonFinite);
      nonFiniteVals_ += nonFinite;
      checkedVals_ += got.f.size();
      if (compileOutcome[j] == Outcome::Nondeterministic &&
          o != Outcome::Mismatch)
        o = Outcome::Nondeterministic;
      record(j, o);
    }
  }
  execTimes_[traced].push_back(execTotal);

  if (traced) {
    for (size_t m = 0; m < perModule.size(); ++m)
      moduleExec_[m].push_back(perModule[m]);
    SpanScope s(spans_, "measure", "bench");
    measureLayers(order, sample);
    layerSamples_.push_back(std::move(sample));
  }
}

/// Frontend stages and the serial pipeline, timed call by call outside
/// the compile timer (the session runs them internally, unobservably).
void Bench::measureLayers(const std::vector<size_t> &order,
                          std::map<std::string, double> &sample) {
  double lex = 0, parse = 0, irgen = 0, pipeline = 0;
  uint64_t tokens = 0, ops = 0;
  for (size_t j : order) {
    const char *src = jobs_[j].bench->cudaSource;
    DiagnosticEngine diag;
    double t0 = now();
    {
      SpanScope s(spans_, "frontend.lex:" + jobs_[j].key, "frontend");
      tokens += frontend::tokenize(src, diag).size();
    }
    double t1 = now();
    {
      SpanScope s(spans_, "frontend.parse:" + jobs_[j].key, "frontend");
      frontend::parse(src, diag);
    }
    double t2 = now();
    ir::OwnedModule mod;
    {
      SpanScope s(spans_, "frontend.compileToIR:" + jobs_[j].key,
                  "frontend");
      mod = frontend::compileToIR(src, diag);
    }
    double t3 = now();
    lex += t1 - t0;
    parse += (t2 - t1) - (t1 - t0);
    irgen += (t3 - t2) - (t2 - t1);
    ops += countOps(mod.get());

    ir::OwnedModule clone = ir::cloneModule(mod.get());
    double p0 = now();
    {
      SpanScope s(spans_, "transforms.pipeline:" + jobs_[j].key,
                  "transforms");
      transforms::runPipeline(clone.get(), jobs_[j].variant->opts, diag);
    }
    pipeline += now() - p0;
  }
  sample["frontend.lex_s"] = lex;
  sample["frontend.parse_s"] = parse;
  sample["frontend.irgen_s"] = irgen;
  sample["frontend.tokens"] = static_cast<double>(tokens);
  sample["frontend.ir_ops"] = static_cast<double>(ops);
  sample["transforms.pipeline_s"] = pipeline;
}

int Bench::run() {
  const auto &suite = rodinia::suite();
  std::string fpPath;
  if (!opt_.stateDir.empty()) {
    fpPath = opt_.stateDir + "/fingerprints-" + spec_.name + ".txt";
    previousRun_ = loadFingerprints(fpPath);
  }

  // The oracle runs before set-up and is excluded from every metric.
  double o0 = now();
  for (const auto &b : suite)
    oracle_.push_back(runOracle(b, spec_.scale));
  std::printf("oracle: %zu modules at scale %d in %.3f s (untimed)\n",
              suite.size(), spec_.scale, now() - o0);

  setupRound();

  if (opt_.trace)
    probe_ = probeRuntime();

  double start = now();
  size_t iters = 0;
  // Twice the minimum, so each half of a traced run has a tail too.
  while (iters < 2 * kMinSamples || now() - start < opt_.seconds) {
    if (now() - start > kMaxLoopSeconds)
      break;
    iterate(opt_.trace && iters % 2 == 0);
    setupRound();
    ++iters;
  }
  std::printf("workload %s: %zu iterations of %zu jobs in %.2f s "
              "(seed %llu, scale %d)\n",
              spec_.name.c_str(), iters, jobs_.size(), now() - start,
              static_cast<unsigned long long>(opt_.seed), spec_.scale);

  if (!fpPath.empty() && previousRun_.empty())
    saveFingerprints(fpPath, fingerprints_);

  // Failures by job and cause.
  for (size_t j = 0; j < jobs_.size(); ++j)
    for (const auto &[o, n] : outcomes_[j])
      if (o != Outcome::Ok)
        std::printf("FAIL %-32s %-40s %llu attempts\n", jobs_[j].key.c_str(),
                    outcomeName(o), static_cast<unsigned long long>(n));
  std::printf("non-finite output values: %zu of %zu checked\n",
              nonFiniteVals_, checkedVals_);

  std::map<std::string, Metric> metrics;
  if (opt_.trace) {
    metrics = perLayer();
    spans_.printSelfTimes();
    printOverhead();
    if (!opt_.traceOut.empty()) {
      if (spans_.writeChrome(opt_.traceOut))
        std::printf("trace: %zu spans written to %s\n",
                    spans_.spans().size(), opt_.traceOut.c_str());
      else
        std::fprintf(stderr, "cannot write %s\n", opt_.traceOut.c_str());
    }
  } else {
    metrics = endToEnd();
  }
  report(metrics);
  return 0;
}

std::map<std::string, Metric> Bench::endToEnd() const {
  std::map<std::string, Metric> m;
  const auto &comp = compileTimes_[0];
  const auto &exec = execTimes_[0];
  Tail ct = tail(comp), et = tail(exec);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m["setup_s"] = {median(setupTimes_), "s"};
  m["compile_s.p50"] = {median(comp), "s"};
  m["compile_s.tail"] = {ct.value, "s"};
  m["exec_s.p50"] = {median(exec), "s"};
  m["exec_s.tail"] = {et.value, "s"};
  m["peak_rss_mb"] = {ru.ru_maxrss / 1024.0, "MB"};
  m["ok_frac"] = {attempted_ ? double(attempted_ - failed_) / attempted_ : 0,
                  "fraction"};
  std::printf("compile_s.tail is p%.1f of %zu samples; exec_s.tail is p%.1f "
              "of %zu samples\n",
              ct.percentile, comp.size(), et.percentile, exec.size());
  std::printf("fail_frac: %llu failed of %llu attempts = %.4f\n",
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_),
              attempted_ ? double(failed_) / attempted_ : 0.0);
  return m;
}

std::map<std::string, Metric> Bench::perLayer() const {
  std::map<std::string, std::vector<double>> series;
  for (const auto &s : layerSamples_)
    for (const auto &[k, v] : s)
      series[k].push_back(v);
  std::map<std::string, Metric> m;
  for (const auto &[k, v] : series) {
    std::string unit = "count";
    if ((k.size() > 2 && k.compare(k.size() - 2, 2, "_s") == 0) ||
        k.find("_s.") != std::string::npos)
      unit = "s";
    else if (k == "ir.arena_peak_bytes")
      unit = "bytes";
    else if (k == "cache.hit_ratio")
      unit = "ratio";
    // Counts must repeat exactly across traced iterations.
    if (unit == "count" && k.rfind("scheduler.", 0) != 0 &&
        *std::min_element(v.begin(), v.end()) !=
            *std::max_element(v.begin(), v.end()))
      std::printf("WARNING: count %s varies across iterations\n", k.c_str());
    m[k] = {median(v), unit};
  }
  const auto &suite = rodinia::suite();
  for (size_t i = 0; i < suite.size(); ++i)
    m["vm.exec_s." + suite[i].id] = {median(moduleExec_[i]), "s"};
  m["runtime.fork_join_us"] = {probe_.forkJoinUs, "us"};
  m["runtime.nested_spawn_us"] = {probe_.nestedSpawnUs, "us"};
  m["runtime.barrier_us"] = {probe_.barrierUs, "us"};
  std::printf("runtime probes (team %u): fork/join %.2f us, nested region "
              "%.2f us under Spawn and %.2f us under Serialize, barrier "
              "%.3f us\n",
              kTeamThreads, probe_.forkJoinUs, probe_.nestedSpawnUs,
              probe_.nestedSerialUs, probe_.barrierUs);
  return m;
}

/// Traced minus untraced medians, next to the A/A spread between the two
/// halves of the untraced iterations.
void Bench::printOverhead() const {
  auto row = [](const char *name, const std::vector<double> &tr,
                const std::vector<double> &un) {
    std::vector<double> a, b;
    for (size_t i = 0; i < un.size(); ++i)
      (i % 2 ? b : a).push_back(un[i]);
    double base = median(un);
    double over = median(tr) - base;
    double aa = std::fabs(median(a) - median(b));
    std::printf("tracing overhead %-9s %+9.6f s (%+6.2f%% of %.6f s); "
                "A/A spread %.6f s (%.2f%%); %zu traced, %zu untraced\n",
                name, over, base > 0 ? 100 * over / base : 0, base, aa,
                base > 0 ? 100 * aa / base : 0, tr.size(), un.size());
  };
  row("compile_s", compileTimes_[1], compileTimes_[0]);
  row("exec_s", execTimes_[1], execTimes_[0]);
}

void Bench::report(const std::map<std::string, Metric> &metrics) const {
  for (const auto &[k, m] : metrics)
    std::printf("  %-48s %16.9g %s\n", k.c_str(), m.value, m.unit.c_str());
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto &[k, m] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": "
                  "\"%s\"}", first ? "" : ", ", k.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool parseArgs(int argc, char **argv, Options &o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload")
      o.workload = v;
    else if (k == "--seed")
      o.seed = std::stoull(v);
    else if (k == "--seconds")
      o.seconds = std::stod(v);
    else if (k == "--trace")
      o.trace = v != "0";
    else if (k == "--trace-out")
      o.traceOut = v;
    else if (k == "--state-dir")
      o.stateDir = v;
    else
      return false;
  }
  return argc % 2 == 1 && !o.workload.empty();
}

} // namespace

int main(int argc, char **argv) {
  Options o;
  if (!parseArgs(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--state-dir DIR]\n");
    return 2;
  }
  std::optional<WorkloadSpec> spec = findWorkload(o.workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return Bench(o, std::move(*spec)).run();
}
