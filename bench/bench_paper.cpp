// Reproduces the paper's evaluation (arXiv:2207.00257, Figs. 12-15), in
// paper order:
//   Fig. 12        matrix multiplication transpiled by MCUDA-mode vs
//                  PolygeistInnerPar vs PolygeistInnerSer, against thread
//                  count (left) and matrix size (right). Paper: InnerPar
//                  ~= MCUDA (within ~1.3%), InnerSer faster (~15%).
//   Fig. 13 left   per-benchmark speedup over the unoptimized ("Opt
//                  Disabled") transpilation as the optimization axes are
//                  enabled cumulatively; barrier benchmarks marked '*'.
//   Fig. 13 right  transpiled CUDA over the hand-written OpenMP reference,
//                  with and without inner serialization. Paper: 1.76x and
//                  1.437x geomean.
//   Fig. 14        thread scaling T1/Tn of transpiled CUDA vs the OpenMP
//                  references. Paper: transpiled CUDA, written for
//                  thousands of GPU threads, scales better.
//   Fig. 15        residual-network training throughput of the MocCUDA
//                  backends vs the native and oneDNN-style baselines.
//                  Paper: MocCUDA beats Fujitsu-tuned oneDNN by a geomean
//                  of 2.7x on Fugaku.
//
// Every (benchmark, pipeline) pair Figs. 12-14 time is compiled once, up
// front, in one CompilerSession batch; the figures then time only the
// precompiled modules. Thread sweeps stop at the host's hardware thread
// count: a wider team measures oversubscription, not scaling. Takes no
// arguments (any argument prints a usage line and exits 2); exits 1 if a
// compile fails or a Fig. 12 product is wrong.
#include "bench_common.h"

#include "moccuda/resnet.h"

#include <random>

using namespace paralift;
using namespace paralift::bench;

namespace {

unsigned hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// `sweep` without its entries above the host's hardware threads. Every
/// sweep starts at 1, so at least that entry stays.
std::vector<unsigned> capToHardware(std::vector<unsigned> sweep) {
  std::erase_if(sweep, [](unsigned t) { return t > hardwareThreads(); });
  return sweep;
}

transforms::PipelineOptions innerParOptions() {
  transforms::PipelineOptions o;
  o.innerSerialize = false;
  return o;
}

// --- Fig. 12 inputs ---------------------------------------------------------

// Shared-memory tiled matmul: the nested grid/block structure with
// barriers that distinguishes the three pipelines.
const char *kMatmulSrc = R"(
#define TILE 8
__global__ void matmul(float* C, float* A, float* B, int n) {
  __shared__ float As[TILE][TILE];
  __shared__ float Bs[TILE][TILE];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int row = blockIdx.y * TILE + ty;
  int col = blockIdx.x * TILE + tx;
  float acc = 0.0f;
  for (int t = 0; t < n / TILE; t++) {
    As[ty][tx] = A[row * n + t * TILE + tx];
    Bs[ty][tx] = B[(t * TILE + ty) * n + col];
    __syncthreads();
    for (int k = 0; k < TILE; k++) {
      acc += As[ty][k] * Bs[k][tx];
    }
    __syncthreads();
  }
  C[row * n + col] = acc;
}
void run(float* C, float* A, float* B, int n) {
  int g = n / TILE;
  matmul<<<dim3(g, g), dim3(TILE, TILE)>>>(C, A, B, n);
}
)";

struct Variant {
  const char *name;
  transforms::PipelineOptions opts;
  runtime::NestedPolicy nested;
};

std::vector<Variant> matmulVariants() {
  return {
      {"MCUDA", transforms::PipelineOptions::mcuda(),
       runtime::NestedPolicy::Serialize},
      {"PolygeistInnerPar", innerParOptions(), runtime::NestedPolicy::Spawn},
      {"PolygeistInnerSer", {}, runtime::NestedPolicy::Serialize},
  };
}

// --- Fig. 13 left stages ----------------------------------------------------

struct Stage {
  const char *name;
  transforms::PipelineOptions opts;
};

/// The cumulative ablation stages. The last, +innerser, is the default
/// pipeline: the PolygeistInnerSer of Figs. 12-14.
std::vector<Stage> ablationStages() {
  using transforms::PipelineOptions;
  std::vector<Stage> out;
  PipelineOptions disabled = PipelineOptions::optDisabled();
  out.push_back({"OptDisabled", disabled});
  PipelineOptions mincut = disabled;
  mincut.minCut = true;
  out.push_back({"+mincut", mincut});
  // Barrier motion is our extra axis (the paper folds motion into the
  // §IV-A discussion); it further shrinks the fission caches min-cut
  // sizes.
  PipelineOptions motion = mincut;
  motion.barrierMotion = true;
  out.push_back({"+motion", motion});
  PipelineOptions openmp = motion;
  openmp.openmpOpt = true;
  out.push_back({"+openmpopt", openmp});
  PipelineOptions affine = openmp;
  affine.affineOpts = true;
  out.push_back({"+affine", affine});
  PipelineOptions innerser = affine;
  innerser.innerSerialize = true;
  out.push_back({"+innerser", innerser});
  return out;
}

// --- The one compile --------------------------------------------------------

/// Every module Figs. 12-14 time. Per-benchmark vectors are parallel to
/// rodinia::suite(); an entry is null where the compile failed (reported
/// to stderr) or, in `openmp`, where the benchmark has no reference.
struct PaperModules {
  std::vector<driver::CompileJob *> matmul;             ///< per Variant
  std::vector<std::vector<driver::CompileJob *>> stage; ///< [stage][bench]
  std::vector<driver::CompileJob *> innerPar;
  /// OpenMP references, through the default pipeline.
  std::vector<driver::CompileJob *> openmp;
  bool allCompiled = true;

  const std::vector<driver::CompileJob *> &innerSer() const {
    return stage.back();
  }
};

PaperModules compilePaperModules(driver::CompilerSession &session) {
  PaperModules m;
  for (const Variant &v : matmulVariants())
    m.matmul.push_back(&session.addSource(std::string("matmul-") + v.name,
                                          kMatmulSrc, v.opts));
  for (const Stage &s : ablationStages()) {
    m.stage.emplace_back();
    for (const auto &b : rodinia::suite())
      m.stage.back().push_back(
          &session.addSource(b.id + "-" + s.name, b.cudaSource, s.opts));
  }
  for (const auto &b : rodinia::suite()) {
    m.innerPar.push_back(&session.addSource(b.id + "-innerpar", b.cudaSource,
                                            innerParOptions()));
    m.openmp.push_back(b.openmpSource
                           ? &session.addSource(b.id + "-openmp",
                                                b.openmpSource, {})
                           : nullptr);
  }
  session.compileAll();

  auto drop = [&](std::vector<driver::CompileJob *> &jobs) {
    for (driver::CompileJob *&job : jobs)
      if (job && !job->ok()) {
        std::fprintf(stderr, "compile failed for %s:\n%s\n",
                     job->name().c_str(), job->diagnostics().str().c_str());
        job = nullptr;
        m.allCompiled = false;
      }
  };
  drop(m.matmul);
  for (auto &jobs : m.stage)
    drop(jobs);
  drop(m.innerPar);
  drop(m.openmp);
  return m;
}

/// Median workload time of a precompiled module; -1 without one.
double timeJob(const rodinia::Benchmark &b, driver::CompileJob *job,
               bool innerSerialize, int scale, unsigned threads) {
  return job ? timeCompiled(b, job->result().module.get(), innerSerialize,
                            scale, threads)
             : -1;
}

// --- Fig. 12 ----------------------------------------------------------------

/// Median seconds of an n x n product, timed after one untimed run whose
/// product is checked: with A = 1 and B = 0.5 every element of C is
/// exactly 0.5 n. Returns -1 when the product is wrong.
double timeMatmul(ir::ModuleOp module, const Variant &v, int n,
                  unsigned threads) {
  driver::Executor exec(module, 8, /*boundsCheck=*/false);
  exec.setNumThreads(threads);
  exec.setNestedPolicy(v.nested);
  std::vector<float> A(static_cast<size_t>(n) * n, 1.0f),
      B(static_cast<size_t>(n) * n, 0.5f), C(static_cast<size_t>(n) * n);
  auto run = [&] {
    exec.run("run", {driver::Executor::bufferF32(C.data(), {n * n}),
                     driver::Executor::bufferF32(A.data(), {n * n}),
                     driver::Executor::bufferF32(B.data(), {n * n}),
                     int64_t(n)});
  };
  run();
  if (!std::all_of(C.begin(), C.end(),
                   [&](float c) { return c == 0.5f * n; }))
    return -1;
  return medianTime(run);
}

/// Returns false when a variant computed a wrong product (or failed to
/// compile); its cells read FAILED and it is left out of the summary.
bool printFig12(const PaperModules &m) {
  std::vector<Variant> vs = matmulVariants();
  std::vector<char> correct(vs.size(), 1);
  auto cell = [&](size_t vi, int n, unsigned threads) {
    double s = m.matmul[vi] ? timeMatmul(m.matmul[vi]->result().module.get(),
                                         vs[vi], n, threads)
                            : -1;
    if (s < 0) {
      correct[vi] = 0;
      std::printf("%10s", "FAILED");
    } else {
      std::printf("%10.4f", s);
    }
    return s;
  };

  std::printf("\n=== Fig. 12: matmul, MCUDA vs PolygeistInnerPar vs "
              "PolygeistInnerSer ===\n");
  std::printf("(interpreter-scale runtimes; thread sweep capped at the "
              "host's %u hardware threads)\n\n",
              hardwareThreads());
  const std::vector<unsigned> threadCounts = capToHardware({1, 2, 4, 8});
  const int fixedSize = 64;
  std::printf("Left panel: runtime (s) vs threads at n=%d\n", fixedSize);
  std::printf("%-20s", "threads");
  for (unsigned t : threadCounts)
    std::printf("%10u", t);
  std::printf("\n");
  std::vector<std::vector<double>> byVariant;
  for (size_t vi = 0; vi < vs.size(); ++vi) {
    std::printf("%-20s", vs[vi].name);
    std::vector<double> row;
    for (unsigned t : threadCounts)
      row.push_back(cell(vi, fixedSize, t));
    byVariant.push_back(row);
    std::printf("\n");
  }
  std::printf("\nRight panel: runtime (s) vs matrix size at 2 threads\n");
  const std::vector<int> sizes = {32, 64, 96, 128};
  std::printf("%-20s", "size");
  for (int n : sizes)
    std::printf("%10d", n);
  std::printf("\n");
  for (size_t vi = 0; vi < vs.size(); ++vi) {
    std::printf("%-20s", vs[vi].name);
    for (int n : sizes)
      cell(vi, n, 2);
    std::printf("\n");
  }
  // Summary lines mirroring §VI-A, over the left panel's columns.
  std::printf("\nSummary (paper: InnerPar within ~1.3%% of MCUDA; InnerSer "
              "~14.9%% faster):\n");
  for (size_t vi = 1; vi < vs.size(); ++vi) {
    if (!correct[0] || !correct[vi])
      continue;
    std::vector<double> speedups;
    for (size_t t = 0; t < threadCounts.size(); ++t)
      speedups.push_back(byVariant[0][t] / byVariant[vi][t]);
    std::printf("  %s speedup over MCUDA (geomean): %.3fx\n", vs[vi].name,
                geomean(speedups));
  }
  return std::all_of(correct.begin(), correct.end(),
                     [](char c) { return c != 0; });
}

// --- Fig. 13 ----------------------------------------------------------------

void printFig13Left(const PaperModules &m) {
  std::vector<Stage> stages = ablationStages();
  std::printf("\n=== Fig. 13 (left): ablation, speedup over OptDisabled "
              "===\n\n");
  std::printf("%-28s", "benchmark");
  for (const Stage &s : stages)
    std::printf("%12s", s.name);
  std::printf("\n");
  std::vector<std::vector<double>> speedups(stages.size());
  const auto &suite = rodinia::suite();
  for (size_t bi = 0; bi < suite.size(); ++bi) {
    std::printf("%-28s", suite[bi].name.c_str());
    double base = -1;
    for (size_t si = 0; si < stages.size(); ++si) {
      double t = timeJob(suite[bi], m.stage[si][bi],
                         stages[si].opts.innerSerialize, /*scale=*/2,
                         /*threads=*/2);
      if (base < 0)
        base = t;
      double speedup = t > 0 ? base / t : 0.0;
      if (si > 0 && speedup > 0)
        speedups[si].push_back(speedup);
      std::printf("%12.3f", speedup);
    }
    std::printf("\n");
  }
  std::printf("\nGeomean speedup per stage (paper: mincut +4.1%% on "
              "barrier benchmarks, openmpopt +8.9%%, affine +4.6%%):\n");
  for (size_t si = 1; si < stages.size(); ++si)
    std::printf("  %-12s %.3fx\n", stages[si].name, geomean(speedups[si]));
}

void printFig13Right(const PaperModules &m) {
  std::printf("\n=== Fig. 13 (right): transpiled CUDA vs native OpenMP "
              "(speedup over OpenMP; >1 means CUDA-OpenMP wins) ===\n\n");
  std::printf("%-28s%14s%14s%14s\n", "benchmark", "t_openmp(s)",
              "CUDA/InnerSer", "CUDA/InnerPar");
  std::vector<double> serSpeedups, parSpeedups;
  const auto &suite = rodinia::suite();
  for (size_t bi = 0; bi < suite.size(); ++bi) {
    const rodinia::Benchmark &b = suite[bi];
    if (!b.openmpSource)
      continue;
    double tOmp = timeJob(b, m.openmp[bi], /*innerSerialize=*/true,
                          /*scale=*/10, /*threads=*/2);
    double tSer = timeJob(b, m.innerSer()[bi], /*innerSerialize=*/true, 10, 2);
    double tPar = timeJob(b, m.innerPar[bi], /*innerSerialize=*/false, 10, 2);
    double sSer = tSer > 0 ? tOmp / tSer : 0;
    double sPar = tPar > 0 ? tOmp / tPar : 0;
    if (sSer > 0)
      serSpeedups.push_back(sSer);
    if (sPar > 0)
      parSpeedups.push_back(sPar);
    std::printf("%-28s%14.4f%14.3f%14.3f\n", b.name.c_str(), tOmp, sSer,
                sPar);
  }
  std::printf("\nGeomean speedup over OpenMP (paper: 1.76x with innerser, "
              "1.437x without):\n");
  std::printf("  InnerSer: %.3fx\n", geomean(serSpeedups));
  std::printf("  InnerPar: %.3fx\n", geomean(parSpeedups));
}

// --- Fig. 14 ----------------------------------------------------------------

void printFig14(const PaperModules &m) {
  const std::vector<unsigned> threads = capToHardware({1, 2, 4, 8});
  std::printf("\n=== Fig. 14: scaling T1/Tn (left: CUDA-OpenMP, right: "
              "native OpenMP) ===\n");
  std::printf("(thread sweep capped at the host's %u hardware threads)\n\n",
              hardwareThreads());
  std::printf("%-28s", "benchmark");
  for (unsigned t : threads)
    std::printf("  cuda@%-4u", t);
  for (unsigned t : threads)
    std::printf("  omp@%-5u", t);
  std::printf("\n");

  // One T1/Tn row segment; appends the speedup at the widest team to
  // `atMax`.
  auto scaling = [&](const rodinia::Benchmark &b, driver::CompileJob *job,
                     std::vector<double> &atMax) {
    double t1 = -1;
    for (unsigned t : threads) {
      double s = timeJob(b, job, /*innerSerialize=*/true, /*scale=*/10, t);
      if (t1 < 0)
        t1 = s;
      double speedup = s > 0 ? t1 / s : 0;
      if (t == threads.back() && speedup > 0)
        atMax.push_back(speedup);
      std::printf("  %8.3f", speedup);
    }
  };
  std::vector<double> cudaAtMax, ompAtMax;
  const auto &suite = rodinia::suite();
  for (size_t bi = 0; bi < suite.size(); ++bi) {
    std::printf("%-28s", suite[bi].name.c_str());
    scaling(suite[bi], m.innerSer()[bi], cudaAtMax);
    scaling(suite[bi], m.openmp[bi], ompAtMax);
    std::printf("\n");
  }
  std::printf("\nGeomean speedup at %u threads (paper at 32 threads: "
              "CUDA-OpenMP 14.9x with innerser vs OpenMP 7.1x):\n",
              threads.back());
  std::printf("  CUDA-OpenMP: %.3fx\n", geomean(cudaAtMax));
  std::printf("  OpenMP:      %.3fx\n", geomean(ompAtMax));
}

// --- Fig. 15 ----------------------------------------------------------------

// 32x32 images (scaled-down ImageNet) with a 16-channel model: large
// enough that convolution dominates the step and the backends'
// organizational differences (GEMM vs direct, per-image parallelism)
// drive the measurement rather than thread-pool overheads.
constexpr int kImageDim = 32;
constexpr int kChannels = 16;

moccuda::Tensor randomImages(int n, uint32_t seed) {
  moccuda::Tensor t(n, 3, kImageDim, kImageDim);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto &v : t.data)
    v = dist(rng);
  return t;
}

/// images/s of fwd+bwd training steps. The Polygeist backend's kernels
/// are transpiled once per process (moccuda/resnet.cpp), so the many
/// MiniResNet constructions of the sweep reuse one compiled module.
double throughput(moccuda::Backend backend, runtime::ThreadPool &pool,
                  int batch, unsigned threads) {
  pool.setNumThreads(threads);
  moccuda::MiniResNet model(backend, pool, kChannels);
  moccuda::Tensor images = randomImages(batch, 55);
  std::vector<int32_t> labels(batch);
  for (int i = 0; i < batch; ++i)
    labels[i] = i % 10;
  model.trainStep(images, labels); // warmup
  int steps = 3;
  double t0 = now();
  for (int s = 0; s < steps; ++s)
    model.trainStep(images, labels);
  double dt = now() - t0;
  return steps * batch / dt;
}

void printFig15() {
  using moccuda::Backend;
  runtime::ThreadPool pool(8);
  const std::vector<int> batches = {1, 2, 4, 8};
  const std::vector<unsigned> threads = capToHardware({1, 2, 4});
  const std::vector<Backend> backends = {
      Backend::Native, Backend::OneDnnLike, Backend::MocCudaExpert,
      Backend::MocCudaPolygeist};

  // Measure every (backend, threads, batch) cell exactly once; both the
  // heatmap and the geomean table below are views of this grid.
  // cells[backend][thread][batch] = images/s.
  std::vector<std::vector<std::vector<double>>> cells(
      backends.size(), std::vector<std::vector<double>>(
                           threads.size(),
                           std::vector<double>(batches.size(), 0.0)));
  for (size_t bk = 0; bk < backends.size(); ++bk)
    for (size_t ti = 0; ti < threads.size(); ++ti)
      for (size_t bi = 0; bi < batches.size(); ++bi)
        cells[bk][ti][bi] =
            throughput(backends[bk], pool, batches[bi], threads[ti]);

  std::printf("\n=== Fig. 15 (left): relative throughput of "
              "MocCUDA+Polygeist over OneDNN-like backend ===\n");
  std::printf("(thread sweep capped at the host's %u hardware threads)\n\n",
              hardwareThreads());
  std::printf("%-10s", "threads");
  for (int b : batches)
    std::printf("  batch%-4d", b);
  std::printf("\n");
  for (size_t ti = 0; ti < threads.size(); ++ti) {
    std::printf("%-10u", threads[ti]);
    for (size_t bi = 0; bi < batches.size(); ++bi)
      std::printf("  %9.2f", cells[3][ti][bi] / cells[1][ti][bi]);
    std::printf("\n");
  }

  std::printf("\n=== Fig. 15 (right): geomean throughput (images/s) "
              "across batch sizes ===\n\n");
  std::printf("%-22s", "backend");
  for (unsigned t : threads)
    std::printf("  thr@%-6u", t);
  std::printf("\n");
  std::vector<std::vector<double>> perBackend;
  for (size_t bk = 0; bk < backends.size(); ++bk) {
    std::printf("%-22s", moccuda::backendName(backends[bk]));
    std::vector<double> row;
    for (size_t ti = 0; ti < threads.size(); ++ti) {
      row.push_back(geomean(cells[bk][ti]));
      std::printf("  %9.2f", row.back());
    }
    perBackend.push_back(row);
    std::printf("\n");
  }
  std::vector<double> overDnn, overExpert;
  for (size_t ti = 0; ti < threads.size(); ++ti) {
    overDnn.push_back(perBackend[3][ti] / perBackend[1][ti]);
    overExpert.push_back(perBackend[3][ti] / perBackend[2][ti]);
  }
  std::printf("\nMocCUDA+Polygeist over OneDNN-like geomean: %.2fx "
              "(paper on Fugaku: 2.7x geomean, up to 4.5x)\n",
              geomean(overDnn));
  std::printf("MocCUDA+Polygeist vs MocCUDA+Expert geomean: %.2fx "
              "(paper: comparable)\n",
              geomean(overExpert));
}

} // namespace

int main(int argc, char **argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
  driver::CompilerSession session = makeSuiteSession(/*threads=*/2);
  PaperModules modules = compilePaperModules(session);
  bool productsRight = printFig12(modules);
  printFig13Left(modules);
  printFig13Right(modules);
  printFig14(modules);
  printFig15();
  return modules.allCompiled && productsRight ? 0 : 1;
}
