// Quickstart: transpile the paper's Fig. 1 CUDA program (vector
// normalization) to CPU code and run it — showing the IR before and after
// optimization, including the flagship effect: parallel loop-invariant
// code motion hoists the O(N) sum out of the kernel, turning O(N^2) total
// work into O(N) (§IV-C).
//
// The embedding API is driver::CompilerSession: queue sources with
// addSource (each returns a CompileJob handle), compile them all —
// batched across one worker pool — and read per-job results/diagnostics.
// This example runs one session on the one-pass "inline-kernels" pipeline
// (the §III frontend view) and one on the full optimizing pipeline. For
// exactly one module the one-shot wrapper driver::compile(source, opts,
// diag) does the same thing with less ceremony.
//
// Build & run:  ./build/examples/quickstart
#include "driver/compiler.h"
#include "ir/printer.h"

#include <cstdio>
#include <numeric>
#include <vector>

using namespace paralift;

const char *kSource = R"(
__device__ float sum(float* data, int n) {
  float total = 0.0f;
  for (int i = 0; i < n; i++) {
    total += data[i];
  }
  return total;
}
__global__ void normalize(float* out, float* in, int n) {
  int tid = blockIdx.x * blockDim.x + threadIdx.x;
  float val = sum(in, n);
  if (tid < n) {
    out[tid] = in[tid] / val;
  }
}
void launch(float* d_out, float* d_in, int n) {
  normalize<<<(n + 31) / 32, 32>>>(d_out, d_in, n);
}
)";

int main() {
  // 1. Frontend view: the one-pass "inline-kernels" pipeline gives the
  // §III representation (grid/block scf.parallel, device functions
  // inlined).
  driver::SessionOptions simtOpts;
  simtOpts.pipelineSpec = "inline-kernels";
  driver::CompilerSession simt(std::move(simtOpts));
  auto &frontendJob = simt.addSource("quickstart.cu", kSource);
  if (!simt.compileAll()) {
    std::printf("frontend failed:\n%s\n",
                frontendJob.diagnostics().str().c_str());
    return 1;
  }
  std::printf("==== IR after frontend (kernel inlined at launch; grid/block "
              "parallel nest) ====\n%s\n",
              ir::printOp(frontendJob.result().module.op()).c_str());

  // 2. Full pipeline.
  driver::CompilerSession session{driver::SessionOptions{}};
  auto &job = session.addSource("quickstart.cu", kSource,
                                transforms::PipelineOptions{});
  if (!session.compileAll()) {
    std::printf("pipeline failed:\n%s\n", job.diagnostics().str().c_str());
    return 1;
  }
  std::printf("==== IR after full pipeline (note: the sum loop now runs "
              "ONCE, before omp.parallel) ====\n%s\n",
              ir::printOp(job.result().module.op()).c_str());

  // 3. Execute.
  int n = 10;
  std::vector<float> in(n), out(n, 0.0f);
  std::iota(in.begin(), in.end(), 1.0f); // 1..10, sum = 55
  driver::Executor exec(job.result().module.get(), /*maxThreads=*/2);
  exec.run("launch", {driver::Executor::bufferF32(out.data(), {n}),
                      driver::Executor::bufferF32(in.data(), {n}),
                      int64_t(n)});
  std::printf("==== Result ====\n");
  for (int i = 0; i < n; ++i)
    std::printf("out[%d] = %.4f (expect %.4f)\n", i, out[i],
                in[i] / 55.0f);
  return 0;
}
