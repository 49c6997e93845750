#include "moccuda/resnet.h"

#include <cmath>
#include <mutex>

namespace paralift::moccuda {

const char *backendName(Backend b) {
  switch (b) {
  case Backend::Native: return "Native";
  case Backend::OneDnnLike: return "OneDNN";
  case Backend::MocCudaExpert: return "MocCUDA+Expert";
  case Backend::MocCudaPolygeist: return "MocCUDA+Polygeist";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// PolygeistKernels: the PyTorch custom CUDA kernels, transpiled.
//===----------------------------------------------------------------------===//

namespace {
// ClassNLLCriterion-style loss: one block per sample, shared-memory max
// and sum reductions with __syncthreads (the kernel the paper highlights
// as using barriers), plus the strided elementwise kernels.
const char *kPytorchKernels = R"(
#define TB 16
__global__ void nll_kernel(float* logits, int* labels, float* dlogits,
                           float* losses, int nbatch, int classes) {
  __shared__ float maxs[TB];
  __shared__ float buf[TB];
  int b = blockIdx.x;
  int t = threadIdx.x;
  float v = -10000000.0f;
  if (t < classes) {
    v = logits[b * classes + t];
  }
  maxs[t] = v;
  __syncthreads();
  for (int s = TB / 2; s > 0; s = s / 2) {
    if (t < s) {
      maxs[t] = fmaxf(maxs[t], maxs[t + s]);
    }
    __syncthreads();
  }
  float m = maxs[0];
  float e = 0.0f;
  if (t < classes) {
    e = expf(logits[b * classes + t] - m);
  }
  buf[t] = e;
  __syncthreads();
  for (int s = TB / 2; s > 0; s = s / 2) {
    if (t < s) {
      buf[t] += buf[t + s];
    }
    __syncthreads();
  }
  float logDenom = logf(buf[0]) + m;
  if (t < classes) {
    float p = expf(logits[b * classes + t] - logDenom);
    float ind = 0.0f;
    if (t == labels[b]) {
      ind = 1.0f;
    }
    dlogits[b * classes + t] = (p - ind) / (1.0f * nbatch);
  }
  if (t == 0) {
    losses[b] = logDenom - logits[b * classes + labels[b]];
  }
}
void run_nll(float* logits, int* labels, float* dlogits, float* losses,
             int nbatch, int classes) {
  nll_kernel<<<nbatch, TB>>>(logits, labels, dlogits, losses, nbatch,
                             classes);
}
__global__ void add_kernel(float* dst, float* src, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) {
    dst[i] += src[i];
  }
}
void run_add(float* dst, float* src, int n) {
  add_kernel<<<(n + 63) / 64, 64>>>(dst, src, n);
}
__global__ void relu_kernel(float* x, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) {
    if (x[i] < 0.0f) {
      x[i] = 0.0f;
    }
  }
}
void run_relu(float* x, int n) {
  relu_kernel<<<(n + 63) / 64, 64>>>(x, n);
}
)";
} // namespace

namespace {

/// The transpiled kernel module, compiled once per process. The session
/// stamps diagnostics with the module name, so a transpile failure in a
/// larger embedder is attributable.
const driver::CompileResult &sharedKernelModule() {
  static driver::CompileResult cc = [] {
    driver::CompilerSession session{driver::SessionOptions{}};
    driver::CompileJob &job =
        session.addSource("moccuda-pytorch-kernels", kPytorchKernels,
                          transforms::PipelineOptions{}); // full optimization
    session.compileAll();
    if (!job.ok())
      fatalError("failed to transpile PyTorch kernels: " +
                 job.diagnostics().str());
    return job.take();
  }();
  return cc;
}

} // namespace

PolygeistKernels::PolygeistKernels(unsigned maxThreads) {
  exec_ = std::make_unique<driver::Executor>(
      sharedKernelModule().module.get(), maxThreads,
      /*boundsCheck=*/false);
}

void PolygeistKernels::setNumThreads(unsigned n) { exec_->setNumThreads(n); }

void PolygeistKernels::add(float *dst, const float *src, int n) {
  exec_->run("run_add",
             {driver::Executor::bufferF32(dst, {n}),
              driver::Executor::bufferF32(const_cast<float *>(src), {n}),
              int64_t(n)});
}

void PolygeistKernels::relu(float *x, int n) {
  exec_->run("run_relu",
             {driver::Executor::bufferF32(x, {n}), int64_t(n)});
}

float PolygeistKernels::nllLoss(const float *logits, const int32_t *labels,
                                float *dLogits, int batch, int classes) {
  std::vector<float> losses(batch, 0.0f);
  exec_->run(
      "run_nll",
      {driver::Executor::bufferF32(const_cast<float *>(logits),
                                   {batch * classes}),
       driver::Executor::bufferI32(const_cast<int32_t *>(labels), {batch}),
       driver::Executor::bufferF32(dLogits, {batch * classes}),
       driver::Executor::bufferF32(losses.data(), {batch}), int64_t(batch),
       int64_t(classes)});
  float total = 0.0f;
  for (float l : losses)
    total += l;
  return total / batch;
}

//===----------------------------------------------------------------------===//
// MiniResNet
//===----------------------------------------------------------------------===//

MiniResNet::MiniResNet(Backend backend, ThreadPool &pool, int channels,
                       int classes)
    : backend_(backend), pool_(pool), channels_(channels),
      classes_(classes) {
  std::mt19937 rng(1234);
  std::normal_distribution<float> dist(0.0f, 0.1f);
  auto init = [&](Tensor &t, int n, int c, int h, int w) {
    t = Tensor(n, c, h, w);
    for (auto &v : t.data)
      v = dist(rng);
  };
  init(w1_, channels_, 3, 3, 3);
  init(w2_, channels_, channels_, 3, 3);
  init(w3_, channels_, channels_, 3, 3);
  if (backend_ == Backend::MocCudaPolygeist) {
    polygeist_ = std::make_unique<PolygeistKernels>(pool.capacity());
    polygeist_->setNumThreads(pool.numThreads());
  }
  if (backend_ == Backend::MocCudaExpert ||
      backend_ == Backend::MocCudaPolygeist) {
    McudaStream *s = nullptr;
    mcudaStreamCreate(&s);
    stream_.reset(s);
  }
}

void MiniResNet::convForward(const Tensor &x, const Tensor &w, Tensor &y) {
  switch (backend_) {
  case Backend::Native:
    convNaiveForward(pool_, x, w, y, convParams_);
    return;
  case Backend::OneDnnLike:
    convDirectForward(pool_, x, w, y, convParams_);
    return;
  case Backend::MocCudaExpert:
  case Backend::MocCudaPolygeist:
    // MocCUDA: GEMM-based convolution dispatched on the emulated stream.
    stream_->launch(
        [&] { convIm2colForward(pool_, x, w, y, convParams_); });
    stream_->synchronize();
    return;
  }
}

void MiniResNet::applyRelu(Tensor &x) {
  if (backend_ == Backend::MocCudaPolygeist) {
    polygeist_->setNumThreads(pool_.numThreads());
    polygeist_->relu(x.data.data(), static_cast<int>(x.size()));
    return;
  }
  reluForward(pool_, x);
}

void MiniResNet::residualAdd(Tensor &dst, const Tensor &src) {
  if (backend_ == Backend::MocCudaPolygeist) {
    polygeist_->add(dst.data.data(), src.data.data(),
                    static_cast<int>(dst.size()));
    return;
  }
  addInPlace(pool_, dst, src);
}

Tensor MiniResNet::forward(const Tensor &images) {
  x0_ = images;
  convForward(x0_, w1_, a1_);
  batchNormForward(pool_, a1_, bn1_);
  applyRelu(a1_);

  // Residual block.
  convForward(a1_, w2_, a2_);
  batchNormForward(pool_, a2_, bn2_);
  applyRelu(a2_);
  convForward(a2_, w3_, a3_);
  batchNormForward(pool_, a3_, bn3_);
  residualAdd(a3_, a1_);
  applyRelu(a3_);

  avgPoolForward(pool_, a3_, pooled_);
  if (fc_.empty()) {
    std::mt19937 rng(99);
    std::normal_distribution<float> dist(0.0f, 0.1f);
    fc_.resize(static_cast<size_t>(classes_) * pooled_.size() / pooled_.n);
    for (auto &v : fc_)
      v = dist(rng);
  }
  Tensor logits;
  fcForward(pool_, pooled_, fc_, classes_, logits);
  return logits;
}

float MiniResNet::trainStep(const Tensor &images,
                            const std::vector<int32_t> &labels) {
  Tensor logits = forward(images);

  // Loss + logits gradient.
  Tensor dLogits;
  float loss;
  if (backend_ == Backend::MocCudaPolygeist) {
    dLogits = Tensor(logits.n, classes_, 1, 1);
    loss = polygeist_->nllLoss(logits.data.data(), labels.data(),
                               dLogits.data.data(), logits.n, classes_);
  } else {
    std::vector<int> ints(labels.begin(), labels.end());
    loss = softmaxNllForwardBackward(pool_, logits, ints, dLogits);
  }

  // Backward (shared across backends: the paper's comparison targets the
  // forward-kernel organization, so sharing the backward keeps the
  // backends' difference confined to the forward kernels).
  Tensor dPooled;
  std::vector<float> dFc;
  fcBackward(pool_, pooled_, fc_, classes_, dLogits, dPooled, dFc);
  Tensor dA3;
  avgPoolBackward(pool_, dPooled, dA3);
  reluBackward(pool_, a3_, dA3);
  Tensor dA2, dW3;
  std::vector<float> dG3, dB3;
  {
    Tensor dBn3;
    batchNormBackward(pool_, a3_, dA3, dBn3, bn3_, dG3, dB3);
    convIm2colBackward(pool_, a2_, w3_, dBn3, dA2, dW3, convParams_);
  }
  reluBackward(pool_, a2_, dA2);
  Tensor dA1, dW2;
  std::vector<float> dG2, dB2;
  {
    Tensor dBn2;
    batchNormBackward(pool_, a2_, dA2, dBn2, bn2_, dG2, dB2);
    convIm2colBackward(pool_, a1_, w2_, dBn2, dA1, dW2, convParams_);
  }
  // Skip connection contributes dA3 directly into dA1.
  addInPlace(pool_, dA1, dA3);
  reluBackward(pool_, a1_, dA1);
  Tensor dX, dW1;
  std::vector<float> dG1, dB1;
  {
    Tensor dBn1;
    batchNormBackward(pool_, a1_, dA1, dBn1, bn1_, dG1, dB1);
    convIm2colBackward(pool_, x0_, w1_, dBn1, dX, dW1, convParams_);
  }

  // SGD.
  const float lr = 0.01f;
  auto update = [&](std::vector<float> &w, const std::vector<float> &g) {
    for (size_t i = 0; i < w.size(); ++i)
      w[i] -= lr * g[i];
  };
  update(w1_.data, dW1.data);
  update(w2_.data, dW2.data);
  update(w3_.data, dW3.data);
  update(fc_, dFc);
  update(bn1_.gamma, dG1);
  update(bn1_.beta, dB1);
  update(bn2_.gamma, dG2);
  update(bn2_.beta, dB2);
  update(bn3_.gamma, dG3);
  update(bn3_.beta, dB3);
  return loss;
}

} // namespace paralift::moccuda
