// Integration tests: every Rodinia benchmark compiled through every
// pipeline variant must reproduce the lockstep SIMT emulator's output,
// and the OpenMP reference source must compile and run.
#include "rodinia/rodinia.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>

using namespace paralift;
using namespace paralift::rodinia;
using paralift::driver::CompileResult;
using paralift::driver::Executor;
using paralift::transforms::PipelineOptions;

namespace {

struct RunResult {
  std::vector<float> f;
  std::vector<int32_t> i;
};

RunResult runCuda(const Benchmark &b, const PipelineOptions *opts,
                  unsigned threads) {
  DiagnosticEngine diag;
  CompileResult cc = opts ? driver::compile(b.cudaSource, *opts, diag)
                          : driver::compileForSimt(b.cudaSource, diag);
  EXPECT_TRUE(cc.ok) << b.id << ": " << diag.str();
  if (!cc.ok)
    return {};
  Workload w = b.makeWorkload(1);
  Executor exec(cc.module.get(), threads);
  exec.run("run", w.args());
  return {w.floatState(), w.intState()};
}

RunResult runOpenmp(const Benchmark &b, unsigned threads) {
  DiagnosticEngine diag;
  PipelineOptions opts;
  CompileResult cc = driver::compile(b.openmpSource, opts, diag);
  EXPECT_TRUE(cc.ok) << b.id << " (openmp): " << diag.str();
  if (!cc.ok)
    return {};
  Workload w = b.makeWorkload(1);
  Executor exec(cc.module.get(), threads);
  exec.run("run", w.args());
  return {w.floatState(), w.intState()};
}

void expectClose(const RunResult &a, const RunResult &b,
                 const std::string &what) {
  ASSERT_EQ(a.f.size(), b.f.size()) << what;
  ASSERT_EQ(a.i.size(), b.i.size()) << what;
  for (size_t k = 0; k < a.f.size(); ++k)
    ASSERT_NEAR(a.f[k], b.f[k], 2e-3 + 2e-3 * std::fabs(a.f[k]))
        << what << " float buffer index " << k;
  for (size_t k = 0; k < a.i.size(); ++k)
    ASSERT_EQ(a.i[k], b.i[k]) << what << " int buffer index " << k;
}

/// FNV-1a (64-bit) over the raw bytes of the float state, then the int
/// state: any changed output bit changes the hash.
uint64_t fnv1a(const RunResult &r) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const void *data, size_t bytes) {
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t k = 0; k < bytes; ++k) {
      h ^= p[k];
      h *= 1099511628211ull;
    }
  };
  mix(r.f.data(), r.f.size() * sizeof(float));
  mix(r.i.data(), r.i.size() * sizeof(int32_t));
  return h;
}

/// fnv1a of each module's full-pipeline output at scale 1 on 2 threads,
/// recorded before the interpreter's dispatch loop was rewritten. An
/// interpreter change that is meant to be a pure refactor must reproduce
/// these exactly.
const std::map<std::string, uint64_t> kFullPipelineHashes = {
    {"btree_findk", 0xad4463b6e09ed3aeull},
    {"btree_findrangek", 0x90252dd6510c44b5ull},
    {"bfs", 0x4d5f8d4578fb1efaull},
    {"backprop_layerforward", 0x400f08263c6b212aull},
    {"backprop_adjust_weights", 0x203136f51782bd39ull},
    {"cfd", 0xe6e15698a3416181ull},
    {"myocyte", 0x66e967600c86700full},
    {"particlefilter_float", 0xf4823ce9d93966c0ull},
    {"streamcluster", 0xcb53b8d705e0913eull},
    {"hotspot", 0x8af3a1bca6c41a91ull},
    {"hotspot3d", 0x4d5cc62f797fd33cull},
    {"pathfinder", 0x53f8bd7de7857695ull},
    {"lud", 0x85da8b16f748fa87ull},
    {"nw", 0xe6b988ea170506b3ull},
    {"srad_v1", 0xf029ed0a74462193ull},
    {"srad_v2", 0x0691106fa4fb4d0cull},
};

class RodiniaTest : public ::testing::TestWithParam<const Benchmark *> {};

} // namespace

TEST_P(RodiniaTest, FullPipelineMatchesSimt) {
  const Benchmark &b = *GetParam();
  RunResult simt = runCuda(b, nullptr, 1);
  PipelineOptions opts;
  RunResult opt = runCuda(b, &opts, 2);
  expectClose(simt, opt, b.id + " full");
}

TEST_P(RodiniaTest, FullPipelineOutputIsBitExact) {
  const Benchmark &b = *GetParam();
  PipelineOptions opts;
  uint64_t h = fnv1a(runCuda(b, &opts, 2));
  char got[32];
  std::snprintf(got, sizeof(got), "0x%016llx",
                static_cast<unsigned long long>(h));
  auto it = kFullPipelineHashes.find(b.id);
  ASSERT_NE(it, kFullPipelineHashes.end())
      << "no recorded hash for " << b.id << "; got " << got;
  EXPECT_EQ(h, it->second) << b.id << " output hash is " << got;
}

TEST_P(RodiniaTest, OptDisabledMatchesSimt) {
  const Benchmark &b = *GetParam();
  RunResult simt = runCuda(b, nullptr, 1);
  PipelineOptions opts = PipelineOptions::optDisabled();
  RunResult disabled = runCuda(b, &opts, 2);
  expectClose(simt, disabled, b.id + " disabled");
}

TEST_P(RodiniaTest, InnerParMatchesSimt) {
  const Benchmark &b = *GetParam();
  RunResult simt = runCuda(b, nullptr, 1);
  PipelineOptions opts;
  opts.innerSerialize = false;
  RunResult innerPar = runCuda(b, &opts, 2);
  expectClose(simt, innerPar, b.id + " innerpar");
}

TEST_P(RodiniaTest, McudaModeMatchesSimt) {
  const Benchmark &b = *GetParam();
  RunResult simt = runCuda(b, nullptr, 1);
  PipelineOptions opts = PipelineOptions::mcuda();
  RunResult mcuda = runCuda(b, &opts, 2);
  expectClose(simt, mcuda, b.id + " mcuda");
}

TEST_P(RodiniaTest, OpenmpReferenceRuns) {
  const Benchmark &b = *GetParam();
  if (!b.openmpSource)
    GTEST_SKIP() << "no OpenMP reference";
  RunResult r = runOpenmp(b, 2);
  // Smoke check: outputs must be finite.
  for (float v : r.f)
    ASSERT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RodiniaTest, ::testing::ValuesIn([] {
      std::vector<const Benchmark *> ptrs;
      for (const auto &b : suite())
        ptrs.push_back(&b);
      return ptrs;
    }()),
    [](const ::testing::TestParamInfo<const Benchmark *> &info) {
      return info.param->id;
    });

TEST(RodiniaSuiteTest, SuiteIsComplete) {
  EXPECT_GE(suite().size(), 14u);
  int barriers = 0;
  for (const auto &b : suite())
    barriers += b.hasBarrier ? 1 : 0;
  EXPECT_GE(barriers, 8) << "most benchmarks should exercise barriers";
  EXPECT_NE(find("backprop_layerforward"), nullptr);
  EXPECT_EQ(find("nonexistent"), nullptr);
}
