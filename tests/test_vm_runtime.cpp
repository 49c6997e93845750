// Unit tests for the execution layer: thread pool teams and barriers,
// nested-parallel policies, dispatch queues, VM arithmetic semantics
// (f32 rounding, i32 wrapping, division guards), memref bounds checking,
// arena scoping and recycling of allocas, structured call errors
// (tryCall/tryRun), the dispatched-instruction counter, and the lockstep
// SIMT emulator's barrier semantics under divergent-looking but
// block-uniform control flow.
#include "driver/compiler.h"
#include "runtime/thread_pool.h"
#include "support/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>

using namespace paralift;
using namespace paralift::runtime;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, AllTeamMembersRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<uint32_t> tidMask{0};
  pool.parallel([&](unsigned tid, Team &team) {
    EXPECT_EQ(team.size(), 4u);
    count.fetch_add(1);
    tidMask.fetch_or(1u << tid);
  });
  EXPECT_EQ(count.load(), 4);
  EXPECT_EQ(tidMask.load(), 0b1111u);
}

TEST(ThreadPoolTest, SetNumThreadsChangesTeamSize) {
  ThreadPool pool(4);
  pool.setNumThreads(2);
  std::atomic<int> count{0};
  pool.parallel([&](unsigned, Team &team) {
    EXPECT_EQ(team.size(), 2u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 2);
  // Clamped to capacity.
  pool.setNumThreads(64);
  EXPECT_EQ(pool.numThreads(), 4u);
  pool.setNumThreads(0);
  EXPECT_EQ(pool.numThreads(), 1u);
}

TEST(ThreadPoolTest, TeamBarrierSynchronizes) {
  ThreadPool pool(4);
  std::atomic<int> phase1{0};
  std::vector<int> seen(4, -1);
  pool.parallel([&](unsigned tid, Team &team) {
    phase1.fetch_add(1);
    team.barrier();
    // After the barrier every member observed all phase-1 increments.
    seen[tid] = phase1.load();
  });
  for (int v : seen)
    EXPECT_EQ(v, 4);
}

TEST(ThreadPoolTest, SequentialParallelRegionsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel([&](unsigned, Team &) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 4) << "round " << round;
  }
}

TEST(ThreadPoolTest, NestedSerializePolicy) {
  ThreadPool pool(4);
  pool.setNestedPolicy(NestedPolicy::Serialize);
  std::atomic<int> inner{0};
  pool.parallel([&](unsigned, Team &) {
    EXPECT_TRUE(ThreadPool::insideParallel());
    pool.parallel([&](unsigned tid, Team &team) {
      EXPECT_EQ(team.size(), 1u);
      EXPECT_EQ(tid, 0u);
      inner.fetch_add(1);
    });
  });
  EXPECT_EQ(inner.load(), 4); // one serialized inner region per member
}

TEST(ThreadPoolTest, NestedSpawnPolicy) {
  ThreadPool pool(2);
  pool.setNestedPolicy(NestedPolicy::Spawn);
  std::atomic<int> inner{0};
  pool.parallel([&](unsigned, Team &) {
    pool.parallel([&](unsigned, Team &team) {
      EXPECT_EQ(team.size(), 2u);
      inner.fetch_add(1);
    });
  });
  EXPECT_EQ(inner.load(), 4); // 2 outer members x 2 inner members
}

TEST(ThreadPoolTest, SingleThreadPool) {
  ThreadPool pool(1);
  int runs = 0;
  pool.parallel([&](unsigned tid, Team &team) {
    EXPECT_EQ(tid, 0u);
    EXPECT_EQ(team.size(), 1u);
    team.barrier(); // must not deadlock
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

//===----------------------------------------------------------------------===//
// DispatchQueue
//===----------------------------------------------------------------------===//

TEST(DispatchQueueTest, SyncWaitsForAllTasks) {
  DispatchQueue q;
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    q.async([&] { done.fetch_add(1); });
  q.sync();
  EXPECT_EQ(done.load(), 100);
}

TEST(DispatchQueueTest, TasksRunInOrder) {
  DispatchQueue q;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i)
    q.async([&order, i] { order.push_back(i); });
  q.sync();
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(order[i], i);
}

TEST(DispatchQueueTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    DispatchQueue q;
    for (int i = 0; i < 10; ++i)
      q.async([&] { done.fetch_add(1); });
  } // destructor joins after the queue drains
  EXPECT_EQ(done.load(), 10);
}

//===----------------------------------------------------------------------===//
// VM semantics through the public API
//===----------------------------------------------------------------------===//

namespace {
int64_t runIntFn(const std::string &src, const std::string &fn,
                 std::vector<driver::Executor::Arg> args) {
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  EXPECT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  auto r = exec.run(fn, args);
  EXPECT_EQ(r.size(), 1u);
  return r.empty() ? 0 : r[0].i;
}
double runFloatFn(const std::string &src, const std::string &fn,
                  std::vector<driver::Executor::Arg> args) {
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  EXPECT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  auto r = exec.run(fn, args);
  EXPECT_EQ(r.size(), 1u);
  return r.empty() ? 0 : r[0].f;
}
} // namespace

TEST(VmSemanticsTest, Int32ArithmeticWraps) {
  // 2^31 - 1 + 1 wraps to INT32_MIN under i32 semantics.
  EXPECT_EQ(runIntFn("int f(int x) { return x + 1; }", "f",
                     {int64_t(2147483647)}),
            -2147483648LL);
}

TEST(VmSemanticsTest, DivisionByZeroYieldsZero) {
  // The VM defines x/0 = 0 (documented; avoids UB in speculated code).
  EXPECT_EQ(runIntFn("int f(int a, int b) { return a / b; }", "f",
                     {int64_t(5), int64_t(0)}),
            0);
  EXPECT_EQ(runIntFn("int f(int a, int b) { return a % b; }", "f",
                     {int64_t(5), int64_t(0)}),
            0);
}

TEST(VmSemanticsTest, Float32Rounding) {
  // 16777217 is not representable in f32; f32 arithmetic must round.
  double got = runFloatFn(
      "float f(float a) { return a + 1.0f; }", "f", {16777216.0});
  EXPECT_EQ(got, 16777216.0);
}

TEST(VmSemanticsTest, MathBuiltins) {
  EXPECT_NEAR(runFloatFn("float f(float x) { return sqrtf(x); }", "f",
                         {2.0}),
              std::sqrt(2.0f), 1e-6);
  EXPECT_NEAR(runFloatFn("float f(float x) { return expf(logf(x)); }", "f",
                         {3.5}),
              3.5, 1e-5);
  EXPECT_NEAR(runFloatFn("double f(double x) { return pow(x, 3.0); }", "f",
                         {2.0}),
              8.0, 1e-9);
}

TEST(VmSemanticsTest, TernaryAndShortCircuit) {
  const char *src = R"(
int f(int a, int b) {
  int r = 0;
  if (a > 0 && 10 / a > b) {
    r = 1;
  }
  return a > b ? r + 10 : r - 10;
}
)";
  // a=0: short-circuit must not divide by zero (and 0/0==0 anyway).
  EXPECT_EQ(runIntFn(src, "f", {int64_t(0), int64_t(-1)}), 10);
  EXPECT_EQ(runIntFn(src, "f", {int64_t(2), int64_t(1)}), 11);
  // a=1, b=5: 10/1 > 5 sets r=1; ternary takes the else branch.
  EXPECT_EQ(runIntFn(src, "f", {int64_t(1), int64_t(5)}), -9);
}

TEST(VmSemanticsTest, DoWhileExecutesAtLeastOnce) {
  const char *src = R"(
int f(int n) {
  int count = 0;
  do {
    count = count + 1;
  } while (count < n);
  return count;
}
)";
  EXPECT_EQ(runIntFn(src, "f", {int64_t(5)}), 5);
  EXPECT_EQ(runIntFn(src, "f", {int64_t(-3)}), 1);
}

TEST(VmSemanticsTest, BoundsCheckCatchesOutOfRange) {
  const char *src = "void f(float* a, int i) { a[i] = 1.0f; }";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok);
  driver::Executor exec(cc.module.get(), 1, /*boundsCheck=*/true);
  std::vector<float> buf(4);
  EXPECT_DEATH(
      exec.run("f", {driver::Executor::bufferF32(buf.data(), {4}),
                     int64_t(7)}),
      "out of bounds");
}

TEST(VmSemanticsTest, InstructionCounterIsDeterministic) {
  // vm.exec.instructions counts every dispatched instruction, including
  // those of team threads; the same call on the same inputs must add the
  // same nonzero count every time.
  const char *src = R"(
__global__ void k(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  float s = 0.0f;
  for (int j = 0; j < 8; j++) s += a[i] * j;
  __syncthreads();
  if (i < n) a[i] = s;
}
void run(float* a, int n) { k<<<2, 4>>>(a, n); }
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 2);
  auto &reg = metrics::MetricsRegistry::instance();
  auto countRun = [&] {
    std::vector<float> a(8, 1.0f);
    uint64_t before = reg.counterValue("vm.exec.instructions");
    exec.run("run", {driver::Executor::bufferF32(a.data(), {8}), int64_t(8)});
    EXPECT_FLOAT_EQ(a[0], 28.0f);
    return reg.counterValue("vm.exec.instructions") - before;
  };
  uint64_t first = countRun();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(countRun(), first);
}

//===----------------------------------------------------------------------===//
// Structured call errors (Interp::tryCall / Executor::tryRun)
//===----------------------------------------------------------------------===//

TEST(TryCallTest, UnknownFunctionReturnsErrorNotAbort) {
  DiagnosticEngine diag;
  auto cc = driver::compile("int f(int x) { return x; }",
                            transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  vm::CallResult r = exec.tryRun("nope", {int64_t(1)});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("no such function: nope"), std::string::npos)
      << r.error;
  // The executor survives the bad request and still serves good ones.
  auto good = exec.run("f", {int64_t(7)});
  ASSERT_EQ(good.size(), 1u);
  EXPECT_EQ(good[0].i, 7);
}

TEST(TryCallTest, ArityMismatchReturnsErrorNotAbort) {
  DiagnosticEngine diag;
  auto cc = driver::compile("int f(int a, int b) { return a + b; }",
                            transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  vm::CallResult r = exec.tryRun("f", {int64_t(1)});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("arity mismatch"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("got 1 args"), std::string::npos) << r.error;
  auto good = exec.run("f", {int64_t(2), int64_t(3)});
  ASSERT_EQ(good.size(), 1u);
  EXPECT_EQ(good[0].i, 5);
}

TEST(TryCallTest, RunStillAbortsOnUnknownName) {
  DiagnosticEngine diag;
  auto cc = driver::compile("int f(int x) { return x; }",
                            transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  EXPECT_DEATH(exec.run("nope", {int64_t(1)}), "no such function");
}

//===----------------------------------------------------------------------===//
// Arena recycling (scoped allocas)
//===----------------------------------------------------------------------===//

TEST(ArenaTest, ReleaseRecyclesDescriptorsAndBuffers) {
  vm::Arena arena;
  const vm::MemRef *d0 = nullptr;
  const char *b0 = nullptr;
  for (int iter = 0; iter < 100; ++iter) {
    vm::Arena::Mark m = arena.mark();
    vm::MemRef *d = arena.newDesc();
    char *buf = arena.allocate(256);
    if (iter == 0) {
      d0 = d;
      b0 = buf;
    } else {
      // Same slot position -> same storage, reused in place.
      EXPECT_EQ(d, d0);
      EXPECT_EQ(buf, b0);
    }
    arena.release(m);
    EXPECT_EQ(arena.liveDescs(), 0u);
    EXPECT_EQ(arena.liveBuffers(), 0u);
    // The pool never grows past the high-water mark of one iteration.
    EXPECT_EQ(arena.pooledDescs(), 1u);
    EXPECT_EQ(arena.pooledBuffers(), 1u);
  }
}

TEST(ArenaTest, RecycledDescriptorIsReset) {
  vm::Arena arena;
  vm::Arena::Mark m = arena.mark();
  vm::MemRef *d = arena.newDesc();
  d->rank = 3;
  d->sizes[0] = 42;
  d->data = reinterpret_cast<char *>(0x1);
  arena.release(m);
  vm::MemRef *d2 = arena.newDesc();
  ASSERT_EQ(d2, d);
  EXPECT_EQ(d2->rank, 0);
  EXPECT_EQ(d2->sizes[0], 0);
  EXPECT_EQ(d2->data, nullptr);
}

TEST(ArenaTest, RecycledBufferIsZeroed) {
  // allocate() contract: zeroed storage on every iteration, recycled or
  // fresh — iteration N must observe exactly what iteration 1 did.
  vm::Arena arena;
  vm::Arena::Mark m = arena.mark();
  char *buf = arena.allocate(64);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(buf[i], 0) << "fresh buffer byte " << i;
  std::memset(buf, 0xAB, 64);
  arena.release(m);
  char *again = arena.allocate(64);
  ASSERT_EQ(again, buf);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(again[i], 0) << "recycled buffer byte " << i;
}

TEST(ArenaTest, BufferRegrowsInPlaceForLargerRequest) {
  vm::Arena arena;
  vm::Arena::Mark m = arena.mark();
  arena.allocate(16);
  arena.release(m);
  // A larger request on the same slot regrows that buffer; it does not
  // add a second pooled buffer.
  char *big = arena.allocate(4096);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.pooledBuffers(), 1u);
  big[4095] = 1; // touch the end: capacity really grew
  arena.release(m);
  // A smaller request afterwards reuses the grown buffer as-is.
  char *again = arena.allocate(16);
  EXPECT_EQ(again, big);
  EXPECT_EQ(arena.pooledBuffers(), 1u);
}

// Scoped-alloca stress: a kernel whose loop body allocas a local array
// every iteration. With cursor recycling the arena performs zero
// allocations after the first iteration; before, every iteration freed
// and re-malloc'd the buffer. Correctness is asserted over a large trip
// count so a stale-descriptor or stale-buffer bug would surface.
TEST(ArenaTest, ScopedAllocaLoopStress) {
  const char *src = R"(
__global__ void k(float* out, int iters) {
  int t = threadIdx.x;
  float sum = 0.0f;
  for (int it = 0; it < iters; it++) {
    float tmp[8];
    for (int j = 0; j < 8; j++) {
      tmp[j] = 1.0f * j + t;
    }
    for (int j = 0; j < 8; j++) {
      sum += tmp[j];
    }
  }
  out[t] = sum;
}
void run(float* out, int iters) { k<<<1, 4>>>(out, iters); }
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  const int iters = 10000;
  std::vector<float> out(4, -1.0f);
  driver::Executor exec(cc.module.get(), 1);
  exec.run("run", {driver::Executor::bufferF32(out.data(), {4}),
                   int64_t(iters)});
  // Each iteration contributes sum_j (j + t) = 28 + 8t.
  for (int t = 0; t < 4; ++t)
    EXPECT_FLOAT_EQ(out[t], float(iters) * (28.0f + 8.0f * t)) << t;
}

//===----------------------------------------------------------------------===//
// Lockstep SIMT emulator edge cases
//===----------------------------------------------------------------------===//

namespace {
void runSimtKernel(const std::string &src,
                   std::vector<driver::Executor::Arg> args) {
  DiagnosticEngine diag;
  auto cc = driver::compileForSimt(src, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  exec.run("run", args);
}
} // namespace

TEST(SimtTest, ZeroBlockLaunchIsNoOp) {
  const char *src = R"(
__global__ void k(float* a) { a[threadIdx.x] = 1.0f; }
void run(float* a, int blocks) { k<<<blocks, 4>>>(a); }
)";
  std::vector<float> a(4, 0.0f);
  runSimtKernel(src, {driver::Executor::bufferF32(a.data(), {4}),
                      int64_t(0)});
  for (float v : a)
    EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(SimtTest, BarrierOrdersProducerConsumerAcrossThreads) {
  // Thread i produces a[i]; after the barrier thread i consumes
  // a[(i+1) % n]: the emulator must deliver every producer's value.
  const char *src = R"(
__global__ void k(float* a, float* b, int n) {
  int t = threadIdx.x;
  a[t] = 1.0f * t;
  __syncthreads();
  b[t] = a[(t + 1) % n];
}
void run(float* a, float* b, int n) { k<<<1, 16>>>(a, b, n); }
)";
  std::vector<float> a(16, -1.0f), b(16, -1.0f);
  runSimtKernel(src, {driver::Executor::bufferF32(a.data(), {16}),
                      driver::Executor::bufferF32(b.data(), {16}),
                      int64_t(16)});
  for (int t = 0; t < 16; ++t)
    EXPECT_FLOAT_EQ(b[t], static_cast<float>((t + 1) % 16));
}

TEST(SimtTest, PerThreadLocalArraysAreIndependent) {
  const char *src = R"(
__global__ void k(float* out) {
  int t = threadIdx.x;
  float scratch[4];
  for (int i = 0; i < 4; i++) {
    scratch[i] = 1.0f * t + i;
  }
  __syncthreads();
  float sum = 0.0f;
  for (int i = 0; i < 4; i++) {
    sum += scratch[i];
  }
  out[t] = sum;
}
void run(float* out) { k<<<1, 8>>>(out); }
)";
  std::vector<float> out(8, -1.0f);
  runSimtKernel(src, {driver::Executor::bufferF32(out.data(), {8})});
  for (int t = 0; t < 8; ++t)
    EXPECT_FLOAT_EQ(out[t], 4.0f * t + 6.0f) << t;
}

TEST(SimtTest, GridAndBlockIdsCoverLaunch) {
  const char *src = R"(
__global__ void k(int* hits, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    hits[i] = hits[i] + 1;
  }
}
void run(int* hits, int n) { k<<<3, 8>>>(hits, n); }
)";
  std::vector<int32_t> hits(24, 0);
  runSimtKernel(src, {driver::Executor::bufferI32(hits.data(), {24}),
                      int64_t(24)});
  for (int i = 0; i < 24; ++i)
    EXPECT_EQ(hits[i], 1) << i;
}

// The same per-thread-local-array program must survive the full pipeline,
// where the local array is replicated into a block-level buffer by
// fission (alloca replication).
TEST(SimtTest, LocalArrayReplicationThroughPipeline) {
  const char *src = R"(
__global__ void k(float* out) {
  int t = threadIdx.x;
  float scratch[4];
  for (int i = 0; i < 4; i++) {
    scratch[i] = 1.0f * t + i;
  }
  __syncthreads();
  float sum = 0.0f;
  for (int i = 0; i < 4; i++) {
    sum += scratch[i];
  }
  out[t] = sum;
}
void run(float* out) { k<<<1, 8>>>(out); }
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  std::vector<float> out(8, -1.0f);
  driver::Executor exec(cc.module.get(), 2);
  exec.run("run", {driver::Executor::bufferF32(out.data(), {8})});
  for (int t = 0; t < 8; ++t)
    EXPECT_FLOAT_EQ(out[t], 4.0f * t + 6.0f) << t;
}
