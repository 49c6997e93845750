// Module-queue stress tests: a 4x-duplicated Rodinia suite with a
// deterministic random per-module pipeline mix, compiled under
// --pm-threads={1,2,8}, repeatedly — asserting bit-for-bit output
// identity with a 1-thread reference, no deadlocks (a hang fails the
// ctest timeout), and jobs resolving before the batch ends.
#include "driver/compiler.h"
#include "ir/printer.h"
#include "rodinia/rodinia.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace paralift;
using transforms::PipelineOptions;

namespace {

/// One queued module of the stress batch.
struct StressJob {
  std::string name;
  const char *source;
  PipelineOptions opts;
};

/// 4x duplicated suite with a seeded random pipeline mix per module —
/// duplicates compile the same kernels on different workers at once,
/// while the mixed pipelines split the batch into overlapping groups.
std::vector<StressJob> stressJobs() {
  const PipelineOptions modes[] = {PipelineOptions{},
                                   PipelineOptions::optDisabled(),
                                   PipelineOptions::mcuda()};
  std::mt19937 rng(12345);
  std::vector<StressJob> jobs;
  for (int rep = 0; rep < 4; ++rep)
    for (const auto &b : rodinia::suite())
      jobs.push_back({b.id + "#" + std::to_string(rep), b.cudaSource,
                      modes[rng() % 3]});
  return jobs;
}

std::vector<std::string> compileStress(const std::vector<StressJob> &jobs,
                                       unsigned threads) {
  driver::SessionOptions so;
  so.threads = threads;
  driver::CompilerSession session(std::move(so));
  std::vector<driver::CompileJob *> handles;
  for (const StressJob &j : jobs)
    handles.push_back(&session.addSource(j.name, j.source, j.opts));
  EXPECT_TRUE(session.compileAll());
  std::vector<std::string> out;
  for (driver::CompileJob *h : handles) {
    EXPECT_TRUE(h->ok()) << h->name() << ": " << h->diagnostics().str();
    out.push_back(h->ok() ? ir::printOp(h->result().module.op())
                          : std::string());
  }
  return out;
}

} // namespace

TEST(SchedulerStressTest, DuplicatedSuiteMixedPipelinesMatchesSerial) {
  std::vector<StressJob> jobs = stressJobs();
  // Serial reference: 1 thread.
  std::vector<std::string> expected = compileStress(jobs, 1);

  for (unsigned threads : {1u, 2u, 8u}) {
    // Repeated runs per thread count; any deadlock hangs the test past
    // its ctest timeout.
    for (int run = 0; run < 3; ++run) {
      std::vector<std::string> got = compileStress(jobs, threads);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i])
            << "threads=" << threads << " run=" << run << " " << jobs[i].name;
    }
  }
}

TEST(SchedulerStressTest, FuturesResolveBeforeCompileAllReturns) {
  // Every job must resolve during the batch; with >1 module the first
  // job resolves while the batch is still in flight, so its latency
  // stamp is well short of the last one's.
  std::vector<StressJob> jobs = stressJobs();
  driver::SessionOptions so;
  so.threads = 8;
  driver::CompilerSession session(std::move(so));
  std::vector<driver::CompileJob *> handles;
  for (const StressJob &j : jobs)
    handles.push_back(&session.addSource(j.name, j.source, j.opts));
  EXPECT_TRUE(session.compileAll());
  // Readable in any order once compileAll returns.
  double minLatency = 1e30, maxLatency = 0;
  for (auto it = handles.rbegin(); it != handles.rend(); ++it) {
    EXPECT_TRUE((*it)->ready());
    EXPECT_TRUE((*it)->ok()) << (*it)->diagnostics().str();
    minLatency = std::min(minLatency, (*it)->latencySeconds());
    maxLatency = std::max(maxLatency, (*it)->latencySeconds());
  }
  // The first completion came before an unfinished batch's end.
  EXPECT_LT(minLatency, maxLatency / 2);
}
