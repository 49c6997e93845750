// AnalysisManager tests: compute-and-cache semantics, invalidation
// driven by PreservedAnalyses (static and dynamic declarations), the
// verify-mode cross-checker (including that it catches a deliberately
// lying pass), and the acceptance sweep: every pass's declaration holds
// by recomputation across the full Rodinia suite in all pipeline modes.
#include "driver/compiler.h"
#include "frontend/irgen.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "rodinia/rodinia.h"
#include "transforms/analysis_manager.h"
#include "transforms/registry.h"

#include <gtest/gtest.h>

using namespace paralift;
using namespace paralift::ir;
using namespace paralift::transforms;

namespace {

OwnedModule parseOk(const std::string &text) {
  DiagnosticEngine diag;
  auto m = ir::parseModule(text, diag);
  EXPECT_TRUE(m.has_value()) << diag.str();
  return std::move(*m);
}

/// A kernel-shaped module: a gpu.block parallel with a barrier between a
/// thread-private store and a shifted (cross-thread) load — the barrier
/// is NOT redundant.
const char *kBarrierModule = R"(module {
  func {sym_name = "f", res_types = []} {
    [%0: memref<?xf32>, %1: memref<?xf32>]:
    %2 = const.int {value = 0} : index
    %3 = const.int {value = 16} : index
    %4 = const.int {value = 1} : index
    scf.parallel(%2, %3, %4) {dims = 1, gpu.block = true} {
      [%5: index]:
      %6 = memref.load(%0, %5) : f32
      memref.store(%6, %1, %5)
      polygeist.barrier
      %7 = const.int {value = 1} : index
      %8 = addi(%5, %7) : index
      %9 = remsi(%8, %3) : index
      %10 = memref.load(%1, %9) : f32
      memref.store(%10, %0, %5)
      yield
    }
    return
  }
})";

Op *firstFunc(ModuleOp m) {
  for (Op *op : m.body())
    if (op->kind() == OpKind::Func)
      return op;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Analysis results
//===----------------------------------------------------------------------===//

TEST(AnalysisResultsTest, BarrierAnalysisSeesRedundancy) {
  OwnedModule m = parseOk(kBarrierModule);
  Op *func = firstFunc(m.get());
  BarrierAnalysis ba = BarrierAnalysis::compute(func);
  ASSERT_EQ(ba.barriers.size(), 1u);
  EXPECT_TRUE(ba.barriers[0].inThreadParallel);
  EXPECT_FALSE(ba.barriers[0].redundant);
  EXPECT_TRUE(ba.noneRedundant()); // the one barrier is non-redundant
  EXPECT_GT(ba.barriers[0].beforeReads, 0u);
  EXPECT_GT(ba.barriers[0].afterWrites, 0u);
}

TEST(AnalysisResultsTest, MemoryAnalysisCounts) {
  OwnedModule m = parseOk(kBarrierModule);
  MemoryAnalysis ma = MemoryAnalysis::compute(firstFunc(m.get()));
  EXPECT_EQ(ma.reads, 2u);
  EXPECT_EQ(ma.writes, 2u);
  EXPECT_EQ(ma.allocs, 0u);
  EXPECT_FALSE(ma.readOnly());
}

TEST(AnalysisResultsTest, AffineAnalysisThreadPrivate) {
  OwnedModule m = parseOk(kBarrierModule);
  AffineAnalysis aa = AffineAnalysis::compute(firstFunc(m.get()));
  ASSERT_EQ(aa.threadParallels.size(), 1u);
  EXPECT_EQ(aa.threadParallels[0].accesses, 4u);
  // The %9 = (%5+1) mod 16 indexed load is cross-thread; the rest are
  // injective in the thread IV.
  EXPECT_EQ(aa.threadParallels[0].threadPrivate, 3u);
}

TEST(AnalysisResultsTest, FingerprintIsDeterministic) {
  OwnedModule m1 = parseOk(kBarrierModule);
  OwnedModule m2 = parseOk(kBarrierModule);
  // Distinct Op instances, identical IR: identical fingerprints.
  EXPECT_EQ(BarrierAnalysis::compute(firstFunc(m1.get())).fingerprint(),
            BarrierAnalysis::compute(firstFunc(m2.get())).fingerprint());
  EXPECT_EQ(MemoryAnalysis::compute(firstFunc(m1.get())).fingerprint(),
            MemoryAnalysis::compute(firstFunc(m2.get())).fingerprint());
  EXPECT_EQ(AffineAnalysis::compute(firstFunc(m1.get())).fingerprint(),
            AffineAnalysis::compute(firstFunc(m2.get())).fingerprint());
}

//===----------------------------------------------------------------------===//
// PreservedAnalyses
//===----------------------------------------------------------------------===//

TEST(PreservedAnalysesTest, SetOperations) {
  EXPECT_TRUE(PreservedAnalyses::all().isAll());
  EXPECT_TRUE(PreservedAnalyses::none().isNone());
  PreservedAnalyses p =
      PreservedAnalyses::none().preserve(AnalysisKind::Barrier);
  EXPECT_TRUE(p.isPreserved(AnalysisKind::Barrier));
  EXPECT_FALSE(p.isPreserved(AnalysisKind::Memory));
  PreservedAnalyses q =
      PreservedAnalyses::none().preserve(AnalysisKind::Barrier).preserve(
          AnalysisKind::Memory);
  EXPECT_TRUE(p.intersect(q).isPreserved(AnalysisKind::Barrier));
  EXPECT_FALSE(p.intersect(q).isPreserved(AnalysisKind::Memory));
  EXPECT_EQ(PreservedAnalyses::all().str(), "all");
  EXPECT_EQ(PreservedAnalyses::none().str(), "none");
  EXPECT_EQ(q.str(), "barrier+memory");
}

//===----------------------------------------------------------------------===//
// Caching and invalidation
//===----------------------------------------------------------------------===//

TEST(AnalysisManagerTest, ComputesOnceThenHits) {
  OwnedModule m = parseOk(kBarrierModule);
  Op *func = firstFunc(m.get());
  AnalysisManager am;
  const BarrierAnalysis &a = am.getBarrier(func);
  const BarrierAnalysis &b = am.getBarrier(func);
  EXPECT_EQ(&a, &b); // same cached object
  auto s = am.stats();
  EXPECT_EQ(s.computed[unsigned(AnalysisKind::Barrier)], 1u);
  EXPECT_EQ(s.hits[unsigned(AnalysisKind::Barrier)], 1u);
}

TEST(AnalysisManagerTest, InvalidationRespectsPreservedSet) {
  OwnedModule m = parseOk(kBarrierModule);
  Op *func = firstFunc(m.get());
  AnalysisManager am;
  am.getBarrier(func);
  am.getMemory(func);
  am.getAffine(func);
  am.invalidate(func,
                PreservedAnalyses::none().preserve(AnalysisKind::Barrier));
  EXPECT_TRUE(am.isCached(func, AnalysisKind::Barrier));
  EXPECT_FALSE(am.isCached(func, AnalysisKind::Memory));
  EXPECT_FALSE(am.isCached(func, AnalysisKind::Affine));
  am.invalidate(func);
  EXPECT_FALSE(am.isCached(func, AnalysisKind::Barrier));
  EXPECT_EQ(am.stats().invalidated, 3u);
}

TEST(AnalysisManagerTest, PipelineInvalidationFollowsDeclarations) {
  // cse on already-clean IR changes nothing (dynamic all-preserved) and
  // no constant-trip scf.for exists for unroll; cpuify then restructures
  // the nest and must drop everything.
  OwnedModule m = parseOk(kBarrierModule);
  PassManager pm;
  DiagnosticEngine diag;
  ASSERT_TRUE(buildPipelineFromSpec(pm, "cse,unroll,cpuify", diag));
  Op *func = firstFunc(m.get());
  pm.analysisManager().getBarrier(func);
  pm.analysisManager().getMemory(func);
  ASSERT_TRUE(pm.run(m.get(), diag)) << diag.str();
  EXPECT_FALSE(pm.analysisManager().isCached(func, AnalysisKind::Barrier));
  EXPECT_FALSE(pm.analysisManager().isCached(func, AnalysisKind::Memory));
}

TEST(AnalysisManagerTest, NoOpCleanupPassesPreserveEverything) {
  OwnedModule m = parseOk(kBarrierModule);
  // First canonicalize+cse round reaches the fixpoint...
  DiagnosticEngine diag;
  ASSERT_TRUE(runPassPipeline(m.get(), "canonicalize,cse", diag))
      << diag.str();
  // ...then a pipeline of cleanup passes over clean IR preserves every
  // cached analysis (their dynamic declarations report "unchanged").
  PassManager pm;
  ASSERT_TRUE(buildPipelineFromSpec(
      pm, "canonicalize,cse,mem2reg,store-forward,licm", diag));
  Op *func = firstFunc(m.get());
  pm.analysisManager().getBarrier(func);
  pm.analysisManager().getMemory(func);
  pm.analysisManager().getAffine(func);
  ASSERT_TRUE(pm.run(m.get(), diag)) << diag.str();
  EXPECT_TRUE(pm.analysisManager().isCached(func, AnalysisKind::Barrier));
  EXPECT_TRUE(pm.analysisManager().isCached(func, AnalysisKind::Memory));
  EXPECT_TRUE(pm.analysisManager().isCached(func, AnalysisKind::Affine));
}

TEST(AnalysisManagerTest, BarrierElimConsumesCachedAnalysis) {
  OwnedModule m = parseOk(kBarrierModule);
  PassManager pm;
  DiagnosticEngine diag;
  ASSERT_TRUE(buildPipelineFromSpec(pm, "barrier-elim", diag));
  Op *func = firstFunc(m.get());
  pm.analysisManager().getBarrier(func); // primed: 1 compute
  ASSERT_TRUE(pm.run(m.get(), diag)) << diag.str();
  // The pass consumed the primed result instead of recomputing.
  auto s = pm.analysisManager().stats();
  EXPECT_EQ(s.computed[unsigned(AnalysisKind::Barrier)], 1u);
  EXPECT_GE(s.hits[unsigned(AnalysisKind::Barrier)], 1u);
  // Non-redundant barrier: still present, and the no-op run preserved
  // the cached result.
  EXPECT_NE(printOp(m.op()).find("polygeist.barrier"), std::string::npos);
  EXPECT_TRUE(pm.analysisManager().isCached(func, AnalysisKind::Barrier));
}

namespace {

/// Erases the first store it finds; declares nothing preserved.
class EraseStorePass : public FunctionPass {
public:
  EraseStorePass() : FunctionPass("erase-store", "test-only mutator") {}
  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    Op *victim = nullptr;
    func->walk([&](Op *op) {
      if (!victim && op->kind() == OpKind::Store)
        victim = op;
    });
    if (victim)
      victim->erase();
    return true;
  }
};

/// Records the write count MemoryAnalysis reports through the
/// AnalysisManager at the time it runs.
class ProbeMemoryPass : public FunctionPass {
public:
  ProbeMemoryPass(std::vector<uint64_t> *seen)
      : FunctionPass("probe-memory", "test-only analysis consumer"),
        seen_(seen) {}
  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    seen_->push_back(getAnalysisManager()->getMemory(func).writes);
    return true;
  }
  PreservedAnalyses preservedAnalyses() const override {
    return PreservedAnalyses::all();
  }

private:
  std::vector<uint64_t> *seen_;
};

} // namespace

TEST(AnalysisManagerTest, RepeatInvalidatesBetweenChildren) {
  // A mutating child inside repeat must not leave stale analyses for a
  // consuming sibling: the repeat invalidates per the child's declared
  // preservation after every child run, not just at top level.
  OwnedModule m = parseOk(kBarrierModule); // 2 stores initially
  std::vector<uint64_t> seen;
  auto repeat = std::make_unique<RepeatPass>();
  std::string err;
  ASSERT_TRUE(repeat->setOption("n", "2", &err)) << err;
  repeat->addChild(std::make_unique<EraseStorePass>());
  repeat->addChild(std::make_unique<ProbeMemoryPass>(&seen));
  PassManager pm;
  pm.addPass(std::move(repeat));
  DiagnosticEngine diag;
  ASSERT_TRUE(pm.run(m.get(), diag)) << diag.str();
  // Round 1 erases one store (2 -> 1), round 2 the other (1 -> 0); the
  // probe must observe the fresh counts, not a stale cached result.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 1u);
  EXPECT_EQ(seen[1], 0u);
}

//===----------------------------------------------------------------------===//
// Verify mode
//===----------------------------------------------------------------------===//

namespace {

/// Erases the first store it finds but claims to preserve everything —
/// the verify-mode cross-check must catch the lie.
class LyingPass : public FunctionPass {
public:
  LyingPass() : FunctionPass("liar", "test-only dishonest pass") {}
  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    Op *victim = nullptr;
    func->walk([&](Op *op) {
      if (!victim && op->kind() == OpKind::Store)
        victim = op;
    });
    if (victim)
      victim->erase();
    return true;
  }
  PreservedAnalyses preservedAnalyses() const override {
    return PreservedAnalyses::all();
  }
};

} // namespace

TEST(AnalysisVerifyTest, CatchesLyingPass) {
  OwnedModule m = parseOk(kBarrierModule);
  PassManager pm;
  pm.addPass(std::make_unique<LyingPass>());
  pm.enableAnalysisVerify();
  DiagnosticEngine diag;
  EXPECT_FALSE(pm.run(m.get(), diag));
  EXPECT_NE(diag.str().find("pass 'liar' declared analysis"),
            std::string::npos)
      << diag.str();
  EXPECT_NE(diag.str().find("preserved but it changed for function 'f'"),
            std::string::npos)
      << diag.str();
}

TEST(AnalysisVerifyTest, HonestPipelinePasses) {
  OwnedModule m = parseOk(kBarrierModule);
  PassManager pm;
  DiagnosticEngine diag;
  ASSERT_TRUE(buildPipelineFromSpec(
      pm,
      "canonicalize,cse,mem2reg,store-forward,licm,barrier-elim,"
      "barrier-motion,unroll,cpuify,omp-lower",
      diag));
  pm.enableAnalysisVerify();
  EXPECT_TRUE(pm.run(m.get(), diag)) << diag.str();
}

// Acceptance criterion: verify-mode recomputation confirms every pass's
// declared PreservedAnalyses across the full Rodinia suite, in every
// pipeline mode the ablation sweep uses (no stale-analysis divergence).
TEST(AnalysisVerifyTest, RodiniaSuiteFullOpts) {
  driver::SessionOptions so;
  so.verifyAnalyses = true;
  for (const auto &b : rodinia::suite()) {
    DiagnosticEngine diag;
    auto cc = driver::compile(b.cudaSource, PipelineOptions{}, diag, so);
    EXPECT_TRUE(cc.ok) << b.id << ": " << diag.str();
  }
}

TEST(AnalysisVerifyTest, RodiniaSuiteOptDisabled) {
  driver::SessionOptions so;
  so.verifyAnalyses = true;
  for (const auto &b : rodinia::suite()) {
    DiagnosticEngine diag;
    auto cc = driver::compile(b.cudaSource, PipelineOptions::optDisabled(),
                              diag, so);
    EXPECT_TRUE(cc.ok) << b.id << ": " << diag.str();
  }
}

TEST(AnalysisVerifyTest, RodiniaSuiteMcuda) {
  driver::SessionOptions so;
  so.verifyAnalyses = true;
  for (const auto &b : rodinia::suite()) {
    DiagnosticEngine diag;
    auto cc = driver::compile(b.cudaSource, PipelineOptions::mcuda(), diag,
                              so);
    EXPECT_TRUE(cc.ok) << b.id << ": " << diag.str();
  }
}
