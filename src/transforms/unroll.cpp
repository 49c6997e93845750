// Full unrolling of scf.for loops with small constant trip counts — the
// "affine" optimization axis of the paper's ablation (Fig. 13 left). The
// headline effect: unrolling a barrier-containing reduction loop (e.g.
// backprop layerforward) turns nested synchronization into straight-line
// barriers, which fission then lowers without interchange, and folds the
// per-iteration `1 << i` / `pow(2, i)` terms into constants.
#include "ir/builder.h"
#include "ir/ophelpers.h"
#include "transforms/passes.h"

#include <unordered_map>

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

bool containsBarrier(Op *op) {
  bool found = false;
  op->walk([&](Op *inner) {
    if (inner->kind() == OpKind::Barrier)
      found = true;
  });
  return found;
}

/// Fully unrolls `op`. Caller guarantees a constant, positive trip count.
void unrollFor(Op *op, int64_t lb, int64_t step, int64_t trips) {
  ForOp forOp(op);
  Builder b;
  b.setInsertionPoint(op);

  std::vector<Value> carried;
  for (unsigned i = 0; i < forOp.numIterArgs(); ++i)
    carried.push_back(forOp.init(i));

  for (int64_t t = 0; t < trips; ++t) {
    std::unordered_map<ValueImpl *, Value> map;
    b.setInsertionPoint(op);
    Value ivConst = b.constIndex(lb + t * step);
    map[forOp.iv().impl()] = ivConst;
    for (unsigned i = 0; i < forOp.numIterArgs(); ++i)
      map[forOp.iterArg(i).impl()] = carried[i];
    std::vector<Value> nextCarried;
    for (Op *inner : forOp.body()) {
      if (inner->kind() == OpKind::Yield) {
        for (unsigned i = 0; i < inner->numOperands(); ++i) {
          Value v = inner->operand(i);
          auto it = map.find(v.impl());
          nextCarried.push_back(it == map.end() ? v : it->second);
        }
        break;
      }
      Op *clone = cloneOp(inner, map);
      op->parent()->insertBefore(op, clone);
    }
    carried = nextCarried;
  }
  for (unsigned i = 0; i < op->numResults(); ++i)
    op->result(i).replaceAllUsesWith(carried[i]);
  op->erase();
}

unsigned unrollRoot(Op *root, int64_t maxTrip) {
  unsigned unrolled = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Op *> loops;
    root->walk([&](Op *op) {
      if (op->kind() == OpKind::ScfFor)
        loops.push_back(op);
    });
    for (Op *op : loops) {
      ForOp forOp(op);
      auto lb = getConstInt(forOp.lb());
      auto ub = getConstInt(forOp.ub());
      auto step = getConstInt(forOp.step());
      if (!lb || !ub || !step || *step <= 0)
        continue;
      int64_t trips = (*ub - *lb + *step - 1) / *step;
      if (trips <= 0)
        continue;
      // Barrier-containing loops get a higher budget: removing nested
      // synchronization is worth the code growth.
      int64_t budget = containsBarrier(op) ? std::max<int64_t>(maxTrip, 32)
                                           : maxTrip;
      if (trips > budget)
        continue;
      unrollFor(op, *lb, *step, trips);
      ++unrolled;
      changed = true;
      break; // re-collect: nested loops may have been cloned
    }
  }
  return unrolled;
}

class UnrollPass : public FunctionPass {
public:
  UnrollPass()
      : FunctionPass("unroll", "fully unroll constant-trip scf.for loops"),
        unrolled_(&statistic("loops-unrolled")) {
    declareIntOption("max-trip", &maxTrip_, 8, /*min=*/0,
                     /*max=*/1 << 20);
  }

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    *unrolled_ += unrollRoot(func, maxTrip_);
    return true;
  }

private:
  int64_t maxTrip_ = 8;
  Statistic *unrolled_;
};

} // namespace

void runUnroll(ModuleOp module, int64_t maxTrip) {
  unrollRoot(module.op, maxTrip);
}

std::unique_ptr<Pass> createUnrollPass(int64_t maxTrip) {
  auto pass = std::make_unique<UnrollPass>();
  pass->setOption("max-trip", std::to_string(maxTrip));
  return pass;
}

} // namespace paralift::transforms
