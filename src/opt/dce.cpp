// Dead scalar elimination.
//
// The lowerer materializes every MATLAB variable (loop-variable mirrors,
// shape-query temps) whether or not anything reads it. All LIR right-hand
// sides are pure (loads have no side effects), so any Assign/DeclScalar whose
// target is never read — and is not a function output — can be dropped.
// Iterates to a fixpoint since removing an assignment removes its operand
// reads.
#include <set>
#include <string>

#include "lir/analysis.hpp"
#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

bool sweepBlock(std::vector<StmtPtr>& block, const std::set<std::string>& reads,
                const std::set<std::string>& keep) {
  bool changed = false;
  std::vector<StmtPtr> out;
  out.reserve(block.size());
  for (auto& sp : block) {
    forEachBlock(*sp, [&](auto& inner) { changed |= sweepBlock(inner, reads, keep); });
    bool dead = (sp->kind == StmtKind::Assign || sp->kind == StmtKind::DeclScalar) &&
                !keep.count(sp->name) && !reads.count(sp->name);
    if (dead) {
      changed = true;
    } else {
      out.push_back(std::move(sp));
    }
  }
  block = std::move(out);
  return changed;
}

}  // namespace

int eliminateDeadScalars(lir::Function& fn) {
  std::set<std::string> keep;
  for (const auto& o : fn.outs) {
    if (!o.isArray) keep.insert(o.name);
  }
  int rounds = 0;
  for (; rounds < 32; ++rounds) {
    if (!sweepBlock(fn.body, varReads(fn.body), keep)) break;
  }
  return rounds;
}

namespace {

/// The arrays a block loads (Load), marks (BoundsCheck/AllocMark) and
/// stores to.
struct ArrayRefs {
  std::set<std::string> loads, marks, stores;
};

ArrayRefs arrayRefs(const std::vector<StmtPtr>& block) {
  ArrayRefs refs;
  walkNodes(
      block,
      [&](const Stmt& s) {
        if (s.kind == StmtKind::BoundsCheck || s.kind == StmtKind::AllocMark) {
          refs.marks.insert(s.name);
        }
        if (s.kind == StmtKind::Store) refs.stores.insert(s.name);
      },
      [&](const Expr& e) {
        if (e.kind == ExprKind::Load) refs.loads.insert(e.name);
      });
  return refs;
}

int sweepDeadStores(std::vector<StmtPtr>& block, const std::set<std::string>& deadArrays) {
  int removed = 0;
  std::vector<StmtPtr> out;
  out.reserve(block.size());
  for (auto& sp : block) {
    forEachBlock(*sp, [&](auto& inner) { removed += sweepDeadStores(inner, deadArrays); });
    bool drop = false;
    if (sp->kind == StmtKind::Store && deadArrays.count(sp->name)) {
      drop = true;
    } else if (sp->kind == StmtKind::For && sp->body.empty()) {
      drop = true;  // bounds are pure; an empty loop only burns cycles
    } else if (sp->kind == StmtKind::For && sp->lo->kind == ExprKind::ConstI &&
               sp->hi->kind == ExprKind::ConstI &&
               (sp->step > 0 ? sp->lo->ival >= sp->hi->ival
                             : sp->lo->ival <= sp->hi->ival)) {
      drop = true;  // provably zero trips (e.g. an exact strip-mine remainder)
    } else if (sp->kind == StmtKind::If && sp->body.empty() && sp->elseBody.empty()) {
      drop = true;
    }
    if (drop) {
      ++removed;
    } else {
      out.push_back(std::move(sp));
    }
  }
  block = std::move(out);
  return removed;
}

}  // namespace

int eliminateDeadStores(lir::Function& fn) {
  int removed = 0;
  // Iterate: removing the stores of a never-loaded array can empty a loop,
  // and removing that loop can orphan another array's only loads.
  for (int round = 0; round < 16; ++round) {
    ArrayRefs refs = arrayRefs(fn.body);
    // Only function-local arrays qualify: outputs escape to the caller and
    // writes through array parameters are visible there too. An AllocMark or
    // BoundsCheck models a runtime effect on the array (growth bookkeeping /
    // a trap); keep such arrays untouched.
    std::set<std::string> deadArrays;
    for (const auto& a : fn.arrays) {
      if (!refs.loads.count(a.name) && !refs.marks.count(a.name)) deadArrays.insert(a.name);
    }
    int n = sweepDeadStores(fn.body, deadArrays);
    if (n == 0) break;
    removed += n;
  }
  // Drop local array declarations nothing references anymore.
  ArrayRefs refs = arrayRefs(fn.body);
  std::vector<ArrayDecl> kept;
  for (auto& a : fn.arrays) {
    if (refs.loads.count(a.name) || refs.marks.count(a.name) || refs.stores.count(a.name)) {
      kept.push_back(std::move(a));
    } else {
      ++removed;
    }
  }
  fn.arrays = std::move(kept);
  return removed;
}

}  // namespace mat2c::opt
