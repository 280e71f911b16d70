// Dead scalar elimination.
//
// The lowerer materializes every MATLAB variable (loop-variable mirrors,
// shape-query temps) whether or not anything reads it. All LIR right-hand
// sides are pure (loads have no side effects), so any Assign/DeclScalar whose
// target is never read — and is not a function output — can be dropped.
// Removing an assignment removes its operand reads, so the removal runs in
// levels: level 1 is every unread variable, level k + 1 every variable
// whose last reads were in the definitions of level k. Each variable's
// reads are counted once; dropping a level decrements the counts of what
// its definitions read. One call removes at most 32 levels and returns how
// many it removed; a longer chain keeps its head for the next dce pass.
#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include "lir/analysis.hpp"
#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

constexpr int kMaxDeadLevels = 32;

bool definesScalar(const Stmt& s) {
  return s.kind == StmtKind::Assign || s.kind == StmtKind::DeclScalar;
}

struct ScalarUse {
  int reads = 0;
  bool keep = false;
  bool dead = false;
  int firstDef = -1;  // its definitions: a list through Def::next
};

/// Every definition statement, each linked to the next of the same name.
struct Def {
  const Stmt* stmt;
  int next;
};

/// Drops from every block the definitions of dead variables.
void sweepDeadDefs(std::vector<StmtPtr>& block,
                   const std::unordered_map<std::string, ScalarUse>& uses) {
  for (auto& sp : block) {
    forEachBlock(*sp, [&](auto& inner) { sweepDeadDefs(inner, uses); });
  }
  std::erase_if(block, [&](const StmtPtr& sp) {
    return definesScalar(*sp) && uses.at(sp->name).dead;
  });
}

}  // namespace

int eliminateDeadScalars(lir::Function& fn) {
  std::unordered_map<std::string, ScalarUse> uses;
  std::vector<Def> defs;
  walkNodes(
      fn.body,
      [&](const Stmt& s) {
        if (!definesScalar(s)) return;
        ScalarUse& use = uses[s.name];
        defs.push_back({&s, use.firstDef});
        use.firstDef = static_cast<int>(defs.size()) - 1;
      },
      [&](const Expr& e) {
        if (e.kind == ExprKind::VarRef) ++uses[e.name].reads;
      });
  for (const auto& o : fn.outs) {
    if (!o.isArray) uses[o.name].keep = true;
  }
  auto dies = [](const ScalarUse& u) { return u.reads == 0 && !u.keep && u.firstDef >= 0; };

  std::vector<ScalarUse*> level;
  for (auto& [name, use] : uses) {
    if (dies(use)) level.push_back(&use);
  }
  int levels = 0;
  for (; !level.empty() && levels < kMaxDeadLevels; ++levels) {
    std::vector<ScalarUse*> next;
    for (ScalarUse* use : level) {
      use->dead = true;
      for (int d = use->firstDef; d >= 0; d = defs[d].next) {
        if (!defs[d].stmt->value) continue;
        walkExpr(*defs[d].stmt->value, [&](const Expr& e) {
          if (e.kind != ExprKind::VarRef) return;
          ScalarUse& read = uses.at(e.name);
          if (--read.reads == 0 && dies(read)) next.push_back(&read);
        });
      }
    }
    level = std::move(next);
  }
  if (levels > 0) sweepDeadDefs(fn.body, uses);
  return levels;
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
  for (auto& sp : block) {
    forEachBlock(*sp, [&](auto& inner) { removed += sweepDeadStores(inner, deadArrays); });
  }
  removed += static_cast<int>(std::erase_if(block, [&](const StmtPtr& sp) {
    if (sp->kind == StmtKind::Store) return deadArrays.count(sp->name) > 0;
    if (sp->kind == StmtKind::For) {
      // Bounds are pure: an empty loop only burns cycles, and a loop with
      // provably zero trips (e.g. an exact strip-mine remainder) does
      // nothing at all.
      return sp->body.empty() ||
             (sp->lo->kind == ExprKind::ConstI && sp->hi->kind == ExprKind::ConstI &&
              (sp->step > 0 ? sp->lo->ival >= sp->hi->ival : sp->lo->ival <= sp->hi->ival));
    }
    return sp->kind == StmtKind::If && sp->body.empty() && sp->elseBody.empty();
  }));
  return removed;
}

}  // namespace

int eliminateDeadStores(lir::Function& fn) {
  int removed = 0;
  // Iterate: removing the stores of a never-loaded array can empty a loop,
  // and removing that loop can orphan another array's only loads.
  ArrayRefs refs = arrayRefs(fn.body);
  for (int round = 0; round < 16; ++round) {
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
    refs = arrayRefs(fn.body);
  }
  // Drop local array declarations nothing references anymore.
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
