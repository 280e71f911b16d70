// Loop-invariant code motion + register promotion.
//
// Two related transforms, applied per `for` loop from the innermost out:
//
// 1. Register promotion: an array whose every in-loop access uses a
//    compile-time-constant, in-bounds index (the shape recurrence unrolling
//    produces for state arrays like the iir z1/z2 delay lines) is replaced
//    by one scalar per touched element — preloaded before the loop,
//    referenced/assigned inside it, and unconditionally stored back after
//    it. The writeback is value-preserving even for zero-trip loops: the
//    scalars still hold the preloaded values.
//
// 2. Invariant hoisting: the largest f64/c64 subexpressions whose variable
//    reads and array loads are untouched by the loop are computed once into
//    a scalar ahead of the loop. Loads may only be speculated ahead of the
//    loop when the index is provably in bounds or the loop provably runs at
//    least once with the load executed unconditionally (the VM faults on
//    out-of-bounds accesses, so a blind preload could trap where the
//    original program did not). i64 expressions are never touched: the
//    target's AGUs make index arithmetic free, and materializing it into
//    registers would only obscure the emitted C.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "lir/analysis.hpp"
#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

struct Licm {
  const Function& fn;
  std::set<std::string> usedNames;
  int freshId = 0;
  int hoisted = 0;
  int promoted = 0;

  explicit Licm(Function& f) : fn(f) {
    AccessInfo all;
    for (const auto& s : f.body) collectAccess(*s, all);
    for (const auto& n : all.scalarReads) usedNames.insert(n);
    for (const auto& n : all.scalarWrites) usedNames.insert(n);
    for (const auto& p : f.params) usedNames.insert(p.name);
    for (const auto& o : f.outs) usedNames.insert(o.name);
    for (const auto& a : f.arrays) usedNames.insert(a.name);
  }

  std::string fresh(const std::string& hint) {
    std::string name;
    do {
      name = "h" + std::to_string(freshId++) + "_" + hint;
    } while (usedNames.count(name));
    usedNames.insert(name);
    return name;
  }

  void visitBlock(std::vector<StmtPtr>& block) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      forEachBlock(*block[i], [&](auto& inner) { visitBlock(inner); });
      if (block[i]->kind != StmtKind::For) continue;
      std::vector<StmtPtr> pre, post;
      processLoop(*block[i], pre, post);
      if (pre.empty() && post.empty()) continue;
      std::vector<StmtPtr> out;
      out.reserve(block.size() + pre.size() + post.size());
      for (std::size_t k = 0; k < i; ++k) out.push_back(std::move(block[k]));
      std::size_t skip = pre.size();
      for (auto& s : pre) out.push_back(std::move(s));
      out.push_back(std::move(block[i]));
      for (auto& s : post) out.push_back(std::move(s));
      for (std::size_t k = i + 1; k < block.size(); ++k) out.push_back(std::move(block[k]));
      block = std::move(out);
      i += skip + post.size();  // continue after the loop and its writebacks
    }
  }

  void processLoop(Stmt& loop, std::vector<StmtPtr>& pre, std::vector<StmtPtr>& post) {
    AccessInfo info;
    for (const auto& s : loop.body) collectAccess(*s, info);
    info.scalarWrites.insert(loop.name);
    if (info.hasLoopControl) return;  // break/continue: iterations differ

    promoteArrays(loop, info, pre, post);

    // Promotion rewrote stores into scalar assigns; recompute the write sets
    // so the new scalars are (correctly) treated as loop-varying.
    AccessInfo after;
    for (const auto& s : loop.body) collectAccess(*s, after);
    after.scalarWrites.insert(loop.name);
    hoistInvariants(loop, after, pre);
  }

  // ---- register promotion -------------------------------------------------

  bool promotable(const Stmt& loop, const std::string& array) {
    Scalar elem;
    std::int64_t numel = 0;
    if (!fn.arrayInfo(array, elem, numel)) return false;
    auto inBounds = [&](const Expr& index) {
      return index.kind == ExprKind::ConstI && index.ival >= 0 && index.ival < numel;
    };
    bool ok = true;
    walkNodes(
        loop.body,
        [&](const Stmt& s) {
          if (s.name != array) return;
          if (s.kind == StmtKind::BoundsCheck || s.kind == StmtKind::AllocMark) ok = false;
          if (s.kind == StmtKind::Store &&
              (!s.value || s.value->type.lanes != 1 || !inBounds(*s.index))) {
            ok = false;
          }
        },
        [&](const Expr& e) {
          if (e.kind == ExprKind::Load && e.name == array &&
              (e.type.lanes != 1 || !inBounds(*e.index))) {
            ok = false;
          }
        });
    return ok;
  }

  void promoteArrays(Stmt& loop, const AccessInfo& info, std::vector<StmtPtr>& pre,
                     std::vector<StmtPtr>& post) {
    for (const auto& array : info.arrayWrites) {
      if (!promotable(loop, array)) continue;
      Scalar elem;
      std::int64_t numel = 0;
      fn.arrayInfo(array, elem, numel);
      VType type{elem, 1};

      // Collect touched element indices in first-touch order.
      std::vector<std::int64_t> touched;
      std::map<std::int64_t, std::string> names;
      auto touch = [&](const std::string& name, const Expr& index) {
        if (name == array && names.emplace(index.ival, "").second) touched.push_back(index.ival);
      };
      walkNodes(
          loop.body,
          [&](const Stmt& s) {
            if (s.kind == StmtKind::Store) touch(s.name, *s.index);
          },
          [&](const Expr& e) {
            if (e.kind == ExprKind::Load) touch(e.name, *e.index);
          });
      if (touched.empty()) continue;

      for (std::int64_t k : touched) {
        names[k] = fresh(array + "_" + std::to_string(k));
        pre.push_back(declScalar(names[k], type, load(array, constI(k), type)));
        post.push_back(store(array, constI(k), varRef(names[k], type)));
        ++promoted;
        ++hoisted;
      }

      // Rewrite in-loop accesses to the scalars. A promoted Store becomes an
      // Assign before its slots are walked, so its index is dropped, not
      // rewritten.
      walkStmts(loop.body, [&](Stmt& s) {
        if (s.kind == StmtKind::Store && s.name == array) {
          s.kind = StmtKind::Assign;
          s.name = names[s.index->ival];
          s.index.reset();
        }
        forEachExpr(s, [&](ExprPtr& e) {
          walkSlots(e, [&](ExprPtr& x) {
            if (x->kind != ExprKind::Load || x->name != array) return true;
            x = varRef(names[x->index->ival], type);
            return false;
          });
        });
      });
    }
  }

  // ---- invariant hoisting -------------------------------------------------

  bool tripAtLeastOne(const Stmt& loop) const {
    return loop.lo->kind == ExprKind::ConstI && loop.hi->kind == ExprKind::ConstI &&
           (loop.step > 0 ? loop.lo->ival < loop.hi->ival
                          : loop.lo->ival > loop.hi->ival);
  }

  /// Every Load inside `e` is provably in bounds (constant index within the
  /// static extent).
  bool loadsProvablyInBounds(const Expr& e) const {
    auto inBounds = [&](const Expr& ld) {
      Scalar elem;
      std::int64_t numel = 0;
      return fn.arrayInfo(ld.name, elem, numel) && ld.index->kind == ExprKind::ConstI &&
             ld.index->ival >= 0 && ld.index->ival + ld.type.lanes - 1 < numel;
    };
    bool ok = true;
    walkExpr(e, [&](const Expr& x) {
      ok = ok && (x.kind != ExprKind::Load || inBounds(x));
      return ok;
    });
    return ok;
  }

  bool invariant(const Expr& e, const AccessInfo& loopInfo) const {
    AccessInfo ei;
    collectAccess(e, ei);
    for (const auto& r : ei.scalarReads) {
      if (loopInfo.scalarWrites.count(r)) return false;
    }
    for (const auto& a : ei.arrayReads) {
      if (loopInfo.arrayWrites.count(a)) return false;
    }
    return true;
  }

  bool hoistableKind(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::Load:
      case ExprKind::Unary:
      case ExprKind::Binary:
      case ExprKind::Fma:
      case ExprKind::Splat: return true;
      default: return false;
    }
  }

  void hoistInvariants(Stmt& loop, const AccessInfo& info, std::vector<StmtPtr>& pre) {
    bool safeSpeculation = tripAtLeastOne(loop);
    // (key expr, unconditional) candidates in first-occurrence order.
    std::vector<ExprPtr> candidates;
    std::vector<std::string> keys;

    bool uncond = true;  // the statement being scanned runs every iteration
    auto scanExpr = [&](const Expr& e) {
      if (!(hoistableKind(e) &&
            (e.type.scalar == Scalar::F64 || e.type.scalar == Scalar::C64) &&
            invariant(e, info) &&
            (!containsLoad(e) || loadsProvablyInBounds(e) || (uncond && safeSpeculation)))) {
        return true;
      }
      std::string key = lir::print(e);
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(std::move(key));
        candidates.push_back(e.clone());
      }
      return false;  // take the largest subtree; children come along
    };
    for (const auto& top : loop.body) {
      walkNodes(*top, [&](const Stmt& s) { uncond = &s == top.get(); }, scanExpr);
    }

    for (auto& e : candidates) {
      std::string name = fresh("inv");
      VType type = e->type;
      // Replace every structural occurrence in the loop body.
      walkStmts(loop.body, [&](Stmt& s) {
        forEachExpr(s, [&](ExprPtr& x) {
          walkSlots(x, [&](ExprPtr& y) {
            if (!exprEquals(*y, *e)) return true;
            y = varRef(name, type);
            return false;
          });
        });
      });
      pre.push_back(declScalar(name, type, std::move(e)));
      ++hoisted;
    }
  }
};

}  // namespace

LicmStats hoistLoopInvariants(lir::Function& fn) {
  Licm licm(fn);
  licm.visitBlock(fn.body);
  return {licm.hoisted, licm.promoted};
}

}  // namespace mat2c::opt
