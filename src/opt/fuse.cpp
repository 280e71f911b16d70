// Cross-statement loop fusion.
//
// Lowering fuses elementwise operations only within a single expression
// tree, so multi-statement kernels leave back-to-back loops over the same
// iteration space unfused. On a target with zero-overhead hardware loops
// fusion saves no loop bookkeeping — its value is that it puts producer and
// consumer statements into one body where the later LICM/CSE passes can
// forward stored values and share loads across what used to be a loop
// boundary.
//
// The pass runs *after* vectorization on purpose: fusing a vectorizable
// loop into a scalar-only neighbor (e.g. a transcendental loop) would trade
// SIMD for locality, which measurably loses on this target. Post-vectorize,
// loops that kept different shapes (vector step vs scalar step) simply fail
// the iteration-space test and are left alone.
//
// Legality, for candidate loops L1 ... L2 in one block:
//   * every statement between them must be independent of L1 (then it is
//     hoisted above L1 to make the loops adjacent),
//   * equal steps and affine-equal bounds,
//   * no outer-scope scalar written by one loop and touched by the other,
//   * for every shared array with at least one write: all indices affine in
//     the induction variable alone with one common stride c, and for every
//     (L1 access, L2 access) pair the element ranges must not overlap
//     across iterations (|k2 + lanes2 - 1 - k1| < |c| * step test, signed by
//     the stride direction). Same-iteration overlap is fine: the fused body
//     preserves statement order within an iteration.
#include <string>
#include <vector>

#include "lir/analysis.hpp"
#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

struct ArrAccess {
  std::string array;
  Affine idx;
  int lanes = 1;
  bool write = false;
};

void collectArrAccesses(const std::vector<StmtPtr>& body, std::vector<ArrAccess>& out) {
  walkNodes(
      body,
      [&](const Stmt& s) {
        if (s.kind == StmtKind::Store) {
          out.push_back({s.name, affineOf(*s.index), s.value ? s.value->type.lanes : 1, true});
        }
        if (s.kind == StmtKind::BoundsCheck) {
          out.push_back({s.name, affineOf(*s.index), 1, false});
        }
        if (s.kind == StmtKind::AllocMark) {
          // Unknown extent touched; represent as a non-affine write so any
          // sharing with the other loop rejects fusion.
          out.push_back({s.name, Affine{}, 1, true});
        }
      },
      [&](const Expr& e) {
        if (e.kind == ExprKind::Load) {
          out.push_back({e.name, affineOf(*e.index), e.type.lanes, false});
        }
      });
}

bool affineEqual(const Expr& a, const Expr& b) {
  Affine d = affineSub(affineOf(a), affineOf(b));
  if (!d.ok || d.constant != 0) return false;
  for (const auto& [name, c] : d.coeffs) {
    if (c != 0) return false;
  }
  return true;
}

struct Fuser {
  int fused = 0;
  int freshId = 0;

  void visitBlock(std::vector<StmtPtr>& block) {
    for (auto& sp : block) {
      forEachBlock(*sp, [&](auto& inner) { visitBlock(inner); });
    }
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (block[i]->kind != StmtKind::For) continue;
      // Keep trying to pull the next fusible loop into block[i]; `i` tracks
      // the loop as intervening statements are hoisted above it.
      while (tryFuseForward(block, i)) ++fused;
    }
  }

  bool tryFuseForward(std::vector<StmtPtr>& block, std::size_t& i) {
    Stmt& l1 = *block[i];
    AccessInfo info1;
    for (const auto& s : l1.body) collectAccess(*s, info1);

    AccessInfo l1Whole;
    collectAccess(l1, l1Whole);

    std::size_t j = i + 1;
    for (; j < block.size(); ++j) {
      if (block[j]->kind == StmtKind::For) break;
      AccessInfo mid;
      collectAccess(*block[j], mid);
      if (!mid.independentOf(l1Whole)) return false;
    }
    if (j >= block.size()) return false;
    Stmt& l2 = *block[j];

    if (!canFuse(l1, info1, l2)) return false;

    // Hoist the independent intervening statements above L1, preserving
    // their order, then splice L2's (renamed) body into L1.
    std::vector<StmtPtr> moved;
    for (std::size_t k = i + 1; k < j; ++k) moved.push_back(std::move(block[k]));

    // Unify induction variables and break declaration collisions.
    std::vector<StmtPtr> body2 = std::move(l2.body);
    std::set<std::string> decls2;
    {
      AccessInfo info2;
      for (const auto& s : body2) collectAccess(*s, info2);
      decls2 = info2.scalarDecls;
    }
    for (const auto& d : info1.scalarDecls) {
      if (decls2.count(d)) {
        std::string fresh = d + "_f" + std::to_string(freshId++);
        for (auto& s : body2) renameVar(*s, d, fresh);
      }
    }
    if (l2.name != l1.name) {
      for (auto& s : body2) renameVar(*s, l2.name, l1.name);
    }
    for (auto& s : body2) l1.body.push_back(std::move(s));

    // Rebuild the block: [0, i) ++ moved ++ L1 ++ (j, end).
    std::vector<StmtPtr> out;
    out.reserve(block.size() - 1);
    for (std::size_t k = 0; k < i; ++k) out.push_back(std::move(block[k]));
    for (auto& s : moved) out.push_back(std::move(s));
    std::size_t newI = out.size();
    out.push_back(std::move(block[i]));
    for (std::size_t k = j + 1; k < block.size(); ++k) out.push_back(std::move(block[k]));
    block = std::move(out);
    i = newI;
    return true;
  }

  bool canFuse(const Stmt& l1, const AccessInfo& info1, const Stmt& l2) {
    if (l1.step != l2.step || l1.step <= 0) return false;
    if (!affineEqual(*l1.lo, *l2.lo) || !affineEqual(*l1.hi, *l2.hi)) return false;

    AccessInfo info2;
    for (const auto& s : l2.body) collectAccess(*s, info2);
    if (info1.hasLoopControl || info2.hasLoopControl) return false;
    if (info1.hasWhile || info2.hasWhile) return false;

    // L2's bounds are re-evaluated at the fused loop's entry; any scalar L1
    // writes that feeds them would change value.
    if (intersects(varReads(*l2.lo), info1.scalarWrites) ||
        intersects(varReads(*l2.hi), info1.scalarWrites)) {
      return false;
    }

    // Induction-variable capture: L2's body must not already reference L1's
    // induction variable before renaming.
    if (l2.name != l1.name &&
        (info2.scalarReads.count(l1.name) || info2.scalarWrites.count(l1.name))) {
      return false;
    }

    // Outer-scope scalar dependences.
    auto outerWrites = [](const AccessInfo& info, const std::string& iv) {
      std::set<std::string> out;
      for (const auto& w : info.scalarWrites) {
        if (!info.scalarDecls.count(w) && w != iv) out.insert(w);
      }
      return out;
    };
    std::set<std::string> w1 = outerWrites(info1, l1.name);
    std::set<std::string> w2 = outerWrites(info2, l2.name);
    if (intersects(w1, info2.scalarReads) || intersects(w1, info2.scalarWrites)) return false;
    if (intersects(w2, info1.scalarReads) || intersects(w2, info1.scalarWrites)) return false;

    // Array dependences on shared arrays.
    std::set<std::string> shared;
    for (const auto& a : info1.arrayWrites) {
      if (info2.arrayReads.count(a) || info2.arrayWrites.count(a)) shared.insert(a);
    }
    for (const auto& a : info2.arrayWrites) {
      if (info1.arrayReads.count(a) || info1.arrayWrites.count(a)) shared.insert(a);
    }
    if (shared.empty()) return true;

    std::vector<ArrAccess> acc1, acc2;
    collectArrAccesses(l1.body, acc1);
    collectArrAccesses(l2.body, acc2);
    for (const auto& arr : shared) {
      std::int64_t stride = 0;
      bool haveStride = false;
      auto checkShape = [&](const ArrAccess& a, const std::string& iv) {
        if (a.array != arr) return true;
        if (!a.idx.ok || !a.idx.onlyVar(iv)) return false;
        std::int64_t c = a.idx.coeff(iv);
        if (!haveStride) {
          stride = c;
          haveStride = true;
        }
        return c == stride;
      };
      for (const auto& a : acc1) {
        if (!checkShape(a, l1.name)) return false;
      }
      for (const auto& a : acc2) {
        if (!checkShape(a, l2.name)) return false;
      }
      for (const auto& a1 : acc1) {
        if (a1.array != arr) continue;
        for (const auto& a2 : acc2) {
          if (a2.array != arr) continue;
          if (!a1.write && !a2.write) continue;
          std::int64_t k1 = a1.idx.constant, k2 = a2.idx.constant;
          if (stride > 0) {
            if (k2 + a2.lanes - 1 - k1 >= stride * l1.step) return false;
          } else if (stride < 0) {
            if (k1 + a1.lanes - 1 - k2 >= -stride * l1.step) return false;
          } else {
            return false;  // same element every iteration, with a write
          }
        }
      }
    }
    return true;
  }
};

}  // namespace

int fuseLoops(lir::Function& fn) {
  Fuser f;
  f.visitBlock(fn.body);
  return f.fused;
}

}  // namespace mat2c::opt
