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
  // Candidate keys: equal numbers mean equal printed text.
  PrintNumbering numbering;
  int freshId = 0;
  int hoisted = 0;
  int promoted = 0;

  explicit Licm(Function& f) : fn(f), usedNames(lir::usedNames(f, "h")) {}

  std::string fresh(const std::string& hint) {
    std::string name;
    do {
      name.clear();
      name.append("h").append(std::to_string(freshId++)).append("_").append(hint);
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

  /// What a loop writes. Only statements write, so this is one walk over
  /// the loop's statements, made once per loop.
  struct LoopWrites {
    std::set<std::string> scalars;  // assigned, declared, or induction variables
    std::set<std::string> arrays;   // stored to or reallocated
    bool loopControl = false;       // a break or continue anywhere inside
  };

  static LoopWrites loopWrites(const Stmt& loop) {
    LoopWrites w;
    w.scalars.insert(loop.name);
    walkStmts(loop.body, [&](const Stmt& s) {
      switch (s.kind) {
        case StmtKind::DeclScalar:
        case StmtKind::Assign:
        case StmtKind::For: w.scalars.insert(s.name); break;
        case StmtKind::Store:
        case StmtKind::AllocMark: w.arrays.insert(s.name); break;
        case StmtKind::Break:
        case StmtKind::Continue: w.loopControl = true; break;
        default: break;
      }
    });
    return w;
  }

  void processLoop(Stmt& loop, std::vector<StmtPtr>& pre, std::vector<StmtPtr>& post) {
    LoopWrites writes = loopWrites(loop);
    if (writes.loopControl) return;  // break/continue: iterations differ

    // Promotion turns every in-loop store of a promoted array into an
    // assignment of the element's scalar, which is then loop-varying.
    promoteArrays(loop, writes, pre, post);
    hoistInvariants(loop, writes, pre);
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

  /// Promotes what it can and updates `writes` to match.
  void promoteArrays(Stmt& loop, LoopWrites& writes, std::vector<StmtPtr>& pre,
                     std::vector<StmtPtr>& post) {
    std::vector<std::string> arrays(writes.arrays.begin(), writes.arrays.end());
    for (const auto& array : arrays) {
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
      writes.arrays.erase(array);
      walkStmts(loop.body, [&](Stmt& s) {
        if (s.kind == StmtKind::Store && s.name == array) {
          s.kind = StmtKind::Assign;
          s.name = names[s.index->ival];
          s.index.reset();
          writes.scalars.insert(s.name);
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

  /// What hoisting needs to know of an expression node, gathered
  /// bottom-up once per node.
  struct NodeFacts {
    bool invariant = true;      // reads nothing the loop writes
    bool hasLoad = false;
    bool loadsInBounds = true;  // every Load has a constant in-bounds index
    std::uint32_t size = 1;     // nodes in the subtree
  };

  /// Appends the facts of every node of `e` in pre-order.
  void gatherFacts(const Expr& e, const LoopWrites& writes, std::vector<NodeFacts>& out) const {
    std::size_t at = out.size();
    out.emplace_back();
    NodeFacts f;
    if (e.kind == ExprKind::VarRef) f.invariant = !writes.scalars.count(e.name);
    if (e.kind == ExprKind::Load) {
      Scalar elem;
      std::int64_t numel = 0;
      f.invariant = !writes.arrays.count(e.name);
      f.hasLoad = true;
      f.loadsInBounds = fn.arrayInfo(e.name, elem, numel) &&
                        e.index->kind == ExprKind::ConstI && e.index->ival >= 0 &&
                        e.index->ival + e.type.lanes - 1 < numel;
    }
    forEachOperand(e, [&](const ExprPtr& k) {
      std::size_t kid = out.size();
      gatherFacts(*k, writes, out);
      const NodeFacts& kf = out[kid];
      f.invariant = f.invariant && kf.invariant;
      f.hasLoad = f.hasLoad || kf.hasLoad;
      f.loadsInBounds = f.loadsInBounds && kf.loadsInBounds;
      f.size += kf.size;
    });
    out[at] = f;
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

  // Buffers of hoistInvariants, kept across loops.
  struct Site {
    ExprPtr* slot;
    std::uint32_t parent;  // kNone for a statement's slot
    std::uint32_t end;     // one past the last site of the subtree
  };
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};  // no site
  std::vector<NodeFacts> facts;
  std::vector<std::uint32_t> candidateKeys;
  std::vector<std::int32_t> candidateOf;  // by key: candidate index, or -1
  std::vector<std::string> names;
  std::vector<PrintNumbering::Node> keys;
  std::vector<Site> sites;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> occurrences;  // (candidate, site)
  std::vector<char> claimedAround, claimedInside;

  void hoistInvariants(Stmt& loop, const LoopWrites& writes, std::vector<StmtPtr>& pre) {
    bool safeSpeculation = tripAtLeastOne(loop);
    // Candidates in first-occurrence order, one per printed text.
    std::vector<ExprPtr> candidates;
    candidateKeys.clear();

    bool uncond = true;  // the statement being scanned runs every iteration
    std::size_t cursor = 0;
    std::size_t bodyNodes = 0;
    auto scan = [&](auto& self, const Expr& e) -> void {
      const NodeFacts& f = facts[cursor];
      if (hoistableKind(e) && (e.type.scalar == Scalar::F64 || e.type.scalar == Scalar::C64) &&
          f.invariant && (!f.hasLoad || f.loadsInBounds || (uncond && safeSpeculation))) {
        // Take the largest subtree; children come along.
        cursor += f.size;
        std::uint32_t key = numbering.number(e);
        if (std::find(candidateKeys.begin(), candidateKeys.end(), key) == candidateKeys.end()) {
          candidateKeys.push_back(key);
          candidates.push_back(e.clone());
        }
        return;
      }
      ++cursor;
      forEachOperand(e, [&](const ExprPtr& k) { self(self, *k); });
    };
    for (const auto& top : loop.body) {
      walkStmts(static_cast<const Stmt&>(*top), [&](const Stmt& s) {
        uncond = &s == top.get();
        forEachExpr(s, [&](const ExprPtr& e) {
          facts.clear();
          gatherFacts(*e, writes, facts);
          bodyNodes += facts.front().size;
          cursor = 0;
          scan(scan, *e);
        });
      });
    }
    if (candidates.empty()) return;

    names.clear();
    for (std::size_t i = 0; i < candidates.size(); ++i) names.push_back(fresh("inv"));
    sites.reserve(bodyNodes);
    replaceOccurrences(loop, candidates);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      VType type = candidates[i]->type;
      pre.push_back(declScalar(names[i], type, std::move(candidates[i])));
      ++hoisted;
    }
  }

  /// Replaces, for each candidate in order, every occurrence of it in the
  /// loop body (exprEquals) with a reference to its name. A candidate's
  /// occurrence is gone once an earlier candidate replaced it or a node
  /// around it, and no longer equal once an earlier candidate replaced a
  /// node inside it. So one pass finds every node equal to a candidate,
  /// and the candidates then claim them in order, each skipping a node
  /// that lies inside or around a node already claimed.
  void replaceOccurrences(Stmt& loop, const std::vector<ExprPtr>& candidates) {
    candidateOf.resize(numbering.size(), -1);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      candidateOf[candidateKeys[c]] = static_cast<std::int32_t>(c);
    }
    sites.clear();
    occurrences.clear();
    std::size_t next = 0;
    auto enumerate = [&](auto& self, ExprPtr& slot, std::uint32_t parent) -> void {
      auto at = static_cast<std::uint32_t>(sites.size());
      sites.push_back({&slot, parent, 0});
      std::uint32_t key = keys[next++].number;
      std::int32_t c = key < candidateOf.size() ? candidateOf[key] : -1;
      if (c >= 0 && exprEquals(*slot, *candidates[c])) {
        occurrences.emplace_back(static_cast<std::uint32_t>(c), at);
      }
      forEachOperand(*slot, [&](ExprPtr& k) { self(self, k, at); });
      sites[at].end = static_cast<std::uint32_t>(sites.size());
    };
    walkStmts(loop.body, [&](Stmt& s) {
      forEachExpr(s, [&](ExprPtr& e) {
        keys.clear();
        numbering.number(*e, &keys);
        next = 0;
        enumerate(enumerate, e, kNone);
      });
    });
    for (std::uint32_t key : candidateKeys) candidateOf[key] = -1;

    // By candidate, each candidate's occurrences in walk order.
    std::stable_sort(occurrences.begin(), occurrences.end(),
                     [](const auto& x, const auto& y) { return x.first < y.first; });
    claimedAround.assign(sites.size(), 0);
    claimedInside.assign(sites.size(), 0);
    for (auto& [c, at] : occurrences) {
      if (claimedAround[at] || claimedInside[at]) {
        at = kNone;  // not claimed
        continue;
      }
      std::fill(claimedAround.begin() + at, claimedAround.begin() + sites[at].end, 1);
      for (std::uint32_t p = sites[at].parent; p != kNone && !claimedInside[p];
           p = sites[p].parent) {
        claimedInside[p] = 1;
      }
    }
    // Claimed nodes are disjoint subtrees, so replacing one leaves every
    // other claimed slot in place.
    for (auto [c, at] : occurrences) {
      if (at != kNone) *sites[at].slot = varRef(names[c], candidates[c]->type);
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
