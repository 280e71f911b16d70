// Common-subexpression elimination over straight-line regions, with
// store-to-load forwarding.
//
// Scope and rules:
//   * Only f64/c64-valued expressions (Load/Unary/Binary/Fma/Splat/Reduce)
//     participate. i64 index arithmetic is deliberately excluded — the
//     target's AGUs execute it for free, and materializing indices into
//     scalars would break the vectorizer's addressing analysis and clutter
//     the emitted C for zero cycles saved.
//   * A region is one block's statement list; availability never crosses a
//     For/If/While statement (their bodies are processed as fresh regions).
//   * Availability is killed precisely: assigning a scalar kills every
//     expression that reads it, storing to an array kills every expression
//     that loads from it.
//   * `x = E` makes E available as x (no temp needed); `A[i] = v` (v a
//     scalar variable) makes `A[i]` available as v — the store-to-load
//     forwarding that lets fused producer/consumer loops drop the reload.
//   * A repeated expression with no existing holder is materialized into a
//     fresh scalar at its first occurrence; every later occurrence becomes a
//     register reference.
//
// The pass runs in two phases over each region with identical availability
// simulation: phase 1 counts reuses per availability lifetime, phase 2
// replays the simulation and rewrites, materializing temporaries only for
// lifetimes phase 1 proved profitable. All right-hand sides are pure, so
// replacing a re-evaluation with a register read is always value-preserving.
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "lir/analysis.hpp"
#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

bool eligible(const Expr& e) {
  switch (e.kind) {
    case ExprKind::Load:
    case ExprKind::Unary:
    case ExprKind::Binary:
    case ExprKind::Fma:
    case ExprKind::Splat:
    case ExprKind::Reduce: break;
    default: return false;
  }
  return e.type.scalar == Scalar::F64 || e.type.scalar == Scalar::C64;
}

struct Lifetime {
  int reuses = 0;
  bool bound = false;  // held by an existing variable; no temp needed
  std::string name;    // phase 2: the variable/temp that holds the value
};

struct Entry {
  std::size_t ordinal = 0;
  std::size_t originStmt = 0;
  std::optional<std::string> bound;
  std::set<std::string> scalarDeps;
  std::set<std::string> arrayDeps;
};

struct Cse {
  std::set<std::string> usedNames;
  int freshId = 0;
  int replaced = 0;

  explicit Cse(const Function& fn) {
    AccessInfo all;
    for (const auto& s : fn.body) collectAccess(*s, all);
    for (const auto& n : all.scalarReads) usedNames.insert(n);
    for (const auto& n : all.scalarWrites) usedNames.insert(n);
    for (const auto& p : fn.params) usedNames.insert(p.name);
    for (const auto& o : fn.outs) usedNames.insert(o.name);
    for (const auto& a : fn.arrays) usedNames.insert(a.name);
  }

  std::string fresh() {
    std::string name;
    do {
      name = "c" + std::to_string(freshId++) + "_cse";
    } while (usedNames.count(name));
    usedNames.insert(name);
    return name;
  }

  void processBlock(std::vector<StmtPtr>& block) {
    std::vector<Lifetime> lifetimes;
    simulate(block, lifetimes, /*rewrite=*/false);
    simulate(block, lifetimes, /*rewrite=*/true);
    for (auto& s : block) {
      forEachBlock(*s, [&](auto& inner) { processBlock(inner); });
    }
  }

  // One deterministic pass over the region. Phase 1 (rewrite=false) fills
  // `lifetimes` (indexed by creation ordinal); phase 2 (rewrite=true) makes
  // the same creation/invalidation decisions and applies the rewrites.
  void simulate(std::vector<StmtPtr>& block, std::vector<Lifetime>& lifetimes, bool rewrite) {
    std::map<std::string, Entry> entries;
    std::size_t ordinal = 0;
    // Temps to insert, paired with the statement index they precede;
    // indices are nondecreasing in creation order.
    std::vector<std::pair<std::size_t, StmtPtr>> inserts;

    auto invalidateScalar = [&](const std::string& x) {
      for (auto it = entries.begin(); it != entries.end();) {
        if (it->second.scalarDeps.count(x) || (it->second.bound && *it->second.bound == x)) {
          it = entries.erase(it);
        } else {
          ++it;
        }
      }
    };
    auto invalidateArray = [&](const std::string& a) {
      for (auto it = entries.begin(); it != entries.end();) {
        if (it->second.arrayDeps.count(a)) {
          it = entries.erase(it);
        } else {
          ++it;
        }
      }
    };

    std::function<void(ExprPtr&, std::size_t)> walk = [&](ExprPtr& e, std::size_t stmtIdx) {
      if (!eligible(*e)) {
        forEachOperand(*e, [&](ExprPtr& k) { walk(k, stmtIdx); });
        return;
      }
      std::string key = lir::print(*e);
      auto it = entries.find(key);
      if (it != entries.end()) {
        // Reuse. Do not descend: the children ride along with the register.
        if (!rewrite) {
          lifetimes[it->second.ordinal].reuses++;
        } else {
          const Lifetime& lt = lifetimes[it->second.ordinal];
          e = varRef(lt.name, e->type);
          ++replaced;
        }
        return;
      }
      // Creation: record deps from the untouched subtree, then visit
      // children (their rewrites feed a materialized temp's initializer).
      Entry entry;
      entry.ordinal = ordinal++;
      entry.originStmt = stmtIdx;
      AccessInfo ei;
      collectAccess(*e, ei);
      entry.scalarDeps = std::move(ei.scalarReads);
      entry.arrayDeps = std::move(ei.arrayReads);
      if (!rewrite) lifetimes.emplace_back();

      forEachOperand(*e, [&](ExprPtr& k) { walk(k, stmtIdx); });

      if (rewrite) {
        Lifetime& lt = lifetimes[entry.ordinal];
        if (lt.reuses > 0 && !lt.bound) {
          lt.name = fresh();
          VType type = e->type;
          StmtPtr decl = declScalar(lt.name, type, std::move(e));
          e = varRef(lt.name, type);
          inserts.emplace_back(stmtIdx, std::move(decl));
        }
      }
      entries.emplace(std::move(key), std::move(entry));
    };

    for (std::size_t idx = 0; idx < block.size(); ++idx) {
      Stmt& s = *block[idx];

      // Snapshot pre-walk facts both phases must agree on.
      std::string rhsKey =
          (s.value && eligible(*s.value)) ? lir::print(*s.value) : std::string();
      bool storeForwards = s.kind == StmtKind::Store && s.value &&
                           s.value->kind == ExprKind::VarRef;
      std::string fwdKey, fwdVar;
      std::set<std::string> fwdScalarDeps;
      if (storeForwards) {
        ExprPtr probe = load(s.name, s.index->clone(), s.value->type);
        fwdKey = lir::print(*probe);
        fwdVar = s.value->name;
        fwdScalarDeps = varReads(*probe);
        fwdScalarDeps.insert(fwdVar);
      }

      forEachExpr(s, [&](ExprPtr& e) { walk(e, idx); });

      switch (s.kind) {
        case StmtKind::DeclScalar:
        case StmtKind::Assign: {
          invalidateScalar(s.name);
          if (!rhsKey.empty()) {
            auto it = entries.find(rhsKey);
            if (it != entries.end() && it->second.originStmt == idx && !it->second.bound) {
              it->second.bound = s.name;
              if (!rewrite) {
                lifetimes[it->second.ordinal].bound = true;
              } else {
                lifetimes[it->second.ordinal].name = s.name;
              }
            }
          }
          break;
        }
        case StmtKind::Store: {
          invalidateArray(s.name);
          if (storeForwards && !entries.count(fwdKey)) {
            Entry entry;
            entry.ordinal = ordinal++;
            entry.originStmt = idx;
            entry.bound = fwdVar;
            entry.scalarDeps = fwdScalarDeps;
            entry.arrayDeps = {s.name};
            if (!rewrite) {
              lifetimes.emplace_back();
              lifetimes.back().bound = true;
            } else {
              lifetimes[entry.ordinal].name = fwdVar;
            }
            entries.emplace(fwdKey, std::move(entry));
          }
          break;
        }
        case StmtKind::AllocMark: invalidateArray(s.name); break;
        case StmtKind::For:
        case StmtKind::If:
        case StmtKind::While:
        case StmtKind::Break:
        case StmtKind::Continue: entries.clear(); break;
        default: break;
      }
    }

    if (rewrite && !inserts.empty()) {
      std::vector<StmtPtr> out;
      out.reserve(block.size() + inserts.size());
      std::size_t next = 0;
      for (std::size_t idx = 0; idx < block.size(); ++idx) {
        while (next < inserts.size() && inserts[next].first == idx) {
          out.push_back(std::move(inserts[next].second));
          ++next;
        }
        out.push_back(std::move(block[idx]));
      }
      block = std::move(out);
    }
  }
};

}  // namespace

int eliminateCommonSubexprs(lir::Function& fn) {
  Cse cse(fn);
  cse.processBlock(fn.body);
  return cse.replaced;
}

}  // namespace mat2c::opt
