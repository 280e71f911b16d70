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
//     scalar variable, i not loading A) makes `A[i]` available as v — the
//     store-to-load forwarding that lets fused producer/consumer loops drop
//     the reload.
//   * A repeated expression with no existing holder is materialized into a
//     fresh scalar at its first occurrence; every later occurrence becomes a
//     register reference.
//
// The pass runs in two phases over each region with identical availability
// simulation: phase 1 counts reuses per availability lifetime, phase 2
// replays the simulation and rewrites, materializing temporaries only for
// lifetimes phase 1 proved profitable. All right-hand sides are pure, so
// replacing a re-evaluation with a register read is always value-preserving.
//
// An expression's key is its lir::PrintNumbering number, computed bottom-up
// once per node, for each topmost eligible subtree before the walk enters
// it: equal keys mean equal printed text. The numbering carries a version
// per name, which a scalar assignment or an array store bumps, so the key
// of an expression that reads a killed name differs from every key made
// before the kill, and a kill scans no entries. The one kill a key cannot
// express, of the variable an entry is bound to, is checked on lookup.
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
  std::uint64_t region = 0;  // the Region::id it is live in
  std::size_t ordinal = 0;
  std::size_t originStmt = 0;
  // The variable holding the value, and its scalar version when it took
  // the value; a later assignment to it kills the entry.
  const PrintNumbering::Name* bound = nullptr;
  std::uint32_t boundVersion = 0;
};

struct Cse {
  std::set<std::string> usedNames;
  int freshId = 0;
  int replaced = 0;
  PrintNumbering numbering;
  // The statement being walked: every node of its expression slots in
  // pre-order, and the walk's position in that list.
  std::vector<PrintNumbering::Node> nodes;
  std::size_t cursor = 0;
  // Available expressions by key. An entry is live only in the region
  // (and availability span) whose id it carries, so regions share the
  // table and emptying a region's availability is taking a new id.
  std::vector<Entry> entries;
  std::uint64_t nextRegion = 0;

  explicit Cse(const Function& fn) : usedNames(lir::usedNames(fn, "c")) {}

  std::string fresh() {
    std::string name;
    do {
      name.clear();
      name.append("c").append(std::to_string(freshId++)).append("_cse");
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

  /// One region's rewrite state.
  struct Region {
    std::vector<Lifetime>& lifetimes;
    bool rewrite;
    std::uint64_t id;
    std::size_t ordinal = 0;
    // Temps to insert, paired with the statement index they precede;
    // indices are nondecreasing in creation order.
    std::vector<std::pair<std::size_t, StmtPtr>> inserts;
  };

  /// The live entry under `key`, or null.
  Entry* find(const Region& r, std::uint32_t key) {
    if (key >= entries.size()) return nullptr;
    Entry& e = entries[key];
    if (e.region != r.id) return nullptr;
    if (e.bound && e.bound->scalarVersion != e.boundVersion) return nullptr;
    return &e;
  }

  void insert(const Region& r, std::uint32_t key, Entry entry) {
    if (key >= entries.size()) entries.resize(numbering.size());
    entry.region = r.id;
    entries[key] = entry;
  }

  /// Walks a tree above its eligible subtrees. Keys are needed only from
  /// the topmost eligible nodes down, so each of those is numbered, still
  /// untouched, when the walk first reaches it.
  void walk(ExprPtr& e, std::size_t stmtIdx, Region& r) {
    if (!eligible(*e)) {
      forEachOperand(*e, [&](ExprPtr& k) { walk(k, stmtIdx, r); });
      return;
    }
    nodes.clear();
    numbering.number(*e, &nodes);
    cursor = 0;
    walkKeyed(e, stmtIdx, r);
  }

  /// Walks a node of the tree `nodes` numbers, at `cursor`.
  void walkKeyed(ExprPtr& e, std::size_t stmtIdx, Region& r) {
    const PrintNumbering::Node node = nodes[cursor++];
    if (!eligible(*e)) {
      forEachOperand(*e, [&](ExprPtr& k) { walkKeyed(k, stmtIdx, r); });
      return;
    }
    if (Entry* found = find(r, node.number)) {
      // Reuse. Do not descend: the children ride along with the register.
      cursor += node.size - 1;
      if (!r.rewrite) {
        r.lifetimes[found->ordinal].reuses++;
      } else {
        const Lifetime& lt = r.lifetimes[found->ordinal];
        e = varRef(lt.name, e->type);
        ++replaced;
      }
      return;
    }
    // Creation: visit children (their rewrites feed a materialized temp's
    // initializer), then make the entry under the untouched subtree's key.
    Entry entry;
    entry.ordinal = r.ordinal++;
    entry.originStmt = stmtIdx;
    if (!r.rewrite) r.lifetimes.emplace_back();

    forEachOperand(*e, [&](ExprPtr& k) { walkKeyed(k, stmtIdx, r); });

    if (r.rewrite) {
      Lifetime& lt = r.lifetimes[entry.ordinal];
      if (lt.reuses > 0 && !lt.bound) {
        lt.name = fresh();
        VType type = e->type;
        StmtPtr decl = declScalar(lt.name, type, std::move(e));
        e = varRef(lt.name, type);
        r.inserts.emplace_back(stmtIdx, std::move(decl));
      }
    }
    insert(r, node.number, entry);
  }

  // One deterministic pass over the region. Phase 1 (rewrite=false) fills
  // `lifetimes` (indexed by creation ordinal); phase 2 (rewrite=true) makes
  // the same creation/invalidation decisions and applies the rewrites.
  void simulate(std::vector<StmtPtr>& block, std::vector<Lifetime>& lifetimes, bool rewrite) {
    Region r{lifetimes, rewrite, ++nextRegion, 0, {}};

    for (std::size_t idx = 0; idx < block.size(); ++idx) {
      Stmt& s = *block[idx];

      // Facts of the untouched statement, which both phases agree on.
      bool defines = s.kind == StmtKind::DeclScalar || s.kind == StmtKind::Assign;
      PrintNumbering::Name* target = defines ? &numbering.name(s.name) : nullptr;
      // The rhs's entry can take the target as its holder, unless it reads
      // the target: then the assignment kills it.
      bool rhsBindable = defines && s.value && eligible(*s.value) &&
                         !reads(*s.value, ExprKind::VarRef, s.name);
      // Not when the index loads the array: the store may change the
      // index, so a later A[i] need not read the stored element.
      bool storeForwards = s.kind == StmtKind::Store && s.value &&
                           s.value->kind == ExprKind::VarRef &&
                           !reads(*s.index, ExprKind::Load, s.name);
      // `A[i] = v` makes A[i] available as v after the store kills A.
      std::uint32_t fwdKey = 0;
      if (storeForwards) {
        fwdKey = numbering.numberLoad(s.name, *s.index, s.value->type.lanes,
                                      &numbering.name(s.name));
      }

      forEachExpr(s, [&](ExprPtr& e) { walk(e, idx, r); });

      switch (s.kind) {
        case StmtKind::DeclScalar:
        case StmtKind::Assign: {
          ++target->scalarVersion;
          if (!rhsBindable) break;
          // The rhs is the statement's one slot and eligible, so the walk
          // numbered it last, as a whole: nodes[0] is its root.
          Entry* entry = find(r, nodes[0].number);
          if (entry && entry->originStmt == idx && !entry->bound) {
            entry->bound = target;
            entry->boundVersion = target->scalarVersion;
            if (!rewrite) {
              lifetimes[entry->ordinal].bound = true;
            } else {
              lifetimes[entry->ordinal].name = s.name;
            }
          }
          break;
        }
        case StmtKind::Store: {
          ++numbering.name(s.name).arrayVersion;
          if (storeForwards && !find(r, fwdKey)) {
            Entry entry;
            entry.ordinal = r.ordinal++;
            entry.originStmt = idx;
            entry.bound = &numbering.name(s.value->name);
            entry.boundVersion = entry.bound->scalarVersion;
            if (!rewrite) {
              lifetimes.emplace_back();
              lifetimes.back().bound = true;
            } else {
              lifetimes[entry.ordinal].name = s.value->name;
            }
            insert(r, fwdKey, entry);
          }
          break;
        }
        case StmtKind::AllocMark: ++numbering.name(s.name).arrayVersion; break;
        case StmtKind::For:
        case StmtKind::If:
        case StmtKind::While:
        case StmtKind::Break:
        case StmtKind::Continue: r.id = ++nextRegion; break;
        default: break;
      }
    }

    if (rewrite && !r.inserts.empty()) {
      std::vector<StmtPtr> out;
      out.reserve(block.size() + r.inserts.size());
      std::size_t next = 0;
      for (std::size_t idx = 0; idx < block.size(); ++idx) {
        while (next < r.inserts.size() && r.inserts[next].first == idx) {
          out.push_back(std::move(r.inserts[next].second));
          ++next;
        }
        out.push_back(std::move(block[idx]));
      }
      block = std::move(out);
    }
  }

  /// True when `e` reads `name` through a node of `kind` (VarRef for a
  /// scalar, Load for an array).
  static bool reads(const Expr& e, ExprKind kind, const std::string& name) {
    bool found = false;
    walkExpr(e, [&](const Expr& x) {
      found = found || (x.kind == kind && x.name == name);
      return !found;
    });
    return found;
  }
};

}  // namespace

int eliminateCommonSubexprs(lir::Function& fn) {
  Cse cse(fn);
  cse.processBlock(fn.body);
  return cse.replaced;
}

}  // namespace mat2c::opt
