// Recurrence unrolling.
//
// Loops that carry a scalar value across iterations (v = f(v) where f is not
// a plain reduction) defeat both the vectorizer and, because their array
// indices depend on the induction variable, LICM. On a target with zero-cost
// hardware loops unrolling saves no loop overhead; its entire value is that
// substituting the induction variable with constants turns every in-loop
// index into a literal, which lets the later constant fold + LICM passes
// hoist coefficient loads and promote state arrays to registers (the iir
// z1/z2 recurrence is the motivating case).
//
// Only loops with a compile-time trip count in [2, maxTrip] that actually
// carry a non-reduction scalar recurrence are unrolled, and they are
// unrolled fully: partial unrolling with a remainder loop would reintroduce
// the variable indices that blocked LICM in the first place.
#include <string>
#include <vector>

#include "lir/analysis.hpp"
#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

/// Matches the vectorizer's reduction forms: acc = acc op x, acc = x op acc,
/// acc = fma(a, b, acc). Anything else that assigns an outer-scope scalar is
/// a genuine recurrence.
bool isReductionForm(const Stmt& s) {
  const Expr& rhs = *s.value;
  if (rhs.kind == ExprKind::Binary &&
      (rhs.binOp == BinOp::Add || rhs.binOp == BinOp::Min || rhs.binOp == BinOp::Max)) {
    bool lhsAcc = rhs.a->kind == ExprKind::VarRef && rhs.a->name == s.name;
    bool rhsAcc = rhs.b->kind == ExprKind::VarRef && rhs.b->name == s.name;
    return lhsAcc != rhsAcc;
  }
  if (rhs.kind == ExprKind::Fma) {
    return rhs.c->kind == ExprKind::VarRef && rhs.c->name == s.name;
  }
  return false;
}

/// True when the body (recursively) assigns a scalar it does not itself
/// declare, in a non-reduction form.
bool carriesRecurrence(const std::vector<StmtPtr>& body) {
  AccessInfo info;
  for (const auto& s : body) collectAccess(*s, info);
  for (const auto& name : info.scalarWrites) {
    if (info.scalarDecls.count(name)) continue;
    // Find an assignment to `name` and classify it.
    bool found = false;
    walkStmts(body, [&](const Stmt& s) {
      found = found || (s.kind == StmtKind::Assign && s.name == name && !isReductionForm(s));
      return !found;
    });
    if (found) return true;
  }
  return false;
}

struct Unroller {
  int maxTrip;
  std::size_t maxStatements;  // 0 = unlimited
  std::size_t current = 0;    // running statement count of the function
  int unrolled = 0;
  int freshId = 0;

  void visitBlock(std::vector<StmtPtr>& block) {
    std::vector<StmtPtr> out;
    out.reserve(block.size());
    for (auto& sp : block) {
      forEachBlock(*sp, [&](auto& inner) { visitBlock(inner); });
      if (sp->kind == StmtKind::For && tryUnroll(*sp, out)) {
        ++unrolled;
        continue;  // the loop was expanded into `out`
      }
      out.push_back(std::move(sp));
    }
    block = std::move(out);
  }

  bool tryUnroll(const Stmt& loop, std::vector<StmtPtr>& out) {
    if (loop.lo->kind != ExprKind::ConstI || loop.hi->kind != ExprKind::ConstI) return false;
    std::int64_t lo = loop.lo->ival, hi = loop.hi->ival, step = loop.step;
    if (step <= 0 || hi <= lo) return false;
    std::int64_t trip = (hi - lo + step - 1) / step;
    if (trip < 2 || trip > maxTrip) return false;

    AccessInfo info;
    for (const auto& s : loop.body) collectAccess(*s, info);
    if (info.hasLoopControl || info.hasWhile) return false;
    if (!carriesRecurrence(loop.body)) return false;

    // Resource guard: skip (don't error) when the expansion would push the
    // function past the statement budget — the loop just stays rolled.
    if (maxStatements > 0) {
      std::size_t bodyStmts = collectStats(loop.body).statements;
      std::size_t expanded = static_cast<std::size_t>(trip) * bodyStmts;
      std::size_t removed = bodyStmts + 1;  // the loop statement and its body
      if (current + expanded > maxStatements + removed) return false;
      current += expanded - removed;
    }

    std::vector<std::string> declNames;
    walkStmts(loop.body, [&](const Stmt& s) {
      if (s.kind == StmtKind::DeclScalar || s.kind == StmtKind::For) declNames.push_back(s.name);
    });

    for (std::int64_t t = 0; t < trip; ++t) {
      ExprPtr ivValue = constI(lo + t * step);
      for (const auto& s : loop.body) {
        StmtPtr copy = s->clone();
        // Rename body-local declarations so the expanded copies do not
        // redeclare the same C identifier in one block.
        if (t > 0) {
          for (const auto& d : declNames) {
            renameVar(*copy, d, d + "_u" + std::to_string(freshId) + "_" + std::to_string(t));
          }
        }
        substituteVar(*copy, loop.name, *ivValue);
        out.push_back(std::move(copy));
      }
    }
    ++freshId;
    return true;
  }
};

}  // namespace

int unrollRecurrences(lir::Function& fn, int maxTrip, std::size_t maxStatements) {
  Unroller u{maxTrip, maxStatements};
  if (maxStatements > 0) u.current = collectStats(fn).statements;
  u.visitBlock(fn.body);
  return u.unrolled;
}

}  // namespace mat2c::opt
