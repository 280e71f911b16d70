#include "lir/analysis.hpp"

#include "lir/walk.hpp"

namespace mat2c::lir {

bool exprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind || !(a.type == b.type)) return false;
  switch (a.kind) {
    case ExprKind::ConstF:
      // Bitwise-identical constants only; folding already canonicalizes.
      return a.fval == b.fval;
    case ExprKind::ConstI: return a.ival == b.ival;
    case ExprKind::VarRef: return a.name == b.name;
    case ExprKind::Load:
      return a.name == b.name && exprEquals(*a.index, *b.index);
    case ExprKind::Unary:
      return a.unOp == b.unOp && exprEquals(*a.a, *b.a);
    case ExprKind::Binary:
      return a.binOp == b.binOp && exprEquals(*a.a, *b.a) && exprEquals(*a.b, *b.b);
    case ExprKind::Fma:
      return exprEquals(*a.a, *b.a) && exprEquals(*a.b, *b.b) && exprEquals(*a.c, *b.c);
    case ExprKind::Splat: return exprEquals(*a.a, *b.a);
    case ExprKind::Reduce:
      return a.reduceOp == b.reduceOp && exprEquals(*a.a, *b.a);
  }
  return false;
}

void substituteVar(ExprPtr& e, const std::string& name, const Expr& replacement) {
  walkSlots(e, [&](ExprPtr& x) {
    if (x->kind != ExprKind::VarRef || x->name != name) return true;
    x = replacement.clone();
    return false;
  });
}

void substituteVar(Stmt& s, const std::string& name, const Expr& replacement) {
  walkStmts(s, [&](Stmt& st) {
    forEachExpr(st, [&](ExprPtr& e) { substituteVar(e, name, replacement); });
    // A nested For over the same name shadows it: its bounds (above) are in
    // the outer scope, its body is not.
    return &st == &s || st.kind != StmtKind::For || st.name != name;
  });
}

void renameVar(Stmt& s, const std::string& from, const std::string& to) {
  walkNodes(
      s,
      [&](Stmt& st) {
        if ((st.kind == StmtKind::DeclScalar || st.kind == StmtKind::Assign ||
             st.kind == StmtKind::For) &&
            st.name == from) {
          st.name = to;
        }
      },
      [&](Expr& e) {
        if (e.kind == ExprKind::VarRef && e.name == from) e.name = to;
      });
}

bool intersects(const std::set<std::string>& a, const std::set<std::string>& b) {
  for (const auto& x : a)
    if (b.count(x)) return true;
  return false;
}

bool AccessInfo::independentOf(const AccessInfo& other) const {
  if (hasLoopControl || other.hasLoopControl) return false;
  if (intersects(scalarWrites, other.scalarWrites)) return false;
  if (intersects(scalarWrites, other.scalarReads)) return false;
  if (intersects(scalarReads, other.scalarWrites)) return false;
  if (intersects(arrayWrites, other.arrayWrites)) return false;
  if (intersects(arrayWrites, other.arrayReads)) return false;
  if (intersects(arrayReads, other.arrayWrites)) return false;
  return true;
}

namespace {

void noteExpr(const Expr& e, AccessInfo& out) {
  if (e.kind == ExprKind::VarRef) out.scalarReads.insert(e.name);
  if (e.kind == ExprKind::Load) out.arrayReads.insert(e.name);
}

void noteStmt(const Stmt& s, AccessInfo& out) {
  switch (s.kind) {
    case StmtKind::DeclScalar:
      out.scalarWrites.insert(s.name);
      out.scalarDecls.insert(s.name);
      break;
    case StmtKind::Assign: out.scalarWrites.insert(s.name); break;
    case StmtKind::Store: out.arrayWrites.insert(s.name); break;
    case StmtKind::For:
      out.scalarWrites.insert(s.name);
      out.scalarDecls.insert(s.name);
      break;
    case StmtKind::BoundsCheck: out.arrayReads.insert(s.name); break;
    case StmtKind::AllocMark: out.arrayWrites.insert(s.name); break;
    case StmtKind::Break:
    case StmtKind::Continue: out.hasLoopControl = true; break;
    case StmtKind::While: out.hasWhile = true; break;
    default: break;
  }
}

}  // namespace

void collectAccess(const Expr& e, AccessInfo& out) {
  walkExpr(e, [&](const Expr& x) { noteExpr(x, out); });
}

void collectAccess(const Stmt& s, AccessInfo& out) {
  walkNodes(
      s, [&](const Stmt& st) { noteStmt(st, out); },
      [&](const Expr& x) { noteExpr(x, out); });
}

std::set<std::string> varReads(const Expr& e) {
  std::set<std::string> reads;
  walkExpr(e, [&](const Expr& x) {
    if (x.kind == ExprKind::VarRef) reads.insert(x.name);
  });
  return reads;
}

std::set<std::string> varReads(const std::vector<StmtPtr>& block) {
  std::set<std::string> reads;
  walkNodes(
      block, [](const Stmt&) {},
      [&](const Expr& x) {
        if (x.kind == ExprKind::VarRef) reads.insert(x.name);
      });
  return reads;
}

bool containsLoad(const Expr& e) {
  bool found = false;
  walkExpr(e, [&](const Expr& x) {
    found = found || x.kind == ExprKind::Load;
    return !found;
  });
  return found;
}

}  // namespace mat2c::lir
