#include <cmath>

#include <map>

#include "lir/analysis.hpp"
#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

bool isConstI(const Expr& e, std::int64_t v) {
  return e.kind == ExprKind::ConstI && e.ival == v;
}
bool isConstF(const Expr& e, double v) { return e.kind == ExprKind::ConstF && e.fval == v; }

/// Rebuilds a canonical expression from an affine form: c + sum(coeff*var).
ExprPtr rebuildAffine(const Affine& a) {
  ExprPtr acc;
  for (const auto& [name, coeff] : a.coeffs) {
    if (coeff == 0) continue;
    ExprPtr term = varRef(name, VType::i64());
    if (coeff != 1) term = binary(BinOp::Mul, std::move(term), constI(coeff), VType::i64());
    acc = acc ? binary(BinOp::Add, std::move(acc), std::move(term), VType::i64())
              : std::move(term);
  }
  if (!acc) return constI(a.constant);
  if (a.constant > 0)
    return binary(BinOp::Add, std::move(acc), constI(a.constant), VType::i64());
  if (a.constant < 0)
    return binary(BinOp::Sub, std::move(acc), constI(-a.constant), VType::i64());
  return acc;
}

std::size_t exprSize(const Expr& e) {
  std::size_t n = 0;
  walkExpr(e, [&](const Expr&) { ++n; });
  return n;
}

void foldExpr(ExprPtr& e) {
  forEachOperand(*e, [](ExprPtr& k) { foldExpr(k); });

  // Canonicalize i64 affine expressions when it shrinks them.
  if (e->type == VType::i64() && e->kind == ExprKind::Binary) {
    Affine a = affineOf(*e);
    if (a.ok) {
      ExprPtr canon = rebuildAffine(a);
      if (exprSize(*canon) <= exprSize(*e)) {
        e = std::move(canon);
        return;
      }
    }
  }

  if (e->kind == ExprKind::Unary) {
    if (e->unOp == UnOp::ToF64 && e->a->kind == ExprKind::ConstI) {
      e = constF(static_cast<double>(e->a->ival));
      return;
    }
    if (e->unOp == UnOp::ToI64 && e->a->kind == ExprKind::ConstF &&
        e->a->fval == std::floor(e->a->fval)) {
      e = constI(static_cast<std::int64_t>(e->a->fval));
      return;
    }
    if (e->unOp == UnOp::Neg && e->a->kind == ExprKind::ConstF) {
      e = constF(-e->a->fval);
      return;
    }
    // tof64(toi64(x)) where x is already integral cannot be simplified safely;
    // leave conversions otherwise untouched.
    return;
  }

  if (e->kind != ExprKind::Binary) return;

  Expr& a = *e->a;
  Expr& b = *e->b;

  // f64 constant folding.
  if (e->type == VType::f64() && a.kind == ExprKind::ConstF && b.kind == ExprKind::ConstF) {
    double r = 0;
    switch (e->binOp) {
      case BinOp::Add: r = a.fval + b.fval; break;
      case BinOp::Sub: r = a.fval - b.fval; break;
      case BinOp::Mul: r = a.fval * b.fval; break;
      case BinOp::Div: r = a.fval / b.fval; break;
      case BinOp::Min: r = std::min(a.fval, b.fval); break;
      case BinOp::Max: r = std::max(a.fval, b.fval); break;
      case BinOp::Pow: r = std::pow(a.fval, b.fval); break;
      default: return;
    }
    e = constF(r);
    return;
  }

  // Identities (kept NaN-safe: no x*0 folding).
  if (e->type == VType::f64()) {
    switch (e->binOp) {
      case BinOp::Add:
        if (isConstF(a, 0.0)) { e = std::move(e->b); return; }
        if (isConstF(b, 0.0)) { e = std::move(e->a); return; }
        break;
      case BinOp::Sub:
        if (isConstF(b, 0.0)) { e = std::move(e->a); return; }
        break;
      case BinOp::Mul:
        if (isConstF(a, 1.0)) { e = std::move(e->b); return; }
        if (isConstF(b, 1.0)) { e = std::move(e->a); return; }
        break;
      case BinOp::Div:
        if (isConstF(b, 1.0)) { e = std::move(e->a); return; }
        break;
      default:
        break;
    }
  }
  if (e->type == VType::i64()) {
    switch (e->binOp) {
      case BinOp::Add:
        if (isConstI(a, 0)) { e = std::move(e->b); return; }
        if (isConstI(b, 0)) { e = std::move(e->a); return; }
        break;
      case BinOp::Sub:
        if (isConstI(b, 0)) { e = std::move(e->a); return; }
        break;
      case BinOp::Mul:
        if (isConstI(a, 1)) { e = std::move(e->b); return; }
        if (isConstI(b, 1)) { e = std::move(e->a); return; }
        break;
      default:
        break;
    }
    if (a.kind == ExprKind::ConstI && b.kind == ExprKind::ConstI) {
      switch (e->binOp) {
        case BinOp::Add: e = constI(a.ival + b.ival); return;
        case BinOp::Sub: e = constI(a.ival - b.ival); return;
        case BinOp::Mul: e = constI(a.ival * b.ival); return;
        case BinOp::Div:
          // Fold only exact divisions: (37/8)*8 must stay a strip-mine bound.
          if (b.ival != 0 && a.ival % b.ival == 0) {
            e = constI(a.ival / b.ival);
            return;
          }
          break;
        default: break;
      }
    }
  }
}

void foldBlock(std::vector<StmtPtr>& block) {
  walkStmts(block, [](Stmt& s) { forEachExpr(s, [](ExprPtr& e) { foldExpr(e); }); });
}

}  // namespace

namespace {

// Single-assignment i64 constant propagation. The vectorizer's strip-mine
// bounds (`vend = (n / 4) * 4`) become ConstI initializers after folding,
// but downstream loop bounds still reference them by name; propagating the
// literal lets the fusion legality test compare bounds and lets dce remove
// zero-trip remainder loops. Only scalars declared exactly once (counting
// For induction variables as declarations) and never reassigned qualify.
struct I64Const {
  std::int64_t value = 0;
  int decls = 0;
  bool assigned = false;
  bool constInit = false;
};

std::map<std::string, I64Const> scanConsts(const std::vector<lir::StmtPtr>& block) {
  std::map<std::string, I64Const> consts;
  walkStmts(block, [&](const lir::Stmt& s) {
    if (s.kind == lir::StmtKind::DeclScalar) {
      auto& c = consts[s.name];
      ++c.decls;
      if (s.declType.scalar == lir::Scalar::I64 && s.declType.lanes == 1 && s.value &&
          s.value->kind == lir::ExprKind::ConstI) {
        c.constInit = true;
        c.value = s.value->ival;
      }
    } else if (s.kind == lir::StmtKind::For) {
      ++consts[s.name].decls;
    } else if (s.kind == lir::StmtKind::Assign) {
      consts[s.name].assigned = true;
    }
  });
  return consts;
}

}  // namespace

void constFold(lir::Function& fn) {
  foldBlock(fn.body);

  bool propagated = false;
  for (const auto& [name, c] : scanConsts(fn.body)) {
    if (c.decls != 1 || c.assigned || !c.constInit) continue;
    lir::ExprPtr lit = lir::constI(c.value);
    for (auto& s : fn.body) substituteVar(*s, name, *lit);
    propagated = true;
  }
  // Propagation exposes fresh constant arithmetic (e.g. `vend - 0`).
  if (propagated) foldBlock(fn.body);
}

}  // namespace mat2c::opt
