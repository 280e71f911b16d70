#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

/// An affine form as lir::Affine holds it: the same coefficients, zero ones
/// included, sorted by name.
struct Form {
  using Term = std::pair<std::string, std::int64_t>;

  bool ok = false;
  std::int64_t constant = 0;
  std::vector<Term> terms;

  /// coeffs[name] += c.
  void add(const std::string& name, std::int64_t c) {
    auto it = std::lower_bound(terms.begin(), terms.end(), name,
                               [](const Term& t, const std::string& n) { return t.first < n; });
    if (it != terms.end() && it->first == name) {
      it->second += c;
    } else {
      terms.emplace(it, name, c);
    }
  }
};

/// Rebuilds a canonical expression from an affine form: c + sum(coeff*var).
ExprPtr rebuildAffine(const Form& a) {
  ExprPtr acc;
  for (const auto& [name, coeff] : a.terms) {
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

/// The node count of rebuildAffine(a), without building it.
std::size_t rebuiltSize(const Form& a) {
  std::size_t size = 0;
  for (const auto& [name, coeff] : a.terms) {
    if (coeff == 0) continue;
    if (size) ++size;            // the Add joining it to the terms before
    size += coeff == 1 ? 1 : 3;  // var, or var * coeff
  }
  if (size == 0) return 1;
  return a.constant == 0 ? size : size + 2;
}

bool isI64(const Expr& e, ExprKind kind) { return e.kind == kind && e.type == VType::i64(); }

/// The variable of `e` when it is a term rebuildAffine makes (`v`, or
/// `v * c` with c not 0 or 1), else null.
const std::string* termVar(const Expr& e) {
  if (isI64(e, ExprKind::VarRef)) return &e.name;
  if (isI64(e, ExprKind::Binary) && e.binOp == BinOp::Mul && isI64(*e.a, ExprKind::VarRef) &&
      isI64(*e.b, ExprKind::ConstI) && e.b->ival != 0 && e.b->ival != 1) {
    return &e.a->name;
  }
  return nullptr;
}

/// What folding learned of a folded tree, handed up so that no level walks
/// its subtree again: affineOf of the tree (when the parent needs it), its
/// node count, and whether it is a sum of terms the way rebuildAffine
/// builds a form with constant 0.
struct Folded {
  Form affine;
  std::size_t size = 1;
  /// Then the form has no zero coefficient, so its last term names the
  /// sum's last (largest) variable, which a following term must exceed.
  bool termSum = false;
};

/// The record of a one-node tree; its affine form only when `wantAffine`.
Folded leaf(const Expr& e, bool wantAffine) {
  Folded f;
  if (!wantAffine) return f;
  if (e.kind == ExprKind::ConstI) {
    f.affine.ok = true;
    f.affine.constant = e.ival;
  } else if (isI64(e, ExprKind::VarRef)) {
    f.affine.ok = true;
    f.affine.terms.emplace_back(e.name, 1);
    f.termSum = true;
  }
  return f;
}

/// affineOf of an i64 Binary with operator `op` from its operands' forms,
/// computed as affineOf computes it. Moves from the operands' forms.
Form combine(BinOp op, Form& a, Form& b) {
  Form r;
  if (!a.ok || !b.ok) return r;
  if (op == BinOp::Add || op == BinOp::Sub) {
    std::int64_t sign = op == BinOp::Add ? 1 : -1;
    r = std::move(a);
    r.constant += sign * b.constant;
    for (const auto& [name, c] : b.terms) r.add(name, sign * c);
    return r;
  }
  if (op == BinOp::Mul) {
    // One side must be a pure constant.
    Form* k = b.terms.empty() ? &b : (a.terms.empty() ? &a : nullptr);
    Form* v = k == &b ? &a : &b;
    if (!k) return r;
    r.ok = true;
    r.constant = v->constant * k->constant;
    r.terms = std::move(v->terms);
    for (auto& [name, c] : r.terms) c *= k->constant;
    return r;
  }
  return r;
}

/// Whether the i64 Binary `e`, whose operands are affine, is the tree
/// rebuildAffine makes of its form; read before combine() takes the forms.
/// Sets self.termSum.
bool isCanonical(const Expr& e, const Folded& fa, Folded& self) {
  if (e.binOp == BinOp::Add && fa.termSum) {
    const std::string* v = termVar(*e.b);
    if (v && *v > fa.affine.terms.back().first) {
      self.termSum = true;  // one more term, in name order
      return true;
    }
    return isI64(*e.b, ExprKind::ConstI) && e.b->ival > 0;
  }
  if (e.binOp == BinOp::Sub && fa.termSum) return isI64(*e.b, ExprKind::ConstI) && e.b->ival > 0;
  if (termVar(e)) {
    self.termSum = true;
    return true;
  }
  return false;
}

/// Folds the tree in `e` bottom-up and returns its record. The record
/// carries the tree's affine form only when `wantAffine`; the size is
/// always there.
Folded foldExpr(ExprPtr& e, bool wantAffine) {
  // An i64 Binary combines its operands' forms, and a wanted Binary may
  // keep an operand as itself, record and all.
  bool affineNode = e->type == VType::i64() && e->kind == ExprKind::Binary;
  bool wantKids = affineNode || (wantAffine && e->kind == ExprKind::Binary);
  Folded fa, fb;
  std::size_t kidsSize = 0;
  forEachOperand(*e, [&](ExprPtr& k) {
    Folded f = foldExpr(k, wantKids);
    kidsSize += f.size;
    if (&k == &e->a) {
      fa = std::move(f);
    } else if (&k == &e->b) {
      fb = std::move(f);
    }
  });
  Folded self = leaf(*e, wantAffine);
  self.size = 1 + kidsSize;

  // Canonicalize i64 affine expressions when it shrinks them.
  if (affineNode && fa.affine.ok && fb.affine.ok) {
    bool canonical = isCanonical(*e, fa, self);
    self.affine = combine(e->binOp, fa.affine, fb.affine);
    if (self.affine.ok) {
      if (canonical) return self;  // rebuilding would make this tree
      std::size_t size = rebuiltSize(self.affine);
      if (size <= self.size) {
        e = rebuildAffine(self.affine);
        Folded f;
        f.affine = std::move(self.affine);
        std::erase_if(f.affine.terms, [](const Form::Term& t) { return t.second == 0; });
        f.size = size;
        f.termSum = f.affine.constant == 0 && !f.affine.terms.empty();
        return f;
      }
    }
  }
  // A fold that keeps an operand returns the operand's record. x + 0,
  // 0 + x, x - 0, x * 1 and 1 * x have the kept operand's form, which
  // combine() may have moved into self.affine: hand it back.
  auto keep = [&](ExprPtr& operand, Folded& record) {
    e = std::move(operand);
    if (self.affine.ok) record.affine = std::move(self.affine);
    return std::move(record);
  };
  auto keepA = [&] { return keep(e->a, fa); };
  auto keepB = [&] { return keep(e->b, fb); };
  auto replace = [&](ExprPtr folded) {
    e = std::move(folded);
    return leaf(*e, wantAffine);
  };

  if (e->kind == ExprKind::Unary) {
    if (e->unOp == UnOp::ToF64 && e->a->kind == ExprKind::ConstI) {
      return replace(constF(static_cast<double>(e->a->ival)));
    }
    // Only integral values in i64 range convert exactly; for ±inf, NaN and
    // out-of-range values the cast is undefined, so they are left to run
    // time.
    if (e->unOp == UnOp::ToI64 && e->a->kind == ExprKind::ConstF &&
        e->a->fval == std::floor(e->a->fval) && e->a->fval >= -0x1p63 && e->a->fval < 0x1p63) {
      return replace(constI(static_cast<std::int64_t>(e->a->fval)));
    }
    if (e->unOp == UnOp::Neg && e->a->kind == ExprKind::ConstF) {
      return replace(constF(-e->a->fval));
    }
    // tof64(toi64(x)) where x is already integral cannot be simplified safely;
    // leave conversions otherwise untouched.
    return self;
  }

  if (e->kind != ExprKind::Binary) return self;

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
      default: return self;
    }
    return replace(constF(r));
  }

  // Identities (kept NaN-safe: no x*0 folding).
  if (e->type == VType::f64()) {
    switch (e->binOp) {
      case BinOp::Add:
        if (isConstF(a, 0.0)) return keepB();
        if (isConstF(b, 0.0)) return keepA();
        break;
      case BinOp::Sub:
        if (isConstF(b, 0.0)) return keepA();
        break;
      case BinOp::Mul:
        if (isConstF(a, 1.0)) return keepB();
        if (isConstF(b, 1.0)) return keepA();
        break;
      case BinOp::Div:
        if (isConstF(b, 1.0)) return keepA();
        break;
      default:
        break;
    }
  }
  if (e->type == VType::i64()) {
    switch (e->binOp) {
      case BinOp::Add:
        if (isConstI(a, 0)) return keepB();
        if (isConstI(b, 0)) return keepA();
        break;
      case BinOp::Sub:
        if (isConstI(b, 0)) return keepA();
        break;
      case BinOp::Mul:
        if (isConstI(a, 1)) return keepB();
        if (isConstI(b, 1)) return keepA();
        break;
      default:
        break;
    }
    if (a.kind == ExprKind::ConstI && b.kind == ExprKind::ConstI) {
      switch (e->binOp) {
        case BinOp::Add: return replace(constI(a.ival + b.ival));
        case BinOp::Sub: return replace(constI(a.ival - b.ival));
        case BinOp::Mul: return replace(constI(a.ival * b.ival));
        case BinOp::Div:
          // Fold only exact divisions: (37/8)*8 must stay a strip-mine bound.
          // INT64_MIN / -1 overflows (and traps on x86).
          if (b.ival != 0 && !(b.ival == -1 && a.ival == INT64_MIN) && a.ival % b.ival == 0)
            return replace(constI(a.ival / b.ival));
          break;
        default: break;
      }
    }
  }
  return self;
}

void foldBlock(std::vector<StmtPtr>& block) {
  walkStmts(block, [](Stmt& s) {
    forEachExpr(s, [](ExprPtr& e) { foldExpr(e, /*wantAffine=*/false); });
  });
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
};

/// The literal of every qualifying scalar. Only a name with a constant i64
/// initializer can qualify, so only those names' declarations and
/// assignments are counted.
std::map<std::string, std::int64_t> propagatedConsts(const std::vector<lir::StmtPtr>& block) {
  std::map<std::string, I64Const> consts;
  walkStmts(block, [&](const lir::Stmt& s) {
    if (s.kind == lir::StmtKind::DeclScalar && s.declType.scalar == lir::Scalar::I64 &&
        s.declType.lanes == 1 && s.value && s.value->kind == lir::ExprKind::ConstI) {
      consts[s.name].value = s.value->ival;
    }
  });
  if (consts.empty()) return {};
  walkStmts(block, [&](const lir::Stmt& s) {
    if (s.kind != lir::StmtKind::DeclScalar && s.kind != lir::StmtKind::For &&
        s.kind != lir::StmtKind::Assign) {
      return;
    }
    auto it = consts.find(s.name);
    if (it == consts.end()) return;
    if (s.kind == lir::StmtKind::Assign) {
      it->second.assigned = true;
    } else {
      ++it->second.decls;
    }
  });
  std::map<std::string, std::int64_t> literals;
  for (const auto& [name, c] : consts) {
    if (c.decls == 1 && !c.assigned) literals.emplace(name, c.value);
  }
  return literals;
}

}  // namespace

void constFold(lir::Function& fn) {
  foldBlock(fn.body);

  std::map<std::string, std::int64_t> literals = propagatedConsts(fn.body);
  if (literals.empty()) return;
  // Each name is declared once and never reassigned, so no scope shadows
  // it: one walk substitutes every literal.
  walkStmts(fn.body, [&](lir::Stmt& s) {
    forEachExpr(s, [&](lir::ExprPtr& e) {
      walkSlots(e, [&](lir::ExprPtr& x) {
        if (x->kind != lir::ExprKind::VarRef) return true;
        auto it = literals.find(x->name);
        if (it != literals.end()) x = lir::constI(it->second);
        return false;
      });
    });
  });
  // Propagation exposes fresh constant arithmetic (e.g. `vend - 0`).
  foldBlock(fn.body);
}

}  // namespace mat2c::opt
