// Idiom recognition: maps multiply-accumulate patterns onto the target's
// fused MAC instructions (fma.f64, cmac.c64). These are exactly the "custom
// instructions" the paper's ASIP exposes for DSP inner loops.
#include "lir/select.hpp"
#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

int rewriteExpr(ExprPtr& e, const isa::IsaDescription& isa, bool reassoc) {
  int n = 0;
  forEachOperand(*e, [&](ExprPtr& k) { n += rewriteExpr(k, isa, reassoc); });
  if (e->kind != ExprKind::Binary || e->binOp != BinOp::Add) return n;
  if (!(e->type.scalar == Scalar::F64 || e->type.scalar == Scalar::C64)) return n;
  // The target must have the fma a rewrite builds.
  if (!isa.supports(issuedOp(*fma(nullptr, nullptr, nullptr, {e->type.scalar, 1})))) return n;

  // a*b + c  or  c + a*b   ->  fma(a, b, c)
  auto isMul = [](const ExprPtr& x) {
    return x->kind == ExprKind::Binary && x->binOp == BinOp::Mul;
  };
  ExprPtr mul;
  ExprPtr addend;
  if (isMul(e->a)) {
    mul = std::move(e->a);
    addend = std::move(e->b);
  } else if (isMul(e->b)) {
    mul = std::move(e->b);
    addend = std::move(e->a);
  } else if (reassoc) {
    // (a*b - y) + z  or  z + (a*b - y)  ->  fma(a, b, z) - y.
    // Changes the association of the outer add/sub chain, so only done
    // under the explicit reassoc option.
    auto isMulSub = [&](const ExprPtr& x) {
      return x->kind == ExprKind::Binary && x->binOp == BinOp::Sub && isMul(x->a);
    };
    ExprPtr sub;
    ExprPtr z;
    if (isMulSub(e->a)) {
      sub = std::move(e->a);
      z = std::move(e->b);
    } else if (isMulSub(e->b)) {
      sub = std::move(e->b);
      z = std::move(e->a);
    } else {
      return n;
    }
    VType type = e->type;
    ExprPtr mac = fma(std::move(sub->a->a), std::move(sub->a->b), std::move(z), type);
    e = binary(BinOp::Sub, std::move(mac), std::move(sub->b), type);
    return n + 1;
  } else {
    return n;
  }
  e = fma(std::move(mul->a), std::move(mul->b), std::move(addend), e->type);
  return n + 1;
}

}  // namespace

int recognizeIdioms(lir::Function& fn, const isa::IsaDescription& isa, bool reassociate) {
  int n = 0;
  walkStmts(fn.body, [&](Stmt& s) {
    forEachExpr(s, [&](ExprPtr& e) { n += rewriteExpr(e, isa, reassociate); });
  });
  return n;
}

}  // namespace mat2c::opt
