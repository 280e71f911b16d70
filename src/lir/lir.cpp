#include "lir/lir.hpp"

#include "lir/walk.hpp"

namespace mat2c::lir {

const char* toString(Scalar s) {
  switch (s) {
    case Scalar::F64: return "f64";
    case Scalar::C64: return "c64";
    case Scalar::I64: return "i64";
    case Scalar::B1: return "b1";
  }
  return "?";
}

std::string toString(VType t) {
  std::string s = toString(t.scalar);
  if (t.isVector()) s += "x" + std::to_string(t.lanes);
  return s;
}

const char* toString(UnOp op) {
  switch (op) {
    case UnOp::Neg: return "neg";
    case UnOp::Not: return "not";
#define MAT2C_BUILTIN_UNARY(name, op, lir, ...) \
    case UnOp::op: return lir;
#include "sema/builtins.def"
    case UnOp::Conj: return "conj";
    case UnOp::RealPart: return "real";
    case UnOp::ImagPart: return "imag";
    case UnOp::Arg: return "arg";
    case UnOp::ToF64: return "tof64";
    case UnOp::ToI64: return "toi64";
    case UnOp::ToC64: return "toc64";
  }
  return "?";
}

const char* toString(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Pow: return "pow";
#define MAT2C_BUILTIN_BINARY(name, kind, op, ...) \
    case BinOp::op: return name;
#include "sema/builtins.def"
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::And: return "&&";
    case BinOp::Or: return "||";
    case BinOp::MakeComplex: return "cplx";
  }
  return "?";
}

bool isComparison(BinOp op) {
  switch (op) {
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
      return true;
    default:
      return false;
  }
}

const char* toString(ReduceOp op) {
  switch (op) {
    case ReduceOp::Add: return "redadd";
    case ReduceOp::Min: return "redmin";
    case ReduceOp::Max: return "redmax";
  }
  return "?";
}

ExprPtr Expr::clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->type = type;
  e->fval = fval;
  e->ival = ival;
  e->name = name;
  e->unOp = unOp;
  e->binOp = binOp;
  e->reduceOp = reduceOp;
  if (index) e->index = index->clone();
  if (a) e->a = a->clone();
  if (b) e->b = b->clone();
  if (c) e->c = c->clone();
  return e;
}

StmtPtr Stmt::clone() const {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->name = name;
  s->declType = declType;
  s->step = step;
  if (value) s->value = value->clone();
  if (index) s->index = index->clone();
  if (lo) s->lo = lo->clone();
  if (hi) s->hi = hi->clone();
  if (cond) s->cond = cond->clone();
  s->body.reserve(body.size());
  for (const auto& st : body) s->body.push_back(st->clone());
  s->elseBody.reserve(elseBody.size());
  for (const auto& st : elseBody) s->elseBody.push_back(st->clone());
  return s;
}

ExprPtr constF(double v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::ConstF;
  e->type = VType::f64();
  e->fval = v;
  return e;
}

ExprPtr constI(std::int64_t v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::ConstI;
  e->type = VType::i64();
  e->ival = v;
  return e;
}

ExprPtr constC(double re, double im) {
  return binary(BinOp::MakeComplex, constF(re), constF(im), VType::c64());
}

ExprPtr varRef(std::string name, VType type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::VarRef;
  e->type = type;
  e->name = std::move(name);
  return e;
}

ExprPtr load(std::string array, ExprPtr index, VType type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Load;
  e->type = type;
  e->name = std::move(array);
  e->index = std::move(index);
  return e;
}

ExprPtr unary(UnOp op, ExprPtr operand, VType type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Unary;
  e->type = type;
  e->unOp = op;
  e->a = std::move(operand);
  return e;
}

ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs, VType type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Binary;
  e->type = type;
  e->binOp = op;
  e->a = std::move(lhs);
  e->b = std::move(rhs);
  return e;
}

ExprPtr fma(ExprPtr a, ExprPtr b, ExprPtr c, VType type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Fma;
  e->type = type;
  e->a = std::move(a);
  e->b = std::move(b);
  e->c = std::move(c);
  return e;
}

ExprPtr splat(ExprPtr scalar, int lanes) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Splat;
  e->type = {scalar->type.scalar, lanes};
  e->a = std::move(scalar);
  return e;
}

ExprPtr reduce(ReduceOp op, ExprPtr vec) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Reduce;
  e->type = {vec->type.scalar, 1};
  e->reduceOp = op;
  e->a = std::move(vec);
  return e;
}

namespace {
StmtPtr makeStmt(StmtKind k) {
  auto s = std::make_unique<Stmt>();
  s->kind = k;
  return s;
}
}  // namespace

StmtPtr declScalar(std::string name, VType type, ExprPtr init) {
  auto s = makeStmt(StmtKind::DeclScalar);
  s->name = std::move(name);
  s->declType = type;
  s->value = std::move(init);
  return s;
}

StmtPtr assign(std::string name, ExprPtr value) {
  auto s = makeStmt(StmtKind::Assign);
  s->name = std::move(name);
  s->value = std::move(value);
  return s;
}

StmtPtr store(std::string array, ExprPtr index, ExprPtr value) {
  auto s = makeStmt(StmtKind::Store);
  s->name = std::move(array);
  s->index = std::move(index);
  s->value = std::move(value);
  return s;
}

StmtPtr forLoop(std::string var, ExprPtr lo, ExprPtr hi, std::int64_t step,
                std::vector<StmtPtr> body) {
  auto s = makeStmt(StmtKind::For);
  s->name = std::move(var);
  s->lo = std::move(lo);
  s->hi = std::move(hi);
  s->step = step;
  s->body = std::move(body);
  return s;
}

StmtPtr ifStmt(ExprPtr cond, std::vector<StmtPtr> thenBody, std::vector<StmtPtr> elseBody) {
  auto s = makeStmt(StmtKind::If);
  s->cond = std::move(cond);
  s->body = std::move(thenBody);
  s->elseBody = std::move(elseBody);
  return s;
}

StmtPtr whileStmt(ExprPtr cond, std::vector<StmtPtr> body) {
  auto s = makeStmt(StmtKind::While);
  s->cond = std::move(cond);
  s->body = std::move(body);
  return s;
}

StmtPtr breakStmt() { return makeStmt(StmtKind::Break); }
StmtPtr continueStmt() { return makeStmt(StmtKind::Continue); }

StmtPtr boundsCheck(std::string array, ExprPtr index) {
  auto s = makeStmt(StmtKind::BoundsCheck);
  s->name = std::move(array);
  s->index = std::move(index);
  return s;
}

StmtPtr allocMark(std::string array) {
  auto s = makeStmt(StmtKind::AllocMark);
  s->name = std::move(array);
  return s;
}

StmtPtr comment(std::string text) {
  auto s = makeStmt(StmtKind::Comment);
  s->name = std::move(text);
  return s;
}

const Param* Function::findParam(const std::string& n) const {
  for (const auto& p : params) {
    if (p.name == n) return &p;
  }
  return nullptr;
}

const Param* Function::findOut(const std::string& n) const {
  for (const auto& p : outs) {
    if (p.name == n) return &p;
  }
  return nullptr;
}

const ArrayDecl* Function::findArray(const std::string& n) const {
  for (const auto& a : arrays) {
    if (a.name == n) return &a;
  }
  return nullptr;
}

bool Function::arrayInfo(const std::string& n, Scalar& elem, std::int64_t& numel) const {
  if (const Param* p = findParam(n); p && p->isArray) {
    elem = p->elem;
    numel = p->numel();
    return true;
  }
  if (const Param* p = findOut(n); p && p->isArray) {
    elem = p->elem;
    numel = p->numel();
    return true;
  }
  if (const ArrayDecl* a = findArray(n)) {
    elem = a->elem;
    numel = a->numel();
    return true;
  }
  return false;
}


std::int64_t Affine::coeff(const std::string& var) const {
  auto it = coeffs.find(var);
  return it == coeffs.end() ? 0 : it->second;
}

bool Affine::onlyVar(const std::string& var) const {
  for (const auto& [name, c] : coeffs) {
    if (name != var && c != 0) return false;
  }
  return true;
}

Affine affineOf(const Expr& e) {
  Affine r;
  switch (e.kind) {
    case ExprKind::ConstI:
      r.ok = true;
      r.constant = e.ival;
      return r;
    case ExprKind::VarRef:
      if (e.type == VType::i64()) {
        r.ok = true;
        r.coeffs[e.name] = 1;
      }
      return r;
    case ExprKind::Binary: {
      if (e.type != VType::i64()) return r;
      Affine a = affineOf(*e.a);
      Affine b = affineOf(*e.b);
      if (!a.ok || !b.ok) return r;
      if (e.binOp == BinOp::Add || e.binOp == BinOp::Sub) {
        std::int64_t sign = e.binOp == BinOp::Add ? 1 : -1;
        r = a;
        r.constant += sign * b.constant;
        for (const auto& [name, c] : b.coeffs) r.coeffs[name] += sign * c;
        return r;
      }
      if (e.binOp == BinOp::Mul) {
        // One side must be a pure constant.
        const Affine* k = b.coeffs.empty() ? &b : (a.coeffs.empty() ? &a : nullptr);
        const Affine* v = k == &b ? &a : &b;
        if (!k) return r;
        r.ok = true;
        r.constant = v->constant * k->constant;
        for (const auto& [name, c] : v->coeffs) r.coeffs[name] = c * k->constant;
        return r;
      }
      return r;
    }
    default:
      return r;
  }
}

FunctionStats collectStats(const std::vector<StmtPtr>& block) {
  FunctionStats stats;
  walkStmts(block, [&](const Stmt& s) {
    stats.statements++;
    switch (s.kind) {
      case StmtKind::For:
      case StmtKind::While: stats.loops++; break;
      case StmtKind::DeclScalar: stats.decls++; break;
      case StmtKind::Store: stats.stores++; break;
      case StmtKind::BoundsCheck: stats.boundsChecks++; break;
      default: break;
    }
  });
  return stats;
}

FunctionStats collectStats(const Function& fn) { return collectStats(fn.body); }

Affine affineSub(const Affine& a, const Affine& b) {
  Affine r;
  if (!a.ok || !b.ok) return r;
  r.ok = true;
  r.constant = a.constant - b.constant;
  r.coeffs = a.coeffs;
  for (const auto& [name, c] : b.coeffs) r.coeffs[name] -= c;
  return r;
}

}  // namespace mat2c::lir
