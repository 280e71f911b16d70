#include "sema/sema.hpp"

#include <cmath>

#include "support/fault_injection.hpp"
#include "support/limits.hpp"

namespace mat2c::sema {

using namespace ast;

TypeInference::TypeInference(const Program& program, DiagnosticEngine& diags)
    : program_(program), diags_(diags) {}

namespace {

std::string signatureKey(const std::string& name, const std::vector<Type>& args) {
  std::string key = name;
  for (const auto& t : args) {
    key += '|';
    key += t.toString();
  }
  return key;
}

bool isArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::ElemMul:
    case BinaryOp::ElemDiv:
    case BinaryOp::ElemLeftDiv:
    case BinaryOp::ElemPow:
    case BinaryOp::MatMul:
    case BinaryOp::MatDiv:
    case BinaryOp::MatLeftDiv:
    case BinaryOp::MatPow:
      return true;
    default:
      return false;
  }
}

/// Bool participates in arithmetic as Real.
Elem arithElem(Elem e) { return e == Elem::Bool ? Elem::Real : e; }

}  // namespace

const FunctionSummary& TypeInference::inferFunction(const Function& fn,
                                                    const std::vector<Type>& args) {
  std::string key = signatureKey(fn.name, args);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  if (inProgress_.count(fn.name))
    fail(fn.loc, "recursive function '" + fn.name + "' is not supported by the compiler");
  if (args.size() != fn.params.size())
    fail(fn.loc, "function '" + fn.name + "' expects " + std::to_string(fn.params.size()) +
                     " arguments, got " + std::to_string(args.size()));

  inProgress_.insert(fn.name);
  Env env;
  for (std::size_t i = 0; i < args.size(); ++i) env.vars[fn.params[i]] = args[i];
  processBlock(fn.body, env);
  inProgress_.erase(fn.name);

  FunctionSummary summary;
  summary.paramTypes = args;
  for (const auto& out : fn.outs) {
    auto vit = env.vars.find(out);
    if (vit == env.vars.end())
      fail(fn.loc, "output '" + out + "' of '" + fn.name + "' is never assigned");
    summary.outTypes.push_back(vit->second);
  }
  return memo_.emplace(std::move(key), std::move(summary)).first->second;
}

const FunctionSummary& TypeInference::inferEntry(const std::string& name,
                                                 const std::vector<ArgSpec>& args) {
  const Function* fn = program_.findFunction(name);
  if (!fn) fail({}, "entry function '" + name + "' not found");
  std::vector<Type> types;
  types.reserve(args.size());
  for (const auto& a : args) types.push_back(a.type);
  return inferFunction(*fn, types);
}

void TypeInference::joinInto(Env& dst, const Env& src) {
  // Variable types: join shared names, keep the union of names (a variable
  // assigned on one path may be read later; MATLAB errors at runtime if the
  // unassigned path executes).
  for (const auto& [name, type] : src.vars) {
    auto it = dst.vars.find(name);
    if (it == dst.vars.end()) {
      dst.vars.emplace(name, type);
    } else {
      it->second = joinType(it->second, type);
    }
  }
  // Constants: keep only values that agree on both paths.
  for (auto it = dst.consts.begin(); it != dst.consts.end();) {
    auto sit = src.consts.find(it->first);
    if (sit == src.consts.end() || sit->second != it->second) {
      it = dst.consts.erase(it);
    } else {
      ++it;
    }
  }
}

void TypeInference::processBlock(const std::vector<StmtPtr>& body, Env& env, ExitEnvs* exits) {
  for (const auto& s : body) processStmt(*s, env, exits);
}

void TypeInference::processStmt(const Stmt& stmt, Env& env, ExitEnvs* exits) {
  // Per-statement cooperative guard point, mirroring Parser::parseStatement.
  DeadlineGuard::poll("sema");
  fault::onAllocPoint();
  switch (stmt.kind) {
    case NodeKind::Assign: {
      const auto& s = static_cast<const Assign&>(stmt);
      if (s.targets.size() == 1) {
        const LValue& t = s.targets[0];
        Type rhs = inferExpr(*s.rhs, env);
        if (t.indices.empty()) {
          env.vars[t.name] = rhs;
          auto cv = constValue(*s.rhs, env);
          if (cv && rhs.isScalar() && rhs.elem != Elem::Complex) {
            env.consts[t.name] = *cv;
          } else {
            env.consts.erase(t.name);
          }
        } else {
          auto it = env.vars.find(t.name);
          if (it == env.vars.end())
            fail(t.loc, "indexed assignment to undefined variable '" + t.name +
                            "' — preallocate with zeros(...)");
          // Indexed stores keep the shape; complex stores promote the element.
          if (rhs.elem == Elem::Complex && it->second.elem != Elem::Complex)
            it->second.elem = Elem::Complex;
          env.consts.erase(t.name);
        }
        return;
      }
      // Multi-assignment: rhs must be a call.
      if (s.rhs->kind != NodeKind::CallIndex)
        fail(s.loc, "multi-assignment requires a function call on the right-hand side");
      const auto& call = static_cast<const CallIndex&>(*s.rhs);
      std::vector<Type> outs = inferCallOutputs(call, env, s.targets.size());
      if (outs.size() < s.targets.size())
        fail(s.loc, "function returns fewer outputs than assignment targets");
      for (std::size_t i = 0; i < s.targets.size(); ++i) {
        if (!s.targets[i].indices.empty())
          fail(s.targets[i].loc, "indexed targets in multi-assignment are not supported");
        env.vars[s.targets[i].name] = outs[i];
        env.consts.erase(s.targets[i].name);
      }
      // [r, c] = size(a) with a static shape feeds the constant lattice.
      if (call.base->kind == NodeKind::Ident &&
          static_cast<const Ident&>(*call.base).name == "size" && call.args.size() == 1 &&
          s.targets.size() == 2 && !env.vars.count("size")) {
        Type t = inferExpr(*call.args[0], env);
        if (t.shape.isKnown()) {
          env.consts[s.targets[0].name] = static_cast<double>(t.shape.rows.extent());
          env.consts[s.targets[1].name] = static_cast<double>(t.shape.cols.extent());
        }
      }
      return;
    }
    case NodeKind::ExprStmt:
      inferExpr(*static_cast<const ExprStmt&>(stmt).expr, env);
      return;
    case NodeKind::If: {
      const auto& s = static_cast<const If&>(stmt);
      std::vector<Env> outs;
      for (const auto& b : s.branches) {
        inferExpr(*b.cond, env);
        Env branch = env;
        processBlock(b.body, branch, exits);
        outs.push_back(std::move(branch));
      }
      Env elseEnv = env;
      processBlock(s.elseBody, elseEnv, exits);
      env = std::move(elseEnv);
      for (const auto& o : outs) joinInto(env, o);
      break;
    }
    case NodeKind::For: {
      const auto& s = static_cast<const For&>(stmt);
      Type rangeType = inferExpr(*s.range, env);
      if (rangeType.elem == Elem::Complex)
        fail(s.loc, "complex for-loop ranges are not supported");
      for (int iter = 0; iter < 16; ++iter) {
        Env body = env;
        body.vars[s.var] = Type::realScalar();
        body.consts.erase(s.var);
        processBlock(s.body, body, exits);
        Env joined = env;
        joinInto(joined, body);
        if (joined == env) break;
        env = std::move(joined);
        if (iter == 15) fail(s.loc, "type inference did not converge in for-loop");
      }
      env.vars[s.var] = Type::realScalar();
      env.consts.erase(s.var);
      break;
    }
    case NodeKind::While: {
      const auto& s = static_cast<const While&>(stmt);
      for (int iter = 0; iter < 16; ++iter) {
        inferExpr(*s.cond, env);
        Env body = env;
        processBlock(s.body, body, exits);
        Env joined = env;
        joinInto(joined, body);
        if (joined == env) break;
        env = std::move(joined);
        if (iter == 15) fail(s.loc, "type inference did not converge in while-loop");
      }
      break;
    }
    case NodeKind::Switch: {
      const auto& s = static_cast<const Switch&>(stmt);
      Type subject = inferExpr(*s.subject, env);
      if (!subject.isScalar()) fail(s.loc, "switch subject must be a scalar in compiled code");
      std::vector<Env> outs;
      for (const auto& c : s.cases) {
        inferExpr(*c.value, env);
        Env branch = env;
        processBlock(c.body, branch, exits);
        outs.push_back(std::move(branch));
      }
      Env other = env;
      processBlock(s.otherwise, other, exits);
      env = std::move(other);
      for (const auto& o : outs) joinInto(env, o);
      break;
    }
    case NodeKind::Break:
    case NodeKind::Continue:
    case NodeKind::Return:
      return;
    default:
      fail(stmt.loc, "unsupported statement in compiled code");
  }
  // Only the compound statements break out of the switch.
  if (exits) (*exits)[&stmt] = env;
}

std::optional<double> TypeInference::constValue(const Expr& expr, Env& env,
                                                std::optional<double> endExtent) {
  switch (expr.kind) {
    case NodeKind::NumberLit: {
      const auto& e = static_cast<const NumberLit&>(expr);
      if (e.imaginary) return std::nullopt;
      return e.value;
    }
    case NodeKind::End:
      return endExtent;
    case NodeKind::Ident: {
      const auto& e = static_cast<const Ident&>(expr);
      auto it = env.consts.find(e.name);
      if (it != env.consts.end()) return it->second;
      if (!env.vars.count(e.name)) {
        auto info = findCompilableBuiltin(e.name);
        if (info && info->kind == BuiltinKind::Constant) return info->constantValue;
      }
      return std::nullopt;
    }
    case NodeKind::Unary: {
      const auto& e = static_cast<const Unary&>(expr);
      auto v = constValue(*e.operand, env, endExtent);
      if (!v) return std::nullopt;
      switch (e.op) {
        case UnaryOp::Neg: return -*v;
        case UnaryOp::Plus: return *v;
        case UnaryOp::Not: return *v == 0.0 ? 1.0 : 0.0;
      }
      return std::nullopt;
    }
    case NodeKind::Binary: {
      const auto& e = static_cast<const Binary&>(expr);
      auto a = constValue(*e.lhs, env, endExtent);
      auto b = constValue(*e.rhs, env, endExtent);
      if (!a || !b) return std::nullopt;
      switch (e.op) {
        case BinaryOp::Add: return *a + *b;
        case BinaryOp::Sub: return *a - *b;
        case BinaryOp::MatMul:
        case BinaryOp::ElemMul: return *a * *b;
        case BinaryOp::MatDiv:
        case BinaryOp::ElemDiv: return *a / *b;
        case BinaryOp::MatPow:
        case BinaryOp::ElemPow: return std::pow(*a, *b);
        default: return std::nullopt;
      }
    }
    case NodeKind::CallIndex: {
      const auto& e = static_cast<const CallIndex&>(expr);
      if (e.base->kind != NodeKind::Ident) return std::nullopt;
      const std::string& name = static_cast<const Ident&>(*e.base).name;
      if (env.vars.count(name)) return std::nullopt;  // variable indexing
      // Shape queries fold when the argument shape is static.
      if (name == "length" || name == "numel") {
        if (e.args.size() != 1) return std::nullopt;
        Type t = inferExpr(*e.args[0], env);
        if (!t.shape.isKnown()) return std::nullopt;
        if (name == "numel") return static_cast<double>(t.shape.numel());
        return static_cast<double>(
            std::max(t.shape.rows.extent(), t.shape.cols.extent()));
      }
      if (name == "size" && e.args.size() == 2) {
        Type t = inferExpr(*e.args[0], env);
        auto d = constValue(*e.args[1], env);
        if (!d || !t.shape.isKnown()) return std::nullopt;
        if (*d == 1.0) return static_cast<double>(t.shape.rows.extent());
        if (*d == 2.0) return static_cast<double>(t.shape.cols.extent());
        return 1.0;
      }
      // Pure scalar math folds: the table's host function, inside its domain.
      auto info = findCompilableBuiltin(name);
      if (!info || !info->fold || e.args.size() != static_cast<std::size_t>(info->arity))
        return std::nullopt;
      auto x = constValue(*e.args[0], env, endExtent);
      auto y = info->arity == 2 ? constValue(*e.args[1], env, endExtent) : 0.0;
      if (!x || !y) return std::nullopt;
      return info->fold(*x, *y);
    }
    default:
      return std::nullopt;
  }
}

TypeInference::AffineExpr TypeInference::astAffine(const Expr& e, Env& env,
                                                   std::optional<double> endExtent) {
  AffineExpr r;
  if (auto cv = constValue(e, env, endExtent)) {
    r.ok = true;
    r.constant = *cv;
    return r;
  }
  switch (e.kind) {
    case NodeKind::Ident: {
      const auto& id = static_cast<const Ident&>(e);
      if (env.vars.count(id.name)) {
        Type t = env.vars.at(id.name);
        if (t.isScalar() && t.elem != Elem::Complex) {
          r.ok = true;
          r.coeffs[id.name] = 1.0;
        }
      }
      return r;
    }
    case NodeKind::Unary: {
      const auto& u = static_cast<const Unary&>(e);
      if (u.op != UnaryOp::Neg && u.op != UnaryOp::Plus) return r;
      AffineExpr a = astAffine(*u.operand, env, endExtent);
      if (!a.ok) return r;
      r = a;
      if (u.op == UnaryOp::Neg) {
        r.constant = -r.constant;
        for (auto& [name, c] : r.coeffs) c = -c;
      }
      return r;
    }
    case NodeKind::Binary: {
      const auto& b = static_cast<const Binary&>(e);
      if (b.op == BinaryOp::Add || b.op == BinaryOp::Sub) {
        AffineExpr x = astAffine(*b.lhs, env, endExtent);
        AffineExpr y = astAffine(*b.rhs, env, endExtent);
        if (!x.ok || !y.ok) return r;
        double sign = b.op == BinaryOp::Add ? 1.0 : -1.0;
        r = x;
        r.constant += sign * y.constant;
        for (const auto& [name, c] : y.coeffs) r.coeffs[name] += sign * c;
        return r;
      }
      if (b.op == BinaryOp::ElemMul || b.op == BinaryOp::MatMul) {
        auto kl = constValue(*b.lhs, env, endExtent);
        auto kr = constValue(*b.rhs, env, endExtent);
        const Expr* varSide = kl ? b.rhs.get() : b.lhs.get();
        std::optional<double> k = kl ? kl : kr;
        if (!k) return r;
        AffineExpr v = astAffine(*varSide, env, endExtent);
        if (!v.ok) return r;
        r.ok = true;
        r.constant = v.constant * *k;
        for (const auto& [name, c] : v.coeffs) r.coeffs[name] = c * *k;
        return r;
      }
      return r;
    }
    default:
      return r;
  }
}

Dim TypeInference::indexCount(const Expr& arg, Env& env, Dim extent) {
  if (arg.kind == NodeKind::Colon) return extent;
  std::optional<double> endV;
  if (extent.isKnown()) endV = static_cast<double>(extent.extent());
  if (arg.kind == NodeKind::Range) {
    const auto& r = static_cast<const Range&>(arg);
    auto step = r.step ? constValue(*r.step, env, endV) : std::optional<double>(1.0);
    if (!step || *step == 0.0) return Dim::dynamic();
    auto start = constValue(*r.start, env, endV);
    auto stop = constValue(*r.stop, env, endV);
    std::optional<double> span;
    if (start && stop) {
      span = *stop - *start;
    } else {
      // The ends may be dynamic while their difference is static, e.g.
      // x(k : k+m-1) inside a loop. Fold (stop - start) symbolically.
      AffineExpr a = astAffine(*r.start, env, endV);
      AffineExpr b = astAffine(*r.stop, env, endV);
      if (a.ok && b.ok) {
        bool pure = true;
        for (const auto& [name, coeff] : b.coeffs) {
          double other = 0.0;
          auto it = a.coeffs.find(name);
          if (it != a.coeffs.end()) other = it->second;
          if (coeff != other) pure = false;
        }
        for (const auto& [name, coeff] : a.coeffs) {
          if (!b.coeffs.count(name) && coeff != 0.0) pure = false;
        }
        if (pure) span = b.constant - a.constant;
      }
    }
    if (!span) return Dim::dynamic();
    double n = std::floor(*span / *step + 1e-10) + 1.0;
    return Dim::of(n < 0 ? 0 : static_cast<std::int64_t>(n));
  }
  if (arg.kind == NodeKind::End) return Dim::of(1);
  Type t = inferExpr(const_cast<Expr&>(arg), env);
  if (t.isScalar()) return Dim::of(1);
  if (t.elem == Elem::Bool) return Dim::dynamic();  // logical masks are dynamic
  if (t.shape.isKnown()) return Dim::of(t.shape.numel());
  return Dim::dynamic();
}

Type TypeInference::inferIndexResult(const Type& base, const std::vector<ExprPtr>& args,
                                     Env& env, SourceLoc loc) {
  if (args.empty()) return base;
  if (args.size() == 1) {
    if (args[0]->kind == NodeKind::Colon) {
      // A(:) is always a column.
      Dim n = base.shape.isKnown() ? Dim::of(base.shape.numel()) : Dim::dynamic();
      return {base.elem, Shape{n, Dim::of(1)}};
    }
    Dim extent = base.shape.isKnown() ? Dim::of(base.shape.numel()) : Dim::dynamic();
    Dim n = indexCount(*args[0], env, extent);
    if (n == Dim::of(1)) return {base.elem, Shape::scalar()};
    // Orientation follows the base for vectors; matrices yield rows.
    if (base.shape.isCol()) return {base.elem, Shape{n, Dim::of(1)}};
    return {base.elem, Shape{Dim::of(1), n}};
  }
  if (args.size() != 2) fail(loc, "only 1-D and 2-D indexing are supported");
  Dim r = indexCount(*args[0], env, base.shape.rows);
  Dim c = indexCount(*args[1], env, base.shape.cols);
  return {base.elem, Shape{r, c}};
}

Type TypeInference::inferMatrixLit(const MatrixLit& expr, Env& env) {
  if (expr.rows.empty()) return {Elem::Real, Shape{Dim::of(0), Dim::of(0)}};
  Elem elem = Elem::Bool;
  std::int64_t totalRows = 0;
  std::int64_t width = -1;
  for (const auto& row : expr.rows) {
    std::int64_t h = -1;
    std::int64_t w = 0;
    for (const auto& el : row) {
      Type t = inferExpr(*el, env);
      elem = joinElem(elem, t.elem);
      if (!t.shape.isKnown())
        fail(el->loc, "matrix literal element has dynamic shape");
      if (t.shape.numel() == 0) continue;
      if (h == -1) h = t.shape.rows.extent();
      if (t.shape.rows.extent() != h)
        fail(el->loc, "matrix literal: inconsistent row heights");
      w += t.shape.cols.extent();
    }
    if (h == -1) continue;  // all-empty row
    if (width == -1) width = w;
    if (w != width) fail(expr.loc, "matrix literal: inconsistent column widths");
    totalRows += h;
  }
  if (width == -1) return {Elem::Real, Shape{Dim::of(0), Dim::of(0)}};
  if (elem == Elem::Bool) elem = Elem::Real;  // literals of logicals decay
  return {elem, Shape::matrix(totalRows, width)};
}

Type TypeInference::inferBinary(const Binary& expr, Env& env) {
  if (expr.op == BinaryOp::AndAnd || expr.op == BinaryOp::OrOr) {
    Type a = inferExpr(*expr.lhs, env);
    Type b = inferExpr(*expr.rhs, env);
    if (!a.isScalar() || !b.isScalar())
      fail(expr.loc, "'&&'/'||' require scalar operands");
    return Type::boolScalar();
  }

  Type a = inferExpr(*expr.lhs, env);
  Type b = inferExpr(*expr.rhs, env);

  auto broadcastShape = [&](const Shape& sa, const Shape& sb) -> Shape {
    if (sa.isScalar()) return sb;
    if (sb.isScalar()) return sa;
    if (sa.isKnown() && sb.isKnown() && !(sa == sb))
      fail(expr.loc, std::string("shape mismatch for '") + toString(expr.op) + "': " +
                         Type{Elem::Real, sa}.toString() + " vs " +
                         Type{Elem::Real, sb}.toString());
    return sa.isKnown() ? sa : sb;
  };

  if (isComparison(expr.op) || expr.op == BinaryOp::And || expr.op == BinaryOp::Or) {
    return {Elem::Bool, broadcastShape(a.shape, b.shape)};
  }

  if (!isArithmetic(expr.op)) fail(expr.loc, "unsupported binary operator");
  Elem elem = joinElem(arithElem(a.elem), arithElem(b.elem));

  switch (expr.op) {
    case BinaryOp::MatMul: {
      if (a.isScalar() || b.isScalar()) return {elem, broadcastShape(a.shape, b.shape)};
      if (a.shape.cols.isKnown() && b.shape.rows.isKnown() &&
          !(a.shape.cols == b.shape.rows))
        fail(expr.loc, "inner matrix dimensions must agree");
      return {elem, Shape{a.shape.rows, b.shape.cols}};
    }
    case BinaryOp::MatDiv:
      if (!b.isScalar()) fail(expr.loc, "matrix right division is not supported (use ./)");
      return {elem, a.shape};
    case BinaryOp::MatLeftDiv:
      if (!a.isScalar()) fail(expr.loc, "matrix left division is not supported");
      return {elem, b.shape};
    case BinaryOp::MatPow:
      if (!a.isScalar() || !b.isScalar())
        fail(expr.loc, "matrix power is only supported for scalars");
      return {elem, Shape::scalar()};
    default:
      return {elem, broadcastShape(a.shape, b.shape)};
  }
}

std::vector<Type> TypeInference::inferCallOutputs(const CallIndex& call, Env& env,
                                                  std::size_t nOut) {
  if (call.base->kind != NodeKind::Ident) {
    Type base = inferExpr(*call.base, env);
    return {inferIndexResult(base, call.args, env, call.loc)};
  }
  const std::string& name = static_cast<const Ident&>(*call.base).name;

  auto vit = env.vars.find(name);
  if (vit != env.vars.end()) {
    return {inferIndexResult(vit->second, call.args, env, call.loc)};
  }

  std::vector<Type> argTypes;
  std::vector<std::optional<double>> argConsts;
  argTypes.reserve(call.args.size());
  for (const auto& a : call.args) {
    if (a->kind == NodeKind::Colon || a->kind == NodeKind::End)
      fail(a->loc, "':'/'end' used in a call to '" + name + "' which is not a variable");
    argTypes.push_back(inferExpr(*a, env));
    argConsts.push_back(constValue(*a, env));
  }

  if (const Function* fn = program_.findFunction(name)) {
    const FunctionSummary& summary = inferFunction(*fn, argTypes);
    if (nOut > summary.outTypes.size())
      fail(call.loc, "function '" + name + "' returns " +
                         std::to_string(summary.outTypes.size()) + " outputs, " +
                         std::to_string(nOut) + " requested");
    return summary.outTypes;
  }

  if (auto info = findCompilableBuiltin(name)) {
    std::vector<Type> extra;
    Type first = inferBuiltin(name, *info, argTypes, argConsts, call.loc, nOut, &extra);
    std::vector<Type> outs{first};
    for (auto& t : extra) outs.push_back(t);
    return outs;
  }
  fail(call.loc, "'" + name + "' is not a variable, user function, or compilable builtin");
}

Type TypeInference::inferBuiltin(const std::string& name, const BuiltinInfo& info,
                                 const std::vector<Type>& args,
                                 const std::vector<std::optional<double>>& argConsts,
                                 SourceLoc loc, std::size_t nOut, std::vector<Type>* extraOuts) {
  auto need = [&](std::size_t lo, std::size_t hi) {
    if (args.size() < lo || args.size() > hi)
      fail(loc, "'" + name + "': wrong number of arguments");
  };
  auto broadcast2 = [&]() -> Shape {
    need(2, 2);
    if (args[0].isScalar()) return args[1].shape;
    if (args[1].isScalar()) return args[0].shape;
    if (args[0].shape.isKnown() && args[1].shape.isKnown() &&
        !(args[0].shape == args[1].shape))
      fail(loc, "'" + name + "': shape mismatch");
    return args[0].shape.isKnown() ? args[0].shape : args[1].shape;
  };
  auto reducedShape = [&](const Shape& s) -> Shape {
    if (s.isVector() || s.isScalar()) return Shape::scalar();
    return Shape{Dim::of(1), s.cols};
  };

  switch (info.kind) {
    case BuiltinKind::Constant:
      need(0, 0);
      return Type::realScalar();

    case BuiltinKind::ElemUnary:
      need(1, 1);
      if (info.rule == ComplexRule::Keep && args[0].elem == Elem::Complex)
        return {Elem::Complex, args[0].shape};
      return {Elem::Real, args[0].shape};

    case BuiltinKind::ElemBinary:
      return {Elem::Real, broadcast2()};

    case BuiltinKind::MinMax: {
      need(1, 2);
      if (args.size() == 2) return {Elem::Real, broadcast2()};
      if (extraOuts && nOut >= 2)
        extraOuts->push_back({Elem::Real, reducedShape(args[0].shape)});
      return {arithElem(args[0].elem), reducedShape(args[0].shape)};
    }

    case BuiltinKind::Reduction: {
      if (name == "dot") {
        need(2, 2);
        return {joinElem(arithElem(args[0].elem), arithElem(args[1].elem)), Shape::scalar()};
      }
      if (name == "norm") {
        need(1, 1);
        return Type::realScalar();
      }
      need(1, 1);
      return {arithElem(args[0].elem), reducedShape(args[0].shape)};
    }

    case BuiltinKind::Query: {
      if (name == "size") {
        need(1, 2);
        if (args.size() == 1 && nOut >= 2) {
          if (extraOuts) extraOuts->push_back(Type::realScalar());
          return Type::realScalar();
        }
        if (args.size() == 1) return {Elem::Real, Shape::row(2)};
        return Type::realScalar();
      }
      if (name == "isreal" || name == "isempty") {
        need(1, 1);
        return Type::boolScalar();
      }
      need(1, 1);
      return Type::realScalar();  // length/numel
    }

    case BuiltinKind::Constructor: {
      if (name == "linspace") {
        need(2, 3);
        Dim n = Dim::dynamic();
        if (args.size() == 3) {
          if (argConsts[2]) n = Dim::of(static_cast<std::int64_t>(*argConsts[2]));
        } else {
          n = Dim::of(100);
        }
        return {Elem::Real, Shape{Dim::of(1), n}};
      }
      need(0, 2);
      Dim r = Dim::of(1);
      Dim c = Dim::of(1);
      if (args.size() == 1) {
        r = c = argConsts[0] ? Dim::of(static_cast<std::int64_t>(*argConsts[0]))
                             : Dim::dynamic();
      } else if (args.size() == 2) {
        r = argConsts[0] ? Dim::of(static_cast<std::int64_t>(*argConsts[0])) : Dim::dynamic();
        c = argConsts[1] ? Dim::of(static_cast<std::int64_t>(*argConsts[1])) : Dim::dynamic();
      }
      return {Elem::Real, Shape{r, c}};
    }

    case BuiltinKind::ComplexPart: {
      if (name == "complex") return {Elem::Complex, broadcast2()};
      need(1, 1);
      if (name == "conj") return {args[0].elem, args[0].shape};
      return {Elem::Real, args[0].shape};  // real/imag/angle
    }

    case BuiltinKind::Transform: {
      // fft(x) / fft(x, n): complex result; vectors keep their orientation,
      // matrices transform column-wise. The transform length must be static
      // (one-arg: the input extent; two-arg: a compile-time constant n).
      need(1, 2);
      const Shape& s = args[0].shape;
      if (args.size() == 2) {
        if (!argConsts[1])
          fail(loc, "'" + name + "': transform length must be a compile-time constant");
        auto n = static_cast<std::int64_t>(*argConsts[1]);
        if (n < 1 || static_cast<double>(n) != *argConsts[1])
          fail(loc, "'" + name + "': transform length must be a positive integer");
        if (s.isScalar() || s.isRow()) return {Elem::Complex, Shape::row(n)};
        if (s.isCol()) return {Elem::Complex, Shape::col(n)};
        return {Elem::Complex, Shape{Dim::of(n), s.cols}};
      }
      return {Elem::Complex, s};
    }
  }
  fail(loc, "'" + name + "': unhandled builtin kind");
}

Type TypeInference::inferExpr(const Expr& expr, Env& env) {
  switch (expr.kind) {
    case NodeKind::NumberLit: {
      const auto& e = static_cast<const NumberLit&>(expr);
      return e.imaginary ? Type::complexScalar() : Type::realScalar();
    }
    case NodeKind::StringLit:
      fail(expr.loc, "string values are not supported in compiled functions");
    case NodeKind::Ident: {
      const auto& e = static_cast<const Ident&>(expr);
      auto it = env.vars.find(e.name);
      if (it != env.vars.end()) return it->second;
      if (const Function* fn = program_.findFunction(e.name)) {
        const FunctionSummary& s = inferFunction(*fn, {});
        if (s.outTypes.empty()) fail(expr.loc, "'" + e.name + "' returns no value");
        return s.outTypes[0];
      }
      if (auto info = findCompilableBuiltin(e.name)) {
        if (info->kind == BuiltinKind::Constant) return Type::realScalar();
      }
      fail(expr.loc, "undefined variable or function '" + e.name + "'");
    }
    case NodeKind::Unary: {
      const auto& e = static_cast<const Unary&>(expr);
      Type t = inferExpr(*e.operand, env);
      if (e.op == UnaryOp::Not) return {Elem::Bool, t.shape};
      return {arithElem(t.elem), t.shape};
    }
    case NodeKind::Binary:
      return inferBinary(static_cast<const Binary&>(expr), env);
    case NodeKind::Transpose: {
      const auto& e = static_cast<const Transpose&>(expr);
      Type t = inferExpr(*e.operand, env);
      return {t.elem, Shape{t.shape.cols, t.shape.rows}};
    }
    case NodeKind::Range: {
      const auto& e = static_cast<const Range&>(expr);
      Type st = inferExpr(*e.start, env);
      if (e.step) inferExpr(*e.step, env);
      Type sp = inferExpr(*e.stop, env);
      if (st.elem == Elem::Complex || sp.elem == Elem::Complex)
        fail(expr.loc, "complex ranges are not supported");
      Dim n = indexCount(expr, env, Dim::dynamic());
      return {Elem::Real, Shape{Dim::of(1), n}};
    }
    case NodeKind::MatrixLit:
      return inferMatrixLit(static_cast<const MatrixLit&>(expr), env);
    case NodeKind::CallIndex:
      return inferCallOutputs(static_cast<const CallIndex&>(expr), env, 1)[0];
    case NodeKind::Colon:
    case NodeKind::End:
      fail(expr.loc, "':'/'end' outside of an index expression");
    default:
      fail(expr.loc, "unsupported expression in compiled code");
  }
}

FunctionSummary checkProgram(const Program& program, const std::string& entry,
                             const std::vector<ArgSpec>& args, DiagnosticEngine& diags) {
  TypeInference inference(program, diags);
  return inference.inferEntry(entry, args);
}

}  // namespace mat2c::sema
