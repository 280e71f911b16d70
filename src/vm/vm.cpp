#include "vm/vm.hpp"

#include <cmath>

#include "sema/builtins.hpp"
#include "support/limits.hpp"

namespace mat2c::vm {

using lir::BinOp;
using lir::ExprKind;
using lir::ReduceOp;
using lir::Scalar;
using lir::StmtKind;
using lir::UnOp;
using lir::VType;
using isa::Op;

const char* toString(CostCategory c) {
  switch (c) {
    case CostCategory::Arith: return "arith";
    case CostCategory::Memory: return "memory";
    case CostCategory::Loop: return "loop";
    case CostCategory::Check: return "check";
    case CostCategory::Alloc: return "alloc";
  }
  return "?";
}

void CycleStats::charge(const isa::IsaDescription& isa, Op op, CostCategory cat,
                        double count) {
  double cycles = isa.cost(op) * count;
  total += cycles;
  byCategory[toString(cat)] += cycles;
  byOp[isa::mnemonic(op)] += cycles;
  countByOp[isa::mnemonic(op)] += count;
  opsExecuted += static_cast<std::uint64_t>(count);
  if (isa.usesIntrinsic(op)) intrinsicOpsExecuted += static_cast<std::uint64_t>(count);
}

namespace {

/// A runtime value: scalar i64/b1, or `lanes` elements of f64/c64.
struct Value {
  VType type;
  std::int64_t i = 0;
  bool b = false;
  std::vector<Complex> v;  // f64 values keep imag == 0

  static Value ofI(std::int64_t x) {
    Value r;
    r.type = VType::i64();
    r.i = x;
    return r;
  }
  static Value ofB(bool x) {
    Value r;
    r.type = VType::b1();
    r.b = x;
    return r;
  }
  static Value ofF(double x, int lanes = 1) {
    Value r;
    r.type = VType::f64(lanes);
    r.v.assign(static_cast<std::size_t>(lanes), Complex{x, 0.0});
    return r;
  }
  static Value ofC(Complex x, int lanes = 1) {
    Value r;
    r.type = VType::c64(lanes);
    r.v.assign(static_cast<std::size_t>(lanes), x);
    return r;
  }

  double f() const { return v.at(0).real(); }
  Complex c() const { return v.at(0); }
};

struct ArrayStore {
  Scalar elem = Scalar::F64;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<Complex> data;
};

enum class Flow { Normal, Break, Continue };

class Exec {
 public:
  Exec(const isa::IsaDescription& isa, const lir::Function& fn, std::uint64_t maxOps,
       StmtProfile* profile, const FusedCosting* fused)
      : isa_(isa), fn_(fn), maxOps_(maxOps), profile_(profile), fused_(fused) {}

  RunResult run(const std::vector<Matrix>& args) {
    bindParams(args);
    for (const auto& a : fn_.arrays) {
      ArrayStore st;
      st.elem = a.elem;
      st.rows = a.rows;
      st.cols = a.cols;
      st.data.assign(static_cast<std::size_t>(a.numel()), Complex{});
      arrays_.emplace(a.name, std::move(st));
    }
    for (const auto& o : fn_.outs) {
      if (o.isArray) {
        ArrayStore st;
        st.elem = o.elem;
        st.rows = o.rows;
        st.cols = o.cols;
        st.data.assign(static_cast<std::size_t>(o.numel()), Complex{});
        arrays_.emplace(o.name, std::move(st));
      } else {
        scalars_[o.name] = o.elem == Scalar::C64 ? Value::ofC({}) : Value::ofF(0.0);
      }
    }

    execBlock(fn_.body);

    RunResult result;
    result.cycles = std::move(stats_);
    for (const auto& o : fn_.outs) {
      if (o.isArray) {
        const ArrayStore& st = arrays_.at(o.name);
        Matrix m = Matrix::zeros(static_cast<std::size_t>(st.rows),
                                 static_cast<std::size_t>(st.cols),
                                 st.elem == Scalar::C64);
        for (std::size_t idx = 0; idx < st.data.size(); ++idx) m.set(idx, st.data[idx]);
        m.dropZeroImag();
        result.outputs.push_back(std::move(m));
      } else {
        const Value& v = scalars_.at(o.name);
        result.outputs.push_back(Matrix::scalar(v.c()));
      }
    }
    return result;
  }

 private:
  void bindParams(const std::vector<Matrix>& args) {
    if (args.size() != fn_.params.size())
      throw RuntimeError("VM: argument count mismatch for '" + fn_.name + "'");
    for (std::size_t i = 0; i < args.size(); ++i) {
      const lir::Param& p = fn_.params[i];
      const Matrix& m = args[i];
      if (p.isArray) {
        if (static_cast<std::int64_t>(m.rows()) != p.rows ||
            static_cast<std::int64_t>(m.cols()) != p.cols)
          throw RuntimeError("VM: argument '" + p.name + "' shape mismatch: expected " +
                             std::to_string(p.rows) + "x" + std::to_string(p.cols) + ", got " +
                             std::to_string(m.rows()) + "x" + std::to_string(m.cols()));
        if (p.elem == Scalar::F64 && m.isComplex())
          throw RuntimeError("VM: argument '" + p.name + "' must be real");
        ArrayStore st;
        st.elem = p.elem;
        st.rows = p.rows;
        st.cols = p.cols;
        st.data.resize(m.numel());
        for (std::size_t idx = 0; idx < m.numel(); ++idx) st.data[idx] = m.at(idx);
        arrays_.emplace(p.name, std::move(st));
      } else {
        if (!m.isScalar())
          throw RuntimeError("VM: argument '" + p.name + "' must be scalar");
        scalars_[p.name] =
            p.elem == Scalar::C64 ? Value::ofC(m.at(0)) : Value::ofF(m.real(0));
      }
    }
  }

  void budget(double n = 1.0) {
    opBudget_ += static_cast<std::uint64_t>(n);
    if (opBudget_ > maxOps_) throw RuntimeError("VM: op budget exceeded (runaway loop?)");
    // Cooperative deadline poll, amortized so the hot step loop pays one
    // counter increment per op and a thread-local load every 16k ops.
    if ((++pollTick_ & 0x3FFF) == 0) DeadlineGuard::poll("vm");
  }

  void charge(Op op, CostCategory cat, double count = 1.0) {
    stats_.charge(isa_, op, cat, count);
    budget(count);
  }

  /// Charge attributed to an expression node: a node folded into a fused
  /// custom instruction (FusedCosting member) suppresses its normal per-op
  /// charge — the fused root charges the whole pattern once instead.
  void chargeExpr(const lir::Expr& e, Op op, CostCategory cat, double count = 1.0) {
    if (fused_ && fused_->members.count(&e)) {
      stats_.fusedSavedCycles += isa_.cost(op) * count;
      budget(count);
      return;
    }
    charge(op, cat, count);
  }

  void chargeFused(const FusedCosting::Root& root) {
    // Members accumulated their gross suppressed cost; deduct the fused
    // instruction's own charge so fusedSavedCycles is the net reduction in
    // total (the quantity tileFused() predicts analytically).
    stats_.fusedSavedCycles -= root.cycles;
    stats_.total += root.cycles;
    stats_.byCategory[toString(CostCategory::Arith)] += root.cycles;
    stats_.byOp[root.name] += root.cycles;
    stats_.countByOp[root.name] += 1.0;
    ++stats_.opsExecuted;
    ++stats_.intrinsicOpsExecuted;
    ++stats_.fusedOpsExecuted;
    budget(1.0);
  }

  // -- expression evaluation -------------------------------------------------

  Value eval(const lir::Expr& e) {
    Value v = evalDispatch(e);
    if (fused_) {
      auto it = fused_->roots.find(&e);
      if (it != fused_->roots.end()) chargeFused(it->second);
    }
    return v;
  }

  Value evalDispatch(const lir::Expr& e) {
    switch (e.kind) {
      case ExprKind::ConstF: return Value::ofF(e.fval);
      case ExprKind::ConstI: return Value::ofI(e.ival);
      case ExprKind::VarRef: {
        auto it = scalars_.find(e.name);
        if (it == scalars_.end())
          throw RuntimeError("VM: undefined variable '" + e.name + "'");
        return it->second;
      }
      case ExprKind::Load: return evalLoad(e);
      case ExprKind::Unary: return evalUnary(e);
      case ExprKind::Binary: return evalBinary(e);
      case ExprKind::Fma: return evalFma(e);
      case ExprKind::Splat: {
        Value s = eval(*e.a);
        chargeExpr(e, e.type.scalar == Scalar::C64 ? Op::VSplatC : Op::VSplatF,
                   CostCategory::Arith);
        Value r;
        r.type = e.type;
        r.v.assign(static_cast<std::size_t>(e.type.lanes), s.v.empty() ? Complex{} : s.v[0]);
        return r;
      }
      case ExprKind::Reduce: return evalReduce(e);
    }
    throw RuntimeError("VM: bad expression kind");
  }

  ArrayStore& arrayFor(const std::string& name) {
    auto it = arrays_.find(name);
    if (it == arrays_.end()) throw RuntimeError("VM: unknown array '" + name + "'");
    return it->second;
  }

  std::int64_t evalIndex(const lir::Expr& idx) {
    Value v = eval(idx);
    if (!(v.type == VType::i64())) throw RuntimeError("VM: index is not i64");
    return v.i;
  }

  Value evalLoad(const lir::Expr& e) {
    ArrayStore& st = arrayFor(e.name);
    std::int64_t base = evalIndex(*e.index);
    int lanes = e.type.lanes;
    if (base < 0 || base + lanes > static_cast<std::int64_t>(st.data.size()))
      throw RuntimeError("VM: load out of bounds on '" + e.name + "' at " +
                         std::to_string(base) + " (+" + std::to_string(lanes) + ") of " +
                         std::to_string(st.data.size()));
    bool cplx = st.elem == Scalar::C64;
    if (lanes == 1) {
      chargeExpr(e, cplx ? Op::LoadC : Op::LoadF, CostCategory::Memory);
    } else {
      chargeExpr(e, cplx ? Op::VLoadC : Op::VLoadF, CostCategory::Memory);
    }
    Value r;
    r.type = e.type;
    r.v.assign(st.data.begin() + base, st.data.begin() + base + lanes);
    return r;
  }

  /// A builtin row (sema/builtins.def) on every lane: the host function of
  /// the real part charged at `op`, or, when the row takes complex operands
  /// and `a` is c64, of the complex element charged at `complexCharges`.
  template <sema::ComplexRule R, class F>
  Value mapBuiltin(const Value& a, VType type, F f, Op op,
                   std::initializer_list<isa::Term> complexCharges) {
    Value r;
    r.type = type;
    r.v.resize(a.v.size());
    if constexpr (R != sema::ComplexRule::Real) {
      if (a.type.scalar == Scalar::C64) {
        for (std::size_t i = 0; i < a.v.size(); ++i) r.v[i] = Complex(f(a.v[i]));
        for (const isa::Term& t : complexCharges) charge(t.op, CostCategory::Arith, t.count);
        return r;
      }
    }
    for (std::size_t i = 0; i < a.v.size(); ++i) r.v[i] = Complex{f(a.v[i].real()), 0.0};
    charge(op, CostCategory::Arith);
    return r;
  }

  Value evalUnary(const lir::Expr& e) {
    using enum isa::Op;  // the c64 charge terms of builtins.def
    Value a = eval(*e.a);
    bool vec = e.type.lanes > 1;
    bool cplx = a.type.scalar == Scalar::C64;

    switch (e.unOp) {
      case UnOp::Neg: {
        Value r;
        r.type = e.type;
        if (e.type.scalar == Scalar::I64) {
          r = Value::ofI(-a.i);
          charge(Op::AddI, CostCategory::Arith);
          return r;
        }
        r.v.resize(a.v.size());
        for (std::size_t i = 0; i < a.v.size(); ++i) r.v[i] = -a.v[i];
        chargeExpr(e, vec ? (cplx ? Op::VNegC : Op::VNegF) : (cplx ? Op::NegC : Op::NegF),
                   CostCategory::Arith);
        return r;
      }
      case UnOp::Not: {
        bool operand = a.type.scalar == Scalar::B1 ? a.b : (a.f() != 0.0);
        charge(Op::CmpI, CostCategory::Arith);
        if (e.type.scalar == Scalar::B1) return Value::ofB(!operand);
        return Value::ofF(operand ? 0.0 : 1.0);
      }
#define MAT2C_BUILTIN_UNARY(name, op, lir, rule, host, guard, cost, vop, c, cc, ...)       \
      case UnOp::op:                                                                     \
        return mapBuiltin<sema::ComplexRule::rule>(a, e.type, [](auto x) { return host(x); }, \
                                                   vec ? Op::vop : Op::cost, {__VA_ARGS__});
#include "sema/builtins.def"
      case UnOp::Conj: {
        Value r;
        r.type = e.type;
        r.v.resize(a.v.size());
        for (std::size_t i = 0; i < a.v.size(); ++i) r.v[i] = std::conj(a.v[i]);
        chargeExpr(e, vec ? Op::VConjC : Op::ConjC, CostCategory::Arith);
        return r;
      }
      case UnOp::RealPart: {
        Value r;
        r.type = e.type;
        r.v.resize(a.v.size());
        for (std::size_t i = 0; i < a.v.size(); ++i) r.v[i] = Complex{a.v[i].real(), 0.0};
        return r;  // register extraction — free
      }
      case UnOp::ImagPart: {
        Value r;
        r.type = e.type;
        r.v.resize(a.v.size());
        for (std::size_t i = 0; i < a.v.size(); ++i) r.v[i] = Complex{a.v[i].imag(), 0.0};
        return r;
      }
      case UnOp::Arg: {
        Value r;
        r.type = e.type;
        r.v.resize(a.v.size());
        for (std::size_t i = 0; i < a.v.size(); ++i) r.v[i] = Complex{std::arg(a.v[i]), 0.0};
        charge(Op::Atan2F, CostCategory::Arith);
        return r;
      }
      case UnOp::ToF64: {
        double x = a.type.scalar == Scalar::B1 ? (a.b ? 1.0 : 0.0)
                   : a.type.scalar == Scalar::I64 ? static_cast<double>(a.i)
                                                  : a.f();
        return Value::ofF(x);
      }
      case UnOp::ToI64: {
        std::int64_t x = a.type.scalar == Scalar::I64 ? a.i
                         : a.type.scalar == Scalar::B1 ? (a.b ? 1 : 0)
                                                       : static_cast<std::int64_t>(a.f());
        return Value::ofI(x);
      }
      case UnOp::ToC64: {
        if (a.type.scalar == Scalar::C64) {
          Value r = a;
          r.type = e.type;
          return r;
        }
        Value r;
        r.type = e.type;
        r.v.resize(a.v.empty() ? 1 : a.v.size());
        for (std::size_t i = 0; i < r.v.size(); ++i) {
          double x = a.type.scalar == Scalar::I64 ? static_cast<double>(a.i)
                     : a.type.scalar == Scalar::B1 ? (a.b ? 1.0 : 0.0)
                                                   : a.v[i].real();
          r.v[i] = Complex{x, 0.0};
        }
        return r;
      }
    }
    throw RuntimeError("VM: bad unary op");
  }

  Value evalBinary(const lir::Expr& e) {
    Value a = eval(*e.a);
    Value b = eval(*e.b);

    if (e.binOp == BinOp::MakeComplex) {
      Value r;
      r.type = e.type;
      std::size_t n = std::max(a.v.size(), b.v.size());
      r.v.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        r.v[i] = Complex{a.v[i % a.v.size()].real(), b.v[i % b.v.size()].real()};
      return r;
    }

    // Integer arithmetic (index math).
    if (e.type.scalar == Scalar::I64) {
      std::int64_t x = a.i;
      std::int64_t y = b.i;
      switch (e.binOp) {
        case BinOp::Add: charge(Op::AddI, CostCategory::Arith); return Value::ofI(x + y);
        case BinOp::Sub: charge(Op::AddI, CostCategory::Arith); return Value::ofI(x - y);
        case BinOp::Mul: charge(Op::MulI, CostCategory::Arith); return Value::ofI(x * y);
        case BinOp::Div:
          charge(Op::MulI, CostCategory::Arith);
          if (y == 0) throw RuntimeError("VM: integer division by zero");
          return Value::ofI(x / y);
        case BinOp::Min: charge(Op::CmpI, CostCategory::Arith); return Value::ofI(std::min(x, y));
        case BinOp::Max: charge(Op::CmpI, CostCategory::Arith); return Value::ofI(std::max(x, y));
        default:
          throw RuntimeError("VM: unsupported i64 binary op");
      }
    }

    // Comparisons / logicals produce b1.
    if (e.type.scalar == Scalar::B1) {
      charge(a.type.scalar == Scalar::I64 ? Op::CmpI : Op::CmpF, CostCategory::Arith);
      auto scalarOf = [](const Value& v) -> double {
        if (v.type.scalar == Scalar::I64) return static_cast<double>(v.i);
        if (v.type.scalar == Scalar::B1) return v.b ? 1.0 : 0.0;
        return v.v.at(0).real();
      };
      auto cplxOf = [](const Value& v) -> Complex {
        if (v.type.scalar == Scalar::I64) return {static_cast<double>(v.i), 0.0};
        if (v.type.scalar == Scalar::B1) return {v.b ? 1.0 : 0.0, 0.0};
        return v.v.at(0);
      };
      switch (e.binOp) {
        case BinOp::Eq: return Value::ofB(cplxOf(a) == cplxOf(b));
        case BinOp::Ne: return Value::ofB(cplxOf(a) != cplxOf(b));
        case BinOp::Lt: return Value::ofB(scalarOf(a) < scalarOf(b));
        case BinOp::Le: return Value::ofB(scalarOf(a) <= scalarOf(b));
        case BinOp::Gt: return Value::ofB(scalarOf(a) > scalarOf(b));
        case BinOp::Ge: return Value::ofB(scalarOf(a) >= scalarOf(b));
        case BinOp::And: return Value::ofB(scalarOf(a) != 0.0 && scalarOf(b) != 0.0);
        case BinOp::Or: return Value::ofB(scalarOf(a) != 0.0 || scalarOf(b) != 0.0);
        default:
          throw RuntimeError("VM: unsupported b1 binary op");
      }
    }

    bool vec = e.type.isVector();
    bool cplx = e.type.scalar == Scalar::C64;
    std::size_t n = static_cast<std::size_t>(e.type.lanes);
    Value r;
    r.type = e.type;
    r.v.resize(n);
    auto elemA = [&](std::size_t i) { return a.v[a.v.size() == 1 ? 0 : i]; };
    auto elemB = [&](std::size_t i) { return b.v[b.v.size() == 1 ? 0 : i]; };

    Op op;
    switch (e.binOp) {
      case BinOp::Add:
        op = vec ? (cplx ? Op::VAddC : Op::VAddF) : (cplx ? Op::AddC : Op::AddF);
        for (std::size_t i = 0; i < n; ++i) r.v[i] = elemA(i) + elemB(i);
        break;
      case BinOp::Sub:
        op = vec ? (cplx ? Op::VSubC : Op::VSubF) : (cplx ? Op::SubC : Op::SubF);
        for (std::size_t i = 0; i < n; ++i) r.v[i] = elemA(i) - elemB(i);
        break;
      case BinOp::Mul:
        op = vec ? (cplx ? Op::VMulC : Op::VMulF) : (cplx ? Op::MulC : Op::MulF);
        for (std::size_t i = 0; i < n; ++i) r.v[i] = elemA(i) * elemB(i);
        break;
      case BinOp::Div:
        op = vec ? (cplx ? Op::DivC : Op::VDivF) : (cplx ? Op::DivC : Op::DivF);
        for (std::size_t i = 0; i < n; ++i) r.v[i] = elemA(i) / elemB(i);
        break;
      case BinOp::Pow:
        op = Op::PowF;
        for (std::size_t i = 0; i < n; ++i) {
          Complex base = elemA(i);
          Complex expo = elemB(i);
          if (!cplx) {
            double x = base.real();
            double y = expo.real();
            if (x >= 0.0 || y == std::floor(y)) {
              r.v[i] = Complex{std::pow(x, y), 0.0};
              continue;
            }
          }
          r.v[i] = std::pow(base, expo);
        }
        break;
#define MAT2C_BUILTIN_BINARY(name, kind, binOp, host, cost, vop, c)     \
      case BinOp::binOp:                                                 \
        op = vec ? Op::vop : Op::cost;                                   \
        for (std::size_t i = 0; i < n; ++i)                              \
          r.v[i] = Complex{host(elemA(i).real(), elemB(i).real()), 0.0}; \
        break;
#include "sema/builtins.def"
      default:
        throw RuntimeError("VM: unsupported binary op");
    }
    chargeExpr(e, op, CostCategory::Arith);
    return r;
  }

  Value evalFma(const lir::Expr& e) {
    Value a = eval(*e.a);
    Value b = eval(*e.b);
    Value c = eval(*e.c);
    bool vec = e.type.isVector();
    bool cplx = e.type.scalar == Scalar::C64;
    std::size_t n = static_cast<std::size_t>(e.type.lanes);
    Value r;
    r.type = e.type;
    r.v.resize(n);
    auto lane = [&](const Value& v, std::size_t i) { return v.v[v.v.size() == 1 ? 0 : i]; };
    for (std::size_t i = 0; i < n; ++i) r.v[i] = lane(a, i) * lane(b, i) + lane(c, i);
    chargeExpr(e, vec ? (cplx ? Op::VFmaC : Op::VFmaF) : (cplx ? Op::FmaC : Op::FmaF),
               CostCategory::Arith);
    return r;
  }

  Value evalReduce(const lir::Expr& e) {
    Value a = eval(*e.a);
    bool cplx = a.type.scalar == Scalar::C64;
    Complex acc = a.v.at(0);
    for (std::size_t i = 1; i < a.v.size(); ++i) {
      switch (e.reduceOp) {
        case ReduceOp::Add: acc += a.v[i]; break;
        case ReduceOp::Min: acc = Complex{std::min(acc.real(), a.v[i].real()), 0.0}; break;
        case ReduceOp::Max: acc = Complex{std::max(acc.real(), a.v[i].real()), 0.0}; break;
      }
    }
    Op op = e.reduceOp == ReduceOp::Add ? (cplx ? Op::VReduceAddC : Op::VReduceAddF)
            : e.reduceOp == ReduceOp::Min ? Op::VReduceMinF
                                          : Op::VReduceMaxF;
    charge(op, CostCategory::Arith);
    Value r;
    r.type = {a.type.scalar, 1};
    r.v = {acc};
    return r;
  }

  // -- statements --------------------------------------------------------------

  bool truthy(const Value& v) {
    if (v.type.scalar == Scalar::B1) return v.b;
    if (v.type.scalar == Scalar::I64) return v.i != 0;
    return v.v.at(0) != Complex{};
  }

  Flow execStmt(const lir::Stmt& s) {
    if (profile_) ++(*profile_)[&s];
    switch (s.kind) {
      case StmtKind::DeclScalar: {
        Value init;
        if (s.value) {
          init = eval(*s.value);
        } else if (s.declType.scalar == Scalar::I64) {
          init = Value::ofI(0);
        } else if (s.declType.scalar == Scalar::B1) {
          init = Value::ofB(false);
        } else if (s.declType.scalar == Scalar::C64) {
          init = Value::ofC({}, s.declType.lanes);
        } else {
          init = Value::ofF(0.0, s.declType.lanes);
        }
        scalars_[s.name] = std::move(init);
        return Flow::Normal;
      }
      case StmtKind::Assign: {
        Value v = eval(*s.value);
        scalars_[s.name] = std::move(v);
        return Flow::Normal;
      }
      case StmtKind::Store: {
        Value v = eval(*s.value);
        ArrayStore& st = arrayFor(s.name);
        std::int64_t base = evalIndex(*s.index);
        int lanes = v.type.lanes;
        if (base < 0 || base + lanes > static_cast<std::int64_t>(st.data.size()))
          throw RuntimeError("VM: store out of bounds on '" + s.name + "' at " +
                             std::to_string(base));
        bool cplx = st.elem == Scalar::C64;
        if (!cplx && v.type.scalar == Scalar::C64)
          throw RuntimeError("VM: storing complex into real array '" + s.name + "'");
        for (int i = 0; i < lanes; ++i) {
          Complex x = v.type.scalar == Scalar::I64 ? Complex{static_cast<double>(v.i), 0.0}
                      : v.type.scalar == Scalar::B1 ? Complex{v.b ? 1.0 : 0.0, 0.0}
                                                    : v.v[static_cast<std::size_t>(i)];
          st.data[static_cast<std::size_t>(base + i)] = x;
        }
        Op storeOp = lanes == 1 ? (cplx ? Op::StoreC : Op::StoreF)
                                : (cplx ? Op::VStoreC : Op::VStoreF);
        if (fused_ && fused_->storeMembers.count(&s)) {
          stats_.fusedSavedCycles += isa_.cost(storeOp);
          budget(1.0);
        } else {
          charge(storeOp, CostCategory::Memory);
        }
        return Flow::Normal;
      }
      case StmtKind::For: {
        std::int64_t lo = evalIndex(*s.lo);
        std::int64_t hi = evalIndex(*s.hi);
        for (std::int64_t i = lo; s.step > 0 ? i < hi : i > hi; i += s.step) {
          scalars_[s.name] = Value::ofI(i);
          charge(Op::LoopOverhead, CostCategory::Loop);
          Flow f = execBlock(s.body);
          if (f == Flow::Break) break;
        }
        return Flow::Normal;
      }
      case StmtKind::If: {
        charge(Op::Branch, CostCategory::Loop);
        if (truthy(eval(*s.cond))) return execBlock(s.body);
        return execBlock(s.elseBody);
      }
      case StmtKind::While: {
        while (true) {
          charge(Op::Branch, CostCategory::Loop);
          if (!truthy(eval(*s.cond))) return Flow::Normal;
          Flow f = execBlock(s.body);
          if (f == Flow::Break) return Flow::Normal;
        }
      }
      case StmtKind::Break: return Flow::Break;
      case StmtKind::Continue: return Flow::Continue;
      case StmtKind::BoundsCheck: {
        ArrayStore& st = arrayFor(s.name);
        std::int64_t idx = evalIndex(*s.index);
        charge(Op::BoundsCheck, CostCategory::Check);
        if (idx < 0 || idx >= static_cast<std::int64_t>(st.data.size()))
          throw RuntimeError("VM: bounds check failed on '" + s.name + "'");
        return Flow::Normal;
      }
      case StmtKind::AllocMark:
        charge(Op::AllocTemp, CostCategory::Alloc);
        return Flow::Normal;
      case StmtKind::Comment:
        return Flow::Normal;
    }
    throw RuntimeError("VM: bad statement kind");
  }

  Flow execBlock(const std::vector<lir::StmtPtr>& body) {
    for (const auto& s : body) {
      Flow f = execStmt(*s);
      if (f != Flow::Normal) return f;
    }
    return Flow::Normal;
  }

  const isa::IsaDescription& isa_;
  const lir::Function& fn_;
  std::uint64_t maxOps_;
  StmtProfile* profile_ = nullptr;
  const FusedCosting* fused_ = nullptr;
  std::uint64_t opBudget_ = 0;
  std::uint64_t pollTick_ = 0;
  CycleStats stats_;
  std::map<std::string, Value> scalars_;
  std::map<std::string, ArrayStore> arrays_;
};

}  // namespace

RunResult Machine::run(const lir::Function& fn, const std::vector<Matrix>& args) {
  Exec exec(isa_, fn, maxOps_, profile_, fused_);
  return exec.run(args);
}

}  // namespace mat2c::vm
