#include "vm/vm.hpp"

#include <cmath>
#include <functional>

#include "lir/select.hpp"
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

void CycleStats::charge(const isa::IsaDescription& isa, Op op, double count) {
  double cycles = isa.cost(op) * count;
  auto i = static_cast<std::size_t>(op);
  total += cycles;
  byOp[i] += cycles;
  countByOp[i] += count;
  opsExecuted += static_cast<std::uint64_t>(count);
  if (isa.usesIntrinsic(op)) intrinsicOpsExecuted += static_cast<std::uint64_t>(count);
}

namespace {

const char* categoryOf(Op op) {
  switch (op) {
    case Op::LoadF: case Op::LoadC: case Op::VLoadF: case Op::VLoadC:
    case Op::StoreF: case Op::StoreC: case Op::VStoreF: case Op::VStoreC: return "memory";
    case Op::Branch: case Op::LoopOverhead: return "loop";
    case Op::BoundsCheck: return "check";
    case Op::AllocTemp: return "alloc";
    default: return "arith";
  }
}

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
    for (const auto& a : fn_.arrays) arrays_.emplace(a.name, zeros(a.elem, a.rows, a.cols));
    for (const auto& o : fn_.outs) {
      if (o.isArray) {
        arrays_.emplace(o.name, zeros(o.elem, o.rows, o.cols));
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
  static ArrayStore zeros(Scalar elem, std::int64_t rows, std::int64_t cols) {
    return {elem, rows, cols, std::vector<Complex>(static_cast<std::size_t>(rows * cols))};
  }

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
        ArrayStore st = zeros(p.elem, p.rows, p.cols);
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

  void charge(Op op, double count = 1.0) {
    stats_.charge(isa_, op, count);
    budget(count);
  }

  /// Charges the op lir::issuedOp selects for `e`. A node folded into a
  /// fused custom instruction (FusedCosting member) suppresses its normal
  /// charge — the fused root charges the whole pattern once instead.
  void chargeNode(const lir::Expr& e) {
    Op op = lir::issuedOp(e);
    if (fused_ && fused_->members.count(&e)) {
      stats_.fusedSavedCycles += isa_.cost(op);
      budget(1.0);
      return;
    }
    charge(op);
  }

  void chargeFused(const FusedCosting::Root& root) {
    // Members accumulated their gross suppressed cost; deduct the fused
    // instruction's own charge so fusedSavedCycles is the net reduction in
    // total (the quantity tileFused() predicts analytically).
    stats_.fusedSavedCycles -= root.cycles;
    stats_.total += root.cycles;
    stats_.fusedCycles[root.name] += root.cycles;
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
        chargeNode(e);
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
    chargeNode(e);
    Value r;
    r.type = e.type;
    r.v.assign(st.data.begin() + base, st.data.begin() + base + lanes);
    return r;
  }

  /// `f` of every lane of `a`, typed as `e`.
  template <class F>
  static Value mapLanes(const lir::Expr& e, const Value& a, F f) {
    Value r;
    r.type = e.type;
    r.v.resize(a.v.size());
    for (std::size_t i = 0; i < a.v.size(); ++i) r.v[i] = f(a.v[i]);
    return r;
  }

  /// A builtin row (sema/builtins.def) of node `e` on every lane: the host
  /// function of the real part, charged at the node's op, or, when the row
  /// takes complex operands and `a` is c64, of the complex element charged
  /// at `complexCharges`.
  template <sema::ComplexRule R, class F>
  Value mapBuiltin(const lir::Expr& e, const Value& a, F f,
                   std::initializer_list<isa::Term> complexCharges) {
    if constexpr (R != sema::ComplexRule::Real) {
      if (a.type.scalar == Scalar::C64) {
        for (const isa::Term& t : complexCharges) charge(t.op, t.count);
        return mapLanes(e, a, [&](Complex z) { return Complex(f(z)); });
      }
    }
    chargeNode(e);
    return mapLanes(e, a, [&](Complex z) { return Complex{f(z.real()), 0.0}; });
  }

  Value evalUnary(const lir::Expr& e) {
    using enum isa::Op;  // the c64 charge terms of builtins.def
    Value a = eval(*e.a);

    switch (e.unOp) {
      case UnOp::Neg:
        chargeNode(e);
        if (e.type.scalar == Scalar::I64) return Value::ofI(-a.i);
        return mapLanes(e, a, [](Complex z) { return -z; });
      case UnOp::Not: {
        bool operand = a.type.scalar == Scalar::B1 ? a.b : (a.f() != 0.0);
        chargeNode(e);
        if (e.type.scalar == Scalar::B1) return Value::ofB(!operand);
        return Value::ofF(operand ? 0.0 : 1.0);
      }
#define MAT2C_BUILTIN_UNARY(name, op, lir, rule, host, guard, cost, vop, c, cc, ...) \
      case UnOp::op:                                                               \
        return mapBuiltin<sema::ComplexRule::rule>(e, a, [](auto x) { return host(x); }, \
                                                   {__VA_ARGS__});
#include "sema/builtins.def"
      case UnOp::Conj:
        chargeNode(e);
        return mapLanes(e, a, [](Complex z) { return std::conj(z); });
      // Register extraction is free.
      case UnOp::RealPart: return mapLanes(e, a, [](Complex z) { return Complex{z.real(), 0.0}; });
      case UnOp::ImagPart: return mapLanes(e, a, [](Complex z) { return Complex{z.imag(), 0.0}; });
      case UnOp::Arg:
        chargeNode(e);
        return mapLanes(e, a, [](Complex z) { return Complex{std::arg(z), 0.0}; });
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
      case UnOp::ToC64:
        if (a.type.scalar == Scalar::C64) return mapLanes(e, a, [](Complex z) { return z; });
        if (a.type.scalar == Scalar::I64) return Value::ofC({static_cast<double>(a.i), 0.0});
        if (a.type.scalar == Scalar::B1) return Value::ofC({a.b ? 1.0 : 0.0, 0.0});
        return mapLanes(e, a, [](Complex z) { return Complex{z.real(), 0.0}; });
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
      chargeNode(e);
      switch (e.binOp) {
        case BinOp::Add: return Value::ofI(x + y);
        case BinOp::Sub: return Value::ofI(x - y);
        case BinOp::Mul: return Value::ofI(x * y);
        case BinOp::Div:
          if (y == 0) throw RuntimeError("VM: integer division by zero");
          return Value::ofI(x / y);
        case BinOp::Min: return Value::ofI(std::min(x, y));
        case BinOp::Max: return Value::ofI(std::max(x, y));
        default:
          throw RuntimeError("VM: unsupported i64 binary op");
      }
    }

    // Comparisons / logicals produce b1.
    if (e.type.scalar == Scalar::B1) {
      chargeNode(e);
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

    bool cplx = e.type.scalar == Scalar::C64;
    std::size_t n = static_cast<std::size_t>(e.type.lanes);
    Value r;
    r.type = e.type;
    r.v.resize(n);
    // `f` of every lane pair; a scalar operand is broadcast.
    auto zip = [&](auto f) {
      for (std::size_t i = 0; i < n; ++i)
        r.v[i] = f(a.v[a.v.size() == 1 ? 0 : i], b.v[b.v.size() == 1 ? 0 : i]);
    };

    switch (e.binOp) {
      case BinOp::Add: zip(std::plus<Complex>()); break;
      case BinOp::Sub: zip(std::minus<Complex>()); break;
      case BinOp::Mul: zip(std::multiplies<Complex>()); break;
      case BinOp::Div: zip(std::divides<Complex>()); break;
      case BinOp::Pow:
        zip([cplx](Complex base, Complex expo) {
          double x = base.real();
          double y = expo.real();
          if (!cplx && (x >= 0.0 || y == std::floor(y))) return Complex{std::pow(x, y), 0.0};
          return std::pow(base, expo);
        });
        break;
#define MAT2C_BUILTIN_BINARY(name, kind, binOp, host, cost, vop, c)                     \
      case BinOp::binOp:                                                                 \
        zip([](Complex x, Complex y) { return Complex{host(x.real(), y.real()), 0.0}; }); \
        break;
#include "sema/builtins.def"
      default:
        throw RuntimeError("VM: unsupported binary op");
    }
    chargeNode(e);
    return r;
  }

  Value evalFma(const lir::Expr& e) {
    Value a = eval(*e.a);
    Value b = eval(*e.b);
    Value c = eval(*e.c);
    std::size_t n = static_cast<std::size_t>(e.type.lanes);
    Value r;
    r.type = e.type;
    r.v.resize(n);
    auto lane = [&](const Value& v, std::size_t i) { return v.v[v.v.size() == 1 ? 0 : i]; };
    for (std::size_t i = 0; i < n; ++i) r.v[i] = lane(a, i) * lane(b, i) + lane(c, i);
    chargeNode(e);
    return r;
  }

  Value evalReduce(const lir::Expr& e) {
    Value a = eval(*e.a);
    Complex acc = a.v.at(0);
    for (std::size_t i = 1; i < a.v.size(); ++i) {
      switch (e.reduceOp) {
        case ReduceOp::Add: acc += a.v[i]; break;
        case ReduceOp::Min: acc = Complex{std::min(acc.real(), a.v[i].real()), 0.0}; break;
        case ReduceOp::Max: acc = Complex{std::max(acc.real(), a.v[i].real()), 0.0}; break;
      }
    }
    chargeNode(e);
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
        Op storeOp = lir::stmtOp(s.kind, st.elem, lanes > 1);
        if (fused_ && fused_->storeMembers.count(&s)) {
          stats_.fusedSavedCycles += isa_.cost(storeOp);
          budget(1.0);
        } else {
          charge(storeOp);
        }
        return Flow::Normal;
      }
      case StmtKind::For: {
        std::int64_t lo = evalIndex(*s.lo);
        std::int64_t hi = evalIndex(*s.hi);
        for (std::int64_t i = lo; s.step > 0 ? i < hi : i > hi; i += s.step) {
          scalars_[s.name] = Value::ofI(i);
          charge(lir::stmtOp(s.kind));
          Flow f = execBlock(s.body);
          if (f == Flow::Break) break;
        }
        return Flow::Normal;
      }
      case StmtKind::If: {
        charge(lir::stmtOp(s.kind));
        if (truthy(eval(*s.cond))) return execBlock(s.body);
        return execBlock(s.elseBody);
      }
      case StmtKind::While: {
        while (true) {
          charge(lir::stmtOp(s.kind));
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
        charge(lir::stmtOp(s.kind));
        if (idx < 0 || idx >= static_cast<std::int64_t>(st.data.size()))
          throw RuntimeError("VM: bounds check failed on '" + s.name + "'");
        return Flow::Normal;
      }
      case StmtKind::AllocMark:
        charge(lir::stmtOp(s.kind));
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

std::map<std::string, double> CycleStats::byCategory() const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < byOp.size(); ++i)
    if (countByOp[i] > 0) out[categoryOf(static_cast<Op>(i))] += byOp[i];
  for (const auto& [name, cycles] : fusedCycles) out["arith"] += cycles;
  return out;
}

RunResult Machine::run(const lir::Function& fn, const std::vector<Matrix>& args) {
  Exec exec(isa_, fn, maxOps_, profile_, fused_);
  return exec.run(args);
}

}  // namespace mat2c::vm
