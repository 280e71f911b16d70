#include "vm/vm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

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

namespace {

/// One issue of `count` x `op` at `cost` cycles each, into the ledger.
void book(CycleStats& s, Op op, double cost, bool intrinsic, double count) {
  double cycles = cost * count;
  auto i = static_cast<std::size_t>(op);
  s.total += cycles;
  s.byOp[i] += cycles;
  s.countByOp[i] += count;
  s.opsExecuted += static_cast<std::uint64_t>(count);
  if (intrinsic) s.intrinsicOpsExecuted += static_cast<std::uint64_t>(count);
}

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

enum class Flow { Normal, Break, Continue };

/// What one issue of a node or statement charges, resolved by the pre-pass.
struct Charge {
  enum : std::uint8_t {
    kIntrinsic = 1,  // counts toward intrinsicOpsExecuted
    kMember = 2,     // folded into a fused root: its cost is saved, not charged
    kFails = 4,      // no op, or an op the target cannot cost: charging throws
  };
  double cost = 0.0;
  Op op{};
  std::uint8_t flags = 0;
};

/// The resolved form of one lir::Expr. Its value lives in the register file
/// of its element type at `at`: f64 lanes as double, c64 lanes as Complex,
/// i64 and b1 as one int64. `scalar` and `lanes` are what the node produces
/// (a VarRef aliases its variable's storage).
struct Node {
  const lir::Expr* e = nullptr;
  Charge charge;
  ExprKind kind{};
  Scalar scalar = Scalar::F64;
  bool real = false;  // Binary/Fma/Reduce: result and operands all f64
  int lanes = 1;
  std::uint32_t at = 0;
  int a = -1, b = -1, c = -1;  // operands (a = index of a Load)
  int ref = -1;                // VarRef: variable slot; Load: array, -1 if unknown
  int root = -1;               // FusedCosting root, -1 if none
};

/// The resolved form of one lir::Stmt; its body and else-body are ranges of
/// Exec::items_.
struct SNode {
  const lir::Stmt* s = nullptr;
  Charge charge;
  StmtKind kind{};
  int value = -1, index = -1, lo = -1, hi = -1, cond = -1;  // expression nodes
  int ref = -1;  // Decl/Assign/For: variable slot; Store/BoundsCheck: array, -1 if unknown
  std::uint32_t body = 0, bodyEnd = 0, elseBody = 0, elseEnd = 0;
};

struct ArrayStore {
  const std::string* name;     // the declaration that named it first
  Scalar elem;
  std::int64_t rows, cols;
  std::vector<double> re;      // f64 elements
  std::vector<Complex> cx;     // c64 elements
  std::int64_t numel() const { return rows * cols; }
};

struct FusedRoot {
  double cycles;
  int name;  // index into Exec::fusedNames_
};

/// One run of one function: the resolving pre-pass (constructor), then
/// execution over the resolved form (run).
class Exec {
 public:
  Exec(const isa::IsaDescription& isa, const CycleStats::PerOp& costs,
       const std::array<bool, isa::kNumOps>& intrinsic, const lir::Function& fn,
       std::uint64_t maxOps, StmtProfile* profile, const FusedCosting* fused)
      : isa_(isa), costs_(costs), intrinsic_(intrinsic), fn_(fn), maxOps_(maxOps),
        profile_(profile), fused_(fused) {
    for (const auto& p : fn_.params) declareTop(p);
    for (const auto& a : fn_.arrays) declareArray(a.name, a.elem, a.rows, a.cols);
    for (const auto& o : fn_.outs) declareTop(o);
    auto [begin, end] = planBlock(fn_.body);
    body_ = begin;
    bodyEnd_ = end;
    defined_.assign(slots_.size(), 0);
    counts_.assign(stmts_.size(), 0);
  }

  RunResult run(const std::vector<Matrix>& args) {
    bindParams(args);
    for (const auto& o : fn_.outs)
      if (!o.isArray) assign(slotOf(o.name, topType(o.elem)), Complex{});

    execBlock(body_, bodyEnd_);

    RunResult result;
    for (std::size_t i = 0; i < fusedNames_.size(); ++i)
      if (fusedHits_[i] > 0) stats_.fusedCycles[*fusedNames_[i]] = fusedSums_[i];
    result.cycles = std::move(stats_);
    if (profile_)
      for (std::size_t i = 0; i < stmts_.size(); ++i)
        if (counts_[i] > 0) (*profile_)[stmts_[i].s] += counts_[i];
    for (const auto& o : fn_.outs) {
      if (o.isArray) {
        const ArrayStore& st = arrays_[static_cast<std::size_t>(arrayIndex_.at(o.name))];
        bool cplx = st.elem == Scalar::C64;
        Matrix m = Matrix::zeros(static_cast<std::size_t>(st.rows),
                                 static_cast<std::size_t>(st.cols), cplx);
        for (std::size_t idx = 0; idx < static_cast<std::size_t>(st.numel()); ++idx)
          m.set(idx, cplx ? st.cx[idx] : Complex{st.re[idx], 0.0});
        m.dropZeroImag();
        result.outputs.push_back(std::move(m));
      } else {
        const Node& s = slots_[static_cast<std::size_t>(slotOf(o.name, topType(o.elem)))];
        result.outputs.push_back(s.scalar == Scalar::C64 ? Matrix::scalar(c_[s.at])
                                                         : Matrix::scalar(f_[s.at]));
      }
    }
    return result;
  }

 private:
  // -- the resolving pre-pass ----------------------------------------------------

  static VType topType(Scalar elem) { return elem == Scalar::C64 ? VType::c64() : VType::f64(); }

  /// Reserves `lanes` values of element type `scalar`; returns the offset.
  std::uint32_t reserve(Scalar scalar, int lanes) {
    auto grow = [lanes](auto& file) {
      auto at = static_cast<std::uint32_t>(file.size());
      file.resize(file.size() + static_cast<std::size_t>(lanes));
      return at;
    };
    switch (scalar) {
      case Scalar::F64: return grow(f_);
      case Scalar::C64: return grow(c_);
      default: return grow(i_);
    }
  }

  void declareTop(const lir::Param& p) {
    if (p.isArray) declareArray(p.name, p.elem, p.rows, p.cols);
    else slotOf(p.name, topType(p.elem));
  }

  void declareArray(const std::string& name, Scalar elem, std::int64_t rows, std::int64_t cols) {
    if (arrayIndex_.count(name)) return;  // a parameter's binding wins
    arrayIndex_.emplace(name, static_cast<int>(arrays_.size()));
    arrays_.push_back({&name, elem, rows, cols, {}, {}});
  }

  int arrayOf(const std::string& name) const {
    auto it = arrayIndex_.find(name);
    return it == arrayIndex_.end() ? -1 : it->second;
  }

  int slotOf(const std::string& name, VType type) {
    auto [it, added] =
        slotIndex_.try_emplace({name, type.scalar, type.lanes}, static_cast<int>(slots_.size()));
    if (added) {
      Node slot;
      slot.kind = ExprKind::VarRef;
      slot.scalar = type.scalar;
      slot.lanes = type.lanes;
      slot.at = reserve(type.scalar, type.lanes);
      slots_.push_back(slot);
    }
    return it->second;
  }

  Charge resolve(Op op) const {
    auto i = static_cast<std::size_t>(op);
    Charge c{costs_[i], op, 0};
    if (intrinsic_[i]) c.flags |= Charge::kIntrinsic;
    if (std::isnan(c.cost)) c.flags |= Charge::kFails;
    return c;
  }

  int planExpr(const lir::Expr& e) {
    Node n;
    n.e = &e;
    n.kind = e.kind;
    n.scalar = e.type.scalar;
    n.lanes = e.type.lanes;
    if (e.kind == ExprKind::Load) n.a = planExpr(*e.index);
    if (e.a) n.a = planExpr(*e.a);
    if (e.b) n.b = planExpr(*e.b);
    if (e.c) n.c = planExpr(*e.c);
    if (auto op = lir::selectOp(e)) {
      n.charge = resolve(*op);
    } else {
      n.charge.flags = Charge::kFails;
    }
    if (fused_) {
      if (fused_->members.count(&e)) n.charge.flags |= Charge::kMember;
      auto it = fused_->roots.find(&e);
      if (it != fused_->roots.end()) n.root = addRoot(it->second);
    }
    shape(n, e);
    if (e.kind == ExprKind::VarRef) {
      n.ref = slotOf(e.name, e.type);
      n.at = slots_[static_cast<std::size_t>(n.ref)].at;
    } else {
      n.at = reserve(n.scalar, n.lanes);
      if (e.kind == ExprKind::ConstF) f_[n.at] = e.fval;
      if (e.kind == ExprKind::ConstI) i_[n.at] = e.ival;
    }
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size() - 1);
  }

  /// The element type and lane count node `n` produces, as the evaluator
  /// computes them: the node's type, except that a Load yields its array's
  /// elements, a unary keeps its operand's lanes, and a conversion to f64,
  /// a logical not or a conversion of an integer yields one lane.
  void shape(Node& n, const lir::Expr& e) {
    auto of = [this](int i) -> const Node& { return nodes_[static_cast<std::size_t>(i)]; };
    switch (e.kind) {
      case ExprKind::ConstF: n.scalar = Scalar::F64; n.lanes = 1; break;
      case ExprKind::ConstI: n.scalar = Scalar::I64; n.lanes = 1; break;
      case ExprKind::Load:
        n.ref = arrayOf(e.name);
        if (n.ref >= 0) n.scalar = arrays_[static_cast<std::size_t>(n.ref)].elem;
        break;
      case ExprKind::Unary: {
        const Node& a = of(n.a);
        bool integer = a.scalar == Scalar::I64 || a.scalar == Scalar::B1;
        n.lanes = a.lanes;
        if (e.unOp == UnOp::Not) n.scalar = n.scalar == Scalar::B1 ? Scalar::B1 : Scalar::F64;
        if (e.unOp == UnOp::ToF64) n.scalar = Scalar::F64;
        if (e.unOp == UnOp::ToI64) n.scalar = Scalar::I64;
        if (e.unOp == UnOp::ToC64) n.scalar = Scalar::C64;
        if (e.unOp == UnOp::Not || e.unOp == UnOp::ToF64 || e.unOp == UnOp::ToI64 ||
            (e.unOp == UnOp::ToC64 && integer))
          n.lanes = 1;
        break;
      }
      case ExprKind::Binary:
        if (e.binOp == BinOp::MakeComplex) {
          n.scalar = Scalar::C64;
          n.lanes = std::max(of(n.a).lanes, of(n.b).lanes);
        }
        break;
      case ExprKind::Reduce:
        n.scalar = of(n.a).scalar;
        n.lanes = 1;
        break;
      default: break;
    }
    auto f64 = [&](int i) { return i < 0 || of(i).scalar == Scalar::F64; };
    n.real = n.scalar == Scalar::F64 && f64(n.a) && f64(n.b) && f64(n.c);
  }

  int addRoot(const FusedCosting::Root& root) {
    int name = 0;
    while (name < static_cast<int>(fusedNames_.size()) && *fusedNames_[name] != root.name) ++name;
    if (name == static_cast<int>(fusedNames_.size())) {
      fusedNames_.push_back(&root.name);
      fusedSums_.push_back(0.0);
      fusedHits_.push_back(0);
    }
    roots_.push_back({root.cycles, name});
    return static_cast<int>(roots_.size() - 1);
  }

  std::pair<std::uint32_t, std::uint32_t> planBlock(const std::vector<lir::StmtPtr>& body) {
    std::vector<std::uint32_t> block;
    block.reserve(body.size());
    for (const auto& s : body) block.push_back(planStmt(*s));
    auto begin = static_cast<std::uint32_t>(items_.size());
    items_.insert(items_.end(), block.begin(), block.end());
    return {begin, static_cast<std::uint32_t>(items_.size())};
  }

  std::uint32_t planStmt(const lir::Stmt& s) {
    auto self = static_cast<std::uint32_t>(stmts_.size());
    stmts_.emplace_back();
    auto plan = [this](const lir::ExprPtr& e) { return e ? planExpr(*e) : -1; };
    SNode n;
    n.s = &s;
    n.kind = s.kind;
    n.value = plan(s.value);
    n.index = plan(s.index);
    n.lo = plan(s.lo);
    n.hi = plan(s.hi);
    n.cond = plan(s.cond);
    std::tie(n.body, n.bodyEnd) = planBlock(s.body);
    std::tie(n.elseBody, n.elseEnd) = planBlock(s.elseBody);
    switch (s.kind) {
      case StmtKind::DeclScalar:
        n.ref = slotOf(s.name, s.value ? s.value->type : s.declType);
        break;
      case StmtKind::Assign: n.ref = slotOf(s.name, s.value->type); break;
      case StmtKind::Store:
        n.ref = arrayOf(s.name);
        if (n.ref >= 0)
          n.charge = resolve(lir::stmtOp(s.kind, arrays_[static_cast<std::size_t>(n.ref)].elem,
                                         nodes_[static_cast<std::size_t>(n.value)].lanes > 1));
        if (fused_ && fused_->storeMembers.count(&s)) n.charge.flags |= Charge::kMember;
        break;
      case StmtKind::For:
        n.ref = slotOf(s.name, VType::i64());
        n.charge = resolve(lir::stmtOp(s.kind));
        break;
      case StmtKind::BoundsCheck:
        n.ref = arrayOf(s.name);
        n.charge = resolve(lir::stmtOp(s.kind));
        break;
      case StmtKind::If:
      case StmtKind::While:
      case StmtKind::AllocMark: n.charge = resolve(lir::stmtOp(s.kind)); break;
      case StmtKind::Break:
      case StmtKind::Continue:
      case StmtKind::Comment: break;
    }
    stmts_[self] = n;
    return self;
  }

  // -- arguments -------------------------------------------------------------------

  void bindParams(const std::vector<Matrix>& args) {
    if (args.size() != fn_.params.size())
      throw RuntimeError("VM: argument count mismatch for '" + fn_.name + "'");
    for (ArrayStore& st : arrays_) {
      auto n = static_cast<std::size_t>(st.numel());
      if (st.elem == Scalar::C64) st.cx.assign(n, Complex{});
      else st.re.assign(n, 0.0);
    }
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
        ArrayStore& st = arrays_[static_cast<std::size_t>(arrayIndex_.at(p.name))];
        if (&p.name != st.name) continue;  // an earlier parameter of that name is bound
        for (std::size_t idx = 0; idx < m.numel(); ++idx) {
          if (st.elem == Scalar::C64) st.cx[idx] = m.at(idx);
          else st.re[idx] = m.real(idx);
        }
      } else {
        if (!m.isScalar())
          throw RuntimeError("VM: argument '" + p.name + "' must be scalar");
        assign(slotOf(p.name, topType(p.elem)),
               p.elem == Scalar::C64 ? m.at(0) : Complex{m.real(0), 0.0});
      }
    }
  }

  // -- the ledger ------------------------------------------------------------------

  void budget(double n = 1.0) {
    opBudget_ += static_cast<std::uint64_t>(n);
    if (opBudget_ > maxOps_) throw RuntimeError("VM: op budget exceeded (runaway loop?)");
    // Cooperative deadline poll, amortized so the hot step loop pays one
    // counter increment per op and a thread-local load every 16k ops.
    if ((++pollTick_ & 0x3FFF) == 0) DeadlineGuard::poll("vm");
  }

  /// One issue of a resolved charge. A fused member saves its cost instead;
  /// the fused root charges the whole pattern once (chargeFused). A charge
  /// that fails raises what lir::issuedOp or IsaDescription::cost raise.
  void charge(const Charge& c, const lir::Expr* e = nullptr) {
    if (c.flags & Charge::kFails) {
      if (e) lir::issuedOp(*e);
      isa_.cost(c.op);
    }
    if (c.flags & Charge::kMember) {
      stats_.fusedSavedCycles += c.cost;
    } else {
      book(stats_, c.op, c.cost, c.flags & Charge::kIntrinsic, 1.0);
    }
    budget(1.0);
  }

  void charge(const Node& n) { charge(n.charge, n.e); }

  /// `count` issues of `op`, uncoupled from any node (a c64 builtin's terms).
  void chargeTerm(Op op, double count) {
    Charge c = resolve(op);
    if (c.flags & Charge::kFails) isa_.cost(op);
    book(stats_, op, c.cost, c.flags & Charge::kIntrinsic, count);
    budget(count);
  }

  void chargeFused(int root) {
    // Members accumulated their gross suppressed cost; deduct the fused
    // instruction's own charge so fusedSavedCycles is the net reduction in
    // total (the quantity tileFused() predicts analytically).
    const FusedRoot& r = roots_[static_cast<std::size_t>(root)];
    stats_.fusedSavedCycles -= r.cycles;
    stats_.total += r.cycles;
    fusedSums_[static_cast<std::size_t>(r.name)] += r.cycles;
    ++fusedHits_[static_cast<std::size_t>(r.name)];
    ++stats_.opsExecuted;
    ++stats_.intrinsicOpsExecuted;
    ++stats_.fusedOpsExecuted;
    budget(1.0);
  }

  // -- register access -------------------------------------------------------------

  const Node& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }
  double* F(const Node& n) { return f_.data() + n.at; }
  Complex* C(const Node& n) { return c_.data() + n.at; }
  std::int64_t& I(const Node& n) { return i_[n.at]; }

  /// Lane `k` of `n`, a single lane broadcast, as a real or complex number.
  double laneF(const Node& n, int k) const {
    int j = n.lanes == 1 ? 0 : k;
    switch (n.scalar) {
      case Scalar::F64: return f_[n.at + j];
      case Scalar::C64: return c_[n.at + j].real();
      default: return static_cast<double>(i_[n.at]);
    }
  }
  Complex laneC(const Node& n, int k) const {
    if (n.scalar == Scalar::C64) return c_[n.at + (n.lanes == 1 ? 0 : k)];
    return {laneF(n, k), 0.0};
  }

  /// Lane `k` of an f64 node, a single lane broadcast.
  double f64Lane(const Node& n, int k) const { return f_[n.at + (n.lanes == 1 ? 0 : k)]; }

  /// Sets lane `k` of `n` (f64 keeps the real part of a complex result).
  void put(const Node& n, int k, Complex z) {
    switch (n.scalar) {
      case Scalar::C64: c_[n.at + k] = z; return;
      case Scalar::F64: f_[n.at + k] = z.real(); return;
      default: i_[n.at] = static_cast<std::int64_t>(z.real()); return;
    }
  }
  void put(const Node& n, int k, double x) { put(n, k, Complex{x, 0.0}); }

  /// `f` of every lane of `a` into `n`, on a double when `a` is f64.
  template <class Fn>
  void mapLanes(const Node& n, const Node& a, Fn f) {
    if (a.scalar == Scalar::C64) {
      for (int k = 0; k < n.lanes; ++k) put(n, k, f(laneC(a, k)));
    } else {
      for (int k = 0; k < n.lanes; ++k) put(n, k, f(laneF(a, k)));
    }
  }

  // -- expression evaluation -------------------------------------------------------

  void eval(const Node& n) {
    switch (n.kind) {
      case ExprKind::ConstF:
      case ExprKind::ConstI: break;
      case ExprKind::VarRef:
        if (!defined_[static_cast<std::size_t>(n.ref)])
          throw RuntimeError("VM: undefined variable '" + n.e->name + "'");
        break;
      case ExprKind::Load: evalLoad(n); break;
      case ExprKind::Unary: evalUnary(n); break;
      case ExprKind::Binary: evalBinary(n); break;
      case ExprKind::Fma: evalFma(n); break;
      case ExprKind::Splat: {
        const Node& a = node(n.a);
        eval(a);
        charge(n);
        for (int k = 0; k < n.lanes; ++k) put(n, k, laneC(a, 0));
        break;
      }
      case ExprKind::Reduce: evalReduce(n); break;
    }
    if (n.root >= 0) chargeFused(n.root);
  }

  ArrayStore& arrayFor(int ref, const std::string& name) {
    if (ref < 0) throw RuntimeError("VM: unknown array '" + name + "'");
    return arrays_[static_cast<std::size_t>(ref)];
  }

  std::int64_t evalIndex(int i) {
    const Node& idx = node(i);
    eval(idx);
    if (idx.scalar != Scalar::I64 || idx.lanes != 1) throw RuntimeError("VM: index is not i64");
    return i_[idx.at];
  }

  void evalLoad(const Node& n) {
    ArrayStore& st = arrayFor(n.ref, n.e->name);
    std::int64_t base = evalIndex(n.a);
    if (base < 0 || base > st.numel() - n.lanes)  // base + lanes could overflow
      throw RuntimeError("VM: load out of bounds on '" + n.e->name + "' at " +
                         std::to_string(base) + " (+" + std::to_string(n.lanes) + ") of " +
                         std::to_string(st.numel()));
    charge(n);
    auto from = static_cast<std::size_t>(base);
    if (st.elem == Scalar::C64) {
      std::copy_n(st.cx.begin() + from, n.lanes, C(n));
    } else {
      std::copy_n(st.re.begin() + from, n.lanes, F(n));
    }
  }

  /// A builtin row (sema/builtins.def) on every lane: the host function of
  /// the real part, charged at the node's op, or, when the row takes complex
  /// operands and `a` is c64, of the complex element charged at
  /// `complexCharges`.
  template <sema::ComplexRule R, class Fn>
  void mapBuiltin(const Node& n, const Node& a, Fn f,
                  std::initializer_list<isa::Term> complexCharges) {
    if constexpr (R != sema::ComplexRule::Real) {
      if (a.scalar == Scalar::C64) {
        for (const isa::Term& t : complexCharges) chargeTerm(t.op, t.count);
        mapLanes(n, a, [&](Complex z) { return f(z); });
        return;
      }
    }
    charge(n);
    for (int k = 0; k < n.lanes; ++k) put(n, k, f(laneF(a, k)));
  }

  void evalUnary(const Node& n) {
    using enum isa::Op;  // the c64 charge terms of builtins.def
    const Node& a = node(n.a);
    eval(a);

    switch (n.e->unOp) {
      case UnOp::Neg:
        charge(n);
        if (n.scalar == Scalar::I64) {
          I(n) = -i_[a.at];
        } else {
          mapLanes(n, a, [](auto x) { return -x; });
        }
        return;
      case UnOp::Not: {
        bool operand = a.scalar == Scalar::B1 ? i_[a.at] != 0 : laneF(a, 0) != 0.0;
        charge(n);
        if (n.scalar == Scalar::B1) I(n) = !operand;
        else f_[n.at] = operand ? 0.0 : 1.0;
        return;
      }
#define MAT2C_BUILTIN_UNARY(name, op, lir, rule, host, guard, cost, vop, c, cc, ...) \
      case UnOp::op:                                                               \
        mapBuiltin<sema::ComplexRule::rule>(n, a, [](auto x) { return host(x); },  \
                                            {__VA_ARGS__});                        \
        return;
#include "sema/builtins.def"
      case UnOp::Conj:
        charge(n);
        mapLanes(n, a, [](auto x) { return std::conj(x); });
        return;
      // Register extraction is free.
      case UnOp::RealPart: mapLanes(n, a, [](auto x) { return std::real(x); }); return;
      case UnOp::ImagPart: mapLanes(n, a, [](auto x) { return std::imag(x); }); return;
      case UnOp::Arg:
        charge(n);
        mapLanes(n, a, [](auto x) { return std::arg(Complex(x)); });
        return;
      case UnOp::ToF64: f_[n.at] = laneF(a, 0); return;
      case UnOp::ToI64:
        I(n) = a.scalar == Scalar::I64 || a.scalar == Scalar::B1
                   ? i_[a.at]
                   : static_cast<std::int64_t>(laneF(a, 0));
        return;
      case UnOp::ToC64: mapLanes(n, a, [](auto x) { return Complex(x); }); return;
    }
  }

  void evalBinary(const Node& n) {
    const Node& a = node(n.a);
    const Node& b = node(n.b);
    eval(a);
    eval(b);
    const BinOp op = n.e->binOp;

    if (op == BinOp::MakeComplex) {
      for (int k = 0; k < n.lanes; ++k)
        C(n)[k] = Complex{laneF(a, k % a.lanes), laneF(b, k % b.lanes)};
      return;
    }

    // Integer arithmetic (index math).
    if (n.scalar == Scalar::I64) {
      std::int64_t x = i_[a.at];
      std::int64_t y = i_[b.at];
      charge(n);
      std::int64_t& r = I(n);
      switch (op) {
        case BinOp::Add: r = x + y; return;
        case BinOp::Sub: r = x - y; return;
        case BinOp::Mul: r = x * y; return;
        case BinOp::Div:
          if (y == 0) throw RuntimeError("VM: integer division by zero");
          r = x / y;
          return;
        case BinOp::Min: r = std::min(x, y); return;
        case BinOp::Max: r = std::max(x, y); return;
        default:
          throw RuntimeError("VM: unsupported i64 binary op");
      }
    }

    // Comparisons / logicals produce b1 from the operands' first lanes.
    if (n.scalar == Scalar::B1) {
      charge(n);
      bool r;
      switch (op) {
        case BinOp::Eq: r = laneC(a, 0) == laneC(b, 0); break;
        case BinOp::Ne: r = laneC(a, 0) != laneC(b, 0); break;
        case BinOp::Lt: r = laneF(a, 0) < laneF(b, 0); break;
        case BinOp::Le: r = laneF(a, 0) <= laneF(b, 0); break;
        case BinOp::Gt: r = laneF(a, 0) > laneF(b, 0); break;
        case BinOp::Ge: r = laneF(a, 0) >= laneF(b, 0); break;
        case BinOp::And: r = laneF(a, 0) != 0.0 && laneF(b, 0) != 0.0; break;
        case BinOp::Or: r = laneF(a, 0) != 0.0 || laneF(b, 0) != 0.0; break;
        default:
          throw RuntimeError("VM: unsupported b1 binary op");
      }
      I(n) = r;
      return;
    }

    // `f` of every lane pair, on doubles when all are f64; a single-lane
    // operand is broadcast.
    auto zip = [&](auto f) {
      if (n.real) {
        for (int k = 0; k < n.lanes; ++k) F(n)[k] = f(f64Lane(a, k), f64Lane(b, k));
      } else {
        for (int k = 0; k < n.lanes; ++k) put(n, k, f(laneC(a, k), laneC(b, k)));
      }
    };
    switch (op) {
      case BinOp::Add: zip([](auto x, auto y) { return x + y; }); break;
      case BinOp::Sub: zip([](auto x, auto y) { return x - y; }); break;
      case BinOp::Mul: zip([](auto x, auto y) { return x * y; }); break;
      case BinOp::Div: zip([](auto x, auto y) { return x / y; }); break;
      case BinOp::Pow:
        // A real result is C's pow, as in the emitted C: NaN on a negative
        // base with a fractional exponent (docs/language_subset.md).
        for (int k = 0; k < n.lanes; ++k) {
          if (n.scalar == Scalar::C64) put(n, k, std::pow(laneC(a, k), laneC(b, k)));
          else put(n, k, std::pow(laneF(a, k), laneF(b, k)));
        }
        break;
#define MAT2C_BUILTIN_BINARY(name, kind, binOp, host, cost, vop, c)  \
      case BinOp::binOp:                                              \
        for (int k = 0; k < n.lanes; ++k)                             \
          put(n, k, static_cast<double>(host(laneF(a, k), laneF(b, k)))); \
        break;
#include "sema/builtins.def"
      default:
        throw RuntimeError("VM: unsupported binary op");
    }
    charge(n);
  }

  void evalFma(const Node& n) {
    const Node& a = node(n.a);
    const Node& b = node(n.b);
    const Node& c = node(n.c);
    eval(a);
    eval(b);
    eval(c);
    // Two roundings, as the C fallback computes it (vm.cpp is built with
    // -ffp-contract=off).
    if (n.real) {
      for (int k = 0; k < n.lanes; ++k) F(n)[k] = f64Lane(a, k) * f64Lane(b, k) + f64Lane(c, k);
    } else {
      for (int k = 0; k < n.lanes; ++k) put(n, k, laneC(a, k) * laneC(b, k) + laneC(c, k));
    }
    charge(n);
  }

  void evalReduce(const Node& n) {
    const Node& a = node(n.a);
    eval(a);
    const ReduceOp op = n.e->reduceOp;
    if (n.real) {
      const double* v = F(a);
      double acc = v[0];
      for (int k = 1; k < a.lanes; ++k) {
        switch (op) {
          case ReduceOp::Add: acc += v[k]; break;
          case ReduceOp::Min: acc = std::min(acc, v[k]); break;
          case ReduceOp::Max: acc = std::max(acc, v[k]); break;
        }
      }
      f_[n.at] = acc;
    } else {
      Complex acc = laneC(a, 0);
      for (int k = 1; k < a.lanes; ++k) {
        switch (op) {
          case ReduceOp::Add: acc += laneC(a, k); break;
          case ReduceOp::Min: acc = Complex{std::min(acc.real(), laneF(a, k)), 0.0}; break;
          case ReduceOp::Max: acc = Complex{std::max(acc.real(), laneF(a, k)), 0.0}; break;
        }
      }
      put(n, 0, acc);
    }
    charge(n);
  }

  // -- statements ------------------------------------------------------------------

  bool truthy(const Node& n) const {
    switch (n.scalar) {
      case Scalar::F64: return f_[n.at] != 0.0;
      case Scalar::C64: return c_[n.at] != Complex{};
      default: return i_[n.at] != 0;
    }
  }

  /// Writes `v`'s value into variable slot `s`.
  void assign(int s, const Node& v) {
    const Node& dst = slots_[static_cast<std::size_t>(s)];
    defined_[static_cast<std::size_t>(s)] = 1;
    if (dst.scalar == v.scalar && dst.lanes == v.lanes) {
      switch (v.scalar) {
        case Scalar::F64: std::copy_n(F(v), v.lanes, F(dst)); return;
        case Scalar::C64: std::copy_n(C(v), v.lanes, C(dst)); return;
        default: I(dst) = i_[v.at]; return;
      }
    }
    for (int k = 0; k < dst.lanes; ++k) put(dst, k, laneC(v, k));
  }

  /// Sets every lane of variable slot `s` to `z`.
  void assign(int s, Complex z) {
    const Node& dst = slots_[static_cast<std::size_t>(s)];
    defined_[static_cast<std::size_t>(s)] = 1;
    for (int k = 0; k < dst.lanes; ++k) put(dst, k, z);
  }

  Flow execStmt(std::uint32_t i) {
    const SNode& s = stmts_[i];
    ++counts_[i];
    switch (s.kind) {
      case StmtKind::DeclScalar:
        if (s.value >= 0) {
          const Node& v = node(s.value);
          eval(v);
          assign(s.ref, v);
        } else {
          assign(s.ref, Complex{});
        }
        return Flow::Normal;
      case StmtKind::Assign: {
        const Node& v = node(s.value);
        eval(v);
        assign(s.ref, v);
        return Flow::Normal;
      }
      case StmtKind::Store: {
        const Node& v = node(s.value);
        eval(v);
        ArrayStore& st = arrayFor(s.ref, s.s->name);
        std::int64_t base = evalIndex(s.index);
        if (base < 0 || base > st.numel() - v.lanes)
          throw RuntimeError("VM: store out of bounds on '" + s.s->name + "' at " +
                             std::to_string(base));
        if (st.elem == Scalar::F64 && v.scalar == Scalar::C64)
          throw RuntimeError("VM: storing complex into real array '" + s.s->name + "'");
        auto to = static_cast<std::size_t>(base);
        if (st.elem == Scalar::C64) {
          for (int k = 0; k < v.lanes; ++k) st.cx[to + k] = laneC(v, k);
        } else if (v.scalar == Scalar::F64) {
          std::copy_n(F(v), v.lanes, st.re.begin() + to);
        } else {
          st.re[to] = laneF(v, 0);
        }
        charge(s.charge);
        return Flow::Normal;
      }
      case StmtKind::For: {
        std::int64_t lo = evalIndex(s.lo);
        std::int64_t hi = evalIndex(s.hi);
        std::int64_t& var = I(slots_[static_cast<std::size_t>(s.ref)]);
        for (std::int64_t i = lo; s.s->step > 0 ? i < hi : i > hi; i += s.s->step) {
          var = i;
          defined_[static_cast<std::size_t>(s.ref)] = 1;
          charge(s.charge);
          Flow f = execBlock(s.body, s.bodyEnd);
          if (f == Flow::Break) break;
        }
        return Flow::Normal;
      }
      case StmtKind::If: {
        charge(s.charge);
        const Node& cond = node(s.cond);
        eval(cond);
        if (truthy(cond)) return execBlock(s.body, s.bodyEnd);
        return execBlock(s.elseBody, s.elseEnd);
      }
      case StmtKind::While: {
        const Node& cond = node(s.cond);
        while (true) {
          charge(s.charge);
          eval(cond);
          if (!truthy(cond)) return Flow::Normal;
          Flow f = execBlock(s.body, s.bodyEnd);
          if (f == Flow::Break) return Flow::Normal;
        }
      }
      case StmtKind::Break: return Flow::Break;
      case StmtKind::Continue: return Flow::Continue;
      case StmtKind::BoundsCheck: {
        ArrayStore& st = arrayFor(s.ref, s.s->name);
        std::int64_t idx = evalIndex(s.index);
        charge(s.charge);
        if (idx < 0 || idx >= st.numel())
          throw RuntimeError("VM: bounds check failed on '" + s.s->name + "'");
        return Flow::Normal;
      }
      case StmtKind::AllocMark:
        charge(s.charge);
        return Flow::Normal;
      case StmtKind::Comment:
        return Flow::Normal;
    }
    throw RuntimeError("VM: bad statement kind");
  }

  Flow execBlock(std::uint32_t begin, std::uint32_t end) {
    for (std::uint32_t i = begin; i < end; ++i) {
      Flow f = execStmt(items_[i]);
      if (f != Flow::Normal) return f;
    }
    return Flow::Normal;
  }

  const isa::IsaDescription& isa_;
  const CycleStats::PerOp& costs_;
  const std::array<bool, isa::kNumOps>& intrinsic_;
  const lir::Function& fn_;
  std::uint64_t maxOps_;
  StmtProfile* profile_ = nullptr;
  const FusedCosting* fused_ = nullptr;

  // The resolved form, built once per run by the constructor.
  std::vector<Node> nodes_;
  std::vector<SNode> stmts_;
  std::vector<std::uint32_t> items_;  // statement indices, one range per block
  std::uint32_t body_ = 0, bodyEnd_ = 0;
  std::vector<Node> slots_;  // one VarRef per variable name and type
  std::map<std::tuple<std::string, Scalar, int>, int> slotIndex_;
  std::vector<ArrayStore> arrays_;
  std::map<std::string, int> arrayIndex_;
  std::vector<FusedRoot> roots_;
  std::vector<const std::string*> fusedNames_;

  // Execution state.
  std::vector<double> f_;
  std::vector<Complex> c_;
  std::vector<std::int64_t> i_;
  std::vector<char> defined_;           // per slot: written at least once
  std::vector<std::uint64_t> counts_;   // per statement: executions
  std::vector<double> fusedSums_;       // per fused name: cycles, in charge order
  std::vector<std::uint64_t> fusedHits_;
  std::uint64_t opBudget_ = 0;
  std::uint64_t pollTick_ = 0;
  CycleStats stats_;
};

}  // namespace

void CycleStats::charge(const isa::IsaDescription& isa, Op op, double count) {
  book(*this, op, isa.cost(op), isa.usesIntrinsic(op), count);
}

std::map<std::string, double> CycleStats::byCategory() const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < byOp.size(); ++i)
    if (countByOp[i] > 0) out[categoryOf(static_cast<Op>(i))] += byOp[i];
  for (const auto& [name, cycles] : fusedCycles) out["arith"] += cycles;
  return out;
}

Machine::Machine(const isa::IsaDescription& isa) : isa_(isa) {
  for (int i = 0; i < isa::kNumOps; ++i) {
    auto op = static_cast<Op>(i);
    // Asking costable() first keeps filling the table from throwing.
    costs_[i] = isa.costable(op) ? isa.cost(op) : std::numeric_limits<double>::quiet_NaN();
    intrinsic_[i] = isa.usesIntrinsic(op);
  }
}

RunResult Machine::run(const lir::Function& fn, const std::vector<Matrix>& args) {
  Exec exec(isa_, costs_, intrinsic_, fn, maxOps_, profile_, fused_);
  return exec.run(args);
}

}  // namespace mat2c::vm
