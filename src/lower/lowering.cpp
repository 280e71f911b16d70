#include "lower/lowering.hpp"

#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "lir/walk.hpp"
#include "sema/builtins.hpp"

namespace mat2c::lower {

using namespace ast;
using sema::Dim;
using sema::Elem;
using sema::Shape;
using sema::Type;
using lir::BinOp;
using lir::ExprPtr;
using lir::Scalar;
using lir::StmtPtr;
using lir::UnOp;
using lir::VType;

namespace {

Scalar lirElem(Elem e) { return e == Elem::Complex ? Scalar::C64 : Scalar::F64; }

class Lowerer {
 public:
  Lowerer(const Program& program, const LowerOptions& options, DiagnosticEngine& diags)
      : program_(program), opts_(options), diags_(diags), types_(program, diags) {}

  lir::Function lower(const std::string& entry, const std::vector<sema::ArgSpec>& args);

 private:
  [[noreturn]] void fail(SourceLoc loc, std::string msg) { diags_.fatal(loc, std::move(msg)); }

  /// Bounds checks on every array access (MATLAB-Coder-style runtime).
  bool emitChecks() const { return opts_.checks(); }
  /// Per-op temporaries instead of fused loops.
  bool materializePerOp() const { return !opts_.fuse(); }

  // -- naming / emission ------------------------------------------------------
  std::string fresh(const std::string& hint) {
    return "t" + std::to_string(nameCounter_++) + "_" + hint;
  }
  void emit(StmtPtr s) { cur_->push_back(std::move(s)); }

  // -- scopes ------------------------------------------------------------------
  struct Binding {
    Type type;            // final (fixpoint) type driving storage
    std::string storage;  // LIR scalar or array name
    bool induction = false;
    std::string inductionVar;  // i64 counter (valid when induction)
    /// When the variable provably holds an integer affine function of
    /// induction variables (base = (j-1)*8), this is that value as an i64
    /// expression — index analysis sees through the temp.
    lir::ExprPtr intAlias;
  };
  struct Scope {
    sema::Env env;
    std::map<std::string, Binding> vars;
    /// The frame pass's exit env of each compound statement of the frame.
    sema::ExitEnvs exits;
  };
  Scope& scope() { return scopes_.back(); }
  sema::Env& env() { return scope().env; }
  /// The recorded exit env of compound statement `s`. Take it before
  /// lowering anything else: an inlined call grows scopes_.
  sema::Env& exitEnv(const Stmt& s) {
    auto it = scope().exits.find(&s);
    if (it == scope().exits.end()) fail(s.loc, "internal: no inferred types for statement");
    return it->second;
  }

  Binding* findBinding(const std::string& name) {
    auto it = scope().vars.find(name);
    return it == scope().vars.end() ? nullptr : &it->second;
  }

  VType bindingVType(const Binding& b) const {
    return {lirElem(b.type.elem), 1};
  }

  /// The frame pass: infers `body` once from the frame's entry env, records
  /// each compound statement's exit env in the scope, and returns the
  /// frame's final (fixpoint) env.
  sema::Env inferFrame(const std::vector<ast::StmtPtr>& body) {
    sema::Env final = env();
    types_.processBlock(body, final, &scope().exits);
    return final;
  }
  /// Declares storage for every variable of the frame up front (final
  /// fixpoint types), so assignments inside control flow target stable
  /// storage. Params/outs are bound by the caller beforehand.
  void declareFrameVars(const sema::Env& final, SourceLoc loc);

  // -- type / const queries -----------------------------------------------------
  Type typeOf(const Expr& e) { return types_.inferExpr(e, env()); }
  std::optional<double> constOf(const Expr& e) { return types_.constValue(e, env()); }

  std::int64_t knownNumel(const Shape& s, SourceLoc loc, const char* what) {
    if (!s.isKnown())
      fail(loc, std::string(what) +
                    " has a dynamic shape — the specializing compiler needs static shapes"
                    " (check the entry argument specs)");
    return s.numel();
  }

  // -- expression lowering -------------------------------------------------------
  ExprPtr scalarExpr(const Expr& e);
  ExprPtr lowerCond(const Expr& e);
  ExprPtr coerceTo(ExprPtr v, Scalar want, SourceLoc loc);
  std::pair<ExprPtr, ExprPtr> promotePair(ExprPtr a, ExprPtr b, Scalar& outElem,
                                          SourceLoc loc);
  ExprPtr scalarBinary(const Binary& e);
  ExprPtr scalarBuiltinCall(const std::string& name, const CallIndex& call);
  /// An elementwise or complex-part builtin applied to operands already
  /// lowered (a scalar, or one element of a loop); sema/builtins.def gives
  /// the LIR op and how a complex operand is treated.
  ExprPtr elementCall(const std::string& name, std::vector<ExprPtr> args, SourceLoc loc);
  ExprPtr scalarIndexRead(const Binding& b, const CallIndex& call);

  /// 1-based MATLAB index value as an i64 expression, preserving affine
  /// structure (induction vars stay i64) so the vectorizer can see strides.
  ExprPtr indexValueI64(const Expr& e, std::optional<std::int64_t> endExtent);
  /// Pure (no emission) attempt to express a scalar AST expression as an
  /// affine i64 expression over induction variables; powers integer-alias
  /// tracking for index temporaries like base = (j-1)*8.
  ExprPtr tryIntAffine(const Expr& e);
  /// Drops every integer alias in the current scope (conservative barrier
  /// around data-dependent control flow).
  void clearIntAliases() {
    for (auto& [name, b] : scope().vars) b.intAlias.reset();
  }
  /// 0-based linear index for element access into an array of shape `shape`.
  ExprPtr linearIndex(const std::vector<ast::ExprPtr>& args, const Shape& shape,
                      SourceLoc loc);

  void emitBoundsCheck(const std::string& array, const ExprPtr& index) {
    if (emitChecks()) emit(lir::boundsCheck(array, index->clone()));
  }

  // -- tensor lowering -------------------------------------------------------------
  struct TensorRef {
    std::string storage;
    Type type;
  };

  /// Materializes any tensor-valued expression into storage, returning the
  /// array name (existing variable storage when the expression is a plain
  /// variable reference of matching shape).
  TensorRef materializeTensor(const Expr& e);
  /// Writes `rhs` (tensor-typed) into `dst` (array storage of `dstType`).
  void emitTensorAssign(const std::string& dst, const Type& dstType, const Expr& rhs);

  /// One fused (Proposed) or per-op (CoderLike) loop writing `rhs` into dst.
  void emitElementwiseLoop(const std::string& dst, const Type& dstType, const Expr& rhs);
  /// Element generator for the loop body: expression for element `idxVar`.
  /// Proposed style recurses through the whole elementwise tree (fusion);
  /// CoderLike materializes every non-leaf operand first (per-op temps).
  ExprPtr scalarize(const Expr& e, const std::string& idxVar, const Shape& loopShape);
  ExprPtr scalarizeChild(const Expr& e, const std::string& idxVar, const Shape& loopShape);
  /// Hoists a loop-invariant scalar into a temp before the loop.
  ExprPtr hoistScalar(const Expr& e);
  /// CoderLike: one BoundsCheck per Load in `e`, appended to `out`.
  void appendLoadChecks(const lir::Expr& e, std::vector<StmtPtr>& out);

  void emitFill(const std::string& dst, std::int64_t numel, ExprPtr value);
  void emitCopyLoop(const std::string& dst, const std::string& src, std::int64_t numel,
                    Scalar dstElem, Scalar srcElem, bool conj = false);
  void emitEye(const std::string& dst, std::int64_t rows, std::int64_t cols);
  void emitTranspose(const std::string& dst, const Type& dstType, const Transpose& e);
  void emitMatMul(const std::string& dst, const Type& dstType, const Binary& e);
  void emitRangeFill(const std::string& dst, const Range& e, std::int64_t count);
  void emitMatrixLit(const std::string& dst, const Type& dstType, const MatrixLit& e);
  void emitSliceRead(const std::string& dst, const Type& dstType, const CallIndex& e,
                     const Binding& base);
  void emitColumnReduction(const std::string& dst, const std::string& name,
                           const CallIndex& call, const Type& argType);
  /// fft/ifft of a vector (or column-wise of a matrix) into dst: radix-2
  /// DIT loop nest for power-of-two lengths, O(n^2) DFT otherwise.
  void emitFft(const std::string& dst, const Type& dstType, const CallIndex& call,
               bool inverse);

  /// Reductions (sum/prod/mean/dot/norm/min/max over a vector) to a scalar
  /// LIR variable; returns a VarRef to it.
  ExprPtr emitReductionToScalar(const std::string& name, const CallIndex& call);

  // -- slices --------------------------------------------------------------------
  struct SliceSel {
    ExprPtr start;       // 0-based i64 start
    std::int64_t count;  // static element count
    std::int64_t step;   // element step (may be negative)
  };
  SliceSel resolveSlice(const Expr& arg, Dim extent, SourceLoc loc);

  // -- calls ----------------------------------------------------------------------
  std::vector<TensorRef> inlineCall(const Function& callee,
                                    const std::vector<ast::ExprPtr>& args, std::size_t nOut,
                                    SourceLoc loc);

  // -- statements -------------------------------------------------------------------
  void lowerStmts(const std::vector<ast::StmtPtr>& body);
  void lowerStmt(const Stmt& s);
  void lowerAssign(const Assign& s);
  void lowerScalarAssignTo(Binding& b, const Expr& rhs);
  void lowerIndexedAssign(const LValue& target, const Expr& rhs);
  void lowerFor(const For& s);
  void lowerIf(const If& s);
  void lowerWhile(const While& s);
  void lowerSwitch(const Switch& s);

  std::string declareArray(const std::string& hint, Scalar elem, std::int64_t rows,
                           std::int64_t cols) {
    std::string name = fresh(hint);
    fn_.arrays.push_back({name, elem, rows, cols});
    if (materializePerOp()) emit(lir::allocMark(name));
    return name;
  }

  const Program& program_;
  LowerOptions opts_;
  DiagnosticEngine& diags_;
  sema::TypeInference types_;
  lir::Function fn_;
  std::vector<StmtPtr>* cur_ = nullptr;
  std::vector<Scope> scopes_;
  std::vector<std::optional<std::int64_t>> endExtentStack_;
  int nameCounter_ = 0;
  int inlineDepth_ = 0;
};

// ---------------------------------------------------------------------------
// Frame setup
// ---------------------------------------------------------------------------

/// Does `body` ever assign to `name` (used to decide pass-by-alias inlining)?
bool assignsTo(const std::vector<ast::StmtPtr>& body, const std::string& name);

bool stmtAssignsTo(const Stmt& s, const std::string& name) {
  switch (s.kind) {
    case NodeKind::Assign: {
      const auto& a = static_cast<const Assign&>(s);
      for (const auto& t : a.targets) {
        if (t.name == name) return true;
      }
      return false;
    }
    case NodeKind::If: {
      const auto& i = static_cast<const If&>(s);
      for (const auto& b : i.branches) {
        if (assignsTo(b.body, name)) return true;
      }
      return assignsTo(i.elseBody, name);
    }
    case NodeKind::For: {
      const auto& f = static_cast<const For&>(s);
      return f.var == name || assignsTo(f.body, name);
    }
    case NodeKind::While:
      return assignsTo(static_cast<const While&>(s).body, name);
    case NodeKind::Switch: {
      const auto& sw = static_cast<const Switch&>(s);
      for (const auto& c : sw.cases) {
        if (assignsTo(c.body, name)) return true;
      }
      return assignsTo(sw.otherwise, name);
    }
    default:
      return false;
  }
}

bool assignsTo(const std::vector<ast::StmtPtr>& body, const std::string& name) {
  for (const auto& s : body) {
    if (stmtAssignsTo(*s, name)) return true;
  }
  return false;
}

void Lowerer::declareFrameVars(const sema::Env& final, SourceLoc loc) {
  for (const auto& [name, type] : final.vars) {
    if (findBinding(name)) continue;  // params/outs already bound
    if (type.isScalar()) {
      std::string storage = fresh(name);
      emit(lir::declScalar(storage, {lirElem(type.elem), 1}));
      scope().vars[name] = Binding{type, storage, false, {}, {}};
    } else {
      std::int64_t n = knownNumel(type.shape, loc, ("variable '" + name + "'").c_str());
      (void)n;
      std::string storage = fresh(name);
      fn_.arrays.push_back({storage, lirElem(type.elem), type.shape.rows.extent(),
                            type.shape.cols.extent()});
      scope().vars[name] = Binding{type, storage, false, {}, {}};
    }
  }
}

lir::Function Lowerer::lower(const std::string& entry, const std::vector<sema::ArgSpec>& args) {
  const Function* fnAst = program_.findFunction(entry);
  if (!fnAst) fail({}, "entry function '" + entry + "' not found");
  if (args.size() != fnAst->params.size())
    fail(fnAst->loc, "entry '" + entry + "' expects " + std::to_string(fnAst->params.size()) +
                         " arguments, got " + std::to_string(args.size()));

  fn_.name = entry;
  scopes_.emplace_back();
  cur_ = &fn_.body;

  // Parameters.
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Type& t = args[i].type;
    const std::string& name = fnAst->params[i];
    lir::Param p;
    p.name = name;
    p.elem = lirElem(t.elem);
    if (t.isScalar()) {
      p.isArray = false;
    } else {
      std::int64_t n = knownNumel(t.shape, fnAst->loc, "entry argument");
      (void)n;
      p.isArray = true;
      p.rows = t.shape.rows.extent();
      p.cols = t.shape.cols.extent();
    }
    fn_.params.push_back(p);
    env().vars[name] = t;
    scope().vars[name] = Binding{t, name, false, {}, {}};
  }

  // Outputs: fixpoint types decide shape/element.
  const sema::Env final = inferFrame(fnAst->body);
  for (const auto& outName : fnAst->outs) {
    auto it = final.vars.find(outName);
    if (it == final.vars.end())
      fail(fnAst->loc, "output '" + outName + "' is never assigned");
    const Type& t = it->second;
    bool shadowsParam = findBinding(outName) != nullptr;
    std::string storage = shadowsParam ? outName + "_out" : outName;
    lir::Param p;
    p.name = storage;
    p.elem = lirElem(t.elem);
    if (!t.isScalar()) {
      knownNumel(t.shape, fnAst->loc, ("output '" + outName + "'").c_str());
      p.isArray = true;
      p.rows = t.shape.rows.extent();
      p.cols = t.shape.cols.extent();
    }
    fn_.outs.push_back(p);
    if (shadowsParam) {
      // In-place style `function x = f(x, ...)`: copy the input, rebind.
      Binding& in = *findBinding(outName);
      if (p.isArray) {
        emitCopyLoop(storage, in.storage, t.shape.numel(), p.elem,
                     lirElem(in.type.elem));
      } else {
        emit(lir::assign(storage, coerceTo(lir::varRef(in.storage, bindingVType(in)),
                                           p.elem, fnAst->loc)));
      }
    }
    scope().vars[outName] = Binding{t, storage, false, {}, {}};
  }

  declareFrameVars(final, fnAst->loc);
  lowerStmts(fnAst->body);

  scopes_.pop_back();
  auto problems = lir::verify(fn_);
  if (!problems.empty()) {
    std::string msg = "internal lowering error: " + problems.front();
    fail(fnAst->loc, msg);
  }
  return std::move(fn_);
}

// ---------------------------------------------------------------------------
// Scalar expressions
// ---------------------------------------------------------------------------

ExprPtr Lowerer::coerceTo(ExprPtr v, Scalar want, SourceLoc loc) {
  if (v->type.scalar == want) return v;
  if (want == Scalar::C64) return lir::unary(UnOp::ToC64, std::move(v), VType::c64());
  if (want == Scalar::F64) {
    if (v->type.scalar == Scalar::B1 || v->type.scalar == Scalar::I64)
      return lir::unary(UnOp::ToF64, std::move(v), VType::f64());
    fail(loc, "cannot convert a complex value to real implicitly");
  }
  if (want == Scalar::I64) return lir::unary(UnOp::ToI64, std::move(v), VType::i64());
  fail(loc, "unsupported conversion");
}

std::pair<ExprPtr, ExprPtr> Lowerer::promotePair(ExprPtr a, ExprPtr b, Scalar& outElem,
                                                 SourceLoc loc) {
  bool cplx = a->type.scalar == Scalar::C64 || b->type.scalar == Scalar::C64;
  outElem = cplx ? Scalar::C64 : Scalar::F64;
  return {coerceTo(std::move(a), outElem, loc), coerceTo(std::move(b), outElem, loc)};
}

ExprPtr Lowerer::lowerCond(const Expr& e) {
  if (e.kind == NodeKind::Binary) {
    const auto& b = static_cast<const Binary&>(e);
    auto cmp = [&](BinOp op) {
      ExprPtr lhs = scalarExpr(*b.lhs);
      ExprPtr rhs = scalarExpr(*b.rhs);
      Scalar elem;
      auto [l, r] = promotePair(std::move(lhs), std::move(rhs), elem, e.loc);
      return lir::binary(op, std::move(l), std::move(r), VType::b1());
    };
    switch (b.op) {
      case BinaryOp::Eq: return cmp(BinOp::Eq);
      case BinaryOp::Ne: return cmp(BinOp::Ne);
      case BinaryOp::Lt: return cmp(BinOp::Lt);
      case BinaryOp::Le: return cmp(BinOp::Le);
      case BinaryOp::Gt: return cmp(BinOp::Gt);
      case BinaryOp::Ge: return cmp(BinOp::Ge);
      case BinaryOp::And:
      case BinaryOp::AndAnd:
        return lir::binary(BinOp::And, lowerCond(*b.lhs), lowerCond(*b.rhs), VType::b1());
      case BinaryOp::Or:
      case BinaryOp::OrOr:
        return lir::binary(BinOp::Or, lowerCond(*b.lhs), lowerCond(*b.rhs), VType::b1());
      default:
        break;
    }
  }
  if (e.kind == NodeKind::Unary) {
    const auto& u = static_cast<const Unary&>(e);
    if (u.op == UnaryOp::Not)
      return lir::unary(UnOp::Not, lowerCond(*u.operand), VType::b1());
  }
  Type t = typeOf(e);
  if (!t.isScalar()) fail(e.loc, "condition must be scalar in compiled code");
  ExprPtr v = scalarExpr(e);
  return lir::binary(BinOp::Ne, std::move(v), lir::constF(0.0), VType::b1());
}

ExprPtr Lowerer::indexValueI64(const Expr& e, std::optional<std::int64_t> endExtent) {
  switch (e.kind) {
    case NodeKind::NumberLit: {
      const auto& n = static_cast<const NumberLit&>(e);
      if (!n.imaginary && n.value == std::floor(n.value))
        return lir::constI(static_cast<std::int64_t>(n.value));
      break;
    }
    case NodeKind::End:
      if (!endExtent) fail(e.loc, "'end' used where the extent is unknown");
      return lir::constI(*endExtent);
    case NodeKind::Ident: {
      const auto& id = static_cast<const Ident&>(e);
      if (Binding* b = findBinding(id.name)) {
        if (b->induction) return lir::varRef(b->inductionVar, VType::i64());
        if (b->intAlias) return b->intAlias->clone();
        auto cv = constOf(e);
        if (cv && *cv == std::floor(*cv)) return lir::constI(static_cast<std::int64_t>(*cv));
        // Dynamic scalar used as an index.
        return lir::unary(UnOp::ToI64, scalarExpr(e), VType::i64());
      }
      break;
    }
    case NodeKind::Unary: {
      const auto& u = static_cast<const Unary&>(e);
      if (u.op == UnaryOp::Neg) {
        ExprPtr v = indexValueI64(*u.operand, endExtent);
        return lir::binary(BinOp::Sub, lir::constI(0), std::move(v), VType::i64());
      }
      break;
    }
    case NodeKind::Binary: {
      const auto& b = static_cast<const Binary&>(e);
      BinOp op;
      switch (b.op) {
        case BinaryOp::Add: op = BinOp::Add; break;
        case BinaryOp::Sub: op = BinOp::Sub; break;
        case BinaryOp::MatMul:
        case BinaryOp::ElemMul: op = BinOp::Mul; break;
        default: op = BinOp::Add; goto fallback;
      }
      return lir::binary(op, indexValueI64(*b.lhs, endExtent),
                         indexValueI64(*b.rhs, endExtent), VType::i64());
    }
    fallback:
    default:
      break;
  }
  // General path: lower as f64 and truncate. `end` inside the expression
  // resolves against the pushed extent.
  endExtentStack_.push_back(endExtent);
  ExprPtr v = scalarExpr(e);
  endExtentStack_.pop_back();
  return lir::unary(UnOp::ToI64, std::move(v), VType::i64());
}

ExprPtr Lowerer::tryIntAffine(const Expr& e) {
  switch (e.kind) {
    case NodeKind::NumberLit: {
      const auto& n = static_cast<const NumberLit&>(e);
      if (!n.imaginary && n.value == std::floor(n.value))
        return lir::constI(static_cast<std::int64_t>(n.value));
      return nullptr;
    }
    case NodeKind::Ident: {
      const auto& id = static_cast<const Ident&>(e);
      Binding* b = findBinding(id.name);
      if (!b) return nullptr;
      if (b->induction) return lir::varRef(b->inductionVar, VType::i64());
      if (b->intAlias) return b->intAlias->clone();
      auto cv = constOf(e);
      if (cv && *cv == std::floor(*cv)) return lir::constI(static_cast<std::int64_t>(*cv));
      return nullptr;
    }
    case NodeKind::Unary: {
      const auto& u = static_cast<const Unary&>(e);
      if (u.op == UnaryOp::Plus) return tryIntAffine(*u.operand);
      if (u.op == UnaryOp::Neg) {
        ExprPtr v = tryIntAffine(*u.operand);
        if (!v) return nullptr;
        return lir::binary(BinOp::Sub, lir::constI(0), std::move(v), VType::i64());
      }
      return nullptr;
    }
    case NodeKind::Binary: {
      const auto& b = static_cast<const Binary&>(e);
      BinOp op;
      switch (b.op) {
        case BinaryOp::Add: op = BinOp::Add; break;
        case BinaryOp::Sub: op = BinOp::Sub; break;
        case BinaryOp::ElemMul:
        case BinaryOp::MatMul: op = BinOp::Mul; break;
        default: return nullptr;
      }
      ExprPtr lhs = tryIntAffine(*b.lhs);
      ExprPtr rhs = tryIntAffine(*b.rhs);
      if (!lhs || !rhs) return nullptr;
      ExprPtr r = lir::binary(op, std::move(lhs), std::move(rhs), VType::i64());
      return lir::affineOf(*r).ok ? std::move(r) : nullptr;
    }
    default:
      return nullptr;
  }
}

ExprPtr Lowerer::linearIndex(const std::vector<ast::ExprPtr>& args, const Shape& shape,
                             SourceLoc loc) {
  if (args.size() == 1) {
    std::optional<std::int64_t> extent;
    if (shape.isKnown()) extent = shape.numel();
    ExprPtr idx = indexValueI64(*args[0], extent);
    return lir::binary(BinOp::Sub, std::move(idx), lir::constI(1), VType::i64());
  }
  if (args.size() != 2) fail(loc, "only 1-D and 2-D indexing are supported");
  std::optional<std::int64_t> rowsExt;
  std::optional<std::int64_t> colsExt;
  if (shape.rows.isKnown()) rowsExt = shape.rows.extent();
  if (shape.cols.isKnown()) colsExt = shape.cols.extent();
  if (!shape.rows.isKnown()) fail(loc, "2-D indexing requires a static row count");
  ExprPtr r = lir::binary(BinOp::Sub, indexValueI64(*args[0], rowsExt), lir::constI(1),
                          VType::i64());
  ExprPtr c = lir::binary(BinOp::Sub, indexValueI64(*args[1], colsExt), lir::constI(1),
                          VType::i64());
  ExprPtr scaled =
      lir::binary(BinOp::Mul, std::move(c), lir::constI(shape.rows.extent()), VType::i64());
  return lir::binary(BinOp::Add, std::move(r), std::move(scaled), VType::i64());
}

ExprPtr Lowerer::scalarIndexRead(const Binding& b, const CallIndex& call) {
  ExprPtr lin = linearIndex(call.args, b.type.shape, call.loc);
  emitBoundsCheck(b.storage, lin);
  return lir::load(b.storage, std::move(lin), {lirElem(b.type.elem), 1});
}

ExprPtr Lowerer::scalarBinary(const Binary& e) {
  switch (e.op) {
    case BinaryOp::Eq: case BinaryOp::Ne: case BinaryOp::Lt: case BinaryOp::Le:
    case BinaryOp::Gt: case BinaryOp::Ge: case BinaryOp::And: case BinaryOp::Or:
    case BinaryOp::AndAnd: case BinaryOp::OrOr:
      return lir::unary(UnOp::ToF64, lowerCond(e), VType::f64());
    default:
      break;
  }
  ExprPtr lhs = scalarExpr(*e.lhs);
  ExprPtr rhs = scalarExpr(*e.rhs);
  Scalar elem;
  auto [a, b] = promotePair(std::move(lhs), std::move(rhs), elem, e.loc);
  VType vt{elem, 1};
  switch (e.op) {
    case BinaryOp::Add: return lir::binary(BinOp::Add, std::move(a), std::move(b), vt);
    case BinaryOp::Sub: return lir::binary(BinOp::Sub, std::move(a), std::move(b), vt);
    case BinaryOp::ElemMul:
    case BinaryOp::MatMul: return lir::binary(BinOp::Mul, std::move(a), std::move(b), vt);
    case BinaryOp::ElemDiv:
    case BinaryOp::MatDiv: return lir::binary(BinOp::Div, std::move(a), std::move(b), vt);
    case BinaryOp::ElemLeftDiv:
    case BinaryOp::MatLeftDiv:
      return lir::binary(BinOp::Div, std::move(b), std::move(a), vt);
    case BinaryOp::ElemPow:
    case BinaryOp::MatPow: return lir::binary(BinOp::Pow, std::move(a), std::move(b), vt);
    default:
      fail(e.loc, "unsupported scalar binary operator");
  }
}

ExprPtr Lowerer::scalarBuiltinCall(const std::string& name, const CallIndex& call) {
  auto info = sema::findCompilableBuiltin(name);
  if (!info) fail(call.loc, "'" + name + "' is not compilable");

  auto arg = [&](std::size_t i) -> const Expr& { return *call.args.at(i); };
  auto nArgs = call.args.size();

  switch (info->kind) {
    case sema::BuiltinKind::Constant:
      return lir::constF(info->constantValue);

    case sema::BuiltinKind::ElemUnary:
    case sema::BuiltinKind::ElemBinary:
    case sema::BuiltinKind::ComplexPart:
      break;

    case sema::BuiltinKind::MinMax:
      if (nArgs == 2) break;
      return emitReductionToScalar(name, call);

    case sema::BuiltinKind::Reduction:
      return emitReductionToScalar(name, call);

    case sema::BuiltinKind::Query: {
      Type t = typeOf(arg(0));
      knownNumel(t.shape, call.loc, "query argument");
      if (name == "length")
        return lir::constF(static_cast<double>(
            std::max(t.shape.rows.extent(), t.shape.cols.extent())));
      if (name == "numel") return lir::constF(static_cast<double>(t.shape.numel()));
      if (name == "isreal") return lir::constF(t.elem == Elem::Complex ? 0.0 : 1.0);
      if (name == "isempty") return lir::constF(t.shape.numel() == 0 ? 1.0 : 0.0);
      if (name == "size") {
        auto d = constOf(arg(1));
        if (nArgs != 2 || !d) fail(call.loc, "size: scalar use requires a dimension arg");
        double v = *d == 1.0 ? static_cast<double>(t.shape.rows.extent())
                   : *d == 2.0 ? static_cast<double>(t.shape.cols.extent())
                               : 1.0;
        return lir::constF(v);
      }
      fail(call.loc, "unhandled query builtin");
    }

    case sema::BuiltinKind::Transform: {
      // Scalar context means a length-1 transform, which is the identity
      // (and the ifft 1/m scale is 1): just the first element as c64.
      Type argT = typeOf(arg(0));
      if (argT.isScalar()) return coerceTo(scalarExpr(arg(0)), Scalar::C64, call.loc);
      TensorRef ref = materializeTensor(arg(0));
      emitBoundsCheck(ref.storage, lir::constI(0));
      return coerceTo(lir::load(ref.storage, lir::constI(0),
                                VType{lirElem(ref.type.elem), 1}),
                      Scalar::C64, call.loc);
    }

    case sema::BuiltinKind::Constructor:
      fail(call.loc, "'" + name + "' does not produce a scalar");
  }
  std::vector<ExprPtr> args;
  for (const auto& a : call.args) args.push_back(scalarExpr(*a));
  return elementCall(name, std::move(args), call.loc);
}

ExprPtr Lowerer::elementCall(const std::string& name, std::vector<ExprPtr> args,
                             SourceLoc loc) {
  auto real = [&](std::size_t i) { return coerceTo(std::move(args[i]), Scalar::F64, loc); };
#define MAT2C_BUILTIN_UNARY(n, op, lirName, rule, ...)                              \
  if (name == n) {                                                                  \
    constexpr auto r = sema::ComplexRule::rule;                                     \
    ExprPtr v = r == sema::ComplexRule::Real ? real(0) : std::move(args[0]);        \
    bool keep = r == sema::ComplexRule::Keep && v->type.scalar == Scalar::C64;      \
    return lir::unary(UnOp::op, std::move(v), keep ? VType::c64() : VType::f64());  \
  }
#define MAT2C_BUILTIN_BINARY(n, kind, op, ...) \
  if (name == n) return lir::binary(BinOp::op, real(0), real(1), VType::f64());
#include "sema/builtins.def"

  if (name == "complex") return lir::binary(BinOp::MakeComplex, real(0), real(1), VType::c64());
  ExprPtr v = std::move(args.at(0));
  bool cplx = v->type.scalar == Scalar::C64;
  if (name == "conj")
    return cplx ? lir::unary(UnOp::Conj, std::move(v), VType::c64()) : std::move(v);
  if (name == "real")
    return cplx ? lir::unary(UnOp::RealPart, std::move(v), VType::f64()) : std::move(v);
  if (name == "imag")
    return cplx ? lir::unary(UnOp::ImagPart, std::move(v), VType::f64()) : lir::constF(0.0);
  if (name == "angle") {
    if (!cplx) v = lir::unary(UnOp::ToC64, std::move(v), VType::c64());
    return lir::unary(UnOp::Arg, std::move(v), VType::f64());
  }
  fail(loc, "unhandled builtin '" + name + "'");
}

ExprPtr Lowerer::scalarExpr(const Expr& e) {
  switch (e.kind) {
    case NodeKind::NumberLit: {
      const auto& n = static_cast<const NumberLit&>(e);
      if (n.imaginary) return lir::constC(0.0, n.value);
      return lir::constF(n.value);
    }
    case NodeKind::Ident: {
      const auto& id = static_cast<const Ident&>(e);
      if (Binding* b = findBinding(id.name)) {
        if (!b->type.isScalar())
          fail(e.loc, "variable '" + id.name + "' is not scalar here");
        if (b->induction)
          return lir::unary(UnOp::ToF64, lir::varRef(b->inductionVar, VType::i64()),
                            VType::f64());
        return lir::varRef(b->storage, bindingVType(*b));
      }
      if (const Function* fnAst = program_.findFunction(id.name)) {
        auto outs = inlineCall(*fnAst, {}, 1, e.loc);
        if (!outs[0].type.isScalar()) fail(e.loc, "expected a scalar result");
        return lir::varRef(outs[0].storage, {lirElem(outs[0].type.elem), 1});
      }
      if (auto info = sema::findCompilableBuiltin(id.name);
          info && info->kind == sema::BuiltinKind::Constant) {
        return lir::constF(info->constantValue);
      }
      fail(e.loc, "undefined variable or function '" + id.name + "'");
    }
    case NodeKind::Unary: {
      const auto& u = static_cast<const Unary&>(e);
      if (u.op == UnaryOp::Not)
        return lir::unary(UnOp::ToF64, lowerCond(e), VType::f64());
      ExprPtr v = scalarExpr(*u.operand);
      if (u.op == UnaryOp::Plus) return v;
      VType t = v->type;
      if (t.scalar == Scalar::B1) {
        v = coerceTo(std::move(v), Scalar::F64, e.loc);
        t = VType::f64();
      }
      return lir::unary(UnOp::Neg, std::move(v), t);
    }
    case NodeKind::Binary:
      return scalarBinary(static_cast<const Binary&>(e));
    case NodeKind::Transpose: {
      const auto& t = static_cast<const Transpose&>(e);
      ExprPtr v = scalarExpr(*t.operand);
      if (t.conjugate && v->type.scalar == Scalar::C64)
        return lir::unary(UnOp::Conj, std::move(v), VType::c64());
      return v;
    }
    case NodeKind::CallIndex: {
      const auto& call = static_cast<const CallIndex&>(e);
      if (call.base->kind != NodeKind::Ident)
        fail(e.loc, "indexing a computed expression is not supported in compiled code");
      const std::string& name = static_cast<const Ident&>(*call.base).name;
      if (Binding* b = findBinding(name)) return scalarIndexRead(*b, call);
      if (const Function* fnAst = program_.findFunction(name)) {
        auto outs = inlineCall(*fnAst, call.args, 1, e.loc);
        if (!outs[0].type.isScalar()) fail(e.loc, "expected a scalar result");
        return lir::varRef(outs[0].storage, {lirElem(outs[0].type.elem), 1});
      }
      return scalarBuiltinCall(name, call);
    }
    case NodeKind::End:
      if (!endExtentStack_.empty() && endExtentStack_.back()) {
        return lir::constF(static_cast<double>(*endExtentStack_.back()));
      }
      fail(e.loc, "'end' outside of an index expression");
    default:
      fail(e.loc, "expression is not scalar-compilable");
  }
}

// ---------------------------------------------------------------------------
// Tensor lowering
// ---------------------------------------------------------------------------

ExprPtr Lowerer::hoistScalar(const Expr& e) {
  ExprPtr v = scalarExpr(e);
  if (v->kind == lir::ExprKind::ConstF || v->kind == lir::ExprKind::ConstI ||
      v->kind == lir::ExprKind::VarRef) {
    return v;
  }
  std::string tmp = fresh("s");
  VType t = v->type;
  emit(lir::declScalar(tmp, t, std::move(v)));
  return lir::varRef(tmp, t);
}

Lowerer::TensorRef Lowerer::materializeTensor(const Expr& e) {
  Type t = typeOf(e);
  if (t.isScalar()) fail(e.loc, "internal: materializeTensor on a scalar");
  if (e.kind == NodeKind::Ident) {
    const auto& id = static_cast<const Ident&>(e);
    if (Binding* b = findBinding(id.name)) return {b->storage, b->type};
  }
  knownNumel(t.shape, e.loc, "expression");
  std::string tmp = declareArray("tmp", lirElem(t.elem), t.shape.rows.extent(),
                                 t.shape.cols.extent());
  emitTensorAssign(tmp, t, e);
  return {tmp, t};
}

ExprPtr Lowerer::scalarizeChild(const Expr& e, const std::string& idxVar,
                                const Shape& loopShape) {
  Type t = typeOf(e);
  if (t.isScalar()) return hoistScalar(e);
  if (e.kind == NodeKind::Ident) return scalarize(e, idxVar, loopShape);
  if (materializePerOp()) {
    // MATLAB-Coder-style: every intermediate vector op materializes.
    TensorRef ref = materializeTensor(e);
    ExprPtr idx = lir::varRef(idxVar, VType::i64());
    return lir::load(ref.storage, std::move(idx), {lirElem(ref.type.elem), 1});
  }
  return scalarize(e, idxVar, loopShape);
}

ExprPtr Lowerer::scalarize(const Expr& e, const std::string& idxVar, const Shape& loopShape) {
  Type t = typeOf(e);
  if (t.isScalar()) return hoistScalar(e);

  switch (e.kind) {
    case NodeKind::Ident: {
      const auto& id = static_cast<const Ident&>(e);
      Binding* b = findBinding(id.name);
      if (!b) fail(e.loc, "undefined variable '" + id.name + "'");
      if (!(b->type.shape == loopShape))
        fail(e.loc, "shape mismatch in elementwise expression");
      ExprPtr idx = lir::varRef(idxVar, VType::i64());
      return lir::load(b->storage, std::move(idx), {lirElem(b->type.elem), 1});
    }
    case NodeKind::Unary: {
      const auto& u = static_cast<const Unary&>(e);
      ExprPtr v = scalarizeChild(*u.operand, idxVar, loopShape);
      switch (u.op) {
        case UnaryOp::Plus: return v;
        case UnaryOp::Neg: {
          VType vt = v->type;
          if (vt.scalar == Scalar::B1) {
            v = coerceTo(std::move(v), Scalar::F64, e.loc);
            vt = VType::f64();
          }
          return lir::unary(UnOp::Neg, std::move(v), vt);
        }
        case UnaryOp::Not:
          return lir::unary(UnOp::Not, std::move(v), VType::f64());
      }
      fail(e.loc, "bad unary");
    }
    case NodeKind::Binary: {
      const auto& b = static_cast<const Binary&>(e);
      BinOp op;
      bool cmp = false;
      switch (b.op) {
        case BinaryOp::Add: op = BinOp::Add; break;
        case BinaryOp::Sub: op = BinOp::Sub; break;
        case BinaryOp::ElemMul: op = BinOp::Mul; break;
        case BinaryOp::ElemDiv: op = BinOp::Div; break;
        case BinaryOp::ElemLeftDiv: op = BinOp::Div; break;
        case BinaryOp::ElemPow: op = BinOp::Pow; break;
        case BinaryOp::MatMul: op = BinOp::Mul; break;  // scalar side guaranteed
        case BinaryOp::MatDiv: op = BinOp::Div; break;
        case BinaryOp::Eq: op = BinOp::Eq; cmp = true; break;
        case BinaryOp::Ne: op = BinOp::Ne; cmp = true; break;
        case BinaryOp::Lt: op = BinOp::Lt; cmp = true; break;
        case BinaryOp::Le: op = BinOp::Le; cmp = true; break;
        case BinaryOp::Gt: op = BinOp::Gt; cmp = true; break;
        case BinaryOp::Ge: op = BinOp::Ge; cmp = true; break;
        case BinaryOp::And: op = BinOp::And; cmp = true; break;
        case BinaryOp::Or: op = BinOp::Or; cmp = true; break;
        default:
          fail(e.loc, "operator is not elementwise-compilable here");
      }
      ExprPtr lhs = scalarizeChild(*b.lhs, idxVar, loopShape);
      ExprPtr rhs = scalarizeChild(*b.rhs, idxVar, loopShape);
      if (b.op == BinaryOp::ElemLeftDiv) std::swap(lhs, rhs);
      if (cmp) {
        Scalar elem;
        auto [l, r] = promotePair(std::move(lhs), std::move(rhs), elem, e.loc);
        return lir::unary(UnOp::ToF64,
                          lir::binary(op, std::move(l), std::move(r), VType::b1()),
                          VType::f64());
      }
      Scalar elem;
      auto [l, r] = promotePair(std::move(lhs), std::move(rhs), elem, e.loc);
      return lir::binary(op, std::move(l), std::move(r), VType{elem, 1});
    }
    case NodeKind::CallIndex: {
      const auto& call = static_cast<const CallIndex&>(e);
      if (call.base->kind != NodeKind::Ident) break;
      const std::string& name = static_cast<const Ident&>(*call.base).name;
      if (findBinding(name)) break;  // slice read — materialize below
      // Elementwise-fusable calls (the paper's vectorizer fuses exactly
      // these per statement): table rows at their arity (min/max only in the
      // two-operand form) and complex parts.
      auto info = sema::findCompilableBuiltin(name);
      if (!info) break;
      bool atArity = info->arity > 0 && static_cast<std::size_t>(info->arity) == call.args.size();
      if (!atArity && info->kind != sema::BuiltinKind::ComplexPart) break;

      std::vector<ExprPtr> args;
      for (const auto& a : call.args) args.push_back(scalarizeChild(*a, idxVar, loopShape));
      return elementCall(name, std::move(args), e.loc);
    }
    default:
      break;
  }

  // Not elementwise at this node: materialize and load.
  TensorRef ref = materializeTensor(e);
  if (!(ref.type.shape == loopShape)) fail(e.loc, "shape mismatch in elementwise expression");
  ExprPtr idx = lir::varRef(idxVar, VType::i64());
  return lir::load(ref.storage, std::move(idx), {lirElem(ref.type.elem), 1});
}

void Lowerer::appendLoadChecks(const lir::Expr& e, std::vector<StmtPtr>& out) {
  if (!emitChecks()) return;
  lir::walkExpr(e, [&](const lir::Expr& x) {
    if (x.kind == lir::ExprKind::Load) out.push_back(lir::boundsCheck(x.name, x.index->clone()));
  });
}

void Lowerer::emitElementwiseLoop(const std::string& dst, const Type& dstType,
                                  const Expr& rhs) {
  std::int64_t n = knownNumel(dstType.shape, rhs.loc, "assignment target");
  std::string idx = fresh("i");
  // Hoists and operand materialization emit into the current block; the loop
  // body itself is just checks + one store.
  std::vector<StmtPtr> body;
  std::vector<StmtPtr>* saved = cur_;
  // Scalarize with cur_ still at the pre-loop block so hoists land there.
  ExprPtr value = scalarize(rhs, idx, dstType.shape);
  value = coerceTo(std::move(value), lirElem(dstType.elem), rhs.loc);
  cur_ = &body;
  appendLoadChecks(*value, body);
  ExprPtr storeIdx = lir::varRef(idx, VType::i64());
  emitBoundsCheck(dst, storeIdx);
  emit(lir::store(dst, std::move(storeIdx), std::move(value)));
  cur_ = saved;
  emit(lir::forLoop(idx, lir::constI(0), lir::constI(n), 1, std::move(body)));
}

void Lowerer::emitFill(const std::string& dst, std::int64_t numel, ExprPtr value) {
  std::string idx = fresh("i");
  std::vector<StmtPtr> body;
  std::vector<StmtPtr>* saved = cur_;
  cur_ = &body;
  ExprPtr storeIdx = lir::varRef(idx, VType::i64());
  emitBoundsCheck(dst, storeIdx);
  emit(lir::store(dst, std::move(storeIdx), std::move(value)));
  cur_ = saved;
  emit(lir::forLoop(idx, lir::constI(0), lir::constI(numel), 1, std::move(body)));
}

void Lowerer::emitCopyLoop(const std::string& dst, const std::string& src, std::int64_t numel,
                           Scalar dstElem, Scalar srcElem, bool conj) {
  if (dst == src) return;
  std::string idx = fresh("i");
  std::vector<StmtPtr> body;
  std::vector<StmtPtr>* saved = cur_;
  cur_ = &body;
  ExprPtr loadIdx = lir::varRef(idx, VType::i64());
  emitBoundsCheck(src, loadIdx);
  ExprPtr v = lir::load(src, std::move(loadIdx), {srcElem, 1});
  if (conj && srcElem == Scalar::C64) v = lir::unary(UnOp::Conj, std::move(v), VType::c64());
  v = coerceTo(std::move(v), dstElem, {});
  ExprPtr storeIdx = lir::varRef(idx, VType::i64());
  emitBoundsCheck(dst, storeIdx);
  emit(lir::store(dst, std::move(storeIdx), std::move(v)));
  cur_ = saved;
  emit(lir::forLoop(idx, lir::constI(0), lir::constI(numel), 1, std::move(body)));
}

void Lowerer::emitEye(const std::string& dst, std::int64_t rows, std::int64_t cols) {
  Scalar dstElem{};
  std::int64_t dn = 0;
  fn_.arrayInfo(dst, dstElem, dn);
  emitFill(dst, rows * cols, coerceTo(lir::constF(0.0), dstElem, {}));
  std::string idx = fresh("i");
  std::vector<StmtPtr> body;
  ExprPtr pos = lir::binary(BinOp::Add, lir::varRef(idx, VType::i64()),
                            lir::binary(BinOp::Mul, lir::varRef(idx, VType::i64()),
                                        lir::constI(rows), VType::i64()),
                            VType::i64());
  body.push_back(lir::store(dst, std::move(pos), coerceTo(lir::constF(1.0), dstElem, {})));
  emit(lir::forLoop(idx, lir::constI(0), lir::constI(std::min(rows, cols)), 1,
                    std::move(body)));
}

void Lowerer::emitTranspose(const std::string& dst, const Type& dstType, const Transpose& e) {
  TensorRef src = materializeTensor(*e.operand);
  std::int64_t srcRows = src.type.shape.rows.extent();
  std::int64_t dstRows = dstType.shape.rows.extent();
  std::int64_t dstCols = dstType.shape.cols.extent();
  bool conj = e.conjugate && src.type.elem == Elem::Complex;

  std::string r = fresh("r");
  std::string c = fresh("c");
  std::vector<StmtPtr> inner;
  std::vector<StmtPtr>* saved = cur_;
  cur_ = &inner;
  // dst(r, c) = src(c, r)
  ExprPtr srcIdx = lir::binary(
      BinOp::Add, lir::varRef(c, VType::i64()),
      lir::binary(BinOp::Mul, lir::varRef(r, VType::i64()), lir::constI(srcRows),
                  VType::i64()),
      VType::i64());
  emitBoundsCheck(src.storage, srcIdx);
  ExprPtr v = lir::load(src.storage, std::move(srcIdx), {lirElem(src.type.elem), 1});
  if (conj) v = lir::unary(UnOp::Conj, std::move(v), VType::c64());
  v = coerceTo(std::move(v), lirElem(dstType.elem), e.loc);
  ExprPtr dstIdx = lir::binary(
      BinOp::Add, lir::varRef(r, VType::i64()),
      lir::binary(BinOp::Mul, lir::varRef(c, VType::i64()), lir::constI(dstRows),
                  VType::i64()),
      VType::i64());
  emitBoundsCheck(dst, dstIdx);
  emit(lir::store(dst, std::move(dstIdx), std::move(v)));
  cur_ = saved;

  std::vector<StmtPtr> outer;
  outer.push_back(lir::forLoop(r, lir::constI(0), lir::constI(dstRows), 1, std::move(inner)));
  emit(lir::forLoop(c, lir::constI(0), lir::constI(dstCols), 1, std::move(outer)));
}

void Lowerer::emitMatMul(const std::string& dst, const Type& dstType, const Binary& e) {
  TensorRef a = materializeTensor(*e.lhs);
  TensorRef b = materializeTensor(*e.rhs);
  std::int64_t m = a.type.shape.rows.extent();
  std::int64_t k = a.type.shape.cols.extent();
  std::int64_t n = b.type.shape.cols.extent();
  Scalar accElem = lirElem(dstType.elem);

  std::string jv = fresh("j");
  std::string iv = fresh("i");
  std::string kv = fresh("k");
  std::string acc = fresh("acc");

  // Innermost: acc += A(i,k) * B(k,j)
  std::vector<StmtPtr> kBody;
  std::vector<StmtPtr>* saved = cur_;
  cur_ = &kBody;
  ExprPtr aIdx = lir::binary(
      BinOp::Add, lir::varRef(iv, VType::i64()),
      lir::binary(BinOp::Mul, lir::varRef(kv, VType::i64()), lir::constI(m), VType::i64()),
      VType::i64());
  emitBoundsCheck(a.storage, aIdx);
  ExprPtr av = lir::load(a.storage, std::move(aIdx), {lirElem(a.type.elem), 1});
  ExprPtr bIdx = lir::binary(
      BinOp::Add, lir::varRef(kv, VType::i64()),
      lir::binary(BinOp::Mul, lir::varRef(jv, VType::i64()), lir::constI(k), VType::i64()),
      VType::i64());
  emitBoundsCheck(b.storage, bIdx);
  ExprPtr bv = lir::load(b.storage, std::move(bIdx), {lirElem(b.type.elem), 1});
  av = coerceTo(std::move(av), accElem, e.loc);
  bv = coerceTo(std::move(bv), accElem, e.loc);
  ExprPtr prod = lir::binary(BinOp::Mul, std::move(av), std::move(bv), VType{accElem, 1});
  emit(lir::assign(acc, lir::binary(BinOp::Add, lir::varRef(acc, VType{accElem, 1}),
                                    std::move(prod), VType{accElem, 1})));
  cur_ = saved;

  std::vector<StmtPtr> iBody;
  cur_ = &iBody;
  emit(lir::declScalar(acc, VType{accElem, 1},
                       accElem == Scalar::C64 ? lir::constC(0.0, 0.0) : lir::constF(0.0)));
  emit(lir::forLoop(kv, lir::constI(0), lir::constI(k), 1, std::move(kBody)));
  ExprPtr dstIdx = lir::binary(
      BinOp::Add, lir::varRef(iv, VType::i64()),
      lir::binary(BinOp::Mul, lir::varRef(jv, VType::i64()), lir::constI(m), VType::i64()),
      VType::i64());
  emitBoundsCheck(dst, dstIdx);
  emit(lir::store(dst, std::move(dstIdx), lir::varRef(acc, VType{accElem, 1})));
  cur_ = saved;

  std::vector<StmtPtr> jBody;
  jBody.push_back(lir::forLoop(iv, lir::constI(0), lir::constI(m), 1, std::move(iBody)));
  emit(lir::forLoop(jv, lir::constI(0), lir::constI(n), 1, std::move(jBody)));
}

void Lowerer::emitRangeFill(const std::string& dst, const Range& e, std::int64_t count) {
  ExprPtr start = coerceTo(hoistScalar(*e.start), Scalar::F64, e.loc);
  ExprPtr step = e.step ? coerceTo(hoistScalar(*e.step), Scalar::F64, e.loc)
                        : lir::constF(1.0);
  // Hoist the step into a named temp if it is an expression.
  std::string idx = fresh("i");
  std::vector<StmtPtr> body;
  ExprPtr iF = lir::unary(UnOp::ToF64, lir::varRef(idx, VType::i64()), VType::f64());
  ExprPtr value = lir::binary(
      BinOp::Add, std::move(start),
      lir::binary(BinOp::Mul, std::move(iF), std::move(step), VType::f64()), VType::f64());
  std::vector<StmtPtr>* saved = cur_;
  cur_ = &body;
  ExprPtr storeIdx = lir::varRef(idx, VType::i64());
  emitBoundsCheck(dst, storeIdx);
  Scalar dstElem{};
  std::int64_t dn = 0;
  fn_.arrayInfo(dst, dstElem, dn);
  emit(lir::store(dst, std::move(storeIdx), coerceTo(std::move(value), dstElem, e.loc)));
  cur_ = saved;
  emit(lir::forLoop(idx, lir::constI(0), lir::constI(count), 1, std::move(body)));
}

void Lowerer::emitMatrixLit(const std::string& dst, const Type& dstType, const MatrixLit& e) {
  std::int64_t rows = dstType.shape.rows.extent();
  std::int64_t r = 0;
  for (const auto& row : e.rows) {
    std::int64_t c = 0;
    for (const auto& el : row) {
      Type t = typeOf(*el);
      if (!t.isScalar())
        fail(el->loc, "matrix literals of non-scalar elements are not compilable"
                      " (concatenate with explicit loops)");
      ExprPtr v = coerceTo(scalarExpr(*el), lirElem(dstType.elem), el->loc);
      emit(lir::store(dst, lir::constI(r + c * rows), std::move(v)));
      ++c;
    }
    ++r;
  }
}

Lowerer::SliceSel Lowerer::resolveSlice(const Expr& arg, Dim extent, SourceLoc loc) {
  if (arg.kind == NodeKind::Colon) {
    if (!extent.isKnown()) fail(loc, "':' over a dynamic extent");
    return {lir::constI(0), extent.extent(), 1};
  }
  std::optional<std::int64_t> endV;
  if (extent.isKnown()) endV = extent.extent();
  if (arg.kind == NodeKind::Range) {
    const auto& rng = static_cast<const Range&>(arg);
    std::int64_t step = 1;
    if (rng.step) {
      auto sv = types_.constValue(*rng.step, env(),
                                  endV ? std::optional<double>(*endV) : std::nullopt);
      if (!sv || *sv == 0.0 || *sv != std::floor(*sv))
        fail(loc, "slice step must be a nonzero integer constant");
      step = static_cast<std::int64_t>(*sv);
    }
    ExprPtr startI = indexValueI64(*rng.start, endV);
    ExprPtr stopI = indexValueI64(*rng.stop, endV);
    lir::Affine a = lir::affineOf(*startI);
    lir::Affine b = lir::affineOf(*stopI);
    lir::Affine diff = lir::affineSub(b, a);
    bool pureConst = diff.ok;
    if (pureConst) {
      for (const auto& [name, coef] : diff.coeffs) {
        (void)name;
        if (coef != 0) pureConst = false;
      }
    }
    if (!pureConst)
      fail(loc, "slice bounds must have a static span (start/stop may be expressions,"
                " but their difference must be constant)");
    std::int64_t span = diff.constant;
    std::int64_t count = span / step + 1;
    if (count < 0) count = 0;
    ExprPtr start0 = lir::binary(BinOp::Sub, std::move(startI), lir::constI(1), VType::i64());
    return {std::move(start0), count, step};
  }
  // Scalar index: a 1-element slice.
  ExprPtr idx = indexValueI64(arg, endV);
  ExprPtr start0 = lir::binary(BinOp::Sub, std::move(idx), lir::constI(1), VType::i64());
  return {std::move(start0), 1, 1};
}

void Lowerer::emitSliceRead(const std::string& dst, const Type& dstType, const CallIndex& e,
                            const Binding& base) {
  Scalar srcElem = lirElem(base.type.elem);
  Scalar dstElem = lirElem(dstType.elem);
  if (e.args.size() == 1) {
    Dim ext = base.type.shape.isKnown() ? Dim::of(base.type.shape.numel()) : Dim::dynamic();
    SliceSel s = resolveSlice(*e.args[0], ext, e.loc);
    // Hoist the start index.
    std::string startVar = fresh("st");
    emit(lir::declScalar(startVar, VType::i64(), std::move(s.start)));
    std::string idx = fresh("i");
    std::vector<StmtPtr> body;
    std::vector<StmtPtr>* saved = cur_;
    cur_ = &body;
    ExprPtr pos = lir::binary(
        BinOp::Add, lir::varRef(startVar, VType::i64()),
        lir::binary(BinOp::Mul, lir::varRef(idx, VType::i64()), lir::constI(s.step),
                    VType::i64()),
        VType::i64());
    emitBoundsCheck(base.storage, pos);
    ExprPtr v = lir::load(base.storage, std::move(pos), {srcElem, 1});
    v = coerceTo(std::move(v), dstElem, e.loc);
    ExprPtr storeIdx = lir::varRef(idx, VType::i64());
    emitBoundsCheck(dst, storeIdx);
    emit(lir::store(dst, std::move(storeIdx), std::move(v)));
    cur_ = saved;
    emit(lir::forLoop(idx, lir::constI(0), lir::constI(s.count), 1, std::move(body)));
    return;
  }
  if (e.args.size() != 2) fail(e.loc, "only 1-D and 2-D slicing is supported");
  SliceSel rs = resolveSlice(*e.args[0], base.type.shape.rows, e.loc);
  SliceSel cs = resolveSlice(*e.args[1], base.type.shape.cols, e.loc);
  std::int64_t srcRows = base.type.shape.rows.extent();
  std::int64_t dstRows = dstType.shape.rows.extent();
  std::string rStart = fresh("rs");
  std::string cStart = fresh("cs");
  emit(lir::declScalar(rStart, VType::i64(), std::move(rs.start)));
  emit(lir::declScalar(cStart, VType::i64(), std::move(cs.start)));

  std::string ri = fresh("r");
  std::string ci = fresh("c");
  std::vector<StmtPtr> inner;
  std::vector<StmtPtr>* saved = cur_;
  cur_ = &inner;
  ExprPtr srcR = lir::binary(
      BinOp::Add, lir::varRef(rStart, VType::i64()),
      lir::binary(BinOp::Mul, lir::varRef(ri, VType::i64()), lir::constI(rs.step),
                  VType::i64()),
      VType::i64());
  ExprPtr srcC = lir::binary(
      BinOp::Add, lir::varRef(cStart, VType::i64()),
      lir::binary(BinOp::Mul, lir::varRef(ci, VType::i64()), lir::constI(cs.step),
                  VType::i64()),
      VType::i64());
  ExprPtr srcIdx = lir::binary(
      BinOp::Add, std::move(srcR),
      lir::binary(BinOp::Mul, std::move(srcC), lir::constI(srcRows), VType::i64()),
      VType::i64());
  emitBoundsCheck(base.storage, srcIdx);
  ExprPtr v = lir::load(base.storage, std::move(srcIdx), {srcElem, 1});
  v = coerceTo(std::move(v), dstElem, e.loc);
  ExprPtr dstIdx = lir::binary(
      BinOp::Add, lir::varRef(ri, VType::i64()),
      lir::binary(BinOp::Mul, lir::varRef(ci, VType::i64()), lir::constI(dstRows),
                  VType::i64()),
      VType::i64());
  emitBoundsCheck(dst, dstIdx);
  emit(lir::store(dst, std::move(dstIdx), std::move(v)));
  cur_ = saved;

  std::vector<StmtPtr> outer;
  outer.push_back(lir::forLoop(ri, lir::constI(0), lir::constI(rs.count), 1,
                               std::move(inner)));
  emit(lir::forLoop(ci, lir::constI(0), lir::constI(cs.count), 1, std::move(outer)));
}

ExprPtr Lowerer::emitReductionToScalar(const std::string& name, const CallIndex& call) {
  // dot/norm/sum/prod/mean/min/max over a vector.
  const Expr& arg0 = *call.args.at(0);
  Type argType = typeOf(arg0);
  if (argType.isScalar()) {
    // Degenerate: reduction of a scalar is the scalar (norm/abs aside).
    ExprPtr v = scalarExpr(arg0);
    if (name == "norm") return lir::unary(UnOp::Abs, std::move(v), VType::f64());
    if (name == "dot") {
      ExprPtr w = scalarExpr(*call.args.at(1));
      Scalar elem;
      if (v->type.scalar == Scalar::C64)
        v = lir::unary(UnOp::Conj, std::move(v), VType::c64());
      auto [a, b] = promotePair(std::move(v), std::move(w), elem, call.loc);
      return lir::binary(BinOp::Mul, std::move(a), std::move(b), VType{elem, 1});
    }
    return v;
  }
  std::int64_t n = knownNumel(argType.shape, call.loc, "reduction argument");
  if (!argType.shape.isVector())
    fail(call.loc, "matrix reductions are only supported in whole-array assignments");

  bool cplxAcc = argType.elem == Elem::Complex &&
                 (name == "sum" || name == "prod" || name == "mean" || name == "dot");
  if ((name == "min" || name == "max") && argType.elem == Elem::Complex)
    fail(call.loc, "complex min/max is not compilable");
  Scalar accElem = cplxAcc ? Scalar::C64 : Scalar::F64;
  VType accT{accElem, 1};

  std::string idx = fresh("i");
  std::string acc = fresh("acc");

  // Build the element generator(s) up front so operand materialization and
  // invariant hoists land before the loop; clone for each use site.
  ExprPtr genA = scalarize(arg0, idx, argType.shape);
  ExprPtr genB;  // dot's second operand
  if (name == "dot") genB = scalarize(*call.args.at(1), idx, argType.shape);

  if (name == "min" || name == "max") {
    // Initialize from element 0, then fold the rest.
    genA = coerceTo(std::move(genA), Scalar::F64, call.loc);
    emit(lir::declScalar(idx, VType::i64(), lir::constI(0)));
    std::vector<StmtPtr> initChecks;
    appendLoadChecks(*genA, initChecks);
    for (auto& c : initChecks) emit(std::move(c));
    emit(lir::declScalar(acc, VType::f64(), genA->clone()));
    std::vector<StmtPtr> body;
    appendLoadChecks(*genA, body);
    body.push_back(lir::assign(acc, lir::binary(name == "min" ? BinOp::Min : BinOp::Max,
                                                lir::varRef(acc, VType::f64()),
                                                genA->clone(), VType::f64())));
    emit(lir::forLoop(idx, lir::constI(1), lir::constI(n), 1, std::move(body)));
    return lir::varRef(acc, VType::f64());
  }

  ExprPtr init = name == "prod"
                     ? (cplxAcc ? lir::constC(1.0, 0.0) : lir::constF(1.0))
                     : (cplxAcc ? lir::constC(0.0, 0.0) : lir::constF(0.0));
  emit(lir::declScalar(acc, accT, std::move(init)));

  std::vector<StmtPtr> body;
  appendLoadChecks(*genA, body);
  if (genB) appendLoadChecks(*genB, body);
  if (name == "norm") {
    ExprPtr mag = lir::unary(UnOp::Abs, std::move(genA), VType::f64());
    std::string t = fresh("t");
    body.push_back(lir::declScalar(t, VType::f64(), std::move(mag)));
    ExprPtr sq = lir::binary(BinOp::Mul, lir::varRef(t, VType::f64()),
                             lir::varRef(t, VType::f64()), VType::f64());
    body.push_back(lir::assign(
        acc, lir::binary(BinOp::Add, lir::varRef(acc, accT), std::move(sq), accT)));
  } else if (name == "dot") {
    if (genA->type.scalar == Scalar::C64)
      genA = lir::unary(UnOp::Conj, std::move(genA), VType::c64());
    genA = coerceTo(std::move(genA), accElem, call.loc);
    genB = coerceTo(std::move(genB), accElem, call.loc);
    ExprPtr prod = lir::binary(BinOp::Mul, std::move(genA), std::move(genB), accT);
    body.push_back(lir::assign(
        acc, lir::binary(BinOp::Add, lir::varRef(acc, accT), std::move(prod), accT)));
  } else {
    ExprPtr v = coerceTo(std::move(genA), accElem, call.loc);
    BinOp fold = name == "prod" ? BinOp::Mul : BinOp::Add;
    body.push_back(lir::assign(
        acc, lir::binary(fold, lir::varRef(acc, accT), std::move(v), accT)));
  }
  emit(lir::forLoop(idx, lir::constI(0), lir::constI(n), 1, std::move(body)));

  if (name == "mean") {
    emit(lir::assign(acc, lir::binary(BinOp::Div, lir::varRef(acc, accT),
                                      coerceTo(lir::constF(static_cast<double>(n)), accElem,
                                               call.loc),
                                      accT)));
  }
  if (name == "norm") {
    emit(lir::assign(acc, lir::unary(UnOp::Sqrt, lir::varRef(acc, accT), VType::f64())));
  }
  return lir::varRef(acc, accT);
}

void Lowerer::emitColumnReduction(const std::string& dst, const std::string& name,
                                  const CallIndex& call, const Type& argType) {
  TensorRef src = materializeTensor(*call.args.at(0));
  std::int64_t rows = argType.shape.rows.extent();
  std::int64_t cols = argType.shape.cols.extent();
  bool cplx = argType.elem == Elem::Complex;
  Scalar accElem = cplx ? Scalar::C64 : Scalar::F64;
  if ((name == "min" || name == "max") && cplx)
    fail(call.loc, "complex min/max is not compilable");
  if (name == "min" || name == "max") accElem = Scalar::F64;
  VType accT{accElem, 1};

  std::string ci = fresh("c");
  std::string ri = fresh("r");
  std::string acc = fresh("acc");

  std::vector<StmtPtr> inner;
  std::vector<StmtPtr>* saved = cur_;
  cur_ = &inner;
  ExprPtr idx = lir::binary(
      BinOp::Add, lir::varRef(ri, VType::i64()),
      lir::binary(BinOp::Mul, lir::varRef(ci, VType::i64()), lir::constI(rows), VType::i64()),
      VType::i64());
  emitBoundsCheck(src.storage, idx);
  ExprPtr v = lir::load(src.storage, std::move(idx), {lirElem(src.type.elem), 1});
  v = coerceTo(std::move(v), accElem, call.loc);
  BinOp fold = name == "prod" ? BinOp::Mul
               : name == "min" ? BinOp::Min
               : name == "max" ? BinOp::Max
                               : BinOp::Add;
  emit(lir::assign(acc, lir::binary(fold, lir::varRef(acc, accT), std::move(v), accT)));
  cur_ = saved;

  std::vector<StmtPtr> colBody;
  cur_ = &colBody;
  ExprPtr init;
  if (name == "prod") {
    init = cplx ? lir::constC(1.0, 0.0) : lir::constF(1.0);
  } else if (name == "min") {
    init = lir::constF(std::numeric_limits<double>::infinity());
  } else if (name == "max") {
    init = lir::constF(-std::numeric_limits<double>::infinity());
  } else {
    init = cplx ? lir::constC(0.0, 0.0) : lir::constF(0.0);
  }
  emit(lir::declScalar(acc, accT, std::move(init)));
  emit(lir::forLoop(ri, lir::constI(0), lir::constI(rows), 1, std::move(inner)));
  ExprPtr result = lir::varRef(acc, accT);
  if (name == "mean")
    result = lir::binary(BinOp::Div, std::move(result),
                         coerceTo(lir::constF(static_cast<double>(rows)), accElem, call.loc),
                         accT);
  ExprPtr dstIdx = lir::varRef(ci, VType::i64());
  emitBoundsCheck(dst, dstIdx);
  emit(lir::store(dst, std::move(dstIdx), std::move(result)));
  cur_ = saved;
  emit(lir::forLoop(ci, lir::constI(0), lir::constI(cols), 1, std::move(colBody)));
}

void Lowerer::emitFft(const std::string& dst, const Type& dstType, const CallIndex& call,
                      bool inverse) {
  const ast::Expr& argExpr = *call.args.at(0);
  Type argT = typeOf(argExpr);
  knownNumel(argT.shape, call.loc, "fft argument");

  // Geometry. Vectors transform along their length; matrices column-wise.
  // The transform length m comes from the (sema-inferred) destination shape,
  // so the two-arg zero-pad/truncate form needs no special casing here.
  bool matrixInput = !argT.shape.isVector();
  std::int64_t cols = matrixInput ? argT.shape.cols.extent() : 1;
  std::int64_t inLen = matrixInput ? argT.shape.rows.extent() : argT.shape.numel();
  std::int64_t m = matrixInput ? dstType.shape.rows.extent() : dstType.shape.numel();
  bool pow2 = m != 0 && (m & (m - 1)) == 0;
  double sign = inverse ? 1.0 : -1.0;

  auto I = [](std::int64_t v) { return lir::constI(v); };
  auto iv = [](const std::string& n) { return lir::varRef(n, VType::i64()); };
  auto iAdd = [](ExprPtr a, ExprPtr b) {
    return lir::binary(BinOp::Add, std::move(a), std::move(b), VType::i64());
  };
  auto iMul = [](ExprPtr a, ExprPtr b) {
    return lir::binary(BinOp::Mul, std::move(a), std::move(b), VType::i64());
  };
  auto cLoad = [&](const std::string& arr, ExprPtr idx) {
    emitBoundsCheck(arr, idx);
    return lir::load(arr, std::move(idx), VType::c64());
  };
  auto cStore = [&](const std::string& arr, ExprPtr idx, ExprPtr v) {
    emitBoundsCheck(arr, idx);
    emit(lir::store(arr, std::move(idx), std::move(v)));
  };

  // Input storage: scalars go through a 1x1 buffer so every path below is an
  // array-to-array transform.
  std::string src;
  Scalar srcElem;
  if (argT.isScalar()) {
    src = declareArray("fftin", Scalar::C64, 1, 1);
    srcElem = Scalar::C64;
    emit(lir::store(src, I(0), coerceTo(scalarExpr(argExpr), Scalar::C64, call.loc)));
  } else {
    TensorRef ref = materializeTensor(argExpr);
    src = ref.storage;
    srcElem = lirElem(ref.type.elem);
  }

  // The radix-2 path runs in place on dst; the DFT fallback reads a padded
  // scratch copy (dst may alias src for same-shape `y = fft(y)`).
  std::string buf = dst;
  if (!pow2) buf = declareArray("fftin", Scalar::C64, m, cols);

  // Stage 1 — copy (and zero-pad or truncate) each column into `buf`.
  std::int64_t copyN = std::min(inLen, m);
  {
    std::string c = fresh("c");
    std::vector<StmtPtr> colBody;
    std::vector<StmtPtr>* saved = cur_;
    cur_ = &colBody;
    if (buf != src) {
      std::string i = fresh("i");
      std::vector<StmtPtr> body;
      std::vector<StmtPtr>* savedCol = cur_;
      cur_ = &body;
      ExprPtr v = lir::load(src, iAdd(iMul(iv(c), I(inLen)), iv(i)), VType{srcElem, 1});
      emitBoundsCheck(src, v->index);
      cStore(buf, iAdd(iMul(iv(c), I(m)), iv(i)),
             coerceTo(std::move(v), Scalar::C64, call.loc));
      cur_ = savedCol;
      emit(lir::forLoop(i, I(0), I(copyN), 1, std::move(body)));
    }
    if (m > copyN) {
      std::string i = fresh("i");
      std::vector<StmtPtr> body;
      std::vector<StmtPtr>* savedCol = cur_;
      cur_ = &body;
      cStore(buf, iAdd(iMul(iv(c), I(m)), iv(i)), lir::constC(0.0, 0.0));
      cur_ = savedCol;
      emit(lir::forLoop(i, I(copyN), I(m), 1, std::move(body)));
    }
    cur_ = saved;
    emit(lir::forLoop(c, I(0), I(cols), 1, std::move(colBody)));
  }

  if (pow2 && m >= 2) {
    // Stage 2 — twiddle table tw[k] = exp(sign*2i*pi*k/m), k = 0..m/2-1.
    std::string tw = declareArray("ffttw", Scalar::C64, 1, m / 2);
    {
      std::string k = fresh("k");
      std::vector<StmtPtr> body;
      std::vector<StmtPtr>* saved = cur_;
      cur_ = &body;
      std::string ang = fresh("ang");
      emit(lir::declScalar(
          ang, VType::f64(),
          lir::binary(BinOp::Mul, lir::constF(sign * 2.0 * 3.14159265358979323846 /
                                              static_cast<double>(m)),
                      lir::unary(UnOp::ToF64, iv(k), VType::f64()), VType::f64())));
      cStore(tw, iv(k),
             lir::binary(BinOp::MakeComplex,
                         lir::unary(UnOp::Cos, lir::varRef(ang, VType::f64()), VType::f64()),
                         lir::unary(UnOp::Sin, lir::varRef(ang, VType::f64()), VType::f64()),
                         VType::c64()));
      cur_ = saved;
      emit(lir::forLoop(k, I(0), I(m / 2), 1, std::move(body)));
    }

    std::string c = fresh("c");
    std::vector<StmtPtr> colBody;
    std::vector<StmtPtr>* savedTop = cur_;
    cur_ = &colBody;
    auto base = [&]() { return iMul(iv(c), I(m)); };

    // Stage 3 — bit-reversal permutation. LIR has no bitwise ops, so the
    // classic add-with-carry counter uses compare/subtract/divide; with the
    // invariant j <= 2*bit - 2 on entry the while always exits before
    // bit reaches zero.
    {
      std::string j = fresh("j");
      emit(lir::declScalar(j, VType::i64(), I(0)));
      std::string i = fresh("i");
      std::vector<StmtPtr> body;
      std::vector<StmtPtr>* saved = cur_;
      cur_ = &body;
      std::string bit = fresh("bit");
      emit(lir::declScalar(bit, VType::i64(), I(m / 2)));
      {
        std::vector<StmtPtr> wBody;
        wBody.push_back(lir::assign(
            j, lir::binary(BinOp::Sub, iv(j), iv(bit), VType::i64())));
        wBody.push_back(lir::assign(
            bit, lir::binary(BinOp::Div, iv(bit), I(2), VType::i64())));
        emit(lir::whileStmt(lir::binary(BinOp::Ge, iv(j), iv(bit), VType::b1()),
                            std::move(wBody)));
      }
      emit(lir::assign(j, iAdd(iv(j), iv(bit))));
      {
        std::vector<StmtPtr> thenBody;
        std::vector<StmtPtr>* savedIf = cur_;
        cur_ = &thenBody;
        std::string t = fresh("swap");
        emit(lir::declScalar(t, VType::c64(), cLoad(buf, iAdd(base(), iv(i)))));
        cStore(buf, iAdd(base(), iv(i)), cLoad(buf, iAdd(base(), iv(j))));
        cStore(buf, iAdd(base(), iv(j)), lir::varRef(t, VType::c64()));
        cur_ = savedIf;
        emit(lir::ifStmt(lir::binary(BinOp::Lt, iv(i), iv(j), VType::b1()),
                         std::move(thenBody)));
      }
      cur_ = saved;
      emit(lir::forLoop(i, I(1), I(m), 1, std::move(body)));
    }

    // Stage 4 — butterflies; the log2(m) stages unroll at compile time so
    // every loop has static bounds and a static step.
    for (std::int64_t len = 2; len <= m; len <<= 1) {
      std::int64_t half = len / 2;
      std::int64_t step = m / len;
      std::string s = fresh("s");
      std::vector<StmtPtr> sBody;
      std::vector<StmtPtr>* saved = cur_;
      cur_ = &sBody;
      std::string q = fresh("q");
      std::vector<StmtPtr> qBody;
      std::vector<StmtPtr>* savedS = cur_;
      cur_ = &qBody;
      auto p = [&]() { return iAdd(iAdd(base(), iv(s)), iv(q)); };
      std::string u = fresh("u");
      std::string v = fresh("v");
      emit(lir::declScalar(u, VType::c64(), cLoad(buf, p())));
      emit(lir::declScalar(
          v, VType::c64(),
          lir::binary(BinOp::Mul, cLoad(buf, iAdd(p(), I(half))),
                      cLoad(tw, iMul(iv(q), I(step))), VType::c64())));
      cStore(buf, p(),
             lir::binary(BinOp::Add, lir::varRef(u, VType::c64()),
                         lir::varRef(v, VType::c64()), VType::c64()));
      cStore(buf, iAdd(p(), I(half)),
             lir::binary(BinOp::Sub, lir::varRef(u, VType::c64()),
                         lir::varRef(v, VType::c64()), VType::c64()));
      cur_ = savedS;
      emit(lir::forLoop(q, I(0), I(half), 1, std::move(qBody)));
      cur_ = saved;
      emit(lir::forLoop(s, I(0), I(m), len, std::move(sBody)));
    }
    cur_ = savedTop;
    emit(lir::forLoop(c, I(0), I(cols), 1, std::move(colBody)));

    // Stage 5 — ifft scales by 1/m.
    if (inverse && m > 1) {
      std::string i = fresh("i");
      std::vector<StmtPtr> body;
      std::vector<StmtPtr>* saved = cur_;
      cur_ = &body;
      cStore(buf, iv(i),
             lir::binary(BinOp::Mul, cLoad(buf, iv(i)),
                         lir::constC(1.0 / static_cast<double>(m), 0.0), VType::c64()));
      cur_ = saved;
      emit(lir::forLoop(i, I(0), I(m * cols), 1, std::move(body)));
    }
    return;
  }

  // Non-power-of-two fallback: direct O(m^2) DFT per column from the padded
  // scratch copy (never in place).
  if (m == 0) return;
  {
    std::string c = fresh("c");
    std::vector<StmtPtr> colBody;
    std::vector<StmtPtr>* savedTop = cur_;
    cur_ = &colBody;
    std::string k = fresh("k");
    std::vector<StmtPtr> kBody;
    std::vector<StmtPtr>* savedCol = cur_;
    cur_ = &kBody;
    std::string acc = fresh("acc");
    emit(lir::declScalar(acc, VType::c64(), lir::constC(0.0, 0.0)));
    {
      std::string t = fresh("t");
      std::vector<StmtPtr> tBody;
      std::vector<StmtPtr>* savedK = cur_;
      cur_ = &tBody;
      std::string ang = fresh("ang");
      emit(lir::declScalar(
          ang, VType::f64(),
          lir::binary(BinOp::Mul, lir::constF(sign * 2.0 * 3.14159265358979323846 /
                                              static_cast<double>(m)),
                      lir::unary(UnOp::ToF64, iMul(iv(k), iv(t)), VType::f64()),
                      VType::f64())));
      ExprPtr w = lir::binary(
          BinOp::MakeComplex,
          lir::unary(UnOp::Cos, lir::varRef(ang, VType::f64()), VType::f64()),
          lir::unary(UnOp::Sin, lir::varRef(ang, VType::f64()), VType::f64()),
          VType::c64());
      emit(lir::assign(
          acc, lir::binary(BinOp::Add, lir::varRef(acc, VType::c64()),
                           lir::binary(BinOp::Mul,
                                       cLoad(buf, iAdd(iMul(iv(c), I(m)), iv(t))),
                                       std::move(w), VType::c64()),
                           VType::c64())));
      cur_ = savedK;
      emit(lir::forLoop(t, I(0), I(m), 1, std::move(tBody)));
    }
    ExprPtr result = lir::varRef(acc, VType::c64());
    if (inverse) {
      result = lir::binary(BinOp::Mul, std::move(result),
                           lir::constC(1.0 / static_cast<double>(m), 0.0), VType::c64());
    }
    cStore(dst, iAdd(iMul(iv(c), I(m)), iv(k)), std::move(result));
    cur_ = savedCol;
    emit(lir::forLoop(k, I(0), I(m), 1, std::move(kBody)));
    cur_ = savedTop;
    emit(lir::forLoop(c, I(0), I(cols), 1, std::move(colBody)));
  }
}

void Lowerer::emitTensorAssign(const std::string& dst, const Type& dstType, const Expr& rhs) {
  knownNumel(dstType.shape, rhs.loc, "assignment target");
  switch (rhs.kind) {
    case NodeKind::Ident: {
      const auto& id = static_cast<const Ident&>(rhs);
      Binding* b = findBinding(id.name);
      if (b) {
        emitCopyLoop(dst, b->storage, dstType.shape.numel(), lirElem(dstType.elem),
                     lirElem(b->type.elem));
        return;
      }
      if (const Function* fnAst = program_.findFunction(id.name)) {
        auto outs = inlineCall(*fnAst, {}, 1, rhs.loc);
        emitCopyLoop(dst, outs[0].storage, dstType.shape.numel(), lirElem(dstType.elem),
                     lirElem(outs[0].type.elem));
        return;
      }
      fail(rhs.loc, "undefined variable '" + id.name + "'");
    }
    case NodeKind::MatrixLit:
      emitMatrixLit(dst, dstType, static_cast<const MatrixLit&>(rhs));
      return;
    case NodeKind::Range:
      emitRangeFill(dst, static_cast<const Range&>(rhs), dstType.shape.numel());
      return;
    case NodeKind::Transpose: {
      const auto& t = static_cast<const Transpose&>(rhs);
      Type opT = typeOf(*t.operand);
      if (opT.isScalar()) break;  // scalar transpose is elementwise-ish
      emitTranspose(dst, dstType, t);
      return;
    }
    case NodeKind::Binary: {
      const auto& b = static_cast<const Binary&>(rhs);
      if (b.op == BinaryOp::MatMul) {
        Type lt = typeOf(*b.lhs);
        Type rt = typeOf(*b.rhs);
        if (!lt.isScalar() && !rt.isScalar()) {
          emitMatMul(dst, dstType, b);
          return;
        }
      }
      break;  // elementwise
    }
    case NodeKind::CallIndex: {
      const auto& call = static_cast<const CallIndex&>(rhs);
      if (call.base->kind != NodeKind::Ident)
        fail(rhs.loc, "indexing a computed expression is not supported");
      const std::string& name = static_cast<const Ident&>(*call.base).name;
      if (Binding* b = findBinding(name)) {
        emitSliceRead(dst, dstType, call, *b);
        return;
      }
      if (const Function* fnAst = program_.findFunction(name)) {
        auto outs = inlineCall(*fnAst, call.args, 1, rhs.loc);
        emitCopyLoop(dst, outs[0].storage, dstType.shape.numel(), lirElem(dstType.elem),
                     lirElem(outs[0].type.elem));
        return;
      }
      auto info = sema::findCompilableBuiltin(name);
      if (!info) fail(rhs.loc, "'" + name + "' is not compilable");
      switch (info->kind) {
        case sema::BuiltinKind::Constructor: {
          std::int64_t n = dstType.shape.numel();
          Scalar dstElem = lirElem(dstType.elem);
          if (name == "zeros") {
            emitFill(dst, n, coerceTo(lir::constF(0.0), dstElem, rhs.loc));
            return;
          }
          if (name == "ones") {
            emitFill(dst, n, coerceTo(lir::constF(1.0), dstElem, rhs.loc));
            return;
          }
          if (name == "eye") {
            emitEye(dst, dstType.shape.rows.extent(), dstType.shape.cols.extent());
            return;
          }
          if (name == "linspace") {
            ExprPtr a = coerceTo(hoistScalar(*call.args.at(0)), Scalar::F64, rhs.loc);
            ExprPtr bb = coerceTo(hoistScalar(*call.args.at(1)), Scalar::F64, rhs.loc);
            double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
            std::string stepVar = fresh("d");
            emit(lir::declScalar(
                stepVar, VType::f64(),
                lir::binary(BinOp::Div,
                            lir::binary(BinOp::Sub, std::move(bb), a->clone(), VType::f64()),
                            lir::constF(denom), VType::f64())));
            std::string idx = fresh("i");
            std::vector<StmtPtr> body;
            ExprPtr iF =
                lir::unary(UnOp::ToF64, lir::varRef(idx, VType::i64()), VType::f64());
            ExprPtr value = lir::binary(
                BinOp::Add, std::move(a),
                lir::binary(BinOp::Mul, std::move(iF), lir::varRef(stepVar, VType::f64()),
                            VType::f64()),
                VType::f64());
            body.push_back(lir::store(dst, lir::varRef(idx, VType::i64()),
                                      coerceTo(std::move(value), dstElem, rhs.loc)));
            emit(lir::forLoop(idx, lir::constI(0), lir::constI(n), 1, std::move(body)));
            return;
          }
          fail(rhs.loc, "unhandled constructor '" + name + "'");
        }
        case sema::BuiltinKind::Transform:
          emitFft(dst, dstType, call, name == "ifft");
          return;

        case sema::BuiltinKind::Reduction:
        case sema::BuiltinKind::MinMax: {
          // Tensor-valued reduction = column reduction of a matrix.
          Type argT = typeOf(*call.args.at(0));
          if (info->kind == sema::BuiltinKind::MinMax && call.args.size() == 2)
            break;  // elementwise two-arg form
          if (argT.shape.isVector())
            fail(rhs.loc, "internal: vector reduction should be scalar-typed");
          emitColumnReduction(dst, name, call, argT);
          return;
        }
        default:
          break;  // elementwise builtins fall through
      }
      break;
    }
    default:
      break;
  }
  emitElementwiseLoop(dst, dstType, rhs);
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

std::vector<Lowerer::TensorRef> Lowerer::inlineCall(const Function& callee,
                                                    const std::vector<ast::ExprPtr>& args,
                                                    std::size_t nOut, SourceLoc loc) {
  if (++inlineDepth_ > 32) {
    fail(loc, "function call nesting too deep while inlining '" + callee.name +
                  "' (recursion is not supported)");
  }
  if (args.size() != callee.params.size())
    fail(loc, "'" + callee.name + "' expects " + std::to_string(callee.params.size()) +
                  " arguments, got " + std::to_string(args.size()));
  if (nOut > callee.outs.size())
    fail(loc, "'" + callee.name + "' returns " + std::to_string(callee.outs.size()) +
                  " outputs, " + std::to_string(nOut) + " requested");

  // Evaluate arguments in the caller's scope.
  struct ArgBinding {
    Type type;
    std::string storage;
  };
  std::vector<ArgBinding> argBindings;
  for (std::size_t i = 0; i < args.size(); ++i) {
    Type at = typeOf(*args[i]);
    if (at.isScalar()) {
      ExprPtr v = scalarExpr(*args[i]);
      std::string tmp = fresh("arg");
      VType t = v->type;
      if (t.scalar == Scalar::B1) {
        v = coerceTo(std::move(v), Scalar::F64, loc);
        t = VType::f64();
      }
      emit(lir::declScalar(tmp, t, std::move(v)));
      Type st = at;
      st.elem = t.scalar == Scalar::C64 ? Elem::Complex : Elem::Real;
      argBindings.push_back({st, tmp});
    } else {
      TensorRef ref = materializeTensor(*args[i]);
      // MATLAB value semantics: copy when the callee writes the parameter.
      if (assignsTo(callee.body, callee.params[i])) {
        std::string copy = declareArray(callee.params[i] + "_copy", lirElem(ref.type.elem),
                                        ref.type.shape.rows.extent(),
                                        ref.type.shape.cols.extent());
        emitCopyLoop(copy, ref.storage, ref.type.shape.numel(), lirElem(ref.type.elem),
                     lirElem(ref.type.elem));
        ref.storage = copy;
      }
      argBindings.push_back({ref.type, ref.storage});
    }
  }

  // New scope for the callee frame.
  scopes_.emplace_back();
  for (std::size_t i = 0; i < args.size(); ++i) {
    env().vars[callee.params[i]] = argBindings[i].type;
    scope().vars[callee.params[i]] =
        Binding{argBindings[i].type, argBindings[i].storage, false, {}, {}};
  }
  declareFrameVars(inferFrame(callee.body), loc);
  lowerStmts(callee.body);

  std::vector<TensorRef> outs;
  for (std::size_t i = 0; i < std::max<std::size_t>(nOut, 1) && i < callee.outs.size(); ++i) {
    Binding* b = findBinding(callee.outs[i]);
    if (!b) fail(loc, "output '" + callee.outs[i] + "' of '" + callee.name +
                          "' is never assigned");
    outs.push_back({b->storage, b->type});
  }
  scopes_.pop_back();
  --inlineDepth_;
  return outs;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Lowerer::lowerStmts(const std::vector<ast::StmtPtr>& body) {
  for (const auto& s : body) lowerStmt(*s);
}

void Lowerer::lowerStmt(const Stmt& s) {
  // Lowering a compound statement moves env() through its bodies; its exit
  // env is the one the frame pass recorded.
  switch (s.kind) {
    case NodeKind::Assign:
      lowerAssign(static_cast<const Assign&>(s));
      break;
    case NodeKind::ExprStmt:
      // Expression statements have no observable effect in the compiled
      // subset (no globals, no I/O); type-check and drop.
      break;
    case NodeKind::If:
      lowerIf(static_cast<const If&>(s));
      env() = std::move(exitEnv(s));
      return;
    case NodeKind::For:
      lowerFor(static_cast<const For&>(s));
      env() = std::move(exitEnv(s));
      return;
    case NodeKind::While:
      lowerWhile(static_cast<const While&>(s));
      env() = std::move(exitEnv(s));
      return;
    case NodeKind::Switch:
      lowerSwitch(static_cast<const Switch&>(s));
      env() = std::move(exitEnv(s));
      return;
    case NodeKind::Break:
      emit(lir::breakStmt());
      break;
    case NodeKind::Continue:
      emit(lir::continueStmt());
      break;
    case NodeKind::Return:
      fail(s.loc, "'return' is not supported in compiled functions");
    default:
      fail(s.loc, "unsupported statement in compiled code");
  }
  // A simple statement only reads env() while it lowers; one inference
  // step takes the env past it (joins, const lattice) exactly as sema does.
  types_.processStmt(s, env());
}

void Lowerer::lowerScalarAssignTo(Binding& b, const Expr& rhs) {
  ExprPtr v = scalarExpr(rhs);
  v = coerceTo(std::move(v), lirElem(b.type.elem), rhs.loc);
  emit(lir::assign(b.storage, std::move(v)));
}

void Lowerer::lowerIndexedAssign(const LValue& target, const Expr& rhs) {
  Binding* b = findBinding(target.name);
  if (!b) fail(target.loc, "indexed assignment to undeclared variable '" + target.name + "'");
  if (b->type.isScalar())
    fail(target.loc, "cannot index a scalar variable '" + target.name + "'");
  Type rhsType = typeOf(rhs);

  // All-scalar indices: a single element store.
  bool allScalar = true;
  for (const auto& a : target.indices) {
    if (a->kind == NodeKind::Colon || a->kind == NodeKind::Range) {
      allScalar = false;
      break;
    }
    sema::Dim extent = target.indices.size() == 1
                           ? (b->type.shape.isKnown() ? Dim::of(b->type.shape.numel())
                                                      : Dim::dynamic())
                           : (&a == &target.indices[0] ? b->type.shape.rows
                                                       : b->type.shape.cols);
    if (!(types_.indexCount(*a, env(), extent) == Dim::of(1))) {
      allScalar = false;
      break;
    }
  }
  if (allScalar) {
    if (!rhsType.isScalar()) fail(target.loc, "assigning a vector to a single element");
    ExprPtr lin = linearIndex(target.indices, b->type.shape, target.loc);
    emitBoundsCheck(b->storage, lin);
    ExprPtr v = coerceTo(scalarExpr(rhs), lirElem(b->type.elem), rhs.loc);
    emit(lir::store(b->storage, std::move(lin), std::move(v)));
    return;
  }

  // Slice write.
  if (target.indices.size() != 1)
    fail(target.loc, "2-D slice assignment is not supported (use loops)");
  Dim ext = b->type.shape.isKnown() ? Dim::of(b->type.shape.numel()) : Dim::dynamic();
  SliceSel s = resolveSlice(*target.indices[0], ext, target.loc);
  std::string startVar = fresh("st");
  emit(lir::declScalar(startVar, VType::i64(), std::move(s.start)));

  if (rhsType.isScalar()) {
    ExprPtr v = coerceTo(hoistScalar(rhs), lirElem(b->type.elem), rhs.loc);
    std::string idx = fresh("i");
    std::vector<StmtPtr> body;
    std::vector<StmtPtr>* saved = cur_;
    cur_ = &body;
    ExprPtr pos = lir::binary(
        BinOp::Add, lir::varRef(startVar, VType::i64()),
        lir::binary(BinOp::Mul, lir::varRef(idx, VType::i64()), lir::constI(s.step),
                    VType::i64()),
        VType::i64());
    emitBoundsCheck(b->storage, pos);
    emit(lir::store(b->storage, std::move(pos), std::move(v)));
    cur_ = saved;
    emit(lir::forLoop(idx, lir::constI(0), lir::constI(s.count), 1, std::move(body)));
    return;
  }

  if (!rhsType.shape.isKnown() || rhsType.shape.numel() != s.count)
    fail(target.loc, "slice assignment size mismatch");
  TensorRef src = materializeTensor(rhs);
  std::string idx = fresh("i");
  std::vector<StmtPtr> body;
  std::vector<StmtPtr>* saved = cur_;
  cur_ = &body;
  ExprPtr loadIdx = lir::varRef(idx, VType::i64());
  emitBoundsCheck(src.storage, loadIdx);
  ExprPtr v = lir::load(src.storage, std::move(loadIdx), {lirElem(src.type.elem), 1});
  v = coerceTo(std::move(v), lirElem(b->type.elem), rhs.loc);
  ExprPtr pos = lir::binary(
      BinOp::Add, lir::varRef(startVar, VType::i64()),
      lir::binary(BinOp::Mul, lir::varRef(idx, VType::i64()), lir::constI(s.step),
                  VType::i64()),
      VType::i64());
  emitBoundsCheck(b->storage, pos);
  emit(lir::store(b->storage, std::move(pos), std::move(v)));
  cur_ = saved;
  emit(lir::forLoop(idx, lir::constI(0), lir::constI(s.count), 1, std::move(body)));
}

void Lowerer::lowerAssign(const Assign& s) {
  if (s.targets.size() == 1) {
    const LValue& t = s.targets[0];
    if (!t.indices.empty()) {
      lowerIndexedAssign(t, *s.rhs);
      return;
    }
    Binding* b = findBinding(t.name);
    if (!b) fail(t.loc, "internal: no storage for variable '" + t.name + "'");
    Type rhsType = typeOf(*s.rhs);
    if (rhsType.isScalar()) {
      if (!b->type.isScalar())
        fail(t.loc, "variable '" + t.name + "' changes shape (scalar vs array)");
      lowerScalarAssignTo(*b, *s.rhs);
      b->intAlias = tryIntAffine(*s.rhs);
      return;
    }
    if (b->type.isScalar())
      fail(t.loc, "variable '" + t.name + "' changes shape (array vs scalar)");
    if (!(rhsType.shape == b->type.shape))
      fail(t.loc, "variable '" + t.name + "' changes shape between assignments");
    Type dstType = b->type;
    emitTensorAssign(b->storage, dstType, *s.rhs);
    return;
  }

  // Multi-assignment.
  if (s.rhs->kind != NodeKind::CallIndex)
    fail(s.loc, "multi-assignment requires a function call");
  const auto& call = static_cast<const CallIndex&>(*s.rhs);
  if (call.base->kind != NodeKind::Ident) fail(s.loc, "unsupported multi-assignment");
  const std::string& name = static_cast<const Ident&>(*call.base).name;

  auto assignScalarOut = [&](const LValue& t, ExprPtr v) {
    Binding* b = findBinding(t.name);
    if (!b) fail(t.loc, "internal: no storage for '" + t.name + "'");
    emit(lir::assign(b->storage, coerceTo(std::move(v), lirElem(b->type.elem), t.loc)));
  };

  if (const Function* fnAst = program_.findFunction(name)) {
    auto outs = inlineCall(*fnAst, call.args, s.targets.size(), s.loc);
    for (std::size_t i = 0; i < s.targets.size(); ++i) {
      const LValue& t = s.targets[i];
      if (!t.indices.empty())
        fail(t.loc, "indexed targets in multi-assignment are not supported");
      Binding* b = findBinding(t.name);
      if (!b) fail(t.loc, "internal: no storage for '" + t.name + "'");
      if (outs[i].type.isScalar()) {
        emit(lir::assign(b->storage,
                         coerceTo(lir::varRef(outs[i].storage,
                                              {lirElem(outs[i].type.elem), 1}),
                                  lirElem(b->type.elem), t.loc)));
      } else {
        emitCopyLoop(b->storage, outs[i].storage, outs[i].type.shape.numel(),
                     lirElem(b->type.elem), lirElem(outs[i].type.elem));
      }
    }
    return;
  }

  if (name == "size" && call.args.size() == 1 && s.targets.size() == 2) {
    Type t = typeOf(*call.args[0]);
    knownNumel(t.shape, s.loc, "size argument");
    assignScalarOut(s.targets[0],
                    lir::constF(static_cast<double>(t.shape.rows.extent())));
    assignScalarOut(s.targets[1],
                    lir::constF(static_cast<double>(t.shape.cols.extent())));
    return;
  }

  if ((name == "min" || name == "max") && call.args.size() == 1 && s.targets.size() == 2) {
    // [value, index] = min/max(vector): fold with index tracking.
    const Expr& arg = *call.args[0];
    Type argT = typeOf(arg);
    if (!argT.shape.isVector() || !argT.shape.isKnown() || argT.elem == Elem::Complex)
      fail(s.loc, "[v,i] = min/max needs a static real vector");
    std::int64_t n = argT.shape.numel();
    std::string idx = fresh("i");
    std::string best = fresh("best");
    std::string bestIdx = fresh("bi");
    ExprPtr gen = coerceTo(scalarize(arg, idx, argT.shape), Scalar::F64, s.loc);
    emit(lir::declScalar(idx, VType::i64(), lir::constI(0)));
    {
      std::vector<StmtPtr> initChecks;
      appendLoadChecks(*gen, initChecks);
      for (auto& c : initChecks) emit(std::move(c));
    }
    emit(lir::declScalar(best, VType::f64(), gen->clone()));
    emit(lir::declScalar(bestIdx, VType::f64(), lir::constF(1.0)));
    std::vector<StmtPtr> body;
    std::vector<StmtPtr>* saved = cur_;
    cur_ = &body;
    appendLoadChecks(*gen, body);
    std::string t = fresh("v");
    emit(lir::declScalar(t, VType::f64(), gen->clone()));
    ExprPtr better =
        lir::binary(name == "min" ? BinOp::Lt : BinOp::Gt, lir::varRef(t, VType::f64()),
                    lir::varRef(best, VType::f64()), VType::b1());
    std::vector<StmtPtr> thenBody;
    thenBody.push_back(lir::assign(best, lir::varRef(t, VType::f64())));
    thenBody.push_back(lir::assign(
        bestIdx, lir::binary(BinOp::Add,
                             lir::unary(UnOp::ToF64, lir::varRef(idx, VType::i64()),
                                        VType::f64()),
                             lir::constF(1.0), VType::f64())));
    emit(lir::ifStmt(std::move(better), std::move(thenBody)));
    cur_ = saved;
    emit(lir::forLoop(idx, lir::constI(1), lir::constI(n), 1, std::move(body)));
    assignScalarOut(s.targets[0], lir::varRef(best, VType::f64()));
    assignScalarOut(s.targets[1], lir::varRef(bestIdx, VType::f64()));
    return;
  }

  fail(s.loc, "unsupported multi-assignment call '" + name + "'");
}

void Lowerer::lowerFor(const For& s) {
  if (s.range->kind != NodeKind::Range)
    fail(s.loc, "for-loops must iterate over a range (a:b or a:s:b) in compiled code");
  const auto& rng = static_cast<const Range&>(*s.range);

  auto startC = constOf(*rng.start);
  auto stepC = rng.step ? constOf(*rng.step) : std::optional<double>(1.0);
  auto stopC = constOf(*rng.stop);
  auto isInt = [](std::optional<double> v) { return v && *v == std::floor(*v); };

  // The body is lowered in the loop's fixpoint env (accumulator promotions
  // etc.), which is also its exit env: the loop variable a real scalar.
  env() = exitEnv(s);

  Binding* vb = findBinding(s.var);
  if (!vb) {
    // Loop variable never mentioned after the loop — still needs storage.
    std::string storage = fresh(s.var);
    emit(lir::declScalar(storage, VType::f64()));
    scope().vars[s.var] = Binding{sema::Type::realScalar(), storage, false, {}, {}};
    vb = findBinding(s.var);
  }

  // Integer lo/step with a *dynamic* stop still gets an i64 induction
  // variable (affine indexing, vectorization); the exclusive bound is
  // computed at run time and MATLAB's final-iterate semantics are preserved
  // with a guarded post-loop assignment.
  if (isInt(startC) && isInt(stepC) && *stepC != 0.0 && !stopC) {
    auto lo = static_cast<std::int64_t>(*startC);
    auto st = static_cast<std::int64_t>(*stepC);
    ExprPtr stopF = coerceTo(hoistScalar(*rng.stop), Scalar::F64, s.loc);
    ExprPtr hiExcl;
    if (st > 0) {
      hiExcl = lir::binary(BinOp::Add,
                           lir::unary(UnOp::ToI64,
                                      lir::unary(UnOp::Floor, std::move(stopF), VType::f64()),
                                      VType::i64()),
                           lir::constI(1), VType::i64());
    } else {
      hiExcl = lir::binary(BinOp::Sub,
                           lir::unary(UnOp::ToI64,
                                      lir::unary(UnOp::Ceil, std::move(stopF), VType::f64()),
                                      VType::i64()),
                           lir::constI(1), VType::i64());
    }
    std::string hiVar = fresh(s.var + "_hi");
    emit(lir::declScalar(hiVar, VType::i64(), std::move(hiExcl)));

    std::string iv = fresh(s.var + "_i");
    Binding save;
    save.type = vb->type;
    save.storage = vb->storage;
    vb->induction = true;
    vb->inductionVar = iv;
    vb->intAlias.reset();

    std::vector<StmtPtr> body;
    std::vector<StmtPtr>* saved = cur_;
    cur_ = &body;
    lowerStmts(s.body);
    cur_ = saved;
    emit(lir::forLoop(iv, lir::constI(lo), lir::varRef(hiVar, VType::i64()), st,
                      std::move(body)));

    {
      Binding& vb2 = *findBinding(s.var);
      vb2.type = save.type;
      vb2.storage = save.storage;
      vb2.induction = false;
      vb2.inductionVar.clear();
      vb2.intAlias.reset();
    }
    for (auto& [name, bind] : scope().vars) {
      if (bind.intAlias) {
        lir::Affine a = lir::affineOf(*bind.intAlias);
        if (!a.ok || a.coeff(iv) != 0) bind.intAlias.reset();
      }
    }
    // Final-iterate value: lo + ((hi - sgn(st) - lo) / st) * st, assigned
    // only when the loop executed at least once.
    ExprPtr ranCond = lir::binary(st > 0 ? BinOp::Gt : BinOp::Lt,
                                  lir::varRef(hiVar, VType::i64()), lir::constI(lo),
                                  VType::b1());
    ExprPtr numer = lir::binary(
        BinOp::Sub,
        lir::binary(BinOp::Sub, lir::varRef(hiVar, VType::i64()),
                    lir::constI(st > 0 ? 1 : -1), VType::i64()),
        lir::constI(lo), VType::i64());
    ExprPtr q = lir::binary(BinOp::Div, std::move(numer), lir::constI(st), VType::i64());
    ExprPtr last = lir::binary(
        BinOp::Add, lir::constI(lo),
        lir::binary(BinOp::Mul, std::move(q), lir::constI(st), VType::i64()), VType::i64());
    std::vector<StmtPtr> thenBody;
    thenBody.push_back(
        lir::assign(save.storage, lir::unary(UnOp::ToF64, std::move(last), VType::f64())));
    emit(lir::ifStmt(std::move(ranCond), std::move(thenBody)));
    return;
  }

  if (isInt(startC) && isInt(stepC) && isInt(stopC) && *stepC != 0.0) {
    auto lo = static_cast<std::int64_t>(*startC);
    auto st = static_cast<std::int64_t>(*stepC);
    auto hiIncl = static_cast<std::int64_t>(*stopC);
    std::int64_t hiExcl = st > 0 ? hiIncl + 1 : hiIncl - 1;

    std::string iv = fresh(s.var + "_i");
    Binding save;
    save.type = vb->type;
    save.storage = vb->storage;
    vb->induction = true;
    vb->inductionVar = iv;
    vb->intAlias.reset();

    std::vector<StmtPtr> body;
    std::vector<StmtPtr>* saved = cur_;
    cur_ = &body;
    lowerStmts(s.body);
    cur_ = saved;
    emit(lir::forLoop(iv, lir::constI(lo), lir::constI(hiExcl), st, std::move(body)));

    {
      Binding& vb2 = *findBinding(s.var);
      vb2.type = save.type;
      vb2.storage = save.storage;
      vb2.induction = false;
      vb2.inductionVar.clear();
      vb2.intAlias.reset();
    }  // drop the induction binding after the loop
    // Aliases built inside the body may reference the now-dead counter.
    for (auto& [name, bind] : scope().vars) {
      if (bind.intAlias) {
        lir::Affine a = lir::affineOf(*bind.intAlias);
        if (!a.ok || a.coeff(iv) != 0) bind.intAlias.reset();
      }
    }
    // MATLAB leaves the loop variable at its final iterate (when the loop
    // ran); the bounds are constants here, so materialize it directly.
    std::int64_t trips = (hiIncl - lo) / st + 1;
    if (trips > 0) {
      std::int64_t last = lo + (trips - 1) * st;
      emit(lir::assign(save.storage, lir::constF(static_cast<double>(last))));
    }
    return;
  }

  // General (non-integer / dynamic) range: iterate a computed trip count.
  ExprPtr startV = coerceTo(hoistScalar(*rng.start), Scalar::F64, s.loc);
  ExprPtr stepV = rng.step ? coerceTo(hoistScalar(*rng.step), Scalar::F64, s.loc)
                           : lir::constF(1.0);
  ExprPtr stopV = coerceTo(hoistScalar(*rng.stop), Scalar::F64, s.loc);
  std::string stepVar = fresh("step");
  emit(lir::declScalar(stepVar, VType::f64(), std::move(stepV)));
  std::string startVar = fresh("start");
  emit(lir::declScalar(startVar, VType::f64(), std::move(startV)));
  // trip = max(floor((stop - start) / step + 1), 0)
  ExprPtr span = lir::binary(BinOp::Sub, std::move(stopV),
                             lir::varRef(startVar, VType::f64()), VType::f64());
  ExprPtr ratio = lir::binary(BinOp::Div, std::move(span),
                              lir::varRef(stepVar, VType::f64()), VType::f64());
  ExprPtr trip = lir::unary(
      UnOp::Floor,
      lir::binary(BinOp::Add, std::move(ratio), lir::constF(1.0 + 1e-10), VType::f64()),
      VType::f64());
  trip = lir::binary(BinOp::Max, std::move(trip), lir::constF(0.0), VType::f64());
  std::string tripVar = fresh("trip");
  emit(lir::declScalar(tripVar, VType::i64(),
                       lir::unary(UnOp::ToI64, std::move(trip), VType::i64())));

  std::string iv = fresh("it");
  std::vector<StmtPtr> body;
  std::vector<StmtPtr>* saved = cur_;
  cur_ = &body;
  ExprPtr kVal = lir::binary(
      BinOp::Add, lir::varRef(startVar, VType::f64()),
      lir::binary(BinOp::Mul,
                  lir::unary(UnOp::ToF64, lir::varRef(iv, VType::i64()), VType::f64()),
                  lir::varRef(stepVar, VType::f64()), VType::f64()),
      VType::f64());
  emit(lir::assign(vb->storage, std::move(kVal)));
  lowerStmts(s.body);
  cur_ = saved;
  emit(lir::forLoop(iv, lir::constI(0), lir::varRef(tripVar, VType::i64()), 1,
                    std::move(body)));
}

void Lowerer::lowerIf(const If& s) {
  clearIntAliases();  // values assigned under a condition are not affine facts
  // Recursive chain: if / elseif... / else. Every branch is lowered from
  // the statement's entry env (lowerStmt then takes its exit env).
  std::function<StmtPtr(std::size_t)> build = [&](std::size_t i) -> StmtPtr {
    std::optional<sema::Env> entry;
    if (i + 1 < s.branches.size() || !s.elseBody.empty()) entry = env();
    ExprPtr cond = lowerCond(*s.branches[i].cond);

    std::vector<StmtPtr> thenBody;
    std::vector<StmtPtr>* saved = cur_;
    cur_ = &thenBody;
    lowerStmts(s.branches[i].body);
    cur_ = saved;

    std::vector<StmtPtr> elseBody;
    if (i + 1 < s.branches.size()) {
      cur_ = &elseBody;
      env() = std::move(*entry);
      StmtPtr chained = build(i + 1);
      cur_ = saved;
      elseBody.push_back(std::move(chained));
    } else if (!s.elseBody.empty()) {
      cur_ = &elseBody;
      env() = std::move(*entry);
      lowerStmts(s.elseBody);
      cur_ = saved;
    }
    clearIntAliases();
    return lir::ifStmt(std::move(cond), std::move(thenBody), std::move(elseBody));
  };
  emit(build(0));
}

void Lowerer::lowerWhile(const While& s) {
  // Fixpoint (exit) env first so accumulators keep stable storage types.
  env() = exitEnv(s);

  clearIntAliases();
  ExprPtr cond = lowerCond(*s.cond);
  std::vector<StmtPtr> body;
  std::vector<StmtPtr>* saved = cur_;
  cur_ = &body;
  lowerStmts(s.body);
  cur_ = saved;
  clearIntAliases();
  emit(lir::whileStmt(std::move(cond), std::move(body)));
}

void Lowerer::lowerSwitch(const Switch& s) {
  clearIntAliases();
  ExprPtr subj = hoistScalar(*s.subject);
  Scalar subjElem = subj->type.scalar;
  VType subjT{subjElem, 1};
  // Name the subject so every case compares the same temp.
  std::string subjVar = fresh("sw");
  emit(lir::declScalar(subjVar, subjT, std::move(subj)));

  // Every case is lowered from the statement's entry env (lowerStmt then
  // takes its exit env).
  std::function<StmtPtr(std::size_t)> build = [&](std::size_t i) -> StmtPtr {
    std::optional<sema::Env> entry;
    if (i + 1 < s.cases.size() || !s.otherwise.empty()) entry = env();
    const auto& c = s.cases[i];

    auto caseCond = [&](const Expr& value) -> ExprPtr {
      ExprPtr v = scalarExpr(value);
      Scalar elem;
      auto [a, b] = promotePair(lir::varRef(subjVar, subjT), std::move(v), elem, s.loc);
      return lir::binary(BinOp::Eq, std::move(a), std::move(b), VType::b1());
    };

    ExprPtr cond;
    if (c.value->kind == NodeKind::MatrixLit) {
      const auto& lit = static_cast<const MatrixLit&>(*c.value);
      for (const auto& row : lit.rows) {
        for (const auto& el : row) {
          ExprPtr one = caseCond(*el);
          cond = cond ? lir::binary(BinOp::Or, std::move(cond), std::move(one), VType::b1())
                      : std::move(one);
        }
      }
      if (!cond) cond = lir::binary(BinOp::Ne, lir::constF(0.0), lir::constF(0.0),
                                    VType::b1());
    } else {
      cond = caseCond(*c.value);
    }

    std::vector<StmtPtr> thenBody;
    std::vector<StmtPtr>* saved = cur_;
    cur_ = &thenBody;
    lowerStmts(c.body);
    cur_ = saved;

    std::vector<StmtPtr> elseBody;
    if (i + 1 < s.cases.size()) {
      cur_ = &elseBody;
      env() = std::move(*entry);
      StmtPtr chained = build(i + 1);
      cur_ = saved;
      elseBody.push_back(std::move(chained));
    } else if (!s.otherwise.empty()) {
      cur_ = &elseBody;
      env() = std::move(*entry);
      lowerStmts(s.otherwise);
      cur_ = saved;
    }
    return lir::ifStmt(std::move(cond), std::move(thenBody), std::move(elseBody));
  };
  if (s.cases.empty()) {
    lowerStmts(s.otherwise);
    return;
  }
  emit(build(0));
}

}  // namespace

lir::Function lowerProgram(const Program& program, const std::string& entry,
                           const std::vector<sema::ArgSpec>& args, const LowerOptions& options,
                           DiagnosticEngine& diags) {
  Lowerer lowerer(program, options, diags);
  return lowerer.lower(entry, args);
}

}  // namespace mat2c::lower
