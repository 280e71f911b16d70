#include "interp/interpreter.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace mat2c {

using namespace ast;

/// What one name in a body refers to: its variable slot, and the user
/// function or builtin a use of the name calls while the slot is unbound.
struct Interpreter::Name {
  const std::string* text = nullptr;
  std::uint32_t slot = 0;
  const Function* function = nullptr;
  const BuiltinFn* builtin = nullptr;
};

/// The names of one function body (or the script body), resolved once.
struct Interpreter::Scope {
  Scope(const Program& program, const Function* fn) : program(program) {
    if (fn) {
      for (const auto& p : fn->params) params.push_back(slotFor(p));
      for (const auto& o : fn->outs) outs.push_back(slotFor(o));
    }
    walkBlock(fn ? fn->body : program.scriptBody);
    // Open addressing over node addresses, at most half full.
    std::size_t size = 2;
    while (size < 2 * found.size()) size *= 2;
    table.resize(size);
    mask = size - 1;
    for (const auto& entry : found) {
      std::size_t i = hash(entry.first);
      while (table[i].first) i = (i + 1) & mask;
      table[i] = entry;
    }
    found = {};
    slotOf = {};
  }

  /// The Name of an Ident, LValue or For node of this body.
  const Name& operator[](const void* node) const {
    std::size_t i = hash(node);
    while (table[i].first != node) i = (i + 1) & mask;
    return table[i].second;
  }

  std::vector<std::string> slotNames;
  std::vector<std::uint32_t> params;  // parameter slots, in order
  std::vector<std::uint32_t> outs;    // output slots, in order

 private:
  std::uint32_t slotFor(const std::string& name) {
    auto [it, fresh] = slotOf.try_emplace(name, static_cast<std::uint32_t>(slotNames.size()));
    if (fresh) slotNames.push_back(name);
    return it->second;
  }

  void bind(const void* node, const std::string& name) {
    Name n;
    n.text = &name;
    n.slot = slotFor(name);
    n.function = program.findFunction(name);
    auto bit = builtinRuntime().find(name);
    if (bit != builtinRuntime().end()) n.builtin = &bit->second;
    found.emplace_back(node, n);
  }

  void walkBlock(const std::vector<StmtPtr>& body) {
    for (const auto& s : body) walkStmt(*s);
  }

  void walkStmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case NodeKind::Assign: {
        const auto& s = static_cast<const Assign&>(stmt);
        for (const auto& t : s.targets) {
          bind(&t, t.name);
          for (const auto& i : t.indices) walkExpr(*i);
        }
        walkExpr(*s.rhs);
        return;
      }
      case NodeKind::ExprStmt:
        walkExpr(*static_cast<const ExprStmt&>(stmt).expr);
        return;
      case NodeKind::If: {
        const auto& s = static_cast<const If&>(stmt);
        for (const auto& b : s.branches) {
          walkExpr(*b.cond);
          walkBlock(b.body);
        }
        walkBlock(s.elseBody);
        return;
      }
      case NodeKind::For: {
        const auto& s = static_cast<const For&>(stmt);
        bind(&s, s.var);
        walkExpr(*s.range);
        walkBlock(s.body);
        return;
      }
      case NodeKind::While: {
        const auto& s = static_cast<const While&>(stmt);
        walkExpr(*s.cond);
        walkBlock(s.body);
        return;
      }
      case NodeKind::Switch: {
        const auto& s = static_cast<const Switch&>(stmt);
        walkExpr(*s.subject);
        for (const auto& c : s.cases) {
          walkExpr(*c.value);
          walkBlock(c.body);
        }
        walkBlock(s.otherwise);
        return;
      }
      default:
        return;
    }
  }

  void walkExpr(const Expr& expr) {
    switch (expr.kind) {
      case NodeKind::Ident:
        bind(&expr, static_cast<const Ident&>(expr).name);
        return;
      case NodeKind::Unary:
        walkExpr(*static_cast<const Unary&>(expr).operand);
        return;
      case NodeKind::Binary: {
        const auto& e = static_cast<const Binary&>(expr);
        walkExpr(*e.lhs);
        walkExpr(*e.rhs);
        return;
      }
      case NodeKind::Transpose:
        walkExpr(*static_cast<const Transpose&>(expr).operand);
        return;
      case NodeKind::Range: {
        const auto& e = static_cast<const Range&>(expr);
        walkExpr(*e.start);
        if (e.step) walkExpr(*e.step);
        walkExpr(*e.stop);
        return;
      }
      case NodeKind::CallIndex: {
        const auto& e = static_cast<const CallIndex&>(expr);
        walkExpr(*e.base);
        for (const auto& a : e.args) walkExpr(*a);
        return;
      }
      case NodeKind::MatrixLit:
        for (const auto& row : static_cast<const MatrixLit&>(expr).rows)
          for (const auto& el : row) walkExpr(*el);
        return;
      default:
        return;
    }
  }

  std::size_t hash(const void* node) const {
    return static_cast<std::size_t>((reinterpret_cast<std::uintptr_t>(node) *
                                     0x9E3779B97F4A7C15ULL) >> 32) & mask;
  }

  const Program& program;
  std::map<std::string, std::uint32_t> slotOf;       // while walking
  std::vector<std::pair<const void*, Name>> found;  // while walking
  std::vector<std::pair<const void*, Name>> table;
  std::size_t mask = 0;
};

/// One running call: its variables, by slot. An unbound slot is a name
/// that has not been assigned yet.
struct Interpreter::Frame {
  struct Slot {
    Matrix value;
    bool bound = false;
  };
  explicit Frame(const Scope& s) : scope(s), slots(s.slotNames.size()) {}

  Slot& operator[](const void* node) { return slots[scope[node].slot]; }

  const Scope& scope;
  std::vector<Slot> slots;
};

Interpreter::Interpreter(const Program& program) : program_(program) {}

Interpreter::~Interpreter() = default;

void Interpreter::step() {
  if (++steps_ > maxSteps_) throw RuntimeError("interpreter step budget exceeded");
}

const Interpreter::Scope& Interpreter::scopeOf(const Function* fn) {
  auto& scope = scopes_[fn];
  if (!scope) scope = std::make_unique<Scope>(program_, fn);
  return *scope;
}

std::vector<Matrix> Interpreter::callFunction(const std::string& name,
                                              const std::vector<Matrix>& args,
                                              std::size_t nOut) {
  const Function* fn = program_.findFunction(name);
  if (!fn) throw RuntimeError("undefined function '" + name + "'");
  std::vector<Matrix> outs(std::max<std::size_t>(nOut, 1));
  outs.resize(call(*fn, args, outs));
  return outs;
}

std::size_t Interpreter::call(const Function& fn, std::span<const Matrix> args,
                              std::span<Matrix> out) {
  const std::size_t nOut = out.size();
  if (args.size() > fn.params.size())
    throw RuntimeError("too many arguments to '" + fn.name + "'");
  if (nOut > fn.outs.size() && !(nOut == 1 && fn.outs.empty()))
    throw RuntimeError("too many outputs requested from '" + fn.name + "'");
  if (callDepth_ >= 200) throw RuntimeError("recursion limit exceeded");
  // Every exit restores the depth, a throw from the body included.
  struct DepthScope {
    int& depth;
    explicit DepthScope(int& d) : depth(++d) {}
    ~DepthScope() { --depth; }
  } depthScope(callDepth_);

  const Scope& scope = scopeOf(&fn);
  Frame frame(scope);
  for (std::size_t i = 0; i < args.size(); ++i) {
    Frame::Slot& slot = frame.slots[scope.params[i]];
    slot.value = args[i];
    slot.bound = true;
  }
  // A break or continue outside any loop ends the body, as return does.
  execBlock(fn.body, frame);

  const std::size_t produced = std::min(nOut, fn.outs.size());
  for (std::size_t i = 0; i < produced; ++i) {
    const Frame::Slot& slot = frame.slots[scope.outs[i]];
    if (!slot.bound)
      throw RuntimeError("output '" + fn.outs[i] + "' of '" + fn.name + "' was never assigned");
    out[i] = slot.value;  // copied: a name may be listed as two outputs
  }
  return produced;
}

std::size_t Interpreter::invoke(const Name& callee, std::span<const Matrix> args,
                                std::span<Matrix> out) {
  if (callee.function) return call(*callee.function, args, out);
  if (callee.builtin) return (*callee.builtin)(args, out);
  throw RuntimeError("undefined variable or function '" + *callee.text + "'");
}

std::map<std::string, Matrix> Interpreter::runScript() {
  const Scope& scope = scopeOf(nullptr);
  Frame frame(scope);
  execBlock(program_.scriptBody, frame);
  std::map<std::string, Matrix> vars;
  for (std::size_t i = 0; i < frame.slots.size(); ++i) {
    if (frame.slots[i].bound) vars.emplace(scope.slotNames[i], std::move(frame.slots[i].value));
  }
  return vars;
}

Interpreter::Flow Interpreter::execBlock(const std::vector<StmtPtr>& body, Frame& frame) {
  for (const auto& s : body) {
    Flow flow = execStmt(*s, frame);
    if (flow != Flow::Normal) return flow;
  }
  return Flow::Normal;
}

Interpreter::Flow Interpreter::execStmt(const Stmt& stmt, Frame& frame) {
  step();
  switch (stmt.kind) {
    case NodeKind::Assign:
      execAssign(static_cast<const Assign&>(stmt), frame);
      return Flow::Normal;
    case NodeKind::ExprStmt: {
      // A call statement may return nothing (disp(x);): a call to an unbound
      // name asks for one output and drops whatever comes back. Any other
      // expression is evaluated and dropped.
      const Expr& e = *static_cast<const ExprStmt&>(stmt).expr;
      const Expr& head =
          e.kind == NodeKind::CallIndex ? *static_cast<const CallIndex&>(e).base : e;
      if (head.kind == NodeKind::Ident) {
        const Name& name = frame.scope[&head];
        if (!frame.slots[name.slot].bound) {
          step();  // the call node, as eval counts it
          Matrix out;
          if (&head == &e) {
            invoke(name, {}, {&out, 1});
          } else {
            callWithArgs(static_cast<const CallIndex&>(e), name, frame, {&out, 1});
          }
          return Flow::Normal;
        }
      }
      eval(e, frame);
      return Flow::Normal;
    }
    case NodeKind::If: {
      const auto& s = static_cast<const If&>(stmt);
      for (const auto& b : s.branches) {
        Matrix tmp;
        if (evalRef(*b.cond, frame, tmp).truthy()) return execBlock(b.body, frame);
      }
      return execBlock(s.elseBody, frame);
    }
    case NodeKind::For:
      return execFor(static_cast<const For&>(stmt), frame);
    case NodeKind::While: {
      const auto& s = static_cast<const While&>(stmt);
      while (true) {
        step();
        Matrix tmp;
        if (!evalRef(*s.cond, frame, tmp).truthy()) return Flow::Normal;
        Flow flow = execBlock(s.body, frame);
        if (flow == Flow::Break) return Flow::Normal;
        if (flow == Flow::Return) return flow;
      }
    }
    case NodeKind::Switch: {
      const auto& s = static_cast<const Switch&>(stmt);
      Matrix subject = eval(*s.subject, frame);
      auto matches = [&](const Matrix& v) {
        if (subject.isString() && v.isString())
          return subject.stringValue() == v.stringValue();
        if (subject.isScalar() && v.isScalar())
          return subject.at(0) == v.at(0);
        return false;
      };
      for (const auto& c : s.cases) {
        bool hit = false;
        if (c.value->kind == NodeKind::MatrixLit) {
          // case {a, b} alternative lists use cell arrays in MATLAB; we accept
          // a bracketed list of scalars with the same meaning.
          const auto& lit = static_cast<const MatrixLit&>(*c.value);
          for (const auto& row : lit.rows) {
            for (const auto& el : row) {
              if (matches(eval(*el, frame))) {
                hit = true;
                break;
              }
            }
          }
        } else {
          hit = matches(eval(*c.value, frame));
        }
        if (hit) return execBlock(c.body, frame);
      }
      return execBlock(s.otherwise, frame);
    }
    case NodeKind::Break: return Flow::Break;
    case NodeKind::Continue: return Flow::Continue;
    case NodeKind::Return: return Flow::Return;
    default:
      throw RuntimeError(std::string("cannot execute node ") + toString(stmt.kind));
  }
}

Interpreter::Flow Interpreter::execFor(const For& stmt, Frame& frame) {
  Frame::Slot& var = frame[&stmt];
  // Runs the body once with the loop variable set; false ends the loop.
  Flow flow = Flow::Normal;
  auto iterate = [&](Matrix value) {
    var.value = std::move(value);
    var.bound = true;
    flow = execBlock(stmt.body, frame);
    return flow != Flow::Break && flow != Flow::Return;
  };

  if (stmt.range->kind == NodeKind::Range) {
    // A row range: each value is computed as Matrix::range would, without
    // building the row.
    step();
    RangeBounds r = evalRangeBounds(static_cast<const Range&>(*stmt.range), frame);
    std::size_t count = rangeLength(r.start, r.step, r.stop);
    for (std::size_t c = 0; c < count; ++c) {
      if (!iterate(Matrix::scalar(r.start + static_cast<double>(c) * r.step))) break;
    }
  } else {
    Matrix range = eval(*stmt.range, frame);
    // MATLAB iterates over the columns of the range value.
    for (std::size_t c = 0; c < range.cols(); ++c) {
      Matrix iter;
      if (range.rows() == 1) {
        iter = Matrix::scalar(range.at(0, c));
      } else {
        iter = Matrix::zeros(range.rows(), 1, range.isComplex());
        for (std::size_t r = 0; r < range.rows(); ++r) iter.set(r, 0, range.at(r, c));
      }
      if (!iterate(std::move(iter))) break;
    }
  }
  return flow == Flow::Return ? flow : Flow::Normal;
}

void Interpreter::execAssign(const Assign& stmt, Frame& frame) {
  if (stmt.targets.size() == 1) {
    assignInto(stmt.targets[0], eval(*stmt.rhs, frame), frame);
    return;
  }
  std::vector<Matrix> values = evalMulti(*stmt.rhs, frame, stmt.targets.size());
  if (values.size() < stmt.targets.size())
    throw RuntimeError("not enough output values for multi-assignment");
  for (std::size_t i = 0; i < stmt.targets.size(); ++i) {
    assignInto(stmt.targets[i], std::move(values[i]), frame);
  }
}

void Interpreter::assignInto(const LValue& target, Matrix value, Frame& frame) {
  Frame::Slot& slot = frame[&target];
  if (target.indices.empty()) {
    slot.value = std::move(value);
    slot.bound = true;
    return;
  }
  if (!slot.bound) {
    slot.value = Matrix();  // an unassigned name grows from empty
    slot.bound = true;
  }
  indexAssign(slot.value, target.indices, value, frame);
}

Matrix Interpreter::eval(const Expr& expr, Frame& frame) {
  step();
  switch (expr.kind) {
    case NodeKind::NumberLit: {
      const auto& e = static_cast<const NumberLit&>(expr);
      if (e.imaginary) return Matrix::scalar(Complex{0.0, e.value});
      return Matrix::scalar(e.value);
    }
    case NodeKind::StringLit:
      return Matrix::fromString(static_cast<const StringLit&>(expr).value);
    case NodeKind::Ident: {
      const Name& name = frame.scope[&expr];
      Frame::Slot& slot = frame.slots[name.slot];
      if (slot.bound) return slot.value;
      // Zero-argument call: user function or builtin constant.
      Matrix out;
      if (invoke(name, {}, {&out, 1}) == 0) throw RuntimeError("expression produced no value");
      return out;
    }
    case NodeKind::Unary: {
      const auto& e = static_cast<const Unary&>(expr);
      Matrix tmp;
      const Matrix& v = evalRef(*e.operand, frame, tmp);
      switch (e.op) {
        case UnaryOp::Neg: return negate(v);
        case UnaryOp::Plus:
          if (&v == &tmp) return tmp;
          return v;
        case UnaryOp::Not: return logicalNot(v);
      }
      throw RuntimeError("bad unary op");
    }
    case NodeKind::Binary:
      return evalBinary(static_cast<const Binary&>(expr), frame);
    case NodeKind::Transpose: {
      const auto& e = static_cast<const Transpose&>(expr);
      Matrix tmp;
      return transpose(evalRef(*e.operand, frame, tmp), e.conjugate);
    }
    case NodeKind::Range: {
      RangeBounds r = evalRangeBounds(static_cast<const Range&>(expr), frame);
      return Matrix::range(r.start, r.step, r.stop);
    }
    case NodeKind::MatrixLit:
      return evalMatrixLit(static_cast<const MatrixLit&>(expr), frame);
    case NodeKind::CallIndex:
      return evalCallIndex(static_cast<const CallIndex&>(expr), frame);
    case NodeKind::Colon:
    case NodeKind::End:
      throw RuntimeError("':'/'end' outside of an index expression");
    default:
      throw RuntimeError(std::string("cannot evaluate node ") + toString(expr.kind));
  }
}

const Matrix& Interpreter::evalRef(const Expr& expr, Frame& frame, Matrix& tmp) {
  if (expr.kind == NodeKind::Ident) {
    Frame::Slot& slot = frame[&expr];
    if (slot.bound) {
      step();
      return slot.value;
    }
  }
  tmp = eval(expr, frame);
  return tmp;
}

std::vector<Matrix> Interpreter::evalMulti(const Expr& expr, Frame& frame, std::size_t nOut) {
  // Only a call can produce several values: an unbound name, bare or with
  // arguments. Anything else is one value.
  const Expr* nameNode = expr.kind == NodeKind::CallIndex
                             ? static_cast<const CallIndex&>(expr).base.get()
                             : &expr;
  if (nameNode->kind != NodeKind::Ident || frame[nameNode].bound) {
    std::vector<Matrix> one;
    one.push_back(eval(expr, frame));
    return one;
  }
  step();
  const Name& callee = frame.scope[nameNode];
  std::vector<Matrix> out(nOut);
  std::size_t produced = expr.kind == NodeKind::CallIndex
                             ? callWithArgs(static_cast<const CallIndex&>(expr), callee, frame, out)
                             : invoke(callee, {}, out);
  out.resize(produced);
  return out;
}

Matrix Interpreter::evalBinary(const Binary& expr, Frame& frame) {
  // Short-circuit forms evaluate scalars lazily.
  Matrix ta;
  if (expr.op == BinaryOp::AndAnd) {
    if (!evalRef(*expr.lhs, frame, ta).truthy()) return Matrix::logicalScalar(false);
    return Matrix::logicalScalar(evalRef(*expr.rhs, frame, ta).truthy());
  }
  if (expr.op == BinaryOp::OrOr) {
    if (evalRef(*expr.lhs, frame, ta).truthy()) return Matrix::logicalScalar(true);
    return Matrix::logicalScalar(evalRef(*expr.rhs, frame, ta).truthy());
  }

  Matrix tb;
  const Matrix& a = evalRef(*expr.lhs, frame, ta);
  const Matrix& b = evalRef(*expr.rhs, frame, tb);
  switch (expr.op) {
    case BinaryOp::Add: return elementwise(ElemOp::Add, a, b);
    case BinaryOp::Sub: return elementwise(ElemOp::Sub, a, b);
    case BinaryOp::ElemMul: return elementwise(ElemOp::Mul, a, b);
    case BinaryOp::ElemDiv: return elementwise(ElemOp::Div, a, b);
    case BinaryOp::ElemLeftDiv: return elementwise(ElemOp::LeftDiv, a, b);
    case BinaryOp::ElemPow: return elementwise(ElemOp::Pow, a, b);
    case BinaryOp::MatMul: return matmul(a, b);
    case BinaryOp::MatDiv:
      if (b.isScalar()) return elementwise(ElemOp::Div, a, b);
      throw RuntimeError("matrix right division is not supported (use ./ or a solver)");
    case BinaryOp::MatLeftDiv:
      if (a.isScalar()) return elementwise(ElemOp::LeftDiv, a, b);
      throw RuntimeError("matrix left division is not supported");
    case BinaryOp::MatPow:
      if (a.isScalar() && b.isScalar()) return elementwise(ElemOp::Pow, a, b);
      throw RuntimeError("matrix power is only supported for scalars");
    case BinaryOp::Eq: return elementwise(ElemOp::Eq, a, b);
    case BinaryOp::Ne: return elementwise(ElemOp::Ne, a, b);
    case BinaryOp::Lt: return elementwise(ElemOp::Lt, a, b);
    case BinaryOp::Le: return elementwise(ElemOp::Le, a, b);
    case BinaryOp::Gt: return elementwise(ElemOp::Gt, a, b);
    case BinaryOp::Ge: return elementwise(ElemOp::Ge, a, b);
    case BinaryOp::And: return elementwise(ElemOp::And, a, b);
    case BinaryOp::Or: return elementwise(ElemOp::Or, a, b);
    default:
      throw RuntimeError("bad binary op");
  }
}

Interpreter::RangeBounds Interpreter::evalRangeBounds(const Range& expr, Frame& frame) {
  RangeBounds r;
  r.start = eval(*expr.start, frame).scalarValue();
  r.step = expr.step ? eval(*expr.step, frame).scalarValue() : 1.0;
  r.stop = eval(*expr.stop, frame).scalarValue();
  return r;
}

Matrix Interpreter::evalMatrixLit(const MatrixLit& expr, Frame& frame) {
  // Evaluate all elements; concatenate rows horizontally then stack rows.
  std::vector<std::vector<Matrix>> rows;
  rows.reserve(expr.rows.size());
  for (const auto& row : expr.rows) {
    std::vector<Matrix> vals;
    vals.reserve(row.size());
    for (const auto& el : row) vals.push_back(eval(*el, frame));
    rows.push_back(std::move(vals));
  }
  // Horizontal concat per row.
  std::vector<Matrix> rowMats;
  for (auto& vals : rows) {
    std::size_t height = 0;
    std::size_t width = 0;
    bool cplx = false;
    for (auto& v : vals) {
      if (v.empty()) continue;
      if (height == 0) height = v.rows();
      if (v.rows() != height)
        throw RuntimeError("matrix literal: inconsistent row heights");
      width += v.cols();
      cplx = cplx || v.isComplex();
    }
    Matrix rowMat = Matrix::zeros(height, width, cplx);
    std::size_t colAt = 0;
    for (auto& v : vals) {
      if (v.empty()) continue;
      for (std::size_t c = 0; c < v.cols(); ++c)
        for (std::size_t r = 0; r < v.rows(); ++r) rowMat.set(r, colAt + c, v.at(r, c));
      colAt += v.cols();
    }
    if (width > 0) rowMats.push_back(std::move(rowMat));
  }
  // Vertical stack.
  std::size_t width = 0;
  std::size_t height = 0;
  bool cplx = false;
  for (auto& m : rowMats) {
    if (width == 0) width = m.cols();
    if (m.cols() != width) throw RuntimeError("matrix literal: inconsistent column widths");
    height += m.rows();
    cplx = cplx || m.isComplex();
  }
  Matrix out = Matrix::zeros(height, width, cplx);
  std::size_t rowAt = 0;
  for (auto& m : rowMats) {
    for (std::size_t c = 0; c < m.cols(); ++c)
      for (std::size_t r = 0; r < m.rows(); ++r) out.set(rowAt + r, c, m.at(r, c));
    rowAt += m.rows();
  }
  out.dropZeroImag();
  return out;
}

namespace {

/// True when the expression tree contains an `end` marker (a(end-1), ...).
bool containsEnd(const Expr& e) {
  switch (e.kind) {
    case NodeKind::End:
      return true;
    case NodeKind::Binary: {
      const auto& b = static_cast<const Binary&>(e);
      return containsEnd(*b.lhs) || containsEnd(*b.rhs);
    }
    case NodeKind::Unary:
      return containsEnd(*static_cast<const Unary&>(e).operand);
    case NodeKind::Range: {
      const auto& r = static_cast<const Range&>(e);
      return containsEnd(*r.start) || (r.step && containsEnd(*r.step)) ||
             containsEnd(*r.stop);
    }
    default:
      // `end` inside nested CallIndex args refers to that inner base, which
      // the inner indexing evaluation binds itself.
      return false;
  }
}

/// 0-based position of a 1-based index value; throws unless a positive
/// integer up to kMaxCount (so inf and NaN throw too).
std::size_t position(double v) {
  if (!(v >= 1.0) || v != std::floor(v) || v > kMaxCount)
    throw RuntimeError("index must be a positive integer, got " + std::to_string(v));
  return static_cast<std::size_t>(v) - 1;
}

}  // namespace

Interpreter::Index Interpreter::resolveIndex(const Expr& arg, Frame& frame,
                                             std::size_t extent) {
  Index out;
  if (arg.kind == NodeKind::Colon) {
    out.list.resize(extent);
    for (std::size_t i = 0; i < extent; ++i) out.list[i] = i;
    return out;
  }
  // `end` can appear inside arithmetic, e.g. a(end-1). Bind it by evaluating
  // with a shadow variable that the End node reads.
  struct EndBinder {
    Interpreter& interp;
    Frame& frame;
    std::size_t extent;
    Matrix evalWithEnd(const Expr& e) {
      // Substitute End nodes during evaluation via a recursive re-dispatch.
      switch (e.kind) {
        case NodeKind::End:
          return Matrix::scalar(static_cast<double>(extent));
        case NodeKind::Binary: {
          const auto& b = static_cast<const Binary&>(e);
          // Rebuild a temporary Binary evaluation over resolved operands.
          Matrix lhs = evalWithEnd(*b.lhs);
          Matrix rhs = evalWithEnd(*b.rhs);
          switch (b.op) {
            case BinaryOp::Add: return elementwise(ElemOp::Add, lhs, rhs);
            case BinaryOp::Sub: return elementwise(ElemOp::Sub, lhs, rhs);
            case BinaryOp::ElemMul: return elementwise(ElemOp::Mul, lhs, rhs);
            case BinaryOp::MatMul: return matmul(lhs, rhs);
            case BinaryOp::ElemDiv: return elementwise(ElemOp::Div, lhs, rhs);
            case BinaryOp::MatDiv:
              if (rhs.isScalar()) return elementwise(ElemOp::Div, lhs, rhs);
              throw RuntimeError("unsupported op on 'end' expression");
            default:
              throw RuntimeError("unsupported op on 'end' expression");
          }
        }
        case NodeKind::Unary: {
          const auto& u = static_cast<const Unary&>(e);
          if (u.op == UnaryOp::Neg) return negate(evalWithEnd(*u.operand));
          throw RuntimeError("unsupported unary op on 'end' expression");
        }
        case NodeKind::Range: {
          const auto& r = static_cast<const Range&>(e);
          double start = evalWithEnd(*r.start).scalarValue();
          double step = r.step ? evalWithEnd(*r.step).scalarValue() : 1.0;
          double stop = evalWithEnd(*r.stop).scalarValue();
          return Matrix::range(start, step, stop);
        }
        default:
          return interp.eval(e, frame);
      }
    }
  };
  Matrix tmp;
  const Matrix& idx = containsEnd(arg) ? (tmp = EndBinder{*this, frame, extent}.evalWithEnd(arg))
                                       : evalRef(arg, frame, tmp);

  if (idx.isLogical()) {
    if (idx.numel() > extent) throw RuntimeError("logical index too long");
    for (std::size_t i = 0; i < idx.numel(); ++i) {
      if (idx.real(i) != 0.0) out.list.push_back(i);
    }
    return out;
  }
  if (idx.isScalar()) {
    out.single = position(idx.real(0));
    out.scalar = true;
    return out;
  }
  out.list.reserve(idx.numel());
  for (std::size_t i = 0; i < idx.numel(); ++i) out.list.push_back(position(idx.real(i)));
  return out;
}

Matrix Interpreter::indexMatrix(const Matrix& base, const std::vector<ExprPtr>& args,
                                Frame& frame) {
  if (args.empty()) return base;
  if (args.size() == 1) {
    bool isColon = args[0]->kind == NodeKind::Colon;
    Index idx = resolveIndex(*args[0], frame, base.numel());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      if (idx[k] >= base.numel())
        throw RuntimeError("index " + std::to_string(idx[k] + 1) + " out of bounds for " +
                           std::to_string(base.numel()) + " elements");
    }
    if (idx.scalar) return Matrix::scalar(base.at(idx.single));
    // Result orientation: A(:) is a column; otherwise follows the index shape
    // for vectors (row base + row index -> row).
    bool rowResult = !isColon && (base.isRow() || !base.isVector());
    Matrix out = Matrix::zeros(rowResult ? 1 : idx.size(), rowResult ? idx.size() : 1,
                               base.isComplex());
    if (isColon) out = Matrix::zeros(idx.size(), idx.size() == 0 ? 0 : 1, base.isComplex());
    for (std::size_t i = 0; i < idx.size(); ++i) out.set(i, base.at(idx[i]));
    out.dropZeroImag();
    return out;
  }
  if (args.size() != 2) throw RuntimeError("only 1-D and 2-D indexing are supported");
  Index ri = resolveIndex(*args[0], frame, base.rows());
  Index ci = resolveIndex(*args[1], frame, base.cols());
  for (std::size_t k = 0; k < ri.size(); ++k)
    if (ri[k] >= base.rows()) throw RuntimeError("row index out of bounds");
  for (std::size_t k = 0; k < ci.size(); ++k)
    if (ci[k] >= base.cols()) throw RuntimeError("column index out of bounds");
  if (ri.scalar && ci.scalar) return Matrix::scalar(base.at(ri.single, ci.single));
  Matrix out = Matrix::zeros(ri.size(), ci.size(), base.isComplex());
  for (std::size_t c = 0; c < ci.size(); ++c)
    for (std::size_t r = 0; r < ri.size(); ++r) out.set(r, c, base.at(ri[r], ci[c]));
  out.dropZeroImag();
  return out;
}

void Interpreter::indexAssign(Matrix& base, const std::vector<ExprPtr>& args,
                              const Matrix& value, Frame& frame) {
  if (args.size() == 1) {
    Index idx = resolveIndex(*args[0], frame, base.numel());
    // Growth: only vectors (or empty) may grow via linear indexing.
    std::size_t needed = 0;
    for (std::size_t k = 0; k < idx.size(); ++k) needed = std::max(needed, idx[k] + 1);
    if (needed > base.numel()) {
      if (base.empty()) {
        base.resizePreserving(1, needed);
      } else if (base.isRow()) {
        base.resizePreserving(1, needed);
      } else if (base.cols() == 1) {
        base.resizePreserving(needed, 1);
      } else {
        throw RuntimeError("linear index out of bounds for matrix assignment");
      }
    }
    if (!value.isScalar() && value.numel() != idx.size())
      throw RuntimeError("assignment size mismatch");
    for (std::size_t i = 0; i < idx.size(); ++i) {
      base.set(idx[i], value.isScalar() ? value.at(0) : value.at(i));
    }
    return;
  }
  if (args.size() != 2) throw RuntimeError("only 1-D and 2-D indexing are supported");
  Index ri = resolveIndex(*args[0], frame, base.rows());
  Index ci = resolveIndex(*args[1], frame, base.cols());
  std::size_t needR = base.rows();
  std::size_t needC = base.cols();
  for (std::size_t k = 0; k < ri.size(); ++k) needR = std::max(needR, ri[k] + 1);
  for (std::size_t k = 0; k < ci.size(); ++k) needC = std::max(needC, ci[k] + 1);
  if (needR > base.rows() || needC > base.cols()) base.resizePreserving(needR, needC);
  if (!value.isScalar() && value.numel() != ri.size() * ci.size())
    throw RuntimeError("assignment size mismatch");
  for (std::size_t c = 0; c < ci.size(); ++c) {
    for (std::size_t r = 0; r < ri.size(); ++r) {
      Complex v = value.isScalar() ? value.at(0) : value.at(r + c * ri.size());
      base.set(ri[r], ci[c], v);
    }
  }
}

Matrix Interpreter::evalCallIndex(const CallIndex& expr, Frame& frame) {
  if (expr.base->kind != NodeKind::Ident) {
    // Indexing an arbitrary expression: evaluate then index.
    Matrix base = eval(*expr.base, frame);
    return indexMatrix(base, expr.args, frame);
  }
  // Variables shadow functions (MATLAB resolution order).
  const Name& name = frame.scope[expr.base.get()];
  Frame::Slot& slot = frame.slots[name.slot];
  if (slot.bound) return indexMatrix(slot.value, expr.args, frame);
  Matrix out;
  if (callWithArgs(expr, name, frame, {&out, 1}) == 0)
    throw RuntimeError("expression produced no value");
  return out;
}

std::size_t Interpreter::callWithArgs(const CallIndex& expr, const Name& callee, Frame& frame,
                                      std::span<Matrix> out) {
  // Up to four arguments live on the stack.
  std::array<Matrix, 4> few;
  std::vector<Matrix> many;
  std::span<Matrix> args = few;
  if (expr.args.size() > few.size()) {
    many.resize(expr.args.size());
    args = many;
  }
  args = args.first(expr.args.size());
  for (std::size_t i = 0; i < expr.args.size(); ++i) {
    const Expr& a = *expr.args[i];
    if (a.kind == NodeKind::Colon || a.kind == NodeKind::End)
      throw RuntimeError("':'/'end' used in a call to undefined variable '" +
                         *callee.text + "'");
    args[i] = eval(a, frame);
  }
  return invoke(callee, args, out);
}

}  // namespace mat2c
