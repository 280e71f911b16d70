// Structural verifier for LIR functions. Run after lowering and after each
// optimization pass in tests; catches type/lane inconsistencies and
// references to undeclared names before they turn into silent VM garbage.
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "lir/lir.hpp"
#include "sema/builtins.hpp"

namespace mat2c::lir {
namespace {

using sema::ComplexRule;

/// The complex rule of a builtin's unary op (sema/builtins.def); nullopt for
/// ops no builtin row lowers to.
std::optional<ComplexRule> builtinRule(UnOp op) {
  switch (op) {
#define MAT2C_BUILTIN_UNARY(name, op, lir, rule, ...) \
    case UnOp::op: return ComplexRule::rule;
#include "sema/builtins.def"
    default: return std::nullopt;
  }
}

/// The slots a statement kind has, and the ones it must fill. lir/walk.hpp
/// visits whatever slots are set, so a slot outside the layout would be
/// walked as if it belonged to the statement.
enum Slot : unsigned { kValue = 1, kIndex = 2, kLo = 4, kHi = 8, kCond = 16, kBody = 32, kElse = 64 };
constexpr const char* kSlotNames[] = {"value", "index", "lo", "hi", "cond", "body", "else body"};

struct SlotLayout {
  const char* kind;  // as problems name it
  unsigned has = 0;
  unsigned required = 0;
};

SlotLayout layoutOf(StmtKind kind) {
  switch (kind) {
    case StmtKind::DeclScalar: return {"decl", kValue};
    case StmtKind::Assign: return {"assign", kValue, kValue};
    case StmtKind::Store: return {"store", kValue | kIndex, kValue | kIndex};
    case StmtKind::For: return {"for", kLo | kHi | kBody, kLo | kHi};
    case StmtKind::If: return {"if", kCond | kBody | kElse, kCond};
    case StmtKind::While: return {"while", kCond | kBody, kCond};
    case StmtKind::Break: return {"break"};
    case StmtKind::Continue: return {"continue"};
    case StmtKind::BoundsCheck: return {"bounds check", kIndex, kIndex};
    case StmtKind::AllocMark: return {"alloc mark"};
    case StmtKind::Comment: return {"comment"};
  }
  return {"statement"};
}

class Verifier {
 public:
  explicit Verifier(const Function& fn) : fn_(fn) {}

  std::vector<std::string> run() {
    for (const auto& p : fn_.params) declareTop(p.name, p);
    for (const auto& p : fn_.outs) declareTop(p.name, p);
    std::set<std::string> arrayNames;
    for (const auto& a : fn_.arrays) {
      if (!arrayNames.insert(a.name).second) err("duplicate local array '" + a.name + "'");
      if (scalars_.count(a.name)) err("array '" + a.name + "' shadows a parameter");
      if (a.rows < 0 || a.cols < 0) err("array '" + a.name + "' has negative shape");
    }
    checkBlock(fn_.body, /*inLoop=*/false);
    return std::move(problems_);
  }

 private:
  void declareTop(const std::string& name, const Param& p) {
    if (p.isArray) return;  // array names resolved via Function::arrayInfo
    VType t = p.elem == Scalar::C64 ? VType::c64() : VType::f64();
    if (!scalars_.emplace(name, t).second) err("duplicate parameter '" + name + "'");
  }

  void err(std::string msg) { problems_.push_back(std::move(msg)); }

  bool isArray(const std::string& name, Scalar& elem) {
    std::int64_t n = 0;
    return fn_.arrayInfo(name, elem, n);
  }

  void checkExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::ConstF:
        if (e.type != VType::f64()) err("ConstF with non-f64 type");
        return;
      case ExprKind::ConstI:
        if (e.type != VType::i64()) err("ConstI with non-i64 type");
        return;
      case ExprKind::VarRef: {
        auto it = scalars_.find(e.name);
        if (it == scalars_.end()) {
          err("reference to undeclared variable '" + e.name + "'");
        } else if (!(it->second == e.type)) {
          err("variable '" + e.name + "' used as " + toString(e.type) + " but declared " +
              toString(it->second));
        }
        return;
      }
      case ExprKind::Load: {
        Scalar elem{};
        if (!isArray(e.name, elem)) {
          err("load from unknown array '" + e.name + "'");
          return;
        }
        if (e.type.scalar != elem)
          err("load from '" + e.name + "' with wrong element type");
        if (!e.index) {
          err("load without index");
          return;
        }
        checkExpr(*e.index);
        if (!(e.index->type == VType::i64())) err("load index must be i64");
        return;
      }
      case ExprKind::Unary: {
        if (!e.a) {
          err("unary without operand");
          return;
        }
        checkExpr(*e.a);
        if (e.unOp == UnOp::ToF64 || e.unOp == UnOp::ToI64 || e.unOp == UnOp::ToC64) return;
        auto rule = builtinRule(e.unOp);
        if (rule == ComplexRule::Real && e.a->type.scalar == Scalar::C64)
          err(std::string("'") + toString(e.unOp) + "' on a c64 operand");
        if (e.unOp == UnOp::RealPart || e.unOp == UnOp::ImagPart || e.unOp == UnOp::Arg ||
            rule == ComplexRule::ToReal) {
          return;  // complex -> real allowed, lanes preserved
        }
        if (e.unOp == UnOp::Not) return;
        if (e.a->type.lanes != e.type.lanes) err("unary changes lane count");
        return;
      }
      case ExprKind::Binary: {
        if (!e.a || !e.b) {
          err("binary without operands");
          return;
        }
        checkExpr(*e.a);
        checkExpr(*e.b);
        if (e.binOp == BinOp::MakeComplex) {
          if (e.type.scalar != Scalar::C64) err("cplx must produce c64");
          return;
        }
        if (isComparison(e.binOp) || e.binOp == BinOp::And || e.binOp == BinOp::Or) {
          if (e.type.scalar != Scalar::B1 && e.type.scalar != Scalar::F64)
            err("comparison must produce b1/f64");
          return;
        }
        if (e.a->type.lanes != e.b->type.lanes || e.a->type.lanes != e.type.lanes)
          err(std::string("binary '") + toString(e.binOp) + "' with mismatched lanes");
        return;
      }
      case ExprKind::Fma: {
        if (!e.a || !e.b || !e.c) {
          err("fma without three operands");
          return;
        }
        checkExpr(*e.a);
        checkExpr(*e.b);
        checkExpr(*e.c);
        if (e.a->type.lanes != e.type.lanes || e.b->type.lanes != e.type.lanes ||
            e.c->type.lanes != e.type.lanes)
          err("fma with mismatched lanes");
        return;
      }
      case ExprKind::Splat:
        if (!e.a) {
          err("splat without operand");
          return;
        }
        checkExpr(*e.a);
        if (e.a->type.isVector()) err("splat of a vector");
        if (e.type.lanes <= 1) err("splat to scalar");
        return;
      case ExprKind::Reduce:
        if (!e.a) {
          err("reduce without operand");
          return;
        }
        checkExpr(*e.a);
        if (!e.a->type.isVector()) err("reduce of a scalar");
        if (e.type.isVector()) err("reduce producing a vector");
        return;
    }
  }

  void checkBlock(const std::vector<StmtPtr>& body, bool inLoop) {
    // Scope: declarations inside the block disappear at its end.
    auto saved = scalars_;
    for (const auto& s : body) checkStmt(*s, inLoop);
    scalars_ = std::move(saved);
  }

  /// Reports every slot `s` must fill but leaves empty and every slot it
  /// fills that its kind does not have; false when a required one is empty.
  bool checkSlots(const Stmt& s) {
    const bool filled[] = {s.value != nullptr, s.index != nullptr, s.lo != nullptr,
                           s.hi != nullptr,    s.cond != nullptr,  !s.body.empty(),
                           !s.elseBody.empty()};
    SlotLayout layout = layoutOf(s.kind);
    bool complete = true;
    for (unsigned i = 0; i < std::size(filled); ++i) {
      unsigned slot = 1u << i;
      if ((layout.required & slot) && !filled[i]) {
        err(std::string(layout.kind) + " without " + kSlotNames[i]);
        complete = false;
      }
      if (filled[i] && !(layout.has & slot))
        err(std::string(layout.kind) + " with a stray " + kSlotNames[i]);
    }
    return complete;
  }

  void checkStmt(const Stmt& s, bool inLoop) {
    if (!checkSlots(s)) return;
    switch (s.kind) {
      case StmtKind::DeclScalar:
        if (s.value) {
          checkExpr(*s.value);
          if (!(s.value->type == s.declType))
            err("declaration of '" + s.name + "' initialized with wrong type");
        }
        scalars_[s.name] = s.declType;  // redeclaration shadows (renamer avoids it)
        return;
      case StmtKind::Assign: {
        auto it = scalars_.find(s.name);
        if (it == scalars_.end()) {
          err("assignment to undeclared variable '" + s.name + "'");
          return;
        }
        checkExpr(*s.value);
        if (!(s.value->type == it->second))
          err("assignment to '" + s.name + "' of type " + toString(it->second) + " from " +
              toString(s.value->type));
        return;
      }
      case StmtKind::Store: {
        Scalar elem{};
        if (!isArray(s.name, elem)) {
          err("store to unknown array '" + s.name + "'");
          return;
        }
        checkExpr(*s.index);
        checkExpr(*s.value);
        if (!(s.index->type == VType::i64())) err("store index must be i64");
        if (s.value->type.scalar != elem)
          err("store to '" + s.name + "' with wrong element type");
        return;
      }
      case StmtKind::For: {
        checkExpr(*s.lo);
        checkExpr(*s.hi);
        if (!(s.lo->type == VType::i64()) || !(s.hi->type == VType::i64()))
          err("for bounds must be i64");
        if (s.step == 0) err("for step must be nonzero");
        auto saved = scalars_;
        scalars_[s.name] = VType::i64();
        checkBlock(s.body, /*inLoop=*/true);
        scalars_ = std::move(saved);
        return;
      }
      case StmtKind::If:
        checkExpr(*s.cond);
        checkBlock(s.body, inLoop);
        checkBlock(s.elseBody, inLoop);
        return;
      case StmtKind::While:
        checkExpr(*s.cond);
        checkBlock(s.body, /*inLoop=*/true);
        return;
      case StmtKind::Break:
      case StmtKind::Continue:
        if (!inLoop) err("break/continue outside a loop");
        return;
      case StmtKind::BoundsCheck: {
        Scalar elem{};
        if (!isArray(s.name, elem)) err("bounds check on unknown array '" + s.name + "'");
        checkExpr(*s.index);
        return;
      }
      case StmtKind::AllocMark: {
        Scalar elem{};
        if (!isArray(s.name, elem)) err("alloc mark on unknown array '" + s.name + "'");
        return;
      }
      case StmtKind::Comment:
        return;
    }
  }

  const Function& fn_;
  std::map<std::string, VType> scalars_;
  std::vector<std::string> problems_;
};

}  // namespace

std::vector<std::string> verify(const Function& fn) { return Verifier(fn).run(); }

}  // namespace mat2c::lir
