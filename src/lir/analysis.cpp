#include "lir/analysis.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <map>

#include "lir/walk.hpp"

namespace mat2c::lir {

bool exprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind || !(a.type == b.type)) return false;
  switch (a.kind) {
    case ExprKind::ConstF:
      // Bitwise-identical constants only; folding already canonicalizes.
      return a.fval == b.fval;
    case ExprKind::ConstI: return a.ival == b.ival;
    case ExprKind::VarRef: return a.name == b.name;
    case ExprKind::Load:
      return a.name == b.name && exprEquals(*a.index, *b.index);
    case ExprKind::Unary:
      return a.unOp == b.unOp && exprEquals(*a.a, *b.a);
    case ExprKind::Binary:
      return a.binOp == b.binOp && exprEquals(*a.a, *b.a) && exprEquals(*a.b, *b.b);
    case ExprKind::Fma:
      return exprEquals(*a.a, *b.a) && exprEquals(*a.b, *b.b) && exprEquals(*a.c, *b.c);
    case ExprKind::Splat: return exprEquals(*a.a, *b.a);
    case ExprKind::Reduce:
      return a.reduceOp == b.reduceOp && exprEquals(*a.a, *b.a);
  }
  return false;
}

void substituteVar(ExprPtr& e, const std::string& name, const Expr& replacement) {
  walkSlots(e, [&](ExprPtr& x) {
    if (x->kind != ExprKind::VarRef || x->name != name) return true;
    x = replacement.clone();
    return false;
  });
}

namespace {

void substituteInBlock(std::vector<StmtPtr>& block, const std::string& name,
                       const Expr& replacement);

void substituteInStmt(Stmt& st, const std::string& name, const Expr& replacement, bool root) {
  forEachExpr(st, [&](ExprPtr& e) { substituteVar(e, name, replacement); });
  // A nested For over the same name shadows it: its bounds (above) are in
  // the outer scope, its body is not.
  if (!root && st.kind == StmtKind::For && st.name == name) return;
  forEachBlock(st, [&](auto& block) { substituteInBlock(block, name, replacement); });
}

void substituteInBlock(std::vector<StmtPtr>& block, const std::string& name,
                       const Expr& replacement) {
  for (auto& st : block) {
    substituteInStmt(*st, name, replacement, /*root=*/false);
    // So does a nested redeclaration, for the rest of its block; its
    // initializer (above) is still in the outer scope.
    if (st->kind == StmtKind::DeclScalar && st->name == name) return;
  }
}

}  // namespace

void substituteVar(Stmt& s, const std::string& name, const Expr& replacement) {
  substituteInStmt(s, name, replacement, /*root=*/true);
}

void renameVar(Stmt& s, const std::string& from, const std::string& to) {
  walkNodes(
      s,
      [&](Stmt& st) {
        if ((st.kind == StmtKind::DeclScalar || st.kind == StmtKind::Assign ||
             st.kind == StmtKind::For) &&
            st.name == from) {
          st.name = to;
        }
      },
      [&](Expr& e) {
        if (e.kind == ExprKind::VarRef && e.name == from) e.name = to;
      });
}

bool intersects(const std::set<std::string>& a, const std::set<std::string>& b) {
  for (const auto& x : a)
    if (b.count(x)) return true;
  return false;
}

bool AccessInfo::independentOf(const AccessInfo& other) const {
  if (hasLoopControl || other.hasLoopControl) return false;
  if (intersects(scalarWrites, other.scalarWrites)) return false;
  if (intersects(scalarWrites, other.scalarReads)) return false;
  if (intersects(scalarReads, other.scalarWrites)) return false;
  if (intersects(arrayWrites, other.arrayWrites)) return false;
  if (intersects(arrayWrites, other.arrayReads)) return false;
  if (intersects(arrayReads, other.arrayWrites)) return false;
  return true;
}

namespace {

void noteExpr(const Expr& e, AccessInfo& out) {
  if (e.kind == ExprKind::VarRef) out.scalarReads.insert(e.name);
  if (e.kind == ExprKind::Load) out.arrayReads.insert(e.name);
}

void noteStmt(const Stmt& s, AccessInfo& out) {
  switch (s.kind) {
    case StmtKind::DeclScalar:
      out.scalarWrites.insert(s.name);
      out.scalarDecls.insert(s.name);
      break;
    case StmtKind::Assign: out.scalarWrites.insert(s.name); break;
    case StmtKind::Store: out.arrayWrites.insert(s.name); break;
    case StmtKind::For:
      out.scalarWrites.insert(s.name);
      out.scalarDecls.insert(s.name);
      break;
    case StmtKind::BoundsCheck: out.arrayReads.insert(s.name); break;
    case StmtKind::AllocMark: out.arrayWrites.insert(s.name); break;
    case StmtKind::Break:
    case StmtKind::Continue: out.hasLoopControl = true; break;
    case StmtKind::While: out.hasWhile = true; break;
    default: break;
  }
}

}  // namespace

void collectAccess(const Stmt& s, AccessInfo& out) {
  walkNodes(
      s, [&](const Stmt& st) { noteStmt(st, out); },
      [&](const Expr& x) { noteExpr(x, out); });
}

std::set<std::string> varReads(const Expr& e) {
  std::set<std::string> reads;
  walkExpr(e, [&](const Expr& x) {
    if (x.kind == ExprKind::VarRef) reads.insert(x.name);
  });
  return reads;
}

std::set<std::string> usedNames(const Function& fn, std::string_view prefix) {
  std::set<std::string> names;
  auto note = [&](const std::string& name) {
    if (name.starts_with(prefix)) names.insert(name);
  };
  walkNodes(
      fn.body,
      [&](const Stmt& s) {
        if (s.kind == StmtKind::DeclScalar || s.kind == StmtKind::Assign ||
            s.kind == StmtKind::For) {
          note(s.name);
        }
      },
      [&](const Expr& e) {
        if (e.kind == ExprKind::VarRef) note(e.name);
      });
  for (const auto& p : fn.params) note(p.name);
  for (const auto& o : fn.outs) note(o.name);
  for (const auto& a : fn.arrays) note(a.name);
  return names;
}

namespace {

/// The printed head of an expression node: its leaf text, or the operator
/// text its operands are printed around.
enum Head : std::uint32_t { kFloat, kInt, kVar, kLoad, kCall, kInfix, kSplat };

/// One id per distinct operator text of UnOp, BinOp and ReduceOp (and
/// "fma"), so equal texts of different enums share an id as they share a
/// printout.
struct OpTexts {
  std::array<std::uint32_t, static_cast<int>(UnOp::ToC64) + 1> un{};
  std::array<std::uint32_t, static_cast<int>(BinOp::MakeComplex) + 1> bin{};
  std::array<bool, static_cast<int>(BinOp::MakeComplex) + 1> binIsCall{};
  std::array<std::uint32_t, static_cast<int>(ReduceOp::Max) + 1> red{};
  std::uint32_t fma = 0;

  OpTexts() {
    std::map<std::string, std::uint32_t> ids;
    auto id = [&](const char* text) {
      return ids.emplace(text, static_cast<std::uint32_t>(ids.size())).first->second;
    };
    for (std::size_t i = 0; i < un.size(); ++i) un[i] = id(toString(static_cast<UnOp>(i)));
    for (std::size_t i = 0; i < bin.size(); ++i) {
      const char* text = toString(static_cast<BinOp>(i));
      bin[i] = id(text);
      binIsCall[i] = std::isalpha(static_cast<unsigned char>(text[0]));
    }
    for (std::size_t i = 0; i < red.size(); ++i) red[i] = id(toString(static_cast<ReduceOp>(i)));
    fma = id("fma");
  }
};

const OpTexts& opTexts() {
  static const OpTexts texts;
  return texts;
}

}  // namespace

std::size_t PrintNumbering::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = k.payload * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(k.tag) << 32 | k.kids[0]) + 0x7f4a7c159e3779b9ULL + (h << 6) +
       (h >> 2);
  h ^= (static_cast<std::uint64_t>(k.kids[1]) << 32 | k.kids[2]) + 0x9e3779b97f4a7c15ULL +
       (h << 6) + (h >> 2);
  return static_cast<std::size_t>(h ^ (h >> 29));
}

PrintNumbering::Name& PrintNumbering::name(const std::string& n) {
  auto [it, fresh] = names_.try_emplace(n);
  if (fresh) it->second.id = static_cast<std::uint32_t>(names_.size() - 1);
  return it->second;
}

std::uint32_t PrintNumbering::intern(const Key& key) {
  return numbers_.try_emplace(key, static_cast<std::uint32_t>(numbers_.size())).first->second;
}

PrintNumbering::Key PrintNumbering::loadKey(const std::string& array, std::uint32_t index,
                                            int lanes, const Name* nextArray) {
  const Name& n = name(array);
  Key key;
  key.tag = kLoad;
  key.payload = static_cast<std::uint64_t>(n.id) << 32 | (n.arrayVersion + (&n == nextArray));
  key.kids[0] = index;
  // The dump shows a Load's lanes only when it is a vector.
  key.kids[1] = lanes > 1 ? static_cast<std::uint32_t>(lanes) : 1;
  return key;
}

std::uint32_t PrintNumbering::numberLoad(const std::string& array, const Expr& index, int lanes,
                                         const Name* nextArray) {
  return intern(loadKey(array, number(index, nullptr, nextArray), lanes, nextArray));
}

std::uint32_t PrintNumbering::number(const Expr& e, std::vector<Node>* preorder,
                                     const Name* nextArray) {
  std::size_t at = 0;
  if (preorder) {
    at = preorder->size();
    preorder->emplace_back();
  }
  Key key;
  int k = 0;
  forEachOperand(e, [&](const ExprPtr& x) { key.kids[k++] = number(*x, preorder, nextArray); });
  const OpTexts& ops = opTexts();
  switch (e.kind) {
    case ExprKind::ConstF:
      // The printer writes %.17g, which tells every two doubles apart
      // except NaNs: they all print "nan".
      key.tag = kFloat;
      key.payload = std::isnan(e.fval) ? ~std::uint64_t{0} : std::bit_cast<std::uint64_t>(e.fval);
      break;
    case ExprKind::ConstI:
      key.tag = kInt;
      key.payload = static_cast<std::uint64_t>(e.ival);
      break;
    case ExprKind::VarRef: {
      const Name& n = name(e.name);
      key.tag = kVar;
      key.payload = static_cast<std::uint64_t>(n.id) << 32 | n.scalarVersion;
      break;
    }
    case ExprKind::Load: key = loadKey(e.name, key.kids[0], e.type.lanes, nextArray); break;
    case ExprKind::Unary:
      key.tag = kCall;
      key.payload = ops.un[static_cast<int>(e.unOp)];
      break;
    case ExprKind::Binary: {
      int op = static_cast<int>(e.binOp);
      key.tag = ops.binIsCall[op] ? kCall : kInfix;
      key.payload = ops.bin[op];
      break;
    }
    case ExprKind::Fma:
      key.tag = kCall;
      key.payload = ops.fma;
      break;
    case ExprKind::Splat:
      key.tag = kSplat;
      key.payload = static_cast<std::uint64_t>(e.type.lanes);
      break;
    case ExprKind::Reduce:
      key.tag = kCall;
      key.payload = ops.red[static_cast<int>(e.reduceOp)];
      break;
  }
  std::uint32_t n = intern(key);
  if (preorder) (*preorder)[at] = {n, static_cast<std::uint32_t>(preorder->size() - at)};
  return n;
}

}  // namespace mat2c::lir
