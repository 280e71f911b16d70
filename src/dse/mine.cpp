// Layer 1 — idiom mining over post-optimization LIR.
//
// Membership is restricted to expression kinds the VM charges as exactly one
// ISA op per execution (loads, splats, neg/conj, add/sub/mul, fma, plus the
// enclosing Store), and each member's op comes from lir::selectOp, the same
// selection the VM charges. That is what makes the whole DSE analytic: a
// fused candidate's saving is the sum of its members' per-issue costs minus
// the fused issue cost, and the VM FusedCosting hook reproduces that number
// exactly (dse_test asserts it). Decomposed ops (div, transcendentals,
// complex abs) charge more than once and are deliberately not members.
#include <algorithm>
#include <map>
#include <optional>

#include "dse/dse.hpp"
#include "lir/select.hpp"
#include "lir/walk.hpp"
#include "support/string_utils.hpp"

namespace mat2c::dse {
namespace {

using lir::Expr;
using lir::ExprKind;
using lir::Stmt;
using lir::StmtKind;

/// The op lir::selectOp picks for `e` when `e` may be a pattern member: an
/// f64/c64 load, splat, neg, conj, add, sub or mul, or an fma.
std::optional<isa::Op> memberOp(const Expr& e) {
  using lir::BinOp;
  using lir::UnOp;
  bool fp = e.type.scalar == lir::Scalar::F64 || e.type.scalar == lir::Scalar::C64;
  bool member = false;
  switch (e.kind) {
    case ExprKind::Load:
    case ExprKind::Splat: member = fp; break;
    case ExprKind::Unary: member = fp && (e.unOp == UnOp::Neg || e.unOp == UnOp::Conj); break;
    case ExprKind::Binary:
      member = fp && (e.binOp == BinOp::Add || e.binOp == BinOp::Sub || e.binOp == BinOp::Mul);
      break;
    case ExprKind::Fma: member = true; break;
    default: break;
  }
  return member ? lir::selectOp(e) : std::nullopt;
}

/// Dataflow operands a pattern may extend into. Load/Store index trees are
/// address math (AGU territory), not datapath, so patterns never cross them.
std::vector<const Expr*> dataOperands(const Expr& e) {
  std::vector<const Expr*> kids;
  if (e.kind == ExprKind::Load) return kids;
  if (e.a) kids.push_back(e.a.get());
  if (e.b) kids.push_back(e.b.get());
  if (e.c) kids.push_back(e.c.get());
  return kids;
}

/// A pattern occurrence under construction: a connected subtree of eligible
/// nodes.
struct PatNode {
  const Expr* e = nullptr;
  isa::Op op{};
  std::vector<PatNode> kids;
};

int patSize(const PatNode& p) {
  int n = 1;
  for (const auto& k : p.kids) n += patSize(k);
  return n;
}

/// Canonical encoding: mnemonic of each node with child encodings sorted, so
/// operand position does not split idioms (add(mul, ld) == add(ld, mul); the
/// fused datapath routes operands either way). Vector and scalar forms hash
/// differently (distinct mnemonics); lane width does not (same mnemonic).
std::string encode(const PatNode& p) {
  std::string s = isa::mnemonic(p.op);
  if (p.kids.empty()) return s;
  std::vector<std::string> parts;
  parts.reserve(p.kids.size());
  for (const auto& k : p.kids) parts.push_back(encode(k));
  std::sort(parts.begin(), parts.end());
  return s + "(" + join(parts, ", ") + ")";
}

void collect(const PatNode& p, std::vector<const Expr*>& nodes, std::vector<isa::Op>& ops) {
  nodes.push_back(p.e);
  ops.push_back(p.op);
  for (const auto& k : p.kids) collect(k, nodes, ops);
}

constexpr int kMaxPatternSize = 4;
constexpr std::size_t kMaxInstancesPerFunction = 50000;

/// All connected patterns rooted at `e` with at most `budget` nodes
/// (including singletons — callers filter by size).
std::vector<PatNode> patternsFrom(const Expr& e, int budget) {
  std::vector<PatNode> out;
  auto op = memberOp(e);
  if (!op) return out;
  out.push_back({&e, *op, {}});
  if (budget <= 1) return out;

  std::vector<const Expr*> kids;
  std::vector<std::vector<PatNode>> kidPats;
  for (const Expr* k : dataOperands(e)) {
    auto pats = patternsFrom(*k, budget - 1);
    if (!pats.empty()) {
      kids.push_back(k);
      kidPats.push_back(std::move(pats));
    }
  }
  if (kids.empty()) return out;

  // Every assignment of (absent | one sub-pattern) per eligible child, total
  // size capped by budget. Child counts are <= 3 and budgets <= 4, so this
  // enumeration stays tiny.
  std::vector<PatNode> chosen;
  auto emit = [&](auto&& self, std::size_t i, int remaining) -> void {
    if (i == kidPats.size()) {
      if (!chosen.empty()) out.push_back({&e, *op, chosen});
      return;
    }
    self(self, i + 1, remaining);  // child absent
    for (const auto& p : kidPats[i]) {
      int sz = patSize(p);
      if (sz > remaining) continue;
      chosen.push_back(p);
      self(self, i + 1, remaining - sz);
      chosen.pop_back();
    }
  };
  emit(emit, 0, budget - 1);
  return out;
}

struct Miner {
  const lir::Function& fn;
  const vm::StmtProfile& profile;
  std::vector<IdiomInstance> out;

  double dynOf(const Stmt& s) const {
    auto it = profile.find(&s);
    return it == profile.end() ? 0.0 : static_cast<double>(it->second);
  }

  void addInstance(const PatNode& root, const Stmt* store, isa::Op storeOp, double dyn) {
    if (out.size() >= kMaxInstancesPerFunction) return;
    IdiomInstance inst;
    inst.root = root.e;
    inst.store = store;
    inst.dynCount = dyn;
    if (store) {
      inst.signature = std::string(isa::mnemonic(storeOp)) + "(" + encode(root) + ")";
      inst.ops.push_back(storeOp);
    } else {
      inst.signature = encode(root);
    }
    collect(root, inst.nodes, inst.ops);
    inst.hash = fnv1a64(inst.signature);
    out.push_back(std::move(inst));
  }

  /// Emits every pattern of size 2..4 rooted at each node of `e`'s tree.
  void mineExpr(const Expr& e, double dyn) {
    lir::walkExpr(e, [&](const Expr& x) {
      for (const auto& p : patternsFrom(x, kMaxPatternSize))
        if (patSize(p) >= 2) addInstance(p, nullptr, isa::Op::AddF, dyn);
      // A load's index is skipped: patterns never extend into address math.
      return x.kind != ExprKind::Load;
    });
  }

  void mineStore(const Stmt& s, double dyn) {
    mineExpr(*s.value, dyn);
    lir::Scalar elem;
    std::int64_t numel;
    if (!fn.arrayInfo(s.name, elem, numel)) return;
    isa::Op storeOp = lir::stmtOp(s.kind, elem, s.value->type.isVector());
    for (const auto& p : patternsFrom(*s.value, kMaxPatternSize - 1))
      addInstance(p, &s, storeOp, dyn);
  }

  /// Mines every executed statement's value (a Store's with the store
  /// itself as the pattern root) and every executed If/While condition.
  void mineBlock(const std::vector<lir::StmtPtr>& body) {
    lir::walkStmts(body, [&](const Stmt& s) {
      double dyn = dynOf(s);
      if (dyn <= 0) return;
      if (s.kind == StmtKind::Store) {
        mineStore(s, dyn);
      } else if (s.kind == StmtKind::DeclScalar || s.kind == StmtKind::Assign) {
        if (s.value) mineExpr(*s.value, dyn);
      } else if (s.kind == StmtKind::If || s.kind == StmtKind::While) {
        mineExpr(*s.cond, dyn);
      }
    });
  }
};

}  // namespace

std::vector<IdiomInstance> mineFunction(const lir::Function& fn,
                                        const vm::StmtProfile& profile) {
  Miner m{fn, profile, {}};
  m.mineBlock(fn.body);
  return m.out;
}

std::vector<MinedIdiom> aggregateIdioms(
    const std::vector<std::vector<IdiomInstance>>& perKernel) {
  std::map<std::uint64_t, MinedIdiom> byHash;
  for (const auto& instances : perKernel) {
    std::map<std::uint64_t, double> kernelCounts;
    for (const auto& inst : instances) kernelCounts[inst.hash] += inst.dynCount;
    for (const auto& inst : instances) {
      auto [it, inserted] = byHash.try_emplace(inst.hash);
      if (inserted) {
        it->second.hash = inst.hash;
        it->second.signature = inst.signature;
        it->second.ops = inst.ops;
      }
      it->second.dynCount += inst.dynCount;
    }
    for (const auto& [hash, count] : kernelCounts) {
      (void)count;
      ++byHash[hash].kernels;
    }
  }
  std::vector<MinedIdiom> out;
  out.reserve(byHash.size());
  for (auto& [hash, idiom] : byHash) out.push_back(std::move(idiom));
  std::sort(out.begin(), out.end(), [](const MinedIdiom& a, const MinedIdiom& b) {
    if (a.dynCount != b.dynCount) return a.dynCount > b.dynCount;
    return a.signature < b.signature;
  });
  return out;
}

}  // namespace mat2c::dse
