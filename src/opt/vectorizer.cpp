// SIMD vectorizer.
//
// Strip-mines innermost unit-stride loops onto the active ISA's lane width:
//   * stride-1 loads/stores become wide vld/vst ops,
//   * loop invariants are splat once per iteration,
//   * reduction accumulators (acc = acc + e, acc = fma(a,b,acc), min/max)
//     become vector accumulators folded horizontally after the loop,
//   * a scalar remainder loop covers trip%W iterations.
// Every vector op is emitted only if IsaDescription::supports() says the
// instruction exists — retargeting the compiler is swapping the description.
#include <limits>
#include <map>
#include <set>

#include "lir/select.hpp"
#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

struct Reduction {
  std::string var;      // scalar accumulator (declared outside the loop)
  std::string vecVar;   // vector accumulator
  VType scalarType;
  ReduceOp reduceOp;
};

class LoopVectorizer {
 public:
  LoopVectorizer(const Function& fn, const isa::IsaDescription& isa, Stmt& loop, int counter)
      : fn_(fn), isa_(isa), loop_(loop), counter_(counter) {}

  /// On success returns the replacement statement sequence.
  bool run(std::vector<StmtPtr>& replacement);

  /// Why the loop was rejected (valid after run() returned false).
  const std::string& reason() const { return reason_; }

 private:
  bool analyze();
  bool analyzeExpr(const Expr& e);
  bool isVarying(const Expr& e) const;
  bool opSupported(const Expr& e);

  ExprPtr rewrite(const Expr& e);
  ExprPtr widen(ExprPtr e);

  std::string fresh(const std::string& hint) {
    std::string name = "v";
    name.append(std::to_string(counter_)).append("_").append(std::to_string(sub_++));
    return name.append("_").append(hint);
  }

  bool reject(const std::string& why) {
    if (reason_.empty()) reason_ = why;
    return false;
  }

  const Function& fn_;
  const isa::IsaDescription& isa_;
  Stmt& loop_;
  int counter_;
  int sub_ = 0;
  std::string reason_;

  int width_ = 0;
  bool anyComplex_ = false;
  std::set<std::string> bodyDecls_;       // scalars declared in the body
  std::set<std::string> varyingVars_;     // body decls that vary with i
  std::map<std::string, Reduction> reductions_;
  std::map<std::string, std::vector<Affine>> storeIdx_;  // array -> store indices
  std::map<std::string, std::vector<Affine>> loadIdx_;   // array -> load indices
};

bool LoopVectorizer::isVarying(const Expr& e) const {
  switch (e.kind) {
    case ExprKind::ConstF:
    case ExprKind::ConstI:
      return false;
    case ExprKind::VarRef:
      return e.name == loop_.name || varyingVars_.count(e.name) != 0;
    default: {
      // A load varies with its index, any other node with an operand.
      bool v = false;
      forEachOperand(e, [&](const ExprPtr& k) { v = v || isVarying(*k); });
      return v;
    }
  }
}

bool LoopVectorizer::opSupported(const Expr& e) {
  switch (e.kind) {
    case ExprKind::VarRef:
    case ExprKind::ConstF:
    case ExprKind::ConstI:
      return true;
    case ExprKind::Load: {
      // Varying loads must be stride-1 in the induction variable.
      Affine a = affineOf(*e.index);
      if (!a.ok) return false;
      std::int64_t stride = a.coeff(loop_.name);
      if (stride != 1 && stride != 0) return false;
      break;
    }
    case ExprKind::Unary:
      if (e.unOp == UnOp::ToC64) return e.a->type.scalar == Scalar::F64;  // lane-wise widen, free
      break;
    case ExprKind::Binary:
      if (e.binOp == BinOp::MakeComplex) return isa_.lanesC64() > 1;
      break;
    case ExprKind::Splat:
    case ExprKind::Reduce:
      return false;  // already SIMD
    default:
      break;
  }
  // Everything else widens to the node's SIMD op, if the target has one.
  auto op = selectOp(e, /*vector=*/true);
  return op && isa_.supports(*op);
}

bool LoopVectorizer::analyzeExpr(const Expr& e) {
  if (e.type.scalar == Scalar::C64) anyComplex_ = true;
  bool varying = isVarying(e);
  if (varying && (e.type.scalar == Scalar::F64 || e.type.scalar == Scalar::C64)) {
    if (!opSupported(e)) return false;
  }
  if (varying && e.type == VType::i64() && e.kind != ExprKind::VarRef &&
      e.kind != ExprKind::ConstI && e.kind != ExprKind::Binary) {
    return false;  // i64 computation beyond affine index math
  }
  if (e.kind == ExprKind::Load) {
    Affine a = affineOf(*e.index);
    if (!a.ok) return false;
    std::int64_t stride = a.coeff(loop_.name);
    if (stride != 0 && stride != 1) return false;
    // Index must not depend on body-declared varying vars.
    for (const auto& [name, c] : a.coeffs) {
      if (c != 0 && name != loop_.name && varyingVars_.count(name)) return false;
    }
    loadIdx_[e.name].push_back(a);
  }
  if (e.kind == ExprKind::Unary && varying) {
    // Value-use of the induction variable (tof64(i)) needs an iota op we do
    // not model; reject.
    if (e.unOp == UnOp::ToF64 || e.unOp == UnOp::ToI64) {
      if (isVarying(*e.a)) return false;
    }
  }
  bool ok = true;
  forEachOperand(e, [&](const ExprPtr& k) { ok = ok && analyzeExpr(*k); });
  return ok;
}

bool LoopVectorizer::analyze() {
  if (loop_.step != 1) return reject("non-unit loop step");

  // First pass: statement shapes, declarations, reduction candidates.
  for (const auto& sp : loop_.body) {
    const Stmt& s = *sp;
    switch (s.kind) {
      case StmtKind::DeclScalar:
        bodyDecls_.insert(s.name);
        break;
      case StmtKind::Assign: {
        if (bodyDecls_.count(s.name)) break;
        // Assignment to an outer variable: must be a reduction.
        const Expr& v = *s.value;
        Reduction red;
        red.var = s.name;
        red.scalarType = v.type;
        if (v.kind == ExprKind::Binary &&
            (v.binOp == BinOp::Add || v.binOp == BinOp::Min || v.binOp == BinOp::Max)) {
          const bool lhsIsAcc = v.a->kind == ExprKind::VarRef && v.a->name == s.name;
          const bool rhsIsAcc = v.b->kind == ExprKind::VarRef && v.b->name == s.name;
          if (lhsIsAcc == rhsIsAcc) return false;  // both or neither
          red.reduceOp = v.binOp == BinOp::Add ? ReduceOp::Add
                         : v.binOp == BinOp::Min ? ReduceOp::Min
                                                 : ReduceOp::Max;
        } else if (v.kind == ExprKind::Fma && v.c->kind == ExprKind::VarRef &&
                   v.c->name == s.name) {
          red.reduceOp = ReduceOp::Add;
        } else {
          return reject("assignment to '" + s.name +
                        "' carries a value across iterations (not a reduction)");
        }
        if (red.reduceOp != ReduceOp::Add && red.scalarType.scalar != Scalar::F64)
          return reject("min/max reduction over non-f64 values");
        if (reductions_.count(s.name))
          return reject("accumulator '" + s.name + "' updated more than once");
        reductions_.emplace(s.name, std::move(red));
        break;
      }
      case StmtKind::Store: {
        Affine a = affineOf(*s.index);
        if (!a.ok || a.coeff(loop_.name) != 1)
          return reject("store to '" + s.name + "' is not unit-stride in the induction variable");
        for (const auto& [name, c] : a.coeffs) {
          if (c != 0 && name != loop_.name && bodyDecls_.count(name)) return false;
        }
        storeIdx_[s.name].push_back(a);
        break;
      }
      case StmtKind::Comment:
        break;
      default:
        return reject("loop body contains control flow or runtime checks");
    }
  }

  // Varying classification for body decls (iterate to a fixpoint).
  for (int iter = 0; iter < 4; ++iter) {
    bool changed = false;
    for (const auto& sp : loop_.body) {
      if (sp->kind != StmtKind::DeclScalar && sp->kind != StmtKind::Assign) continue;
      if (sp->kind == StmtKind::Assign && !bodyDecls_.count(sp->name)) continue;
      if (!sp->value) continue;
      if (isVarying(*sp->value) && !varyingVars_.count(sp->name)) {
        varyingVars_.insert(sp->name);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Reduction accumulators must not be read outside their own update.
  // (The update itself references them once; a second read would need a
  // scan, not a reduction.)

  // Second pass: expression legality.
  anyComplex_ = false;
  for (const auto& sp : loop_.body) {
    const Stmt& s = *sp;
    if (s.value && !analyzeExpr(*s.value))
      return reject("an operation has no supported vector form on this target");
    if (s.index && !analyzeExpr(*s.index))
      return reject("index arithmetic is not affine in the induction variable");
  }

  // Alias check: a stored array may only be loaded at the identical index.
  for (const auto& [array, stores] : storeIdx_) {
    auto it = loadIdx_.find(array);
    if (it == loadIdx_.end()) continue;
    for (const auto& st : stores) {
      for (const auto& ld : it->second) {
        Affine diff = affineSub(st, ld);
        bool zero = diff.ok && diff.constant == 0;
        if (zero) {
          for (const auto& [name, c] : diff.coeffs) {
            (void)name;
            if (c != 0) zero = false;
          }
        }
        if (!zero)
          return reject("array '" + array + "' is loaded and stored at different offsets");
      }
    }
  }

  width_ = anyComplex_ ? isa_.lanesC64() : isa_.lanesF64();
  if (width_ <= 1)
    return reject(anyComplex_ ? "target has no complex SIMD lanes"
                              : "target has no SIMD lanes");
  if (anyComplex_ && isa_.lanesF64() < width_)
    return reject("mixed real/complex loop exceeds the f64 lane width");
  return true;
}

ExprPtr LoopVectorizer::widen(ExprPtr e) {
  if (e->type.isVector()) return e;
  return splat(std::move(e), width_);
}

ExprPtr LoopVectorizer::rewrite(const Expr& e) {
  if (!isVarying(e)) return e.clone();  // stays scalar; splat at use if needed
  switch (e.kind) {
    case ExprKind::VarRef: {
      // A varying body variable: now vector-typed.
      return varRef(e.name, {e.type.scalar, width_});
    }
    case ExprKind::Load: {
      Affine a = affineOf(*e.index);
      if (a.coeff(loop_.name) == 0) return e.clone();  // invariant load
      return load(e.name, e.index->clone(), {e.type.scalar, width_});
    }
    case ExprKind::Unary: {
      ExprPtr v = widen(rewrite(*e.a));
      return unary(e.unOp, std::move(v), {e.type.scalar, width_});
    }
    case ExprKind::Binary: {
      ExprPtr a = widen(rewrite(*e.a));
      ExprPtr b = widen(rewrite(*e.b));
      return binary(e.binOp, std::move(a), std::move(b), {e.type.scalar, width_});
    }
    case ExprKind::Fma: {
      ExprPtr a = widen(rewrite(*e.a));
      ExprPtr b = widen(rewrite(*e.b));
      ExprPtr c = widen(rewrite(*e.c));
      return fma(std::move(a), std::move(b), std::move(c), {e.type.scalar, width_});
    }
    default:
      return e.clone();
  }
}

bool LoopVectorizer::run(std::vector<StmtPtr>& replacement) {
  if (!analyze()) return false;

  const std::string& iv = loop_.name;
  // vecEnd = lo + ((hi - lo) / W) * W
  ExprPtr lo = loop_.lo->clone();
  ExprPtr hi = loop_.hi->clone();
  ExprPtr span = binary(BinOp::Sub, hi->clone(), lo->clone(), VType::i64());
  ExprPtr blocks = binary(BinOp::Div, std::move(span), constI(width_), VType::i64());
  ExprPtr mainLen = binary(BinOp::Mul, std::move(blocks), constI(width_), VType::i64());
  ExprPtr vecEnd = binary(BinOp::Add, lo->clone(), std::move(mainLen), VType::i64());
  std::string vecEndVar = fresh("vend");
  replacement.push_back(declScalar(vecEndVar, VType::i64(), std::move(vecEnd)));

  // Vector accumulators.
  for (auto& [name, red] : reductions_) {
    red.vecVar = fresh(name + "_v");
    ExprPtr identity;
    VType vt{red.scalarType.scalar, width_};
    switch (red.reduceOp) {
      case ReduceOp::Add:
        identity = red.scalarType.scalar == Scalar::C64
                       ? splat(constC(0.0, 0.0), width_)
                       : splat(constF(0.0), width_);
        break;
      case ReduceOp::Min:
        identity = splat(constF(std::numeric_limits<double>::infinity()), width_);
        break;
      case ReduceOp::Max:
        identity = splat(constF(-std::numeric_limits<double>::infinity()), width_);
        break;
    }
    replacement.push_back(declScalar(red.vecVar, vt, std::move(identity)));
  }

  // Vector body.
  std::vector<StmtPtr> vecBody;
  for (const auto& sp : loop_.body) {
    const Stmt& s = *sp;
    switch (s.kind) {
      case StmtKind::Comment:
        vecBody.push_back(s.clone());
        break;
      case StmtKind::DeclScalar: {
        if (!varyingVars_.count(s.name)) {
          vecBody.push_back(s.clone());
          break;
        }
        ExprPtr init = s.value ? widen(rewrite(*s.value)) : nullptr;
        vecBody.push_back(declScalar(s.name, {s.declType.scalar, width_}, std::move(init)));
        break;
      }
      case StmtKind::Assign: {
        auto rit = reductions_.find(s.name);
        if (rit == reductions_.end()) {
          if (!varyingVars_.count(s.name)) {
            vecBody.push_back(s.clone());
            break;
          }
          vecBody.push_back(assign(s.name, widen(rewrite(*s.value))));
          break;
        }
        // Rebuild the reduction update against the vector accumulator.
        Reduction& red = rit->second;
        VType vt{red.scalarType.scalar, width_};
        const Expr& v = *s.value;
        if (v.kind == ExprKind::Fma) {
          ExprPtr a = widen(rewrite(*v.a));
          ExprPtr b = widen(rewrite(*v.b));
          vecBody.push_back(
              assign(red.vecVar, fma(std::move(a), std::move(b), varRef(red.vecVar, vt), vt)));
        } else {
          const Expr& other =
              (v.a->kind == ExprKind::VarRef && v.a->name == s.name) ? *v.b : *v.a;
          ExprPtr contrib = widen(rewrite(other));
          vecBody.push_back(assign(
              red.vecVar, binary(v.binOp, varRef(red.vecVar, vt), std::move(contrib), vt)));
        }
        break;
      }
      case StmtKind::Store:
        vecBody.push_back(store(s.name, s.index->clone(), widen(rewrite(*s.value))));
        break;
      default:
        return false;  // unreachable after analyze()
    }
  }
  replacement.push_back(forLoop(iv, lo->clone(), varRef(vecEndVar, VType::i64()), width_,
                                std::move(vecBody)));

  // Horizontal folds.
  for (auto& [name, red] : reductions_) {
    VType st{red.scalarType.scalar, 1};
    VType vt{red.scalarType.scalar, width_};
    ExprPtr folded = reduce(red.reduceOp, varRef(red.vecVar, vt));
    BinOp combine = red.reduceOp == ReduceOp::Add ? BinOp::Add
                    : red.reduceOp == ReduceOp::Min ? BinOp::Min
                                                    : BinOp::Max;
    replacement.push_back(
        assign(name, binary(combine, varRef(name, st), std::move(folded), st)));
  }

  // Scalar remainder loop.
  std::vector<StmtPtr> remBody;
  remBody.reserve(loop_.body.size());
  for (const auto& sp : loop_.body) remBody.push_back(sp->clone());
  replacement.push_back(
      forLoop(iv, varRef(vecEndVar, VType::i64()), hi->clone(), 1, std::move(remBody)));
  return true;
}

// -- driver -------------------------------------------------------------------

bool containsLoop(const std::vector<StmtPtr>& body) {
  bool found = false;
  walkStmts(body, [&](const Stmt& s) {
    found = found || s.kind == StmtKind::For || s.kind == StmtKind::While;
    return !found;
  });
  return found;
}

void visitBlock(std::vector<StmtPtr>& block, const Function& fn,
                const isa::IsaDescription& isa, VectorizeStats& stats, int& counter) {
  std::vector<StmtPtr> out;
  out.reserve(block.size());
  for (auto& sp : block) {
    // Recurse first so inner loops are handled before outer ones.
    forEachBlock(*sp, [&](auto& inner) { visitBlock(inner, fn, isa, stats, counter); });
    if (sp->kind == StmtKind::For && !containsLoop(sp->body)) {
      ++stats.loopsConsidered;
      LoopVectorizer lv(fn, isa, *sp, counter++);
      std::vector<StmtPtr> replacement;
      if (lv.run(replacement)) {
        ++stats.loopsVectorized;
        for (auto& r : replacement) out.push_back(std::move(r));
        continue;
      }
      stats.missed.push_back("loop over '" + sp->name + "' not vectorized: " +
                             (lv.reason().empty() ? "unsupported shape" : lv.reason()));
    }
    out.push_back(std::move(sp));
  }
  block = std::move(out);
}

}  // namespace

VectorizeStats vectorize(lir::Function& fn, const isa::IsaDescription& isa) {
  VectorizeStats stats;
  if (isa.lanesF64() <= 1 && isa.lanesC64() <= 1) return stats;
  int counter = 0;
  visitBlock(fn.body, fn, isa, stats, counter);
  return stats;
}

}  // namespace mat2c::opt
