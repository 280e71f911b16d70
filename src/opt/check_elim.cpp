// Bounds-check elimination.
//
// CoderLike code carries a BoundsCheck before every array access. After
// specialization every array extent is a compile-time constant and most
// indices are affine in loop counters with constant bounds, so the range of
// the index is computable: checks that can never fire are removed. This is
// the static-shape payoff the paper's specializing front end enables — a
// MATLAB-Coder-style runtime cannot do this because its shapes are dynamic.
#include <map>
#include <string>

#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

struct Range {
  std::int64_t lo = 0;
  std::int64_t hi = 0;  // inclusive
};

class Eliminator {
 public:
  explicit Eliminator(Function& fn) : fn_(fn) {}

  int run() {
    visit(fn_.body);
    return removed_;
  }

 private:
  /// Inclusive range of an affine i64 expression under the known loop-var
  /// ranges; false when any term is unknown.
  bool rangeOf(const Expr& e, Range& out) {
    Affine a = affineOf(e);
    if (!a.ok) return false;
    std::int64_t lo = a.constant;
    std::int64_t hi = a.constant;
    for (const auto& [name, coeff] : a.coeffs) {
      if (coeff == 0) continue;
      auto it = vars_.find(name);
      if (it == vars_.end()) return false;
      const Range& r = it->second;
      if (coeff > 0) {
        lo += coeff * r.lo;
        hi += coeff * r.hi;
      } else {
        lo += coeff * r.hi;
        hi += coeff * r.lo;
      }
    }
    out = {lo, hi};
    return true;
  }

  void visit(std::vector<StmtPtr>& block) {
    std::vector<StmtPtr> out;
    out.reserve(block.size());
    for (auto& sp : block) {
      Stmt& s = *sp;
      if (s.kind == StmtKind::For) {
        bool tracked = false;
        if (s.lo->kind == ExprKind::ConstI && s.hi->kind == ExprKind::ConstI) {
          // Range of the induction variable over all iterations (empty loops
          // keep a degenerate range; the check removal is still sound since
          // the body never runs).
          std::int64_t first = s.lo->ival;
          std::int64_t lastExcl = s.hi->ival;
          std::int64_t lo;
          std::int64_t hi;
          if (s.step > 0) {
            lo = first;
            hi = lastExcl - 1;
          } else {
            hi = first;
            lo = lastExcl + 1;
          }
          if (lo <= hi) {
            vars_[s.name] = {lo, hi};
            tracked = true;
          }
        }
        forEachBlock(s, [&](auto& inner) { visit(inner); });
        if (tracked) vars_.erase(s.name);
        out.push_back(std::move(sp));
        continue;
      }
      forEachBlock(s, [&](auto& inner) { visit(inner); });
      if (s.kind == StmtKind::BoundsCheck) {
        Scalar elem{};
        std::int64_t numel = 0;
        Range r;
        if (fn_.arrayInfo(s.name, elem, numel) && rangeOf(*s.index, r) && r.lo >= 0 &&
            r.hi < numel) {
          ++removed_;
          continue;  // provably safe — drop
        }
      }
      out.push_back(std::move(sp));
    }
    block = std::move(out);
  }

  Function& fn_;
  std::map<std::string, Range> vars_;
  int removed_ = 0;
};

}  // namespace

int eliminateProvableChecks(lir::Function& fn) { return Eliminator(fn).run(); }

}  // namespace mat2c::opt
