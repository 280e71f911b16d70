// Declaration sinking.
//
// The lowerer declares every MATLAB variable's storage at frame level so
// control flow always targets stable storage. For loop-body temporaries
// (di = x(i) * conj(x(i-1)); ...) that placement makes the loop assign to an
// *outer* variable, which the vectorizer must conservatively treat as a
// cross-iteration dependence. This pass sinks a declaration into a loop body
// when (a) every reference to the variable lives inside that single
// statement and (b) the first reference inside the loop is an unconditional
// whole-value write — i.e. the value provably does not carry across
// iterations.
#include <string>

#include "lir/analysis.hpp"
#include "lir/walk.hpp"
#include "opt/passes.hpp"

namespace mat2c::opt {

using namespace lir;

namespace {

/// True when `s` reads `name` or defines it (DeclScalar/Assign target, For
/// induction variable).
bool mentions(const Stmt& s, const std::string& name) {
  bool found = false;
  walkNodes(
      s,
      [&](const Stmt& st) {
        bool defines = st.kind == StmtKind::DeclScalar || st.kind == StmtKind::Assign ||
                       st.kind == StmtKind::For;
        found = found || (defines && st.name == name);
        return !found;
      },
      [&](const Expr& e) {
        found = found || (e.kind == ExprKind::VarRef && e.name == name);
        return !found;
      });
  return found;
}

/// Finds where a declaration of `name` may sink inside `body`:
///   * if the first referencing statement is an unconditional top-level
///     full write (Assign whose value does not read `name`), that is the
///     spot;
///   * if ALL references live inside a single nested For, recurse into it;
///   * anything else (read-before-write, conditional write) fails.
struct SinkPoint {
  std::vector<StmtPtr>* block = nullptr;
  Stmt* write = nullptr;
};

SinkPoint findSinkPoint(std::vector<StmtPtr>& body, const std::string& name) {
  for (auto& sp : body) {
    Stmt& s = *sp;
    if (!mentions(s, name)) continue;
    if (s.kind == StmtKind::Assign && s.name == name && !varReads(*s.value).count(name)) {
      return {&body, &s};
    }
    if (s.kind == StmtKind::For) {
      // Only valid if no later statement in this block references the name.
      bool escapes = false;
      bool seen = false;
      for (auto& other : body) {
        if (other.get() == &s) {
          seen = true;
          continue;
        }
        if (seen && mentions(*other, name)) escapes = true;
      }
      if (escapes) return {};
      return findSinkPoint(s.body, name);
    }
    return {};
  }
  return {};
}

bool sinkInBlock(std::vector<StmtPtr>& block) {
  bool anyChange = false;
  // Recurse first.
  for (auto& sp : block) {
    forEachBlock(*sp, [&](auto& inner) { anyChange |= sinkInBlock(inner); });
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (block[i]->kind != StmtKind::DeclScalar || block[i]->value) continue;
      const std::string& name = block[i]->name;
      // All other references must live inside exactly one For statement.
      Stmt* host = nullptr;
      bool eligible = true;
      for (std::size_t j = 0; j < block.size() && eligible; ++j) {
        if (j == i) continue;
        if (!mentions(*block[j], name)) continue;
        if (host || block[j]->kind != StmtKind::For) {
          eligible = false;
        } else {
          host = block[j].get();
        }
      }
      if (!eligible || !host) continue;
      SinkPoint point = findSinkPoint(host->body, name);
      if (!point.write) continue;

      // Convert that first write into the declaration and drop the outer one.
      VType declType = block[i]->declType;
      for (auto& hs : *point.block) {
        if (hs.get() == point.write) {
          hs = declScalar(name, declType, std::move(hs->value));
          break;
        }
      }
      block.erase(block.begin() + static_cast<std::ptrdiff_t>(i));
      changed = true;
      anyChange = true;
      break;
    }
  }
  return anyChange;
}

}  // namespace

void sinkDecls(lir::Function& fn) {
  // Sinking into an outer loop can expose further sinking into inner loops;
  // iterate to a fixpoint (depth-bounded by loop nesting).
  for (int i = 0; i < 8 && sinkInBlock(fn.body); ++i) {
  }
}

}  // namespace mat2c::opt
