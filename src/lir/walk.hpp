// LIR's tree layout, stated once.
//
// Which fields of Expr and Stmt hold children, and the order they are
// visited in, is written here and nowhere else: every pass walks LIR
// through these templates. They take the callable directly (no
// std::function, no allocation per visit), and work on const and mutable
// trees alike.
//
// Visit order, which passes rely on (CSE temp numbering, LICM hoist order,
// the lowerer's bounds-check order and the DSE miner's instance order all
// follow it):
//   * an Expr's operands: index, a, b, c;
//   * a Stmt's expressions: value, index, then lo, hi (For) or cond
//     (If/While) — no statement kind has both, and lir::verify reports a
//     slot the kind does not have;
//   * a Stmt's nested blocks: body, then elseBody.
// The pre-order walks visit a node before its children. A callback that
// returns bool stops the descent below the node it returns false for (its
// siblings are still visited); a void callback always descends.
#pragma once

#include <concepts>
#include <type_traits>
#include <vector>

#include "lir/lir.hpp"

namespace mat2c::lir {

namespace detail {

/// `T` is `U` or `const U`.
template <class T, class U>
concept MaybeConst = std::same_as<std::remove_const_t<T>, U>;

/// `U` with the constness of `T`.
template <class T, class U>
using LikeConst = std::conditional_t<std::is_const_v<T>, const U, U>;

/// Calls f(node) and says whether to descend below it.
template <class F, class N>
bool visit(F& f, N& node) {
  if constexpr (std::is_void_v<std::invoke_result_t<F&, N&>>) {
    f(node);
    return true;
  } else {
    return f(node);
  }
}

}  // namespace detail

/// Calls f(slot) for every non-null operand slot of `e`: index, a, b, c. The
/// slot is an ExprPtr& (const for a const Expr), so a rewriter can replace
/// the child in place.
template <detail::MaybeConst<Expr> E, class F>
void forEachOperand(E& e, F&& f) {
  if (e.index) f(e.index);
  if (e.a) f(e.a);
  if (e.b) f(e.b);
  if (e.c) f(e.c);
}

/// Calls f(slot) for every non-null expression slot of `s`: value, index,
/// lo, hi, cond.
template <detail::MaybeConst<Stmt> S, class F>
void forEachExpr(S& s, F&& f) {
  if (s.value) f(s.value);
  if (s.index) f(s.index);
  if (s.lo) f(s.lo);
  if (s.hi) f(s.hi);
  if (s.cond) f(s.cond);
}

/// Calls f(block) for the nested blocks of `s`: body, then elseBody (empty
/// ones too, so a block rewriter sees every block it may fill).
template <detail::MaybeConst<Stmt> S, class F>
void forEachBlock(S& s, F&& f) {
  f(s.body);
  f(s.elseBody);
}

/// Pre-order walk of the expression tree `e`: f(node) on every node.
template <detail::MaybeConst<Expr> E, class F>
void walkExpr(E& e, F&& f) {
  if (!detail::visit(f, e)) return;
  forEachOperand(e, [&](auto& k) { walkExpr(static_cast<E&>(*k), f); });
}

/// Pre-order walk over the slots of the tree held by `slot`: f(slot) may
/// replace the node, and the walk then descends into the new node.
template <class F>
void walkSlots(ExprPtr& slot, F&& f) {
  if (!detail::visit(f, slot)) return;
  forEachOperand(*slot, [&](ExprPtr& k) { walkSlots(k, f); });
}

/// Pre-order walk of `s` and every statement nested in it: f(stmt).
template <detail::MaybeConst<Stmt> S, class F>
void walkStmts(S& s, F&& f) {
  if (!detail::visit(f, s)) return;
  forEachBlock(s, [&](auto& block) {
    for (auto& st : block) walkStmts(static_cast<S&>(*st), f);
  });
}

/// walkStmts over each statement of `block`.
template <detail::MaybeConst<std::vector<StmtPtr>> B, class F>
void walkStmts(B& block, F&& f) {
  for (auto& s : block) walkStmts(static_cast<detail::LikeConst<B, Stmt>&>(*s), f);
}

/// Pre-order walk of every node under `s`: a statement, then the expression
/// trees of its slots (each walked with walkExpr), then its nested blocks.
/// onStmt returning false skips both the statement's expressions and its
/// blocks.
template <detail::MaybeConst<Stmt> S, class SF, class EF>
void walkNodes(S& s, SF&& onStmt, EF&& onExpr) {
  walkStmts(s, [&](S& st) {
    if (!detail::visit(onStmt, st)) return false;
    forEachExpr(st, [&](auto& e) {
      walkExpr(static_cast<detail::LikeConst<S, Expr>&>(*e), onExpr);
    });
    return true;
  });
}

/// walkNodes over each statement of `block`.
template <detail::MaybeConst<std::vector<StmtPtr>> B, class SF, class EF>
void walkNodes(B& block, SF&& onStmt, EF&& onExpr) {
  for (auto& s : block)
    walkNodes(static_cast<detail::LikeConst<B, Stmt>&>(*s), onStmt, onExpr);
}

}  // namespace mat2c::lir
