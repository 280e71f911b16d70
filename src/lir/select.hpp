// Instruction selection: which ISA op a LIR node issues.
//
// This is the one place the choice is made. The VM charges the op, the C
// emitter spells it, the vectorizer and the idiom pass ask whether the
// target has it, and the DSE miner fuses it, so the emitted code, the cycle
// count and the explored design space cannot disagree about an operation.
#pragma once

#include <optional>

#include "isa/isa.hpp"
#include "lir/lir.hpp"

namespace mat2c::lir {

/// The op one evaluation of `e` issues in its scalar or SIMD (`vector`)
/// form, from its kind, operator and element type (the operand's for Unary,
/// Reduce, comparison and logic nodes). nullopt when the node issues none
/// (constants, variables, conversions, re/im parts, complex pairing), when a
/// builtin on a c64 operand is charged as its builtins.def terms instead,
/// or when the form has no op (no SIMD transcendental or c64 division).
std::optional<isa::Op> selectOp(const Expr& e, bool vector);

/// selectOp in the form `e` has as typed (Splat and Reduce are SIMD).
inline std::optional<isa::Op> selectOp(const Expr& e) {
  return selectOp(e, e.kind == ExprKind::Reduce || e.type.isVector());
}

/// selectOp(e) for a node that must issue an op: throws std::logic_error
/// naming the node when it has none.
isa::Op issuedOp(const Expr& e);

/// The op one execution of a statement issues: a Store of `elem` elements
/// (SIMD when `vector`), loop overhead per For iteration, a branch per If or
/// While test, or a BoundsCheck's or AllocMark's runtime overhead. Throws
/// std::logic_error for kinds that issue nothing.
isa::Op stmtOp(StmtKind kind, Scalar elem = Scalar::F64, bool vector = false);

}  // namespace mat2c::lir
