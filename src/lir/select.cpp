#include "lir/select.hpp"

#include <stdexcept>

#include "sema/builtins.hpp"

namespace mat2c::lir {
namespace {

using isa::Op;

/// The scalar or SIMD, real or complex variant of one operation.
Op variant(bool cplx, bool vector, Op f64, Op c64, Op vf64, Op vc64) {
  return vector ? (cplx ? vc64 : vf64) : (cplx ? c64 : f64);
}

/// Comparisons and logic ops compute on their operands, not on their b1.
bool onOperands(BinOp op) { return isComparison(op) || op == BinOp::And || op == BinOp::Or; }

std::optional<Op> pick(const Expr& e, bool vector) {
  bool onOperand = e.kind == ExprKind::Unary || e.kind == ExprKind::Reduce ||
                   (e.kind == ExprKind::Binary && onOperands(e.binOp));
  Scalar elem = (onOperand ? e.a->type : e.type).scalar;
  bool cplx = elem == Scalar::C64;
  switch (e.kind) {
    case ExprKind::Load: return variant(cplx, vector, Op::LoadF, Op::LoadC, Op::VLoadF, Op::VLoadC);
    case ExprKind::Splat: return cplx ? Op::VSplatC : Op::VSplatF;
    case ExprKind::Fma: return variant(cplx, vector, Op::FmaF, Op::FmaC, Op::VFmaF, Op::VFmaC);
    case ExprKind::Reduce:
      if (e.reduceOp == ReduceOp::Add) return cplx ? Op::VReduceAddC : Op::VReduceAddF;
      return e.reduceOp == ReduceOp::Min ? Op::VReduceMinF : Op::VReduceMaxF;
    case ExprKind::Unary:
      switch (e.unOp) {
        case UnOp::Neg:
          if (elem == Scalar::I64) return Op::AddI;
          return variant(cplx, vector, Op::NegF, Op::NegC, Op::VNegF, Op::VNegC);
        case UnOp::Not: return Op::CmpI;
        case UnOp::Conj: return vector ? Op::VConjC : Op::ConjC;
        case UnOp::Arg: return Op::Atan2F;
        // A row's SIMD form takes f64 lanes; a c64 operand of a row that
        // accepts one is charged as the row's c64 terms.
#define MAT2C_BUILTIN_UNARY(name, op, lir, rule, host, guard, cost, vop, ...)               \
        case UnOp::op:                                                                    \
          if (vector) return elem == Scalar::F64 ? std::optional(Op::vop) : std::nullopt; \
          if (cplx && sema::ComplexRule::rule != sema::ComplexRule::Real) return std::nullopt; \
          return Op::cost;
#include "sema/builtins.def"
        default: return std::nullopt;  // conversions and re/im parts are free
      }
    case ExprKind::Binary:
      if (onOperands(e.binOp)) return elem == Scalar::I64 ? Op::CmpI : Op::CmpF;
      if (elem == Scalar::I64) {  // index arithmetic
        switch (e.binOp) {
          case BinOp::Add: case BinOp::Sub: return Op::AddI;
          case BinOp::Mul: case BinOp::Div: return Op::MulI;
          case BinOp::Min: case BinOp::Max: return Op::CmpI;
          default: return std::nullopt;
        }
      }
      switch (e.binOp) {
        case BinOp::Add: return variant(cplx, vector, Op::AddF, Op::AddC, Op::VAddF, Op::VAddC);
        case BinOp::Sub: return variant(cplx, vector, Op::SubF, Op::SubC, Op::VSubF, Op::VSubC);
        case BinOp::Mul: return variant(cplx, vector, Op::MulF, Op::MulC, Op::VMulF, Op::VMulC);
        // cdiv.c64 is scalar only, so the SIMD c64 form has no op.
        case BinOp::Div: return cplx ? Op::DivC : vector ? Op::VDivF : Op::DivF;
        case BinOp::Pow: return Op::PowF;
#define MAT2C_BUILTIN_BINARY(name, kind, op, host, cost, vop, c) \
        case BinOp::op: return vector ? Op::vop : Op::cost;
#include "sema/builtins.def"
        default: return std::nullopt;  // complex pairing is free
      }
    default: return std::nullopt;  // constants and variables are registers
  }
}

}  // namespace

std::optional<isa::Op> selectOp(const Expr& e, bool vector) {
  // Each form has its own ops: a scalar op never stands in for a missing
  // SIMD one, nor the reverse.
  auto op = pick(e, vector);
  if (op && isa::isVectorOp(*op) != vector) return std::nullopt;
  return op;
}

isa::Op issuedOp(const Expr& e) {
  if (auto op = selectOp(e)) return *op;
  throw std::logic_error("no ISA op for " + toString(e.type) + " '" + print(e) + "'");
}

isa::Op stmtOp(StmtKind kind, Scalar elem, bool vector) {
  switch (kind) {
    case StmtKind::Store:
      return variant(elem == Scalar::C64, vector, Op::StoreF, Op::StoreC, Op::VStoreF,
                     Op::VStoreC);
    case StmtKind::For: return Op::LoopOverhead;
    case StmtKind::If:
    case StmtKind::While: return Op::Branch;
    case StmtKind::BoundsCheck: return Op::BoundsCheck;
    case StmtKind::AllocMark: return Op::AllocTemp;
    default: throw std::logic_error("statement issues no ISA op");
  }
}

}  // namespace mat2c::lir
