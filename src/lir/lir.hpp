// LIR — the compiler's low-level typed IR.
//
// LIR is structured (loops/ifs, not a CFG), scalar-and-vector typed, and
// deliberately C-shaped: every construct prints directly as ANSI C, executes
// directly on the cycle-model VM, and maps 1:1 onto the ISA description's
// operation table. Arrays have static shapes (the specializing front end
// guarantees this); indices are 0-based i64.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mat2c::lir {

enum class Scalar { F64, C64, I64, B1 };
const char* toString(Scalar s);

/// A value type: scalar element + SIMD lane count (1 = scalar).
struct VType {
  Scalar scalar = Scalar::F64;
  int lanes = 1;

  static VType f64(int lanes = 1) { return {Scalar::F64, lanes}; }
  static VType c64(int lanes = 1) { return {Scalar::C64, lanes}; }
  static VType i64() { return {Scalar::I64, 1}; }
  static VType b1() { return {Scalar::B1, 1}; }

  bool isVector() const { return lanes > 1; }
  friend bool operator==(const VType&, const VType&) = default;
};
std::string toString(VType t);

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  ConstF,   // f64 literal
  ConstI,   // i64 literal
  VarRef,   // scalar or vector variable
  Load,     // array[index]; lanes > 1 = consecutive vector load
  Unary,
  Binary,
  Fma,      // a*b + c fused (scalar or vector, real or complex)
  Splat,    // broadcast scalar -> vector
  Reduce,   // horizontal reduction of a vector -> scalar
};

enum class UnOp {
  Neg, Not, Abs, Sqrt, Exp, Log, Log2, Log10, Sin, Cos, Tan, Asin, Acos, Atan,
  Floor, Ceil, Round, Trunc, Sign,
  Conj, RealPart, ImagPart, Arg,   // complex
  ToF64, ToI64, ToC64,             // conversions (B1/I64 -> F64, F64 -> I64, F64 -> C64)
};
const char* toString(UnOp op);

enum class BinOp {
  Add, Sub, Mul, Div, Pow, Min, Max, Atan2, Mod, Rem,
  Eq, Ne, Lt, Le, Gt, Ge, And, Or,
  MakeComplex,  // (re: f64, im: f64) -> c64
};
const char* toString(BinOp op);
bool isComparison(BinOp op);

enum class ReduceOp { Add, Min, Max };
const char* toString(ReduceOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  VType type;

  // ConstF / ConstI
  double fval = 0.0;
  std::int64_t ival = 0;

  // VarRef / Load
  std::string name;   // variable or array name
  ExprPtr index;      // Load: i64 element index

  // Unary / Binary / Fma / Splat / Reduce
  UnOp unOp{};
  BinOp binOp{};
  ReduceOp reduceOp{};
  ExprPtr a;  // operand 0 (Unary operand, Binary lhs, Fma a, Splat src, Reduce src)
  ExprPtr b;  // Binary rhs, Fma b
  ExprPtr c;  // Fma addend

  ExprPtr clone() const;
};

// -- construction helpers ----------------------------------------------------
ExprPtr constF(double v);
ExprPtr constI(std::int64_t v);
ExprPtr constC(double re, double im);
ExprPtr varRef(std::string name, VType type);
ExprPtr load(std::string array, ExprPtr index, VType type);
ExprPtr unary(UnOp op, ExprPtr operand, VType type);
ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs, VType type);
ExprPtr fma(ExprPtr a, ExprPtr b, ExprPtr c, VType type);
ExprPtr splat(ExprPtr scalar, int lanes);
ExprPtr reduce(ReduceOp op, ExprPtr vec);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  DeclScalar,   // declare (and optionally init) a scalar/vector register
  Assign,       // existing register = expr
  Store,        // array[index] = value (vector value = consecutive store)
  For,          // for (var = lo; var < hi; var += step) body
  If,
  While,
  Break,
  Continue,
  BoundsCheck,  // baseline-style runtime check on array[index]
  AllocMark,    // baseline-style temporary materialization marker
  Comment,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind kind;

  std::string name;          // DeclScalar/Assign var; Store/BoundsCheck/AllocMark array;
                             // For induction var; Comment text
  VType declType;            // DeclScalar
  ExprPtr value;             // DeclScalar init / Assign rhs / Store value
  ExprPtr index;             // Store/BoundsCheck index
  ExprPtr lo, hi;            // For bounds (hi exclusive), i64
  std::int64_t step = 1;     // For step (compile-time constant)
  ExprPtr cond;              // If/While condition (b1)
  std::vector<StmtPtr> body;       // For/While body, If then-branch
  std::vector<StmtPtr> elseBody;   // If else-branch

  StmtPtr clone() const;
};

StmtPtr declScalar(std::string name, VType type, ExprPtr init = nullptr);
StmtPtr assign(std::string name, ExprPtr value);
StmtPtr store(std::string array, ExprPtr index, ExprPtr value);
StmtPtr forLoop(std::string var, ExprPtr lo, ExprPtr hi, std::int64_t step,
                std::vector<StmtPtr> body);
StmtPtr ifStmt(ExprPtr cond, std::vector<StmtPtr> thenBody,
               std::vector<StmtPtr> elseBody = {});
StmtPtr whileStmt(ExprPtr cond, std::vector<StmtPtr> body);
StmtPtr breakStmt();
StmtPtr continueStmt();
StmtPtr boundsCheck(std::string array, ExprPtr index);
StmtPtr allocMark(std::string array);
StmtPtr comment(std::string text);

// ---------------------------------------------------------------------------
// Function
// ---------------------------------------------------------------------------

/// A parameter or result: scalar value or array with a static shape.
struct Param {
  std::string name;
  Scalar elem = Scalar::F64;
  bool isArray = false;
  std::int64_t rows = 1;
  std::int64_t cols = 1;

  std::int64_t numel() const { return rows * cols; }
};

/// A local array with a static shape.
struct ArrayDecl {
  std::string name;
  Scalar elem = Scalar::F64;
  std::int64_t rows = 1;
  std::int64_t cols = 1;

  std::int64_t numel() const { return rows * cols; }
};

struct Function {
  std::string name;
  std::vector<Param> params;   // inputs, in call order
  std::vector<Param> outs;     // outputs (scalars returned via pointer in C)
  std::vector<ArrayDecl> arrays;  // locals
  std::vector<StmtPtr> body;

  const Param* findParam(const std::string& n) const;
  const Param* findOut(const std::string& n) const;
  const ArrayDecl* findArray(const std::string& n) const;
  /// Element type and static element count of any named array (param, out,
  /// or local); returns false when `n` is not an array.
  bool arrayInfo(const std::string& n, Scalar& elem, std::int64_t& numel) const;
};

/// Human-readable dump (tests, --dump-lir).
std::string print(const Function& fn);
std::string print(const Stmt& stmt, int indent = 0);
std::string print(const Expr& expr);

/// Structural well-formedness check; returns a list of problems (empty = ok).
std::vector<std::string> verify(const Function& fn);

/// Cheap size statistics over a function's statement tree. The instrumented
/// pass pipeline records these before and after every pass so a transform's
/// effect on program shape is attributable without diffing dumps.
struct FunctionStats {
  int statements = 0;    // every Stmt node, recursively
  int loops = 0;         // For + While
  int decls = 0;         // DeclScalar
  int stores = 0;        // Store
  int boundsChecks = 0;  // BoundsCheck

  friend bool operator==(const FunctionStats&, const FunctionStats&) = default;
};
FunctionStats collectStats(const Function& fn);
FunctionStats collectStats(const std::vector<StmtPtr>& block);

/// Affine view of an i64 expression: sum(coeff_i * var_i) + constant.
/// Used by slice lowering (static trip counts) and by the vectorizer
/// (stride analysis of load/store indices).
struct Affine {
  bool ok = false;
  std::map<std::string, std::int64_t> coeffs;
  std::int64_t constant = 0;

  /// Coefficient of `var` (0 when absent).
  std::int64_t coeff(const std::string& var) const;
  /// True when the only (possibly) nonzero coefficient is on `var`.
  bool onlyVar(const std::string& var) const;
};
Affine affineOf(const Expr& e);
/// a - b when both are affine; ok=false otherwise.
Affine affineSub(const Affine& a, const Affine& b);

}  // namespace mat2c::lir
