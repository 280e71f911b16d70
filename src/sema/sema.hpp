// Type and shape inference for the compiled subset.
//
// TypeInference is the single engine used both by the standalone semantic
// check (tests, diagnostics) and by the lowerer. The lowerer runs one
// statement pass per frame (the entry function, and each inlined call in its
// call context) and records there the exit env of every compound statement
// (ExitEnvs); as it emits LIR it re-infers only simple statements, one step
// each, so every subexpression's type is available in its *inlined* context.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/ast.hpp"
#include "sema/builtins.hpp"
#include "sema/types.hpp"
#include "support/diagnostics.hpp"

namespace mat2c::sema {

/// Per-scope inference state: variable types plus the constant-value lattice
/// that drives static shapes (n = length(x); y = zeros(1, n); ...).
struct Env {
  std::map<std::string, Type> vars;
  std::map<std::string, double> consts;

  friend bool operator==(const Env&, const Env&) = default;
};

/// Exit env of each compound statement (if, for, while, switch) a statement
/// pass visited. A statement visited more than once keeps its last visit,
/// which in a loop body is the converged iteration. A loop's exit env is
/// also the env its body starts from in that iteration.
using ExitEnvs = std::unordered_map<const ast::Stmt*, Env>;

struct FunctionSummary {
  std::vector<Type> paramTypes;
  std::vector<Type> outTypes;
};

class TypeInference {
 public:
  TypeInference(const ast::Program& program, DiagnosticEngine& diags);

  /// Infers a user function specialized to `args`; memoized per signature.
  /// Rejects recursion (the compiled subset has no stack discipline for it).
  const FunctionSummary& inferFunction(const ast::Function& fn, const std::vector<Type>& args);

  /// Entry point used by the driver: function by name + argument specs.
  const FunctionSummary& inferEntry(const std::string& name, const std::vector<ArgSpec>& args);

  // -- statement/expression level API (used by the lowerer) -----------------
  Type inferExpr(const ast::Expr& expr, Env& env);
  /// Advances `env` past `stmt` (`body`). With `exits`, every compound
  /// statement visited records its exit env there; a callee's memoized pass
  /// (inferFunction) never records.
  void processStmt(const ast::Stmt& stmt, Env& env, ExitEnvs* exits = nullptr);
  void processBlock(const std::vector<ast::StmtPtr>& body, Env& env,
                    ExitEnvs* exits = nullptr);

  /// Constant scalar folding over the env's const lattice. `endExtent`, when
  /// set, gives `end` a value (used inside index expressions).
  std::optional<double> constValue(const ast::Expr& expr, Env& env,
                                   std::optional<double> endExtent = std::nullopt);

  /// Affine view of a scalar AST expression over non-constant scalar
  /// variables: value = constant + sum(coeff_i * var_i). Lets slice spans
  /// like k : k+m-1 fold to a static length even when k is dynamic.
  struct AffineExpr {
    bool ok = false;
    std::map<std::string, double> coeffs;
    double constant = 0.0;
  };
  AffineExpr astAffine(const ast::Expr& e, Env& env, std::optional<double> endExtent);

  /// Number of positions selected when indexing a dimension of extent
  /// `extent` with `arg` (Colon, scalar, range, or vector index).
  Dim indexCount(const ast::Expr& arg, Env& env, Dim extent);

  /// Output types of a call expression requested with nOut outputs.
  std::vector<Type> inferCallOutputs(const ast::CallIndex& call, Env& env, std::size_t nOut);

  /// Result type of indexing a value of type `base` with `args`.
  Type inferIndexResult(const Type& base, const std::vector<ast::ExprPtr>& args, Env& env,
                        SourceLoc loc);

  const ast::Program& program() const { return program_; }

 private:
  [[noreturn]] void fail(SourceLoc loc, std::string msg) { diags_.fatal(loc, std::move(msg)); }

  Type inferBinary(const ast::Binary& expr, Env& env);
  Type inferBuiltin(const std::string& name, const BuiltinInfo& info,
                    const std::vector<Type>& args, const std::vector<std::optional<double>>&
                    argConsts, SourceLoc loc, std::size_t nOut,
                    std::vector<Type>* extraOuts);
  Type inferMatrixLit(const ast::MatrixLit& expr, Env& env);

  static void joinInto(Env& dst, const Env& src);

  const ast::Program& program_;
  DiagnosticEngine& diags_;
  std::map<std::string, FunctionSummary> memo_;
  std::set<std::string> inProgress_;
};

/// Convenience wrapper: parse-free semantic check of an already-parsed
/// program. Returns the entry summary; throws CompileError on type errors.
FunctionSummary checkProgram(const ast::Program& program, const std::string& entry,
                             const std::vector<ArgSpec>& args, DiagnosticEngine& diags);

}  // namespace mat2c::sema
