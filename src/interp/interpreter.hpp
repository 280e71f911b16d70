// Reference MATLAB interpreter.
//
// Executes the AST directly with full MATLAB value semantics. This is the
// oracle the compiled pipeline is validated against: every end-to-end test
// compares VM results against interpreter results element-wise. It shares
// no code with lowering or the VM.
//
// The first call of a function resolves every name in its body once: each
// variable gets a dense slot, and each name that may be a call keeps the
// user function or builtin it would call. A call's variables then live in a
// vector of slots, and `eval` returns one Matrix; only a multi-output
// assignment asks for a list. With 1x1 matrices stored inline (value.hpp),
// scalar code runs without a heap allocation.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/ast.hpp"
#include "interp/value.hpp"

namespace mat2c {

/// Builtin implementation: `out.size()` is the number of outputs the caller
/// asked for (at least 1); writes up to that many and returns how many.
using BuiltinFn = std::function<std::size_t(std::span<const Matrix> args, std::span<Matrix> out)>;

/// Name -> implementation for the interpreter's builtin catalog.
const std::map<std::string, BuiltinFn>& builtinRuntime();
bool isRuntimeBuiltin(const std::string& name);

class Interpreter {
 public:
  /// The program must outlive the interpreter.
  explicit Interpreter(const ast::Program& program);
  ~Interpreter();

  /// Calls a user-defined function by name.
  std::vector<Matrix> callFunction(const std::string& name, const std::vector<Matrix>& args,
                                   std::size_t nOut = 1);

  /// Runs the script body (loose statements); returns the final workspace.
  std::map<std::string, Matrix> runScript();

  /// Instruction budget guard: aborts runaway while-loops in tests. One
  /// step per statement, per evaluated expression node and per while test.
  void setMaxSteps(std::uint64_t steps) { maxSteps_ = steps; }

 private:
  struct Name;
  struct Scope;
  struct Frame;
  /// How a statement list ended: `break`, `continue` and `return` unwind
  /// through execBlock's return value.
  enum class Flow { Normal, Break, Continue, Return };

  const Scope& scopeOf(const ast::Function* fn);
  std::size_t call(const ast::Function& fn, std::span<const Matrix> args, std::span<Matrix> out);
  std::size_t invoke(const Name& callee, std::span<const Matrix> args, std::span<Matrix> out);
  std::size_t callWithArgs(const ast::CallIndex& expr, const Name& callee, Frame& frame,
                           std::span<Matrix> out);

  Flow execBlock(const std::vector<ast::StmtPtr>& body, Frame& frame);
  Flow execStmt(const ast::Stmt& stmt, Frame& frame);
  Flow execFor(const ast::For& stmt, Frame& frame);
  void execAssign(const ast::Assign& stmt, Frame& frame);
  void assignInto(const ast::LValue& target, Matrix value, Frame& frame);

  Matrix eval(const ast::Expr& expr, Frame& frame);
  /// eval, but a bound variable is returned by reference instead of copied;
  /// anything else is evaluated into `tmp`.
  const Matrix& evalRef(const ast::Expr& expr, Frame& frame, Matrix& tmp);
  std::vector<Matrix> evalMulti(const ast::Expr& expr, Frame& frame, std::size_t nOut);
  Matrix evalBinary(const ast::Binary& expr, Frame& frame);
  Matrix evalMatrixLit(const ast::MatrixLit& expr, Frame& frame);
  /// a:b or a:s:b, its operands evaluated in that order.
  struct RangeBounds {
    double start = 0.0;
    double step = 1.0;
    double stop = 0.0;
  };
  RangeBounds evalRangeBounds(const ast::Range& expr, Frame& frame);
  Matrix evalCallIndex(const ast::CallIndex& expr, Frame& frame);

  /// One index argument resolved to 0-based positions: a scalar index is
  /// one position held inline, anything else a list.
  struct Index {
    std::vector<std::size_t> list;
    std::size_t single = 0;
    bool scalar = false;
    std::size_t size() const { return scalar ? 1 : list.size(); }
    std::size_t operator[](std::size_t i) const { return scalar ? single : list[i]; }
  };
  /// `extent` is the size of the dimension being indexed (for `:` and `end`).
  Index resolveIndex(const ast::Expr& arg, Frame& frame, std::size_t extent);
  Matrix indexMatrix(const Matrix& base, const std::vector<ast::ExprPtr>& args, Frame& frame);
  void indexAssign(Matrix& base, const std::vector<ast::ExprPtr>& args, const Matrix& value,
                   Frame& frame);

  void step();

  const ast::Program& program_;
  std::unordered_map<const ast::Function*, std::unique_ptr<Scope>> scopes_;  // null: script
  std::uint64_t maxSteps_ = 500'000'000;
  std::uint64_t steps_ = 0;
  int callDepth_ = 0;
};

}  // namespace mat2c
