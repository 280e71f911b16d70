// Interpreter semantics tests: statements, control flow, indexing, functions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "interp/interpreter.hpp"
#include "interp_digest.hpp"
#include "parser/parser.hpp"

// Every operator new in this test binary, for Interp.AllocationsDoNotDependOnN.
static std::atomic<std::size_t> gAllocations{0};

void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with new.
[[gnu::noinline]] static void release(void* p) noexcept { std::free(p); }
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace mat2c {
namespace {

/// Runs `src` as a script and returns variable `name` from the workspace.
Matrix runVar(const std::string& src, const std::string& name) {
  DiagnosticEngine diags;
  auto prog = parseSource(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderAll();
  Interpreter interp(*prog);
  auto vars = testing_digest::runScriptDigested(interp);
  auto it = vars.find(name);
  if (it == vars.end()) throw RuntimeError("variable '" + name + "' not set");
  return it->second;
}

double runScalar(const std::string& src, const std::string& name = "x") {
  return runVar(src, name).scalarValue();
}

TEST(Interp, Arithmetic) {
  EXPECT_DOUBLE_EQ(runScalar("x = 1 + 2 * 3;"), 7.0);
  EXPECT_DOUBLE_EQ(runScalar("x = (1 + 2) * 3;"), 9.0);
  EXPECT_DOUBLE_EQ(runScalar("x = 7 / 2;"), 3.5);
  EXPECT_DOUBLE_EQ(runScalar("x = 2^10;"), 1024.0);
  EXPECT_DOUBLE_EQ(runScalar("x = -2^2;"), -4.0);
}

TEST(Interp, ComplexArithmetic) {
  Matrix z = runVar("x = (1 + 2i) * (3 - 1i);", "x");
  EXPECT_EQ(z.at(0), (Complex{5.0, 5.0}));
}

TEST(Interp, ImaginaryLiteralUnit) {
  Matrix z = runVar("x = 1i * 1i;", "x");
  EXPECT_DOUBLE_EQ(z.real(0), -1.0);
}

TEST(Interp, RangeAndSum) {
  EXPECT_DOUBLE_EQ(runScalar("x = sum(1:100);"), 5050.0);
  EXPECT_DOUBLE_EQ(runScalar("x = sum(1:2:9);"), 25.0);
}

TEST(Interp, MatrixLiteralAndIndexing) {
  EXPECT_DOUBLE_EQ(runScalar("m = [1 2; 3 4]; x = m(2, 1);"), 3.0);
  EXPECT_DOUBLE_EQ(runScalar("m = [1 2; 3 4]; x = m(3);"), 2.0);  // column-major
  EXPECT_DOUBLE_EQ(runScalar("v = [10 20 30]; x = v(end);"), 30.0);
  EXPECT_DOUBLE_EQ(runScalar("v = [10 20 30]; x = v(end-1);"), 20.0);
}

TEST(Interp, SliceIndexing) {
  Matrix v = runVar("a = 1:10; x = a(2:4);", "x");
  ASSERT_EQ(v.numel(), 3u);
  EXPECT_DOUBLE_EQ(v.real(0), 2.0);
  EXPECT_TRUE(v.isRow());
}

TEST(Interp, ColonFlattensToColumn) {
  Matrix v = runVar("m = [1 2; 3 4]; x = m(:);", "x");
  EXPECT_EQ(v.rows(), 4u);
  EXPECT_EQ(v.cols(), 1u);
  EXPECT_DOUBLE_EQ(v.real(1), 3.0);
}

TEST(Interp, TwoDimSliceWithColon) {
  Matrix v = runVar("m = [1 2 3; 4 5 6]; x = m(2, :);", "x");
  EXPECT_EQ(v.rows(), 1u);
  EXPECT_EQ(v.cols(), 3u);
  EXPECT_DOUBLE_EQ(v.real(2), 6.0);
}

TEST(Interp, LogicalIndexing) {
  Matrix v = runVar("a = [5 -3 8 -1]; x = a(a > 0);", "x");
  ASSERT_EQ(v.numel(), 2u);
  EXPECT_DOUBLE_EQ(v.real(1), 8.0);
}

TEST(Interp, LogicalIndexAssignment) {
  Matrix v = runVar("a = [5 -3 8 -1]; a(a < 0) = 0; x = a;", "x");
  EXPECT_DOUBLE_EQ(v.real(1), 0.0);
  EXPECT_DOUBLE_EQ(v.real(3), 0.0);
  EXPECT_DOUBLE_EQ(v.real(2), 8.0);
}

TEST(Interp, VectorIndexAssignment) {
  Matrix v = runVar("a = zeros(1, 5); a([1 3 5]) = [10 30 50]; x = a;", "x");
  EXPECT_DOUBLE_EQ(v.real(0), 10.0);
  EXPECT_DOUBLE_EQ(v.real(2), 30.0);
  EXPECT_DOUBLE_EQ(v.real(1), 0.0);
}

TEST(Interp, VectorGrowthOnAssign) {
  Matrix v = runVar("a = []; a(3) = 7; x = a;", "x");
  EXPECT_EQ(v.numel(), 3u);
  EXPECT_DOUBLE_EQ(v.real(0), 0.0);
  EXPECT_DOUBLE_EQ(v.real(2), 7.0);
}

TEST(Interp, MatrixGrowthOnTwoDimAssign) {
  Matrix v = runVar("a = zeros(2,2); a(3, 4) = 9; x = a;", "x");
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v.cols(), 4u);
  EXPECT_DOUBLE_EQ(v.at(2, 3).real(), 9.0);
}

TEST(Interp, SliceAssignment) {
  Matrix v = runVar("a = zeros(1,5); a(2:3) = [7 8]; x = a;", "x");
  EXPECT_DOUBLE_EQ(v.real(1), 7.0);
  EXPECT_DOUBLE_EQ(v.real(2), 8.0);
}

TEST(Interp, ScalarBroadcastAssignment) {
  Matrix v = runVar("a = ones(1,4); a(2:3) = 0; x = a;", "x");
  EXPECT_DOUBLE_EQ(v.real(1), 0.0);
  EXPECT_DOUBLE_EQ(v.real(3), 1.0);
}

TEST(Interp, IfElse) {
  EXPECT_DOUBLE_EQ(runScalar("a = 5; if a > 3\nx = 1;\nelse\nx = 2;\nend"), 1.0);
  EXPECT_DOUBLE_EQ(runScalar("a = 1; if a > 3\nx = 1;\nelse\nx = 2;\nend"), 2.0);
  EXPECT_DOUBLE_EQ(
      runScalar("a = 2; if a == 1\nx = 1;\nelseif a == 2\nx = 22;\nelse\nx = 3;\nend"), 22.0);
}

TEST(Interp, ForLoopAccumulates) {
  EXPECT_DOUBLE_EQ(runScalar("x = 0; for i = 1:10\nx = x + i;\nend"), 55.0);
}

TEST(Interp, ForLoopOverVector) {
  EXPECT_DOUBLE_EQ(runScalar("x = 0; for v = [2 4 6]\nx = x + v;\nend"), 12.0);
}

TEST(Interp, ForLoopBreakContinue) {
  EXPECT_DOUBLE_EQ(
      runScalar("x = 0; for i = 1:10\nif i == 4\nbreak\nend\nx = x + i;\nend"), 6.0);
  EXPECT_DOUBLE_EQ(
      runScalar("x = 0; for i = 1:5\nif mod(i,2) == 0\ncontinue\nend\nx = x + i;\nend"), 9.0);
}

TEST(Interp, WhileLoop) {
  EXPECT_DOUBLE_EQ(runScalar("x = 1; while x < 100\nx = x * 2;\nend"), 128.0);
}

TEST(Interp, SwitchOnNumberAndString) {
  EXPECT_DOUBLE_EQ(runScalar("m = 2; switch m\ncase 1\nx = 10;\ncase 2\nx = 20;\nend"), 20.0);
  EXPECT_DOUBLE_EQ(
      runScalar("m = 'b'; switch m\ncase 'a'\nx = 1;\ncase 'b'\nx = 2;\notherwise\nx = 3;\nend"),
      2.0);
  EXPECT_DOUBLE_EQ(
      runScalar("m = 9; switch m\ncase 1\nx = 1;\notherwise\nx = 42;\nend"), 42.0);
}

TEST(Interp, FunctionCall) {
  const char* src =
      "x = twice(21);\n"
      "function y = twice(a)\n"
      "y = 2 * a;\n"
      "end\n";
  EXPECT_DOUBLE_EQ(runScalar(src), 42.0);
}

TEST(Interp, FunctionMultipleOutputs) {
  const char* src =
      "[lo, hi] = bounds([3 1 4 1 5]);\n"
      "function [mn, mx] = bounds(v)\n"
      "mn = min(v);\n"
      "mx = max(v);\n"
      "end\n";
  EXPECT_DOUBLE_EQ(runScalar(src, "lo"), 1.0);
  EXPECT_DOUBLE_EQ(runScalar(src, "hi"), 5.0);
}

TEST(Interp, RecursiveFunction) {
  const char* src =
      "x = fact(6);\n"
      "function y = fact(n)\n"
      "if n <= 1\n y = 1;\nelse\n y = n * fact(n - 1);\nend\n"
      "end\n";
  EXPECT_DOUBLE_EQ(runScalar(src), 720.0);
}

TEST(Interp, FunctionEarlyReturn) {
  const char* src =
      "x = f(5);\n"
      "function y = f(a)\n"
      "y = 1;\n"
      "if a > 3\n return\nend\n"
      "y = 2;\n"
      "end\n";
  EXPECT_DOUBLE_EQ(runScalar(src), 1.0);
}

TEST(Interp, VariableShadowsFunction) {
  // `sum` used as a variable should shadow the builtin.
  EXPECT_DOUBLE_EQ(runScalar("sum = [1 2 3]; x = sum(2);"), 2.0);
}

TEST(Interp, TransposeAndMatMul) {
  EXPECT_DOUBLE_EQ(runScalar("v = [1 2 3]; x = v * v';"), 14.0);
}

TEST(Interp, ConjugateTranspose) {
  Matrix z = runVar("v = [1+2i]; x = v';", "x");
  EXPECT_EQ(z.at(0), (Complex{1.0, -2.0}));
}

TEST(Interp, ShortCircuitAvoidsEvaluation) {
  // Division by zero on the rhs must not be evaluated.
  EXPECT_DOUBLE_EQ(runScalar("a = 0; x = 0; if a ~= 0 && 1/a > 1\nx = 1;\nend\nx = x + 1;"),
                   1.0);
}

TEST(Interp, UndefinedVariableThrows) {
  EXPECT_THROW(runScalar("x = nope + 1;"), RuntimeError);
}

TEST(Interp, OutOfBoundsReadThrows) {
  EXPECT_THROW(runScalar("a = [1 2]; x = a(5);"), RuntimeError);
}

TEST(Interp, NonFiniteIndexThrows) {
  // inf passed the positive-integer check and wrapped to a huge position:
  // the assignment wrote past the array.
  for (const char* src : {"b = [1 2 3]; b(1/0) = 1;", "b = [1 2 3]; x = b(1/0);",
                          "b = [1 2 3]; b(1, 1e300) = 1;", "b = [1 2 3]; x = b(0/0);"}) {
    DiagnosticEngine diags;
    auto prog = parseSource(src, diags);
    Interpreter interp(*prog);
    try {
      interp.runScript();
      ADD_FAILURE() << src << " completed";
    } catch (const RuntimeError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("index must be a positive integer, got ", 0), 0u)
          << src << ": " << e.what();
    }
  }
}

TEST(Interp, DimensionMismatchThrows) {
  EXPECT_THROW(runScalar("x = [1 2] + [1 2 3];"), RuntimeError);
}

TEST(Interp, ExprStmtCallWithoutOutputs) {
  // A call statement may return nothing; used as a value it may not.
  const char* src =
      "x = 1;\n"
      "disp(x);\n"
      "note(x);\n"
      "x = x + 1;\n"
      "function note(v)\n"
      "disp(v);\n"
      "end\n";
  DiagnosticEngine diags;
  auto prog = parseSource(src, diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.renderAll();
  Interpreter interp(*prog);
  EXPECT_DOUBLE_EQ(interp.runScript().at("x").scalarValue(), 2.0);
  for (const char* bad : {"y = disp(1);", "y = note(1);\nfunction note(v)\nend\n"}) {
    auto p = parseSource(bad, diags);
    Interpreter i(*p);
    try {
      i.runScript();
      ADD_FAILURE() << bad << " completed";
    } catch (const RuntimeError& e) {
      EXPECT_STREQ(e.what(), "expression produced no value") << bad;
    }
  }
}

TEST(Interp, RecursionDepthIsRestoredAfterAThrow) {
  // Each call unwinds 61 frames by a throw; the depth must not leak into
  // the next call on the same interpreter.
  const char* src =
      "function y = r(n)\n"
      "if n <= 1\n  error('boom');\nend\n"
      "y = r(n - 1);\n"
      "end\n";
  DiagnosticEngine diags;
  auto prog = parseSource(src, diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.renderAll();
  Interpreter interp(*prog);
  auto message = [&](double n) -> std::string {
    try {
      interp.callFunction("r", {Matrix::scalar(n)});
    } catch (const RuntimeError& e) {
      return e.what();
    }
    return "completed";
  };
  for (int i = 0; i < 10; ++i) EXPECT_EQ(message(61), "boom") << "call " << i;
  EXPECT_EQ(message(201), "recursion limit exceeded");
  EXPECT_EQ(message(200), "boom");
}

TEST(Interp, StepBudgetGuardsInfiniteLoop) {
  DiagnosticEngine diags;
  auto prog = parseSource("x = 1; while 1\nx = x + 1;\nend", diags);
  Interpreter interp(*prog);
  interp.setMaxSteps(10'000);
  EXPECT_THROW(interp.runScript(), RuntimeError);
}

TEST(Interp, StepBudgetIsExact) {
  // One step per statement, per evaluated expression node and per while
  // test: this program takes exactly 202, so a budget of 201 stops it.
  const char* src =
      "m = [1 2; 3 4];\n"
      "a = zeros(1, 6);\n"
      "for k = 1:6\n"
      "  if mod(k, 2) == 0\n"
      "    a(k) = k * m(2, 1);\n"
      "  else\n"
      "    a(k) = a(max(k - 1, 1)) + 1;\n"
      "  end\n"
      "end\n"
      "j = 1;\n"
      "s = 0;\n"
      "while j <= 6\n"
      "  s = s + a(j);\n"
      "  j = j + 1;\n"
      "end\n"
      "m(1, 2) = a(end) - s;\n"
      "x = s + sum(a(2:3));\n";
  constexpr std::uint64_t kSteps = 202;
  DiagnosticEngine diags;
  auto prog = parseSource(src, diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.renderAll();
  Interpreter exact(*prog);
  exact.setMaxSteps(kSteps);
  auto vars = exact.runScript();
  EXPECT_DOUBLE_EQ(vars.at("x").scalarValue(), 70.0);
  EXPECT_DOUBLE_EQ(vars.at("m").at(0, 1).real(), -39.0);
  Interpreter short_(*prog);
  short_.setMaxSteps(kSteps - 1);
  try {
    short_.runScript();
    ADD_FAILURE() << "a budget of " << kSteps - 1 << " steps completed";
  } catch (const RuntimeError& e) {
    EXPECT_STREQ(e.what(), "interpreter step budget exceeded");
  }
}

TEST(Interp, AllocationsDoNotDependOnN) {
  // Scalars live inline and names resolve to slots once per call, so an
  // interpretation of scalar code allocates the same at any n. Clock-free,
  // and independent of the toolchain's absolute counts.
  DiagnosticEngine diags;
  auto prog = parseSource(
      "function s = f(a, b, n)\n"
      "s = 0; for k = 1:n, s = s + a(k) * b(k); end\n"
      "end\n",
      diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.renderAll();
  auto allocationsAt = [&](std::size_t n) {
    std::vector<Matrix> args = {Matrix::zeros(1, n), Matrix::zeros(1, n),
                                Matrix::scalar(static_cast<double>(n))};
    for (std::size_t k = 0; k < n; ++k) {
      args[0].set(k, Complex{static_cast<double>(k + 1), 0.0});
      args[1].set(k, Complex{2.0, 0.0});
    }
    std::size_t before = gAllocations.load();
    Interpreter interp(*prog);
    std::vector<Matrix> out = interp.callFunction("f", args);
    std::size_t allocations = gAllocations.load() - before;
    EXPECT_DOUBLE_EQ(out.at(0).scalarValue(), static_cast<double>(n * (n + 1)));
    return allocations;
  };
  allocationsAt(16);  // builds the process-wide builtin table first
  std::size_t small = allocationsAt(256);
  EXPECT_EQ(small, allocationsAt(4096));
  EXPECT_GT(small, 0u);  // the counter sees the interpreter's own allocations
}

TEST(Interp, StringComparisonInSwitchOnly) {
  Matrix s = runVar("x = 'abc';", "x");
  EXPECT_TRUE(s.isString());
  EXPECT_EQ(s.stringValue(), "abc");
}

TEST(Interp, CallFunctionApi) {
  DiagnosticEngine diags;
  auto prog = parseSource("function y = addone(x)\ny = x + 1;\nend", diags);
  Interpreter interp(*prog);
  auto outs = interp.callFunction("addone", {Matrix::scalar(41.0)});
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_DOUBLE_EQ(outs[0].scalarValue(), 42.0);
  EXPECT_THROW(interp.callFunction("nosuch", {}), RuntimeError);
}

TEST(Interp, NestedLoops) {
  const char* src =
      "x = 0;\n"
      "for i = 1:3\n"
      "  for j = 1:3\n"
      "    if j > i\n continue\n end\n"
      "    x = x + 1;\n"
      "  end\n"
      "end\n";
  EXPECT_DOUBLE_EQ(runScalar(src), 6.0);
}

}  // namespace
}  // namespace mat2c
