// End-to-end lowering tests: compile MATLAB source, run on the VM, and
// compare element-wise against the reference interpreter. Each test is a
// distinct language feature passing through the full pipeline.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "interp/interpreter.hpp"
#include "parser/parser.hpp"
#include "sema/builtins.hpp"
#include "support/errors.hpp"
#include "support/fault_injection.hpp"

namespace mat2c {
namespace {

using sema::ArgSpec;

/// Compiles (both styles), validates both against the interpreter, and
/// returns the Proposed-style result for further checks.
vm::RunResult compileRunValidate(const std::string& src, const std::string& entry,
                                 const std::vector<ArgSpec>& specs,
                                 const std::vector<Matrix>& args, double tol = 1e-9) {
  Compiler compiler;
  auto prop = compiler.compileSource(src, entry, specs, CompileOptions::proposed());
  auto base = compiler.compileSource(src, entry, specs, CompileOptions::coderLike());
  EXPECT_LE(validateAgainstInterpreter(src, entry, prop, args), tol) << "proposed mismatch";
  EXPECT_LE(validateAgainstInterpreter(src, entry, base, args), tol) << "baseline mismatch";
  return prop.run(args);
}

Matrix rowOf(std::initializer_list<double> vals) {
  return Matrix::rowVector(std::vector<double>(vals));
}

TEST(Lowering, ScalarFunction) {
  auto r = compileRunValidate("function y = f(a, b)\ny = a * 2 + b / 4;\nend\n", "f",
                              {ArgSpec::scalar(), ArgSpec::scalar()},
                              {Matrix::scalar(3), Matrix::scalar(8)});
  EXPECT_DOUBLE_EQ(r.outputs[0].scalarValue(), 8.0);
}

TEST(Lowering, ElementwiseExpression) {
  compileRunValidate("function y = f(x)\ny = 2 .* x + x .* x - 1;\nend\n", "f",
                     {ArgSpec::row(7)}, {rowOf({1, 2, 3, 4, 5, 6, 7})});
}

TEST(Lowering, ScalarExpansion) {
  compileRunValidate("function y = f(x, s)\ny = x * s + 1;\nend\n", "f",
                     {ArgSpec::row(5), ArgSpec::scalar()},
                     {rowOf({1, 2, 3, 4, 5}), Matrix::scalar(2.5)});
}

TEST(Lowering, ForLoopAccumulation) {
  auto r = compileRunValidate(
      "function y = f(x)\ny = 0;\nfor k = 1:length(x)\n  y = y + x(k);\nend\nend\n", "f",
      {ArgSpec::row(6)}, {rowOf({1, 2, 3, 4, 5, 6})});
  EXPECT_DOUBLE_EQ(r.outputs[0].scalarValue(), 21.0);
}

TEST(Lowering, ForLoopWithStep) {
  compileRunValidate(
      "function y = f(x)\ny = 0;\nfor k = 1:2:length(x)\n  y = y + x(k);\nend\nend\n", "f",
      {ArgSpec::row(7)}, {rowOf({1, 2, 3, 4, 5, 6, 7})});
}

TEST(Lowering, ForLoopDownward) {
  compileRunValidate(
      "function y = f(x)\ny = 0;\nfor k = length(x):-1:1\n  y = y * 2 + x(k);\nend\nend\n",
      "f", {ArgSpec::row(5)}, {rowOf({1, 2, 3, 4, 5})});
}

TEST(Lowering, LoopVariableAfterLoop) {
  auto r = compileRunValidate("function y = f(x)\nfor k = 1:4\nend\ny = k + x;\nend\n", "f",
                              {ArgSpec::scalar()}, {Matrix::scalar(10)});
  EXPECT_DOUBLE_EQ(r.outputs[0].scalarValue(), 14.0);
}

TEST(Lowering, NonIntegerRangeLoop) {
  compileRunValidate(
      "function y = f(x)\ny = 0;\nfor t = 0:0.25:1\n  y = y + t * x;\nend\nend\n", "f",
      {ArgSpec::scalar()}, {Matrix::scalar(2)});
}

TEST(Lowering, DynamicBoundLoop) {
  // Loop bound that is a runtime scalar (not a compile-time constant).
  compileRunValidate(
      "function y = f(x, n)\ny = 0;\nk = 1;\nwhile k <= n\n  y = y + x(k);\n  k = k + 1;"
      "\nend\nend\n",
      "f", {ArgSpec::row(8), ArgSpec::scalar()},
      {rowOf({1, 2, 3, 4, 5, 6, 7, 8}), Matrix::scalar(5)});
}

TEST(Lowering, DynamicStopForLoop) {
  const char* src =
      "function y = f(x, n)\ny = 0;\nfor k = 1:n\n  y = y + x(k);\nend\ny = y + k;\nend\n";
  for (double n : {5.0, 8.0, 1.0}) {
    compileRunValidate(src, "f", {ArgSpec::row(8), ArgSpec::scalar()},
                       {rowOf({1, 2, 3, 4, 5, 6, 7, 8}), Matrix::scalar(n)});
  }
}

TEST(Lowering, DynamicStopZeroTrips) {
  // for k = 1:0 never runs; k keeps its prior value (MATLAB semantics).
  const char* src =
      "function y = f(n)\nk = 99;\nfor k = 1:n\nend\ny = k;\nend\n";
  auto r = compileRunValidate(src, "f", {ArgSpec::scalar()}, {Matrix::scalar(0)});
  EXPECT_DOUBLE_EQ(r.outputs[0].scalarValue(), 99.0);
  auto r2 = compileRunValidate(src, "f", {ArgSpec::scalar()}, {Matrix::scalar(3)});
  EXPECT_DOUBLE_EQ(r2.outputs[0].scalarValue(), 3.0);
}

TEST(Lowering, DynamicStopNonInteger) {
  // for k = 1:4.7 iterates 1..4.
  const char* src =
      "function y = f(n)\ny = 0;\nfor k = 1:n\n  y = y + k;\nend\nend\n";
  auto r = compileRunValidate(src, "f", {ArgSpec::scalar()}, {Matrix::scalar(4.7)});
  EXPECT_DOUBLE_EQ(r.outputs[0].scalarValue(), 10.0);
}

TEST(Lowering, DynamicStopNegativeStep) {
  const char* src =
      "function y = f(n)\ny = 0;\nfor k = 10:-3:n\n  y = y * 100 + k;\nend\ny = y + k;\nend\n";
  for (double n : {3.0, 2.0, 10.0}) {
    compileRunValidate(src, "f", {ArgSpec::scalar()}, {Matrix::scalar(n)});
  }
}

TEST(Lowering, IfElseChain) {
  for (double v : {-2.0, 0.0, 3.0}) {
    compileRunValidate(
        "function y = f(x)\nif x < 0\n  y = -x;\nelseif x == 0\n  y = 100;\nelse\n  y = x;"
        "\nend\nend\n",
        "f", {ArgSpec::scalar()}, {Matrix::scalar(v)});
  }
}

TEST(Lowering, WhileLoop) {
  auto r = compileRunValidate(
      "function y = f(x)\ny = 1;\nwhile y < x\n  y = y * 3;\nend\nend\n", "f",
      {ArgSpec::scalar()}, {Matrix::scalar(50)});
  EXPECT_DOUBLE_EQ(r.outputs[0].scalarValue(), 81.0);
}

TEST(Lowering, BreakAndContinue) {
  compileRunValidate(
      "function y = f(x)\ny = 0;\nfor k = 1:10\n  if k > 6\n    break\n  end\n"
      "  if mod(k, 2) == 0\n    continue\n  end\n  y = y + x(k);\nend\nend\n",
      "f", {ArgSpec::row(10)}, {rowOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10})});
}

TEST(Lowering, SwitchStatement) {
  for (double v : {1.0, 2.0, 9.0}) {
    compileRunValidate(
        "function y = f(m)\nswitch m\ncase 1\n  y = 10;\ncase 2\n  y = 20;\notherwise\n"
        "  y = 30;\nend\nend\n",
        "f", {ArgSpec::scalar()}, {Matrix::scalar(v)});
  }
}

TEST(Lowering, SwitchCaseList) {
  for (double v : {1.0, 3.0, 5.0}) {
    compileRunValidate(
        "function y = f(m)\nswitch m\ncase [1 2 3]\n  y = 1;\notherwise\n  y = 0;\nend\nend\n",
        "f", {ArgSpec::scalar()}, {Matrix::scalar(v)});
  }
}

TEST(Lowering, IndexedReadsAndWrites) {
  compileRunValidate(
      "function y = f(x)\ny = zeros(1, length(x));\nfor k = 1:length(x)\n"
      "  y(k) = x(length(x) - k + 1);\nend\nend\n",
      "f", {ArgSpec::row(6)}, {rowOf({1, 2, 3, 4, 5, 6})});
}

TEST(Lowering, TwoDimensionalIndexing) {
  Matrix m = Matrix::zeros(3, 4);
  for (std::size_t i = 0; i < 12; ++i) m.set(i, Complex{static_cast<double>(i + 1), 0});
  compileRunValidate(
      "function y = f(a)\n[r, c] = size(a);\ny = zeros(r, c);\nfor j = 1:c\n  for i = 1:r\n"
      "    y(i, j) = a(i, j) * 2;\n  end\nend\nend\n",
      "f", {ArgSpec::matrix(3, 4)}, {m});
}

TEST(Lowering, SliceRead) {
  compileRunValidate("function y = f(x)\ny = x(2:5);\nend\n", "f", {ArgSpec::row(8)},
                     {rowOf({1, 2, 3, 4, 5, 6, 7, 8})});
  compileRunValidate("function y = f(x)\ny = x(2:end-1);\nend\n", "f", {ArgSpec::row(8)},
                     {rowOf({1, 2, 3, 4, 5, 6, 7, 8})});
}

TEST(Lowering, SliceReadWithStep) {
  compileRunValidate("function y = f(x)\ny = x(1:2:end);\nend\n", "f", {ArgSpec::row(9)},
                     {rowOf({1, 2, 3, 4, 5, 6, 7, 8, 9})});
  compileRunValidate("function y = f(x)\ny = x(end:-1:1);\nend\n", "f", {ArgSpec::row(5)},
                     {rowOf({1, 2, 3, 4, 5})});
}

TEST(Lowering, DynamicStartSlice) {
  // Slice whose start is a loop variable (static span, dynamic base).
  compileRunValidate(
      "function y = f(x, h)\nm = length(h);\nn = length(x);\ny = zeros(1, n - m + 1);\n"
      "for k = 1:n - m + 1\n  y(k) = sum(x(k:k + m - 1) .* h);\nend\nend\n",
      "f", {ArgSpec::row(10), ArgSpec::row(3)},
      {rowOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), rowOf({0.5, 1, 0.25})});
}

TEST(Lowering, SliceWrite) {
  compileRunValidate(
      "function y = f(x)\ny = zeros(1, 10);\ny(3:6) = x;\nend\n", "f", {ArgSpec::row(4)},
      {rowOf({1, 2, 3, 4})});
  compileRunValidate(
      "function y = f(s)\ny = ones(1, 8);\ny(2:2:end) = s;\nend\n", "f", {ArgSpec::scalar()},
      {Matrix::scalar(7)});
}

TEST(Lowering, TwoDimSliceRead) {
  Matrix m = Matrix::zeros(4, 5);
  for (std::size_t i = 0; i < 20; ++i) m.set(i, Complex{static_cast<double>(i), 0});
  compileRunValidate("function y = f(a)\ny = a(2:3, 2:4);\nend\n", "f",
                     {ArgSpec::matrix(4, 5)}, {m});
  compileRunValidate("function y = f(a)\ny = a(2, :);\nend\n", "f", {ArgSpec::matrix(4, 5)},
                     {m});
}

TEST(Lowering, WholeArrayCopyAndColon) {
  Matrix m = Matrix::zeros(2, 3);
  for (std::size_t i = 0; i < 6; ++i) m.set(i, Complex{static_cast<double>(i), 0});
  compileRunValidate("function y = f(a)\ny = a;\nend\n", "f", {ArgSpec::matrix(2, 3)}, {m});
  compileRunValidate("function y = f(a)\ny = a(:);\nend\n", "f", {ArgSpec::matrix(2, 3)},
                     {m});
}

TEST(Lowering, Transpose) {
  Matrix m = Matrix::zeros(2, 3);
  for (std::size_t i = 0; i < 6; ++i) m.set(i, Complex{static_cast<double>(i + 1), 0});
  compileRunValidate("function y = f(a)\ny = a';\nend\n", "f", {ArgSpec::matrix(2, 3)}, {m});
}

TEST(Lowering, ConjugateTranspose) {
  Matrix m = Matrix::zeros(1, 3, true);
  m.set(0, {1, 2});
  m.set(1, {3, -4});
  m.set(2, {0, 1});
  compileRunValidate("function y = f(a)\ny = a';\nend\n", "f", {ArgSpec::row(3, true)}, {m});
  compileRunValidate("function y = f(a)\ny = a.';\nend\n", "f", {ArgSpec::row(3, true)}, {m});
}

TEST(Lowering, MatrixMultiply) {
  kernels::InputGen gen(7);
  compileRunValidate("function y = f(a, b)\ny = a * b;\nend\n", "f",
                     {ArgSpec::matrix(3, 4), ArgSpec::matrix(4, 2)},
                     {gen.matrix(3, 4), gen.matrix(4, 2)});
}

TEST(Lowering, MatVecProduct) {
  kernels::InputGen gen(8);
  compileRunValidate("function y = f(a, v)\ny = a * v;\nend\n", "f",
                     {ArgSpec::matrix(3, 4), ArgSpec::col(4)},
                     {gen.matrix(3, 4), gen.matrix(4, 1)});
}

TEST(Lowering, DotAndNorm) {
  kernels::InputGen gen(9);
  compileRunValidate("function y = f(a, b)\ny = dot(a, b);\nend\n", "f",
                     {ArgSpec::row(6), ArgSpec::row(6)},
                     {gen.rowVector(6), gen.rowVector(6)});
  compileRunValidate("function y = f(a)\ny = norm(a);\nend\n", "f", {ArgSpec::row(6)},
                     {gen.rowVector(6)});
}

TEST(Lowering, ReductionsAndMean) {
  kernels::InputGen gen(10);
  for (const char* fn : {"sum", "prod", "mean", "min", "max"}) {
    std::string src = std::string("function y = f(a)\ny = ") + fn + "(a);\nend\n";
    compileRunValidate(src, "f", {ArgSpec::row(7)}, {gen.rowVector(7)});
  }
}

TEST(Lowering, ColumnReductions) {
  kernels::InputGen gen(11);
  for (const char* fn : {"sum", "mean", "max"}) {
    std::string src = std::string("function y = f(a)\ny = ") + fn + "(a);\nend\n";
    compileRunValidate(src, "f", {ArgSpec::matrix(4, 5)}, {gen.matrix(4, 5)});
  }
}

TEST(Lowering, MinMaxWithIndex) {
  auto r = compileRunValidate(
      "function [v, i] = f(a)\n[v, i] = max(a);\nend\n", "f", {ArgSpec::row(5)},
      {rowOf({3, 9, 1, 9, 2})});
  EXPECT_DOUBLE_EQ(r.outputs[0].scalarValue(), 9.0);
  EXPECT_DOUBLE_EQ(r.outputs[1].scalarValue(), 2.0);  // first max wins
}

TEST(Lowering, ElementwiseBuiltins) {
  kernels::InputGen gen(12);
  compileRunValidate(
      "function y = f(a)\ny = abs(a) + sqrt(abs(a)) + exp(a) .* cos(a) - sin(a);\nend\n",
      "f", {ArgSpec::row(6)}, {gen.rowVector(6)});
}

TEST(Lowering, RoundingAndMod) {
  compileRunValidate(
      "function y = f(a)\ny = floor(a) + ceil(a) - round(a) + fix(a) + sign(a) + "
      "mod(a, 3) + rem(a, 3);\nend\n",
      "f", {ArgSpec::row(5)}, {rowOf({-2.7, -0.5, 0.0, 1.5, 2.2})});
}

TEST(Lowering, ComplexArithmetic) {
  kernels::InputGen gen(13);
  compileRunValidate(
      "function y = f(a, b)\ny = a .* b + conj(a) - 2i * b;\nend\n", "f",
      {ArgSpec::row(5, true), ArgSpec::row(5, true)},
      {gen.complexRowVector(5), gen.complexRowVector(5)});
}

TEST(Lowering, ComplexParts) {
  kernels::InputGen gen(14);
  compileRunValidate(
      "function y = f(a)\ny = real(a) .* imag(a) + abs(a) + angle(a);\nend\n", "f",
      {ArgSpec::row(5, true)}, {gen.complexRowVector(5)});
  compileRunValidate("function y = f(a, b)\ny = complex(a, b);\nend\n", "f",
                     {ArgSpec::row(4), ArgSpec::row(4)},
                     {gen.rowVector(4), gen.rowVector(4)});
}

TEST(Lowering, ComplexAccumulatorPromotion) {
  kernels::InputGen gen(15);
  compileRunValidate(
      "function y = f(x)\nacc = 0;\nfor k = 1:length(x)\n  acc = acc + x(k);\nend\n"
      "y = acc;\nend\n",
      "f", {ArgSpec::row(6, true)}, {gen.complexRowVector(6)});
}

TEST(Lowering, ZerosOnesEyeLinspace) {
  compileRunValidate("function y = f(s)\ny = zeros(2, 3) + s;\nend\n", "f",
                     {ArgSpec::scalar()}, {Matrix::scalar(4)});
  compileRunValidate("function y = f(s)\ny = ones(3) * s;\nend\n", "f", {ArgSpec::scalar()},
                     {Matrix::scalar(2)});
  compileRunValidate("function y = f(s)\ny = eye(3) * s;\nend\n", "f", {ArgSpec::scalar()},
                     {Matrix::scalar(5)});
  compileRunValidate("function y = f(s)\ny = linspace(0, s, 5);\nend\n", "f",
                     {ArgSpec::scalar()}, {Matrix::scalar(8)});
}

TEST(Lowering, RangeValue) {
  compileRunValidate("function y = f(s)\ny = (1:6) * s;\nend\n", "f", {ArgSpec::scalar()},
                     {Matrix::scalar(3)});
  compileRunValidate("function y = f(s)\ny = (0:0.5:2) + s;\nend\n", "f",
                     {ArgSpec::scalar()}, {Matrix::scalar(2)});
}

TEST(Lowering, MatrixLiteral) {
  compileRunValidate("function y = f(s)\ny = [1 2 s; 4 5 6];\nend\n", "f",
                     {ArgSpec::scalar()}, {Matrix::scalar(3)});
}

TEST(Lowering, UserFunctionInlining) {
  std::string src =
      "function y = f(x)\ny = helper(x) + helper(x * 2);\nend\n"
      "function y = helper(a)\ny = a * a + 1;\nend\n";
  compileRunValidate(src, "f", {ArgSpec::scalar()}, {Matrix::scalar(3)});
}

TEST(Lowering, InlinedVectorFunction) {
  kernels::InputGen gen(16);
  std::string src =
      "function y = f(x)\ny = normalize(x) * 2;\nend\n"
      "function y = normalize(v)\ny = v ./ max(abs(v));\nend\n";
  compileRunValidate(src, "f", {ArgSpec::row(6)}, {gen.rowVector(6)});
}

TEST(Lowering, InlinedFunctionWritesParam) {
  // Callee mutates its parameter: MATLAB value semantics require a copy.
  kernels::InputGen gen(17);
  std::string src =
      "function y = f(x)\ny = clobber(x) + sum(x);\nend\n"
      "function y = clobber(v)\nv(1) = 999;\ny = sum(v);\nend\n";
  compileRunValidate(src, "f", {ArgSpec::row(4)}, {gen.rowVector(4)});
}

TEST(Lowering, InlinedMultiOutput) {
  std::string src =
      "function y = f(x)\n[a, b] = stats(x);\ny = a + b;\nend\n"
      "function [mn, mx] = stats(v)\nmn = min(v);\nmx = max(v);\nend\n";
  compileRunValidate(src, "f", {ArgSpec::row(5)}, {rowOf({5, 3, 8, 1, 9})});
}

TEST(Lowering, OutputShadowsInput) {
  kernels::InputGen gen(18);
  compileRunValidate("function x = f(x)\nx = x * 2;\nend\n", "f", {ArgSpec::row(4)},
                     {gen.rowVector(4)});
}

TEST(Lowering, ShortCircuitConditions) {
  compileRunValidate(
      "function y = f(a)\ny = 0;\nif a ~= 0 && 1 / a > 0.1\n  y = 1;\nend\nend\n", "f",
      {ArgSpec::scalar()}, {Matrix::scalar(5)});
  compileRunValidate(
      "function y = f(a)\ny = 0;\nif a ~= 0 && 1 / a > 0.1\n  y = 1;\nend\nend\n", "f",
      {ArgSpec::scalar()}, {Matrix::scalar(0)});
}

TEST(Lowering, LogicalValuesInArithmetic) {
  kernels::InputGen gen(19);
  compileRunValidate("function y = f(x)\ny = sum(x > 0) + sum(x <= 0);\nend\n", "f",
                     {ArgSpec::row(9)}, {gen.rowVector(9)});
}

TEST(Lowering, NestedFunctionCallsDeep) {
  std::string src =
      "function y = f(x)\ny = a1(x);\nend\n"
      "function y = a1(x)\ny = a2(x) + 1;\nend\n"
      "function y = a2(x)\ny = a3(x) * 2;\nend\n"
      "function y = a3(x)\ny = x - 1;\nend\n";
  compileRunValidate(src, "f", {ArgSpec::scalar()}, {Matrix::scalar(10)});
}

TEST(Lowering, PowerOperators) {
  compileRunValidate("function y = f(a)\ny = a^2 + 2^a + a.^0.5;\nend\n", "f",
                     {ArgSpec::scalar()}, {Matrix::scalar(4)});
  compileRunValidate("function y = f(x)\ny = x.^2;\nend\n", "f", {ArgSpec::row(4)},
                     {rowOf({1, 2, 3, 4})});
}

TEST(Lowering, ScalarDivisionAndNegationOnVectors) {
  kernels::InputGen gen(22);
  compileRunValidate("function y = f(x)\ny = x / 2 - (-x) * 3;\nend\n", "f",
                     {ArgSpec::row(9)}, {gen.rowVector(9)});
}

TEST(Lowering, LogicalNotOnVectors) {
  kernels::InputGen gen(23);
  compileRunValidate("function y = f(x)\ny = ~(x > 0) + 2 .* ~(x < 0);\nend\n", "f",
                     {ArgSpec::row(9)}, {gen.rowVector(9)});
}

TEST(Lowering, ColumnProd) {
  kernels::InputGen gen(24);
  compileRunValidate("function y = f(a)\ny = prod(a);\nend\n", "f",
                     {ArgSpec::matrix(3, 4)}, {gen.matrix(3, 4)});
}

TEST(Lowering, ChainedSliceOfCopy) {
  kernels::InputGen gen(25);
  compileRunValidate(
      "function y = f(x)\nt = x;\ny = t(3:6) + t(1:4);\nend\n", "f", {ArgSpec::row(8)},
      {gen.rowVector(8)});
}

TEST(Lowering, NestedIfInLoopWithAccumulator) {
  kernels::InputGen gen(26);
  compileRunValidate(
      "function y = f(x)\ny = 0;\nfor k = 1:length(x)\n  if x(k) > 0.5\n    y = y + 2;\n"
      "  elseif x(k) > 0\n    y = y + 1;\n  else\n    y = y - 1;\n  end\nend\nend\n",
      "f", {ArgSpec::row(16)}, {gen.rowVector(16)});
}

TEST(Lowering, ShapeChangeRejected) {
  Compiler compiler;
  EXPECT_THROW(compiler.compileSource(
                   "function y = f(x)\ny = zeros(1, 3);\ny = zeros(1, 5);\nend\n", "f",
                   {ArgSpec::scalar()}, CompileOptions::proposed()),
               CompileError);
}

TEST(Lowering, ReturnRejected) {
  Compiler compiler;
  EXPECT_THROW(
      compiler.compileSource("function y = f(x)\ny = 1;\nreturn\nend\n", "f",
                             {ArgSpec::scalar()}, CompileOptions::proposed()),
      CompileError);
}

// The kind and full text of each compile error the lowerer or the sema pass
// it runs raises, pinned byte for byte (both styles give the same text).
TEST(Lowering, ErrorMessagesTable) {
  struct Row {
    const char* what;
    const char* source;
    std::vector<ArgSpec> args;
    ErrorKind kind;
    const char* message;
  };
  const Row rows[] = {
      {"for over a non-range",
       "function y = f(x)\ny = 0;\nfor k = x\n  y = y + k;\nend\nend\n",
       {ArgSpec::row(4)}, ErrorKind::SemaError,
       "error at 3:1: for-loops must iterate over a range (a:b or a:s:b) in compiled code"},
      {"complex for range",
       "function y = f(x)\ny = 0;\nfor k = x\n  y = y + 1;\nend\nend\n",
       {ArgSpec::row(4, true)}, ErrorKind::SemaError,
       "error at 3:1: complex for-loop ranges are not supported"},
      {"return in compiled code",
       "function y = f(x)\ny = 0;\nfor k = 1:4\n  if x > k\n    return\n  end\n"
       "  y = y + k;\nend\nend\n",
       {ArgSpec::scalar()}, ErrorKind::SemaError,
       "error at 5:5: 'return' is not supported in compiled functions"},
      {"indexed store to an undefined variable",
       "function y = f(x)\nfor k = 1:4\n  z(k) = x;\nend\ny = x;\nend\n",
       {ArgSpec::scalar()}, ErrorKind::SemaError,
       "error at 3:4: indexed assignment to undefined variable 'z' — preallocate with "
       "zeros(...)"},
      {"output never assigned",
       "function [y, z] = f(x)\ny = x;\nend\n",
       {ArgSpec::scalar()}, ErrorKind::SemaError,
       "error at 1:1: output 'z' is never assigned"},
      {"inlined callee output never assigned",
       "function y = f(x)\ny = g(x);\nend\nfunction z = g(x)\nw = x;\nend\n",
       {ArgSpec::scalar()}, ErrorKind::SemaError,
       "error at 4:1: output 'z' of 'g' is never assigned"},
      {"shape change inside a loop",
       "function y = f(x)\ny = 0;\nfor k = 1:3\n  y = zeros(1, 2);\nend\nend\n",
       {ArgSpec::scalar()}, ErrorKind::SemaError,
       "error at 1:1: output 'y' has a dynamic shape — the specializing compiler needs "
       "static shapes (check the entry argument specs)"},
      {"scalar indexed inside a while loop",
       "function y = f(x)\ny = 0;\nk = 1;\nwhile k < 3\n  y(k) = x;\n  k = k + 1;\nend\nend\n",
       {ArgSpec::scalar()}, ErrorKind::SemaError,
       "error at 5:4: cannot index a scalar variable 'y'"},
  };
  for (const Row& row : rows) {
    for (bool coder : {false, true}) {
      SCOPED_TRACE(std::string(row.what) + (coder ? " (coder)" : " (proposed)"));
      try {
        Compiler().compileSource(row.source, "f", row.args,
                                 coder ? CompileOptions::coderLike() : CompileOptions::proposed());
        ADD_FAILURE() << "compiled";
      } catch (const StructuredError& e) {
        EXPECT_EQ(e.kind(), row.kind) << toString(e.kind());
        EXPECT_EQ(std::string(e.what()), row.message);
      }
    }
  }
}

// -- work counts ----------------------------------------------------------------

/// Guard points a call hits (fault::onAllocPoint: one per parser statement,
/// per sema statement and per pass boundary): the smallest alloc:after:N
/// budget under which it completes. No clock is read.
template <class Run>
int guardPoints(Run&& run) {
  for (int n = 0; n <= 2000; ++n) {
    fault::setSpec("alloc:after:" + std::to_string(n));
    try {
      run();
      fault::setSpec("");
      return n;
    } catch (const std::bad_alloc&) {
    } catch (const StructuredError& e) {
      if (e.kind() != ErrorKind::ResourceExhausted) {
        fault::setSpec("");
        throw;
      }
    }
  }
  fault::setSpec("");
  ADD_FAILURE() << "no alloc budget up to 2000 lets the call complete";
  return -1;
}

/// Statements the lowerer infers one at a time: everything but if, for,
/// while and switch, whose exit types come from the frame pass.
std::size_t simpleStatements(const std::vector<ast::StmtPtr>& body) {
  std::size_t n = 0;
  for (const auto& s : body) {
    switch (s->kind) {
      case ast::NodeKind::If: {
        const auto& i = static_cast<const ast::If&>(*s);
        for (const auto& b : i.branches) n += simpleStatements(b.body);
        n += simpleStatements(i.elseBody);
        break;
      }
      case ast::NodeKind::For:
        n += simpleStatements(static_cast<const ast::For&>(*s).body);
        break;
      case ast::NodeKind::While:
        n += simpleStatements(static_cast<const ast::While&>(*s).body);
        break;
      case ast::NodeKind::Switch: {
        const auto& sw = static_cast<const ast::Switch&>(*s);
        for (const auto& c : sw.cases) n += simpleStatements(c.body);
        n += simpleStatements(sw.otherwise);
        break;
      }
      default:
        ++n;
    }
  }
  return n;
}

/// A depth-`depth` for nest around one accumulation.
std::string forNest(int depth) {
  std::string src = "function y = f(x)\ny = 0;\n";
  for (int d = 1; d <= depth; ++d) src += "for i" + std::to_string(d) + " = 1:4\n";
  src += "y = y + x(i1) * i" + std::to_string(depth) + ";\n";
  for (int d = 1; d <= depth; ++d) src += "end\n";
  return src + "end\n";
}

TEST(Lowering, GuardPointsAreOneInferencePassPlusOnePerSimpleStatement) {
#ifndef MAT2C_FAULT_INJECTION
  GTEST_SKIP() << "fault injection compiled out";
#endif
  struct Case {
    std::string name;
    std::string source;
    std::vector<ArgSpec> args;
    /// The inlined callee and its argument types, if the entry calls one.
    const char* callee;
    std::vector<ArgSpec> calleeArgs;
  };
  std::vector<Case> cases;
  for (int depth = 1; depth <= 5; ++depth)
    cases.push_back({"for nest depth " + std::to_string(depth), forNest(depth),
                     {ArgSpec::row(4)}, nullptr, {}});
  cases.push_back({"if inside a loop",
                   "function y = f(x)\ny = 0;\nfor k = 1:8\n  if x(k) > 0\n    y = y + x(k);\n"
                   "  else\n    y = y - 1;\n  end\nend\nend\n",
                   {ArgSpec::row(8)}, nullptr, {}});
  cases.push_back({"inlined call",
                   "function y = f(x)\ny = 0;\nfor k = 1:4\n  y = y + g(x(k));\nend\nend\n"
                   "function r = g(v)\nr = v;\nif v > 0\n  r = 2 * v;\nend\nend\n",
                   {ArgSpec::row(4)}, "g", {ArgSpec::scalar()}});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    DiagnosticEngine diags;
    ast::ProgramPtr program = parseSource(c.source, diags);
    std::size_t simple = 0;
    for (const auto& fn : program->functions) simple += simpleStatements(fn->body);
    auto frontEnd = [&](const std::string& entry, const std::vector<ArgSpec>& args) {
      return guardPoints([&] {
        DiagnosticEngine d;
        ast::ProgramPtr p = parseSource(c.source, d);
        sema::checkProgram(*p, entry, args, d);
      });
    };
    const int parse = guardPoints([&] {
      DiagnosticEngine d;
      parseSource(c.source, d);
    });
    const int check = frontEnd("f", c.args);
    // An inlined callee gets a frame pass of its own, in its call context.
    const int calleeFrame = c.callee ? frontEnd(c.callee, c.calleeArgs) - parse : 0;
    for (bool coder : {false, true}) {
      auto options = coder ? CompileOptions::coderLike() : CompileOptions::proposed();
      auto unit = Compiler().compileSource(c.source, "f", c.args, options);
      const auto boundaries = static_cast<int>(unit.optimizationReport().passes.size());
      const int compile =
          guardPoints([&] { Compiler().compileSource(c.source, "f", c.args, options); });
      EXPECT_EQ(compile, check + calleeFrame + boundaries + static_cast<int>(simple))
          << (coder ? "coder" : "proposed") << ": parse " << parse << ", parse + sema "
          << check << ", callee frame " << calleeFrame << ", pass boundaries " << boundaries
          << ", simple statements " << simple;
    }
  }
}

TEST(Lowering, CoderStyleHasChecksAndAllocs) {
  Compiler compiler;
  auto unit = compiler.compileSource("function y = f(x)\ny = x + x .* x;\nend\n", "f",
                                     {ArgSpec::row(16)}, CompileOptions::coderLike());
  auto r = unit.run({kernels::InputGen(20).rowVector(16)});
  auto cats = r.cycles.byCategory();
  EXPECT_GT(cats["check"], 0.0);
  EXPECT_GT(cats["alloc"], 0.0);
}

TEST(Lowering, ProposedStyleHasNoChecks) {
  Compiler compiler;
  auto unit = compiler.compileSource("function y = f(x)\ny = x + x .* x;\nend\n", "f",
                                     {ArgSpec::row(16)}, CompileOptions::proposed());
  auto r = unit.run({kernels::InputGen(21).rowVector(16)});
  EXPECT_EQ(r.cycles.byCategory().count("check"), 0u);
}

// -- every row of the builtin table (sema/builtins.def) ---------------------

/// An elementwise row: name, operand count, complex rule, fold domain.
struct BuiltinRow {
  const char* name;
  int arity;
  sema::ComplexRule rule;
  bool (*inDomain)(double);
};

const BuiltinRow kElementwiseRows[] = {
#define MAT2C_BUILTIN_UNARY(name, op, lir, rule, host, guard, ...) \
  {name, 1, sema::ComplexRule::rule, []([[maybe_unused]] double x) { return guard; }},
#define MAT2C_BUILTIN_BINARY(name, ...) \
  {name, 2, sema::ComplexRule::Real, [](double) { return true; }},
#include "sema/builtins.def"
};

void PrintTo(const BuiltinRow& row, std::ostream* os) { *os << row.name; }

class BuiltinRowTest : public ::testing::TestWithParam<BuiltinRow> {
 protected:
  /// `y = name(x) + 1` (or `name(x, w)`) in a function of the row's operands.
  std::string source() const {
    const BuiltinRow& row = GetParam();
    std::string params = row.arity == 1 ? "x" : "x, w";
    return "function y = f(" + params + ")\ny = " + row.name + "(" + params + ") + 1;\nend\n";
  }

  /// Compiles in both styles for dspx and scalar, validating each unit.
  void validate(const std::vector<ArgSpec>& specs, const std::vector<Matrix>& args) {
    const BuiltinRow& row = GetParam();
    std::vector<ArgSpec> used(specs.begin(), specs.begin() + row.arity);
    std::vector<Matrix> inputs(args.begin(), args.begin() + row.arity);
    Compiler compiler;
    for (const char* isa : {"dspx", "scalar"}) {
      for (bool coder : {false, true}) {
        auto opts = coder ? CompileOptions::coderLike(isa) : CompileOptions::proposed(isa);
        auto unit = compiler.compileSource(source(), "f", used, opts);
        EXPECT_LE(validateAgainstInterpreter(source(), "f", unit, inputs), 1e-9)
            << isa << (coder ? " coder" : " proposed");
      }
    }
  }
};

TEST_P(BuiltinRowTest, MatchesInterpreter) {
  const BuiltinRow& row = GetParam();
  std::vector<double> xs;
  for (double v : {-2.7, -0.5, -0.25, 0.3, 0.5, 0.8, 1.5, 2.2})
    if (row.inDomain(v)) xs.push_back(v);
  ASSERT_GE(xs.size(), 4u);
  std::vector<double> ws(xs.rbegin(), xs.rend());
  auto n = static_cast<std::int64_t>(xs.size());

  for (std::size_t i = 0; i < xs.size(); ++i)  // scalar context
    validate({ArgSpec::scalar(), ArgSpec::scalar()},
             {Matrix::scalar(xs[i]), Matrix::scalar(ws[i])});
  validate({ArgSpec::row(n), ArgSpec::row(n)},  // elementwise context
           {Matrix::rowVector(xs), Matrix::rowVector(ws)});

  kernels::InputGen gen(30);
  Matrix z = gen.complexRowVector(4);
  if (row.rule != sema::ComplexRule::Real) {
    validate({ArgSpec::complexScalar()}, {Matrix::scalar(z.at(0))});
    validate({ArgSpec::row(4, true)}, {z});
    return;
  }
  // Real-only: a complex operand is a located compile error, never a silent
  // use of its real part.
  for (const auto& spec : {ArgSpec::complexScalar(), ArgSpec::row(4, true)}) {
    try {
      Compiler().compileSource(source(), "f", std::vector<ArgSpec>(row.arity, spec),
                               CompileOptions::proposed());
      ADD_FAILURE() << row.name << " compiled with a complex operand";
    } catch (const CompileError& e) {
      EXPECT_NE(std::string(e.what()).find("error at 2:"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("cannot convert a complex value to real"),
                std::string::npos)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Builtins, BuiltinRowTest, ::testing::ValuesIn(kElementwiseRows),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(BuiltinTable, EveryRowIsARuntimeBuiltin) {
#define MAT2C_BUILTIN(name, kind, value)                        \
  if (sema::BuiltinKind::kind != sema::BuiltinKind::Constant) { \
    EXPECT_TRUE(isRuntimeBuiltin(name)) << name;                \
  }
#define MAT2C_BUILTIN_UNARY(name, ...) EXPECT_TRUE(isRuntimeBuiltin(name)) << name;
#define MAT2C_BUILTIN_BINARY(name, ...) EXPECT_TRUE(isRuntimeBuiltin(name)) << name;
#include "sema/builtins.def"
}

}  // namespace
}  // namespace mat2c
