// Builtin-catalog tests for the reference interpreter.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "interp/interpreter.hpp"
#include "interp_digest.hpp"
#include "parser/parser.hpp"

namespace mat2c {
namespace {

Matrix runVar(const std::string& src, const std::string& name = "x") {
  DiagnosticEngine diags;
  auto prog = parseSource(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderAll();
  Interpreter interp(*prog);
  auto vars = testing_digest::runScriptDigested(interp);
  auto it = vars.find(name);
  if (it == vars.end()) throw RuntimeError("variable '" + name + "' not set");
  return it->second;
}

double runScalar(const std::string& src) { return runVar(src).scalarValue(); }

TEST(Builtins, ZerosOnesEye) {
  Matrix z = runVar("x = zeros(2, 3);");
  EXPECT_EQ(z.rows(), 2u);
  EXPECT_EQ(z.cols(), 3u);
  Matrix o = runVar("x = ones(3);");
  EXPECT_EQ(o.rows(), 3u);
  EXPECT_DOUBLE_EQ(o.real(8), 1.0);
  Matrix e = runVar("x = eye(2);");
  EXPECT_DOUBLE_EQ(e.at(0, 0).real(), 1.0);
  EXPECT_DOUBLE_EQ(e.at(0, 1).real(), 0.0);
}

TEST(Builtins, SizeForms) {
  EXPECT_DOUBLE_EQ(runScalar("m = zeros(2, 5); x = size(m, 1);"), 2.0);
  EXPECT_DOUBLE_EQ(runScalar("m = zeros(2, 5); x = size(m, 2);"), 5.0);
  Matrix both = runVar("m = zeros(2, 5); x = size(m);");
  EXPECT_EQ(both.numel(), 2u);
  EXPECT_DOUBLE_EQ(runScalar("m = zeros(2,5); [r, c] = size(m); x = r * 10 + c;"), 25.0);
}

TEST(Builtins, LengthNumel) {
  EXPECT_DOUBLE_EQ(runScalar("x = length(zeros(3, 7));"), 7.0);
  EXPECT_DOUBLE_EQ(runScalar("x = numel(zeros(3, 7));"), 21.0);
  EXPECT_DOUBLE_EQ(runScalar("x = length([]);"), 0.0);
}

TEST(Builtins, SumProdMean) {
  EXPECT_DOUBLE_EQ(runScalar("x = prod(1:5);"), 120.0);
  EXPECT_DOUBLE_EQ(runScalar("x = mean([2 4 6]);"), 4.0);
  // Column-wise on matrices.
  Matrix s = runVar("x = sum([1 2; 3 4]);");
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s.real(0), 4.0);
  EXPECT_DOUBLE_EQ(s.real(1), 6.0);
}

TEST(Builtins, SumEmptyIsZero) { EXPECT_DOUBLE_EQ(runScalar("x = sum([]);"), 0.0); }

TEST(Builtins, MinMaxVector) {
  EXPECT_DOUBLE_EQ(runScalar("x = max([3 9 4]);"), 9.0);
  EXPECT_DOUBLE_EQ(runScalar("x = min([3 9 4]);"), 3.0);
  EXPECT_DOUBLE_EQ(runScalar("[v, i] = max([3 9 4]); x = i;"), 2.0);
}

TEST(Builtins, MinMaxTwoArg) {
  Matrix m = runVar("x = max([1 5 2], 3);");
  EXPECT_DOUBLE_EQ(m.real(0), 3.0);
  EXPECT_DOUBLE_EQ(m.real(1), 5.0);
}

TEST(Builtins, AnyAll) {
  EXPECT_DOUBLE_EQ(runScalar("x = any([0 0 1]);"), 1.0);
  EXPECT_DOUBLE_EQ(runScalar("x = any([0 0 0]);"), 0.0);
  EXPECT_DOUBLE_EQ(runScalar("x = all([1 2 3]);"), 1.0);
  EXPECT_DOUBLE_EQ(runScalar("x = all([1 0 3]);"), 0.0);
}

TEST(Builtins, AbsRealAndComplex) {
  EXPECT_DOUBLE_EQ(runScalar("x = abs(-4);"), 4.0);
  EXPECT_DOUBLE_EQ(runScalar("x = abs(3 + 4i);"), 5.0);
}

TEST(Builtins, SqrtNegativeGoesComplex) {
  Matrix z = runVar("x = sqrt(-4);");
  EXPECT_TRUE(z.isComplex());
  EXPECT_NEAR(z.at(0).imag(), 2.0, 1e-12);
}

TEST(Builtins, ExpOfComplexIsEuler) {
  Matrix z = runVar("x = exp(1i * pi);");
  EXPECT_NEAR(z.real(0), -1.0, 1e-12);
  EXPECT_NEAR(z.imag(0), 0.0, 1e-12);
}

TEST(Builtins, TrigAndRounding) {
  EXPECT_NEAR(runScalar("x = sin(pi / 2);"), 1.0, 1e-12);
  EXPECT_NEAR(runScalar("x = cos(0);"), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(runScalar("x = floor(2.7);"), 2.0);
  EXPECT_DOUBLE_EQ(runScalar("x = ceil(2.1);"), 3.0);
  EXPECT_DOUBLE_EQ(runScalar("x = round(2.5);"), 3.0);
  EXPECT_DOUBLE_EQ(runScalar("x = fix(-2.7);"), -2.0);
  EXPECT_DOUBLE_EQ(runScalar("x = sign(-3);"), -1.0);
}

TEST(Builtins, ModRem) {
  EXPECT_DOUBLE_EQ(runScalar("x = mod(7, 3);"), 1.0);
  EXPECT_DOUBLE_EQ(runScalar("x = mod(-1, 3);"), 2.0);  // MATLAB mod
  EXPECT_DOUBLE_EQ(runScalar("x = rem(-1, 3);"), -1.0); // C-style rem
  EXPECT_DOUBLE_EQ(runScalar("x = mod(5, 0);"), 5.0);
}

TEST(Builtins, Atan2) {
  EXPECT_NEAR(runScalar("x = atan2(1, 1);"), std::numbers::pi / 4, 1e-12);
}

TEST(Builtins, ComplexParts) {
  EXPECT_DOUBLE_EQ(runScalar("x = real(3 + 4i);"), 3.0);
  EXPECT_DOUBLE_EQ(runScalar("x = imag(3 + 4i);"), 4.0);
  Matrix c = runVar("x = conj(3 + 4i);");
  EXPECT_EQ(c.at(0), (Complex{3.0, -4.0}));
  EXPECT_NEAR(runScalar("x = angle(1i);"), std::numbers::pi / 2, 1e-12);
  Matrix z = runVar("x = complex(1, 2);");
  EXPECT_EQ(z.at(0), (Complex{1.0, 2.0}));
}

TEST(Builtins, IsRealIsEmpty) {
  EXPECT_DOUBLE_EQ(runScalar("x = isreal([1 2]);"), 1.0);
  EXPECT_DOUBLE_EQ(runScalar("x = isreal(1i);"), 0.0);
  EXPECT_DOUBLE_EQ(runScalar("x = isempty([]);"), 1.0);
  EXPECT_DOUBLE_EQ(runScalar("x = isempty(0);"), 0.0);
}

TEST(Builtins, Reshape) {
  Matrix m = runVar("x = reshape(1:6, 2, 3);");
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m.at(1, 0).real(), 2.0);  // column-major fill
  EXPECT_DOUBLE_EQ(m.at(0, 1).real(), 3.0);
  EXPECT_THROW(runScalar("x = reshape(1:6, 2, 2);"), RuntimeError);
}

TEST(Builtins, Linspace) {
  Matrix m = runVar("x = linspace(0, 1, 5);");
  ASSERT_EQ(m.numel(), 5u);
  EXPECT_DOUBLE_EQ(m.real(1), 0.25);
  EXPECT_DOUBLE_EQ(m.real(4), 1.0);
}

TEST(Builtins, NormDot) {
  EXPECT_DOUBLE_EQ(runScalar("x = norm([3 4]);"), 5.0);
  EXPECT_DOUBLE_EQ(runScalar("x = dot([1 2 3], [4 5 6]);"), 32.0);
  // dot conjugates its first argument.
  Matrix z = runVar("x = dot([1i], [1i]);");
  EXPECT_DOUBLE_EQ(z.real(0), 1.0);
}

TEST(Builtins, FftIfftRoundTrip) {
  Matrix err = runVar("v = [1 2 3 4 5 6 7 8]; x = max(abs(ifft(fft(v)) - v));");
  EXPECT_LT(err.scalarValue(), 1e-12);
}

TEST(Builtins, FftOfImpulseIsFlat) {
  Matrix m = runVar("v = zeros(1, 8); v(1) = 1; x = fft(v);");
  for (std::size_t i = 0; i < m.numel(); ++i) {
    EXPECT_NEAR(m.at(i).real(), 1.0, 1e-12);
    EXPECT_NEAR(m.at(i).imag(), 0.0, 1e-12);
  }
}

TEST(Builtins, FftMatchesDftForNonPow2) {
  // Length 6 exercises the O(n^2) fallback; check Parseval's theorem.
  Matrix lhs = runVar("v = [1 2 3 4 5 6]; x = sum(abs(fft(v)).^2);");
  Matrix rhs = runVar("v = [1 2 3 4 5 6]; x = 6 * sum(abs(v).^2);");
  EXPECT_NEAR(lhs.scalarValue(), rhs.scalarValue(), 1e-9);
}

TEST(Builtins, FftOfMatrixIsColumnwise) {
  // fft of a matrix must equal fft applied to each column independently.
  Matrix m = runVar("a = [1 5; 2 6; 3 7; 4 8]; x = fft(a);");
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 2u);
  Matrix c0 = runVar("x = fft([1; 2; 3; 4]);");
  Matrix c1 = runVar("x = fft([5; 6; 7; 8]);");
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(std::abs(m.at(r, 0) - c0.at(r)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(m.at(r, 1) - c1.at(r)), 0.0, 1e-12);
  }
}

TEST(Builtins, FftTwoArgZeroPadsAndTruncates) {
  // Padding: fft(v, 8) == fft([v zeros]) elementwise.
  Matrix err = runVar(
      "v = [1 2 3]; x = max(abs(fft(v, 8) - fft([v 0 0 0 0 0])));");
  EXPECT_LT(err.scalarValue(), 1e-12);
  // Truncation: fft(v, 2) == fft(v(1:2)).
  Matrix err2 = runVar("v = [1 2 3 4]; x = max(abs(fft(v, 2) - fft([1 2])));");
  EXPECT_LT(err2.scalarValue(), 1e-12);
  // Orientation follows the input; a padded column stays a column.
  Matrix col = runVar("x = fft([1; 2], 4);");
  EXPECT_EQ(col.rows(), 4u);
  EXPECT_EQ(col.cols(), 1u);
  // Matrices pad column-wise.
  Matrix m = runVar("x = fft([1 2; 3 4], 8);");
  EXPECT_EQ(m.rows(), 8u);
  EXPECT_EQ(m.cols(), 2u);
}

TEST(Builtins, FftIfftTwoArgRoundTrip) {
  Matrix err = runVar("v = [1 2 3 4 5]; x = max(abs(ifft(fft(v, 8), 8) - [v 0 0 0]));");
  EXPECT_LT(err.scalarValue(), 1e-12);
}

TEST(Builtins, FftRejectsBadLengthArg) {
  EXPECT_THROW(runVar("x = fft([1 2 3], 0);"), RuntimeError);
  EXPECT_THROW(runVar("x = fft([1 2 3], -4);"), RuntimeError);
  EXPECT_THROW(runVar("x = fft([1 2 3], 2.5);"), RuntimeError);
  EXPECT_THROW(runVar("x = fft([1 2 3], [4 8]);"), RuntimeError);
  EXPECT_THROW(runVar("x = fft([1 2 3], 4, 1);"), RuntimeError);
}

TEST(Builtins, FlipLrUd) {
  Matrix m = runVar("x = fliplr([1 2 3]);");
  EXPECT_DOUBLE_EQ(m.real(0), 3.0);
  Matrix u = runVar("x = flipud([1; 2; 3]);");
  EXPECT_DOUBLE_EQ(u.real(0), 3.0);
}

TEST(Builtins, SortAscendDescendWithIndex) {
  Matrix v = runVar("x = sort([3 1 2]);");
  EXPECT_DOUBLE_EQ(v.real(0), 1.0);
  EXPECT_DOUBLE_EQ(v.real(2), 3.0);
  Matrix d = runVar("x = sort([3 1 2], 'descend');");
  EXPECT_DOUBLE_EQ(d.real(0), 3.0);
  EXPECT_DOUBLE_EQ(runScalar("[s, i] = sort([9 4 7]); x = i(1);"), 2.0);
}

TEST(Builtins, SortComplexByMagnitude) {
  Matrix v = runVar("x = sort([3i, 1, -2]);");
  EXPECT_DOUBLE_EQ(std::abs(v.at(0)), 1.0);
  EXPECT_DOUBLE_EQ(std::abs(v.at(2)), 3.0);
}

TEST(Builtins, CumsumCumprod) {
  Matrix c = runVar("x = cumsum([1 2 3 4]);");
  EXPECT_DOUBLE_EQ(c.real(3), 10.0);
  Matrix p = runVar("x = cumprod([1 2 3 4]);");
  EXPECT_DOUBLE_EQ(p.real(3), 24.0);
  EXPECT_DOUBLE_EQ(p.real(0), 1.0);
}

TEST(Builtins, CumprodOfRealInfStaysReal) {
  // As a complex product, (inf+0i)*(0+0i) has a NaN imaginary part.
  Matrix p = runVar("x = cumprod([2 1/0 0 3]);");
  EXPECT_FALSE(p.isComplex());
  EXPECT_DOUBLE_EQ(p.real(0), 2.0);
  EXPECT_TRUE(std::isinf(p.real(1)));
  EXPECT_TRUE(std::isnan(p.real(2)));
  EXPECT_TRUE(std::isnan(p.real(3)));
}

TEST(Builtins, VarAndStd) {
  // var([1 2 3 4]) = 5/3 (normalized by n-1, MATLAB default)
  EXPECT_NEAR(runScalar("x = var([1 2 3 4]);"), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(runScalar("x = std([1 2 3 4]);"), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(runScalar("x = var(7);"), 0.0);
}

TEST(Builtins, Repmat) {
  Matrix m = runVar("x = repmat([1 2], 2, 3);");
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 6u);
  EXPECT_DOUBLE_EQ(m.at(1, 5).real(), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 4).real(), 1.0);
}

TEST(Builtins, ErrorThrows) {
  EXPECT_THROW(runScalar("error('boom'); x = 1;"), RuntimeError);
}

TEST(Builtins, TwoArgShapeMismatchThrows) {
  // mod, rem and complex read past the smaller operand before they checked
  // shapes the way atan2, min and max do.
  for (const char* f : {"mod", "rem", "complex", "atan2", "max"}) {
    std::string src = std::string("x = ") + f + "([1 2 3], [1 2]);";
    DiagnosticEngine diags;
    auto prog = parseSource(src, diags);
    Interpreter interp(*prog);
    try {
      interp.runScript();
      ADD_FAILURE() << src << " completed";
    } catch (const RuntimeError& e) {
      EXPECT_EQ(std::string(e.what()), std::string(f) + ": dimension mismatch");
    }
  }
}

TEST(Builtins, SizeArgumentsAreCounts) {
  // Sizes were cast to size_t unchecked: reshape(1:4, -1, -4) made a
  // 18446744073709551615x18446744073709551612 matrix of 4 elements.
  auto shapeOf = [](const char* src) {
    DiagnosticEngine diags;
    auto prog = parseSource(src, diags);
    Interpreter interp(*prog);
    Matrix x = interp.runScript().at("x");
    return std::to_string(x.rows()) + "x" + std::to_string(x.cols());
  };
  EXPECT_EQ(shapeOf("x = linspace(0, 1, -1);"), "1x0");
  EXPECT_EQ(shapeOf("x = repmat(1, -1, 2);"), "0x2");
  EXPECT_EQ(shapeOf("x = zeros(0/0);"), "0x0");
  EXPECT_EQ(shapeOf("x = ones(2.7, 1);"), "2x1");
  EXPECT_THROW(shapeOf("x = reshape(1:4, -1, -4);"), RuntimeError);
  EXPECT_THROW(shapeOf("x = zeros(1e20);"), RuntimeError);
  EXPECT_THROW(shapeOf("x = fft([1 2], 1e300);"), RuntimeError);
}

TEST(Builtins, WrongArityThrows) {
  EXPECT_THROW(runScalar("x = atan2(1);"), RuntimeError);
  EXPECT_THROW(runScalar("x = length();"), RuntimeError);
}

}  // namespace
}  // namespace mat2c
