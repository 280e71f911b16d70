#include <gtest/gtest.h>

#include <limits>

#include "interp/value.hpp"

namespace mat2c {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, ScalarBasics) {
  Matrix m = Matrix::scalar(3.5);
  EXPECT_TRUE(m.isScalar());
  EXPECT_DOUBLE_EQ(m.scalarValue(), 3.5);
  EXPECT_FALSE(m.isComplex());
}

TEST(Matrix, ComplexScalar) {
  Matrix m = Matrix::scalar(Complex{1.0, -2.0});
  EXPECT_TRUE(m.isComplex());
  EXPECT_EQ(m.at(0), (Complex{1.0, -2.0}));
  EXPECT_THROW(m.scalarValue(), RuntimeError);
}

TEST(Matrix, ComplexScalarWithZeroImagStaysReal) {
  Matrix m = Matrix::scalar(Complex{1.0, 0.0});
  EXPECT_FALSE(m.isComplex());
}

TEST(Matrix, ZerosShape) {
  Matrix m = Matrix::zeros(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.numel(), 6u);
  EXPECT_FALSE(m.isScalar());
  EXPECT_FALSE(m.isVector());
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix m = Matrix::zeros(2, 2);
  m.set(0, 1, Complex{5.0, 0.0});
  EXPECT_DOUBLE_EQ(m.real(2), 5.0);  // element (0,1) is linear index 2
}

TEST(Matrix, RangeInclusive) {
  Matrix m = Matrix::range(1, 1, 5);
  ASSERT_EQ(m.numel(), 5u);
  EXPECT_DOUBLE_EQ(m.real(4), 5.0);
  EXPECT_TRUE(m.isRow());
}

TEST(Matrix, RangeWithStep) {
  Matrix m = Matrix::range(0, 0.5, 2);
  ASSERT_EQ(m.numel(), 5u);
  EXPECT_DOUBLE_EQ(m.real(3), 1.5);
}

TEST(Matrix, RangeEmptyAndNegative) {
  EXPECT_TRUE(Matrix::range(5, 1, 1).empty());
  Matrix m = Matrix::range(5, -2, 0);
  ASSERT_EQ(m.numel(), 3u);
  EXPECT_DOUBLE_EQ(m.real(2), 1.0);
}

TEST(Matrix, RangeZeroStepIsEmpty) { EXPECT_TRUE(Matrix::range(1, 0, 5).empty()); }

TEST(Matrix, SetPromotesToComplex) {
  Matrix m = Matrix::zeros(1, 2);
  m.set(1, Complex{0.0, 3.0});
  EXPECT_TRUE(m.isComplex());
  EXPECT_DOUBLE_EQ(m.imag(1), 3.0);
  EXPECT_DOUBLE_EQ(m.imag(0), 0.0);
}

TEST(Matrix, DropZeroImag) {
  Matrix m = Matrix::zeros(1, 2, /*complex=*/true);
  m.set(0, Complex{1.0, 0.0});
  m.dropZeroImag();
  EXPECT_FALSE(m.isComplex());
}

TEST(Matrix, StringRoundTrip) {
  Matrix m = Matrix::fromString("hi");
  EXPECT_TRUE(m.isString());
  EXPECT_EQ(m.stringValue(), "hi");
  EXPECT_EQ(m.numel(), 2u);
}

TEST(Matrix, Truthy) {
  EXPECT_TRUE(Matrix::scalar(1.0).truthy());
  EXPECT_FALSE(Matrix::scalar(0.0).truthy());
  EXPECT_FALSE(Matrix().truthy());
  Matrix m = Matrix::rowVector({1.0, 0.0});
  EXPECT_FALSE(m.truthy());
  Matrix m2 = Matrix::rowVector({1.0, 2.0});
  EXPECT_TRUE(m2.truthy());
}

TEST(Matrix, ResizePreserving) {
  Matrix m = Matrix::zeros(2, 2);
  m.set(1, 1, Complex{4.0, 0.0});
  m.resizePreserving(3, 3);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 1).real(), 4.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2).real(), 0.0);
}

TEST(Elementwise, ScalarExpansion) {
  Matrix v = Matrix::rowVector({1, 2, 3});
  Matrix r = elementwise(ElemOp::Mul, v, Matrix::scalar(2.0));
  EXPECT_DOUBLE_EQ(r.real(2), 6.0);
  Matrix r2 = elementwise(ElemOp::Sub, Matrix::scalar(10.0), v);
  EXPECT_DOUBLE_EQ(r2.real(0), 9.0);
}

TEST(Elementwise, ShapeMismatchThrows) {
  Matrix a = Matrix::rowVector({1, 2});
  Matrix b = Matrix::rowVector({1, 2, 3});
  EXPECT_THROW(elementwise(ElemOp::Add, a, b), RuntimeError);
}

TEST(Elementwise, ComparisonGivesLogical) {
  Matrix v = Matrix::rowVector({1, 5, 3});
  Matrix r = elementwise(ElemOp::Gt, v, Matrix::scalar(2.0));
  EXPECT_TRUE(r.isLogical());
  EXPECT_DOUBLE_EQ(r.real(0), 0.0);
  EXPECT_DOUBLE_EQ(r.real(1), 1.0);
}

TEST(Elementwise, ComplexMultiply) {
  Matrix a = Matrix::scalar(Complex{1.0, 2.0});
  Matrix b = Matrix::scalar(Complex{3.0, -1.0});
  Matrix r = elementwise(ElemOp::Mul, a, b);
  EXPECT_EQ(r.at(0), (Complex{5.0, 5.0}));
}

TEST(Elementwise, RealPowNegativeBaseIntegerExponent) {
  Matrix r = elementwise(ElemOp::Pow, Matrix::scalar(-2.0), Matrix::scalar(3.0));
  EXPECT_FALSE(r.isComplex());
  EXPECT_DOUBLE_EQ(r.real(0), -8.0);
}

TEST(Elementwise, PowNegativeBaseFractionalExponentIsComplex) {
  Matrix r = elementwise(ElemOp::Pow, Matrix::scalar(-1.0), Matrix::scalar(0.5));
  EXPECT_TRUE(r.isComplex());
  EXPECT_NEAR(r.at(0).imag(), 1.0, 1e-12);
}

TEST(Matmul, Basic2x2) {
  Matrix a = Matrix::zeros(2, 2);
  a.set(0, 0, {1, 0});
  a.set(0, 1, {2, 0});
  a.set(1, 0, {3, 0});
  a.set(1, 1, {4, 0});
  Matrix r = matmul(a, a);
  EXPECT_DOUBLE_EQ(r.at(0, 0).real(), 7.0);
  EXPECT_DOUBLE_EQ(r.at(1, 1).real(), 22.0);
}

TEST(Matmul, InnerDimMismatchThrows) {
  Matrix a = Matrix::zeros(2, 3);
  Matrix b = Matrix::zeros(2, 3);
  EXPECT_THROW(matmul(a, b), RuntimeError);
}

TEST(Matmul, ScalarFallsBackToElementwise) {
  Matrix v = Matrix::rowVector({1, 2});
  Matrix r = matmul(v, Matrix::scalar(3.0));
  EXPECT_DOUBLE_EQ(r.real(1), 6.0);
}

TEST(Transpose, ConjugateVsPlain) {
  Matrix m = Matrix::zeros(1, 2, true);
  m.set(0, Complex{1.0, 2.0});
  m.set(1, Complex{3.0, -4.0});
  Matrix ct = transpose(m, true);
  EXPECT_EQ(ct.rows(), 2u);
  EXPECT_EQ(ct.at(0), (Complex{1.0, -2.0}));
  Matrix pt = transpose(m, false);
  EXPECT_EQ(pt.at(0), (Complex{1.0, 2.0}));
}

TEST(MaxAbsDiff, DetectsDifference) {
  Matrix a = Matrix::rowVector({1, 2, 3});
  Matrix b = Matrix::rowVector({1, 2.5, 3});
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, a), 0.0);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(MaxAbsDiff, FiniteComplexDifferenceIsTheModulus) {
  EXPECT_DOUBLE_EQ(maxAbsDiff(Matrix::scalar(Complex{1, 2}), Matrix::scalar(Complex{4, 6})),
                   5.0);
}

TEST(MaxAbsDiff, NaNOnOneSideIsInfinitelyWrong) {
  Matrix a = Matrix::rowVector({1, 2, 3});
  Matrix b = Matrix::rowVector({1, kNaN, 3});
  EXPECT_EQ(maxAbsDiff(a, b), kInf);
  EXPECT_EQ(maxAbsDiff(b, a), kInf);
  // A NaN imaginary part against a real element counts too.
  EXPECT_EQ(maxAbsDiff(Matrix::scalar(2.0), Matrix::scalar(Complex{2, kNaN})), kInf);
}

TEST(MaxAbsDiff, NaNOnBothSidesAtOneElementAgrees) {
  Matrix a = Matrix::rowVector({1, kNaN, 3});
  EXPECT_EQ(maxAbsDiff(a, a), 0.0);
  EXPECT_EQ(maxAbsDiff(Matrix::scalar(Complex{kNaN, 1}), Matrix::scalar(Complex{kNaN, 1})), 0.0);
}

TEST(MaxAbsDiff, EqualInfinitiesAgreeAndDifferentOnesDoNot) {
  Matrix pos = Matrix::rowVector({kInf, 1});
  Matrix neg = Matrix::rowVector({-kInf, 1});
  Matrix fin = Matrix::rowVector({1e300, 1});
  EXPECT_EQ(maxAbsDiff(pos, pos), 0.0);
  EXPECT_EQ(maxAbsDiff(neg, neg), 0.0);
  EXPECT_EQ(maxAbsDiff(pos, neg), kInf);
  EXPECT_EQ(maxAbsDiff(pos, fin), kInf);
  EXPECT_EQ(maxAbsDiff(Matrix::scalar(Complex{1, kInf}), Matrix::scalar(Complex{1, -kInf})),
            kInf);
}

TEST(Matrix, RangeWithNonFiniteBounds) {
  // A NaN bound is empty; an unbounded count throws instead of overflowing
  // its cast to size_t.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(Matrix::range(nan, 1, 5).empty());
  EXPECT_TRUE(Matrix::range(1, 1, nan).empty());
  EXPECT_EQ(rangeLength(1, 1, 5), 5u);
  EXPECT_THROW(rangeLength(1, 1, kInf), RuntimeError);
  EXPECT_THROW(rangeLength(0, 1e-300, 1), RuntimeError);
}

TEST(MaxAbsDiff, ShapeMismatchThrows) {
  EXPECT_THROW(maxAbsDiff(Matrix::zeros(1, 2), Matrix::zeros(2, 1)), RuntimeError);
}

}  // namespace
}  // namespace mat2c
