#include "interp/value.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "support/string_utils.hpp"

namespace mat2c {

Matrix::Matrix(const Matrix& other)
    : rows_(other.rows_), cols_(other.cols_), complex_(other.complex_),
      logical_(other.logical_), string_(other.string_), scalarRe_(other.scalarRe_),
      scalarIm_(other.scalarIm_) {
  if (std::size_t n = heapSize()) {
    heap_ = std::make_unique_for_overwrite<double[]>(n);
    std::copy(other.heap_.get(), other.heap_.get() + n, heap_.get());
  }
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this != &other) *this = Matrix(other);
  return *this;
}

void Matrix::allocate(std::size_t rows, std::size_t cols, bool complex) {
  rows_ = rows;
  cols_ = cols;
  complex_ = complex;
  scalarRe_ = scalarIm_ = 0.0;
  heap_.reset();
  if (std::size_t n = heapSize()) heap_ = std::make_unique<double[]>(n);
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols, bool complex) {
  Matrix m;
  m.allocate(rows, cols, complex);
  return m;
}

Matrix Matrix::fromString(const std::string& s) {
  Matrix m = zeros(s.empty() ? 0 : 1, s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    m.re()[i] = static_cast<double>(static_cast<unsigned char>(s[i]));
  m.string_ = true;
  return m;
}

Matrix Matrix::rowVector(const std::vector<double>& v) {
  Matrix m = zeros(v.empty() ? 0 : 1, v.size());
  std::copy(v.begin(), v.end(), m.re());
  return m;
}

Matrix Matrix::colVector(const std::vector<double>& v) {
  Matrix m = rowVector(v);
  std::swap(m.rows_, m.cols_);
  return m;
}

std::size_t rangeLength(double start, double step, double stop) {
  if (step == 0.0) return 0;  // MATLAB: empty
  double n = std::floor((stop - start) / step + 1e-10) + 1.0;
  if (!(n > 0.0)) return 0;  // empty, or a NaN bound
  if (n > kMaxCount) throw RuntimeError("range has too many elements");  // inf included
  return static_cast<std::size_t>(n);
}

Matrix Matrix::range(double start, double step, double stop) {
  std::size_t count = rangeLength(start, step, stop);
  if (count == 0) return Matrix();
  Matrix m = zeros(1, count);
  double* out = m.re();
  for (std::size_t i = 0; i < count; ++i) out[i] = start + static_cast<double>(i) * step;
  return m;
}

void Matrix::set(std::size_t i, Complex v) {
  if (v.imag() != 0.0 && !complex_) makeComplex();
  re()[i] = v.real();
  if (complex_) im()[i] = v.imag();
}

double Matrix::scalarValue() const {
  if (!isScalar()) throw RuntimeError("expected a scalar value, got " + std::to_string(rows_) +
                                      "x" + std::to_string(cols_));
  if (complex_ && scalarIm_ != 0.0)
    throw RuntimeError("expected a real scalar, got a complex value");
  return scalarRe_;
}

Complex Matrix::complexScalarValue() const {
  if (!isScalar()) throw RuntimeError("expected a scalar value");
  return at(0);
}

bool Matrix::truthy() const {
  if (empty()) return false;
  for (std::size_t i = 0; i < numel(); ++i) {
    if (real(i) == 0.0 && imag(i) == 0.0) return false;
  }
  return true;
}

void Matrix::makeComplex() {
  if (complex_) return;
  complex_ = true;
  scalarIm_ = 0.0;
  if (std::size_t n = heapSize()) {
    auto widened = std::make_unique<double[]>(n);
    std::copy(heap_.get(), heap_.get() + numel(), widened.get());
    heap_ = std::move(widened);
  }
}

void Matrix::dropZeroImag() {
  if (!complex_) return;
  const double* imag = im();
  for (std::size_t i = 0; i < numel(); ++i) {
    if (imag[i] != 0.0) return;
  }
  complex_ = false;  // the imaginary half of heap_ goes unused
  scalarIm_ = 0.0;
}

std::string Matrix::stringValue() const {
  if (!string_) throw RuntimeError("expected a string value");
  std::string s;
  s.reserve(numel());
  for (std::size_t i = 0; i < numel(); ++i) s += static_cast<char>(static_cast<int>(real(i)));
  return s;
}

void Matrix::resizePreserving(std::size_t rows, std::size_t cols) {
  Matrix out = zeros(rows, cols, complex_);
  out.logical_ = logical_;
  std::size_t rCopy = std::min(rows, rows_);
  std::size_t cCopy = std::min(cols, cols_);
  for (std::size_t c = 0; c < cCopy; ++c) {
    for (std::size_t r = 0; r < rCopy; ++r) {
      out.re()[r + c * rows] = re()[r + c * rows_];
      if (complex_) out.im()[r + c * rows] = im()[r + c * rows_];
    }
  }
  *this = std::move(out);
}

std::string Matrix::toString() const {
  if (string_) return "'" + stringValue() + "'";
  std::ostringstream os;
  os << rows_ << "x" << cols_ << (complex_ ? " complex" : "") << (logical_ ? " logical" : "")
     << " [";
  for (std::size_t r = 0; r < rows_; ++r) {
    if (r) os << "; ";
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) os << ", ";
      os << formatDouble(real(r + c * rows_));
      if (complex_ && imag(r + c * rows_) != 0.0) {
        double v = imag(r + c * rows_);
        os << (v >= 0 ? "+" : "-") << formatDouble(std::abs(v)) << "i";
      }
    }
  }
  os << "]";
  return os.str();
}

bool operator==(const Matrix& a, const Matrix& b) {
  if (a.rows_ != b.rows_ || a.cols_ != b.cols_) return false;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (a.at(i) != b.at(i)) return false;
  }
  return true;
}

namespace {

Complex applyScalar(ElemOp op, Complex a, Complex b, bool& logicalOut) {
  logicalOut = false;
  switch (op) {
    case ElemOp::Add: return a + b;
    case ElemOp::Sub: return a - b;
    case ElemOp::Mul: return a * b;
    case ElemOp::Div: return a / b;
    case ElemOp::LeftDiv: return b / a;
    case ElemOp::Pow: {
      if (a.imag() == 0.0 && b.imag() == 0.0) {
        double base = a.real();
        double expo = b.real();
        if (base >= 0.0 || expo == std::floor(expo)) return {std::pow(base, expo), 0.0};
      }
      return std::pow(a, b);
    }
    case ElemOp::Eq: logicalOut = true; return {a == b ? 1.0 : 0.0, 0.0};
    case ElemOp::Ne: logicalOut = true; return {a != b ? 1.0 : 0.0, 0.0};
    // Relational ops compare real parts (MATLAB semantics).
    case ElemOp::Lt: logicalOut = true; return {a.real() < b.real() ? 1.0 : 0.0, 0.0};
    case ElemOp::Le: logicalOut = true; return {a.real() <= b.real() ? 1.0 : 0.0, 0.0};
    case ElemOp::Gt: logicalOut = true; return {a.real() > b.real() ? 1.0 : 0.0, 0.0};
    case ElemOp::Ge: logicalOut = true; return {a.real() >= b.real() ? 1.0 : 0.0, 0.0};
    case ElemOp::And:
      logicalOut = true;
      return {(a != Complex{} && b != Complex{}) ? 1.0 : 0.0, 0.0};
    case ElemOp::Or:
      logicalOut = true;
      return {(a != Complex{} || b != Complex{}) ? 1.0 : 0.0, 0.0};
  }
  throw RuntimeError("bad elementwise op");
}

/// applyScalar on two real elements. Arithmetic stays in doubles: in complex
/// arithmetic inf * (0 imaginary) is NaN, which would turn a real inf complex.
Complex applyReal(ElemOp op, double a, double b, bool& logicalOut) {
  switch (op) {
    case ElemOp::Add: return a + b;
    case ElemOp::Sub: return a - b;
    case ElemOp::Mul: return a * b;
    case ElemOp::Div: return a / b;
    case ElemOp::LeftDiv: return b / a;
    default: return applyScalar(op, a, b, logicalOut);
  }
}

}  // namespace

Matrix elementwise(ElemOp op, const Matrix& a, const Matrix& b) {
  const bool aScalar = a.isScalar();
  const bool bScalar = b.isScalar();
  if (!aScalar && !bScalar && (a.rows() != b.rows() || a.cols() != b.cols())) {
    throw RuntimeError("matrix dimensions must agree: " + std::to_string(a.rows()) + "x" +
                       std::to_string(a.cols()) + " vs " + std::to_string(b.rows()) + "x" +
                       std::to_string(b.cols()));
  }
  const bool real = !a.isComplex() && !b.isComplex();
  if (aScalar && bScalar) {
    bool logicalOut = false;
    Matrix out = Matrix::scalar(real ? applyReal(op, a.real(0), b.real(0), logicalOut)
                                     : applyScalar(op, a.at(0), b.at(0), logicalOut));
    out.setLogical(logicalOut);
    return out;
  }
  std::size_t rows = aScalar ? b.rows() : a.rows();
  std::size_t cols = aScalar ? b.cols() : a.cols();
  Matrix out = Matrix::zeros(rows, cols);
  bool anyLogical = false;
  for (std::size_t i = 0; i < rows * cols; ++i) {
    Complex av = aScalar ? a.at(0) : a.at(i);
    Complex bv = bScalar ? b.at(0) : b.at(i);
    bool logicalOut = false;
    out.set(i, real ? applyReal(op, av.real(), bv.real(), logicalOut)
                    : applyScalar(op, av, bv, logicalOut));
    anyLogical = logicalOut;
  }
  out.setLogical(anyLogical);
  out.dropZeroImag();
  return out;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.isScalar() || b.isScalar()) return elementwise(ElemOp::Mul, a, b);
  if (a.cols() != b.rows()) {
    throw RuntimeError("inner matrix dimensions must agree: " + std::to_string(a.cols()) +
                       " vs " + std::to_string(b.rows()));
  }
  // Every term is summed (inf * 0 = NaN must reach the result), and real
  // operands multiply in doubles, as in elementwise().
  bool cplx = a.isComplex() || b.isComplex();
  Matrix out = Matrix::zeros(a.rows(), b.cols(), cplx);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      Complex bkj = b.at(k, j);
      for (std::size_t i = 0; i < a.rows(); ++i) {
        out.set(i, j, cplx ? out.at(i, j) + a.at(i, k) * bkj
                           : Complex{out.at(i, j).real() + a.at(i, k).real() * bkj.real()});
      }
    }
  }
  out.dropZeroImag();
  return out;
}

Matrix transpose(const Matrix& a, bool conjugate) {
  Matrix out = Matrix::zeros(a.cols(), a.rows(), a.isComplex());
  for (std::size_t c = 0; c < a.cols(); ++c) {
    for (std::size_t r = 0; r < a.rows(); ++r) {
      Complex v = a.at(r, c);
      out.set(c, r, conjugate ? std::conj(v) : v);
    }
  }
  return out;
}

Matrix negate(const Matrix& a) {
  Matrix out = Matrix::zeros(a.rows(), a.cols(), a.isComplex());
  for (std::size_t i = 0; i < a.numel(); ++i) out.set(i, -a.at(i));
  return out;
}

Matrix logicalNot(const Matrix& a) {
  Matrix out = Matrix::zeros(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.numel(); ++i)
    out.set(i, Complex{a.at(i) == Complex{} ? 1.0 : 0.0, 0.0});
  out.setLogical(true);
  return out;
}

Matrix mapUnary(const Matrix& a, double (*f)(double)) {
  if (a.isComplex()) throw RuntimeError("function not defined for complex arguments");
  Matrix out = Matrix::zeros(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.numel(); ++i) out.set(i, Complex{f(a.real(i)), 0.0});
  return out;
}

Matrix mapUnaryComplex(const Matrix& a, Complex (*f)(Complex)) {
  Matrix out = Matrix::zeros(a.rows(), a.cols(), /*complex=*/true);
  for (std::size_t i = 0; i < a.numel(); ++i) out.set(i, f(a.at(i)));
  out.dropZeroImag();
  return out;
}

double maxAbsDiff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw RuntimeError("maxAbsDiff: shape mismatch " + std::to_string(a.rows()) + "x" +
                       std::to_string(a.cols()) + " vs " + std::to_string(b.rows()) + "x" +
                       std::to_string(b.cols()));
  }
  // Real and imaginary parts are compared separately so a NaN cannot hide:
  // std::max drops a NaN difference, which would validate NaN against a
  // number with error 0.
  auto partDiff = [](double x, double y) {
    if (std::isnan(x) || std::isnan(y))
      return std::isnan(x) && std::isnan(y) ? 0.0 : std::numeric_limits<double>::infinity();
    if (std::isinf(x) || std::isinf(y))
      return x == y ? 0.0 : std::numeric_limits<double>::infinity();
    return x - y;
  };
  double worst = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    Complex d{partDiff(a.real(i), b.real(i)), partDiff(a.imag(i), b.imag(i))};
    worst = std::max(worst, std::abs(d));
  }
  return worst;
}

}  // namespace mat2c
