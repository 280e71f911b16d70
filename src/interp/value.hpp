// MATLAB value semantics for the reference interpreter.
//
// A Matrix is a 2-D, column-major array of double or complex<double>
// elements, with flags distinguishing logical results and char rows
// (strings). Scalars are 1x1 matrices; the empty matrix is 0x0. A 1x1
// matrix keeps its real and imaginary parts inline, so creating, copying
// and moving a scalar never touches the heap; every other shape keeps its
// elements in one heap block.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace mat2c {

using Complex = std::complex<double>;

/// Thrown by interpreter/runtime operations on MATLAB-semantics errors
/// (dimension mismatch, bad index, ...).
class RuntimeError : public std::runtime_error {
 public:
  explicit RuntimeError(std::string what) : std::runtime_error(std::move(what)) {}
};

class Matrix {
 public:
  /// 0x0 empty real matrix.
  Matrix() = default;
  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  /// A moved-from Matrix is 0x0.
  Matrix(Matrix&& other) noexcept { *this = std::move(other); }
  Matrix& operator=(Matrix&& other) noexcept {
    rows_ = other.rows_;
    cols_ = other.cols_;
    complex_ = other.complex_;
    logical_ = other.logical_;
    string_ = other.string_;
    scalarRe_ = other.scalarRe_;
    scalarIm_ = other.scalarIm_;
    heap_ = std::move(other.heap_);
    other.rows_ = other.cols_ = 0;
    other.complex_ = false;
    return *this;
  }

  static Matrix scalar(double v) {
    Matrix m;
    m.rows_ = m.cols_ = 1;
    m.scalarRe_ = v;
    return m;
  }
  static Matrix scalar(Complex v) {
    Matrix m = scalar(v.real());
    if (v.imag() != 0.0) {
      m.complex_ = true;
      m.scalarIm_ = v.imag();
    }
    return m;
  }
  static Matrix logicalScalar(bool v) {
    Matrix m = scalar(v ? 1.0 : 0.0);
    m.logical_ = true;
    return m;
  }
  static Matrix zeros(std::size_t rows, std::size_t cols, bool complex = false);
  static Matrix fromString(const std::string& s);
  /// Row vector from doubles.
  static Matrix rowVector(const std::vector<double>& v);
  static Matrix colVector(const std::vector<double>& v);
  /// start:step:stop (MATLAB colon semantics, empty when the range is empty).
  static Matrix range(double start, double step, double stop);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t numel() const { return rows_ * cols_; }
  bool empty() const { return numel() == 0; }
  bool isScalar() const { return rows_ == 1 && cols_ == 1; }
  bool isVector() const { return rows_ == 1 || cols_ == 1; }
  bool isRow() const { return rows_ == 1; }
  bool isComplex() const { return complex_; }
  bool isLogical() const { return logical_; }
  bool isString() const { return string_; }

  void setLogical(bool v) { logical_ = v; }

  /// Linear element access, 0-based internally.
  double real(std::size_t i) const { return isScalar() ? scalarRe_ : heap_[i]; }
  double imag(std::size_t i) const {
    return !complex_ ? 0.0 : isScalar() ? scalarIm_ : heap_[numel() + i];
  }
  Complex at(std::size_t i) const { return {real(i), imag(i)}; }
  Complex at(std::size_t r, std::size_t c) const { return at(r + c * rows_); }
  void set(std::size_t i, Complex v);
  void set(std::size_t r, std::size_t c, Complex v) { set(r + c * rows_, v); }

  /// Scalar extraction; throws unless 1x1.
  double scalarValue() const;
  Complex complexScalarValue() const;
  /// MATLAB truthiness: all elements nonzero and non-empty.
  bool truthy() const;

  /// Widens storage to complex in place.
  void makeComplex();
  /// Drops a zero imaginary part (used so `ifft(fft(x))` compares real).
  void dropZeroImag();

  /// String contents; throws unless isString().
  std::string stringValue() const;

  /// Resizes preserving elements at their (row, col) positions; new cells 0.
  void resizePreserving(std::size_t rows, std::size_t cols);

  /// Rendered like a MATLAB value dump — used in tests/diagnostics.
  std::string toString() const;

  friend bool operator==(const Matrix& a, const Matrix& b);

 private:
  /// Sets the shape and zero-fills the storage it needs.
  void allocate(std::size_t rows, std::size_t cols, bool complex);
  /// Doubles held on the heap: none for 1x1, else numel() (twice that when
  /// complex).
  std::size_t heapSize() const { return isScalar() ? 0 : numel() * (complex_ ? 2 : 1); }
  const double* re() const { return isScalar() ? &scalarRe_ : heap_.get(); }
  const double* im() const { return isScalar() ? &scalarIm_ : heap_.get() + numel(); }
  double* re() { return isScalar() ? &scalarRe_ : heap_.get(); }
  double* im() { return isScalar() ? &scalarIm_ : heap_.get() + numel(); }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool complex_ = false;
  bool logical_ = false;
  bool string_ = false;
  // A 1x1 value lives in scalarRe_/scalarIm_; any other shape keeps its
  // numel() real parts in heap_, followed by the imaginary parts when
  // complex_.
  double scalarRe_ = 0.0;
  double scalarIm_ = 0.0;
  std::unique_ptr<double[]> heap_;
};

/// 2^53, the largest count or 1-based index a double carries to size_t
/// safely: past it doubles are not all integers, and the cast may overflow.
inline constexpr double kMaxCount = 9007199254740992.0;

/// Element count of start:step:stop (MATLAB colon semantics; 0 when empty
/// or a bound is NaN); throws past kMaxCount elements.
std::size_t rangeLength(double start, double step, double stop);

// -- elementwise / structural operations used by interpreter & builtins ------

enum class ElemOp { Add, Sub, Mul, Div, LeftDiv, Pow, Eq, Ne, Lt, Le, Gt, Ge, And, Or };

/// Elementwise with MATLAB scalar expansion; throws on shape mismatch.
Matrix elementwise(ElemOp op, const Matrix& a, const Matrix& b);
Matrix matmul(const Matrix& a, const Matrix& b);
Matrix transpose(const Matrix& a, bool conjugate);
Matrix negate(const Matrix& a);
Matrix logicalNot(const Matrix& a);

/// Map a unary function over elements (complex-aware callers pass cf).
Matrix mapUnary(const Matrix& a, double (*f)(double));
Matrix mapUnaryComplex(const Matrix& a, Complex (*f)(Complex));

/// Maximum absolute difference between two same-shaped values; used as the
/// correctness gate when validating compiled code against the interpreter.
double maxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace mat2c
