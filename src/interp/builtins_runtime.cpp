// Builtin-function catalog for the reference interpreter.
//
// Implements the MATLAB builtins the DSP-kernel domain needs. FFT/IFFT are
// direct radix-2 (power-of-two) with an O(n^2) DFT fallback, which keeps the
// oracle simple and obviously correct.
#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <utility>

#include "interp/interpreter.hpp"

namespace mat2c {
namespace {

using Args = std::span<const Matrix>;
using Outs = std::span<Matrix>;

void requireArgs(Args args, std::size_t lo, std::size_t hi, const char* name) {
  if (args.size() < lo || args.size() > hi) {
    throw RuntimeError(std::string(name) + ": wrong number of arguments");
  }
}

/// Result shape of a two-argument elementwise builtin: equal shapes, or a
/// scalar operand expanded to the other's shape.
std::pair<std::size_t, std::size_t> broadcastShape(const Matrix& a, const Matrix& b,
                                                   const char* name) {
  if (!a.isScalar() && !b.isScalar() && (a.rows() != b.rows() || a.cols() != b.cols()))
    throw RuntimeError(std::string(name) + ": dimension mismatch");
  return a.isScalar() ? std::pair{b.rows(), b.cols()} : std::pair{a.rows(), a.cols()};
}

/// A single-output builtin's result.
std::size_t put(Outs out, Matrix m) {
  out[0] = std::move(m);
  return 1;
}

Matrix mapC(const Matrix& a, Complex (*f)(Complex)) { return mapUnaryComplex(a, f); }

/// A size argument as a count, truncated: a negative or NaN size counts as
/// 0, and one past kMaxCount throws.
std::size_t countArg(const Matrix& arg, const char* name) {
  double v = arg.scalarValue();
  if (!(v > 0.0)) return 0;
  if (v > kMaxCount) throw RuntimeError(std::string(name) + ": size too large");
  return static_cast<std::size_t>(v);
}

// zeros/ones/eye share the size-argument convention: (), (n), (m, n).
Matrix sized(Args args, const char* name, double fill) {
  std::size_t m = 1;
  std::size_t n = 1;
  if (args.size() == 1) {
    m = n = countArg(args[0], name);
  } else if (args.size() == 2) {
    m = countArg(args[0], name);
    n = countArg(args[1], name);
  } else if (args.size() > 2) {
    throw RuntimeError(std::string(name) + ": only 2-D arrays are supported");
  }
  Matrix out = Matrix::zeros(m, n);
  if (fill != 0.0) {
    for (std::size_t i = 0; i < out.numel(); ++i) out.set(i, Complex{fill, 0.0});
  }
  return out;
}

/// a * b, taken in doubles when `real`: in complex arithmetic inf * (0
/// imaginary) is NaN, which would turn a real inf complex.
auto realProductIf(bool real) {
  return [real](Complex a, Complex b) {
    return real ? Complex{a.real() * b.real()} : a * b;
  };
}

// Reduction over the "MATLAB default" dimension: columns of a matrix, the
// vector itself for row/column vectors.
template <typename Fold>
Matrix reduce(const Matrix& a, Fold fold, Complex init, bool emptyIsInit) {
  if (a.empty()) {
    if (emptyIsInit) return Matrix::scalar(init);
    return Matrix();
  }
  if (a.isVector()) {
    Complex acc = init;
    for (std::size_t i = 0; i < a.numel(); ++i) acc = fold(acc, a.at(i));
    return Matrix::scalar(acc);
  }
  Matrix out = Matrix::zeros(1, a.cols(), a.isComplex());
  for (std::size_t c = 0; c < a.cols(); ++c) {
    Complex acc = init;
    for (std::size_t r = 0; r < a.rows(); ++r) acc = fold(acc, a.at(r, c));
    out.set(0, c, acc);
  }
  out.dropZeroImag();
  return out;
}

// min/max: one-arg reduction (value + index) or two-arg elementwise.
std::size_t minmax(Args args, Outs out, bool isMax) {
  const char* name = isMax ? "max" : "min";
  requireArgs(args, 1, 2, name);
  auto better = [isMax](double cand, double best) {
    return isMax ? cand > best : cand < best;
  };
  if (args.size() == 2) {
    const Matrix& a = args[0];
    const Matrix& b = args[1];
    if (a.isComplex() || b.isComplex())
      throw RuntimeError(std::string(name) + ": complex two-arg form not supported");
    const bool aS = a.isScalar();
    const bool bS = b.isScalar();
    auto [rows, cols] = broadcastShape(a, b, name);
    Matrix m = Matrix::zeros(rows, cols);
    for (std::size_t i = 0; i < rows * cols; ++i) {
      double av = aS ? a.real(0) : a.real(i);
      double bv = bS ? b.real(0) : b.real(i);
      m.set(i, Complex{better(av, bv) ? av : bv, 0.0});
    }
    return put(out, std::move(m));
  }
  const Matrix& a = args[0];
  if (a.empty()) return put(out, Matrix());
  auto key = [&](std::size_t i) {
    // MATLAB compares complex values by magnitude for min/max.
    return a.isComplex() ? std::abs(a.at(i)) : a.real(i);
  };
  if (a.isVector()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < a.numel(); ++i) {
      if (better(key(i), key(best))) best = i;
    }
    out[0] = Matrix::scalar(a.at(best));
    if (out.size() < 2) return 1;
    out[1] = Matrix::scalar(static_cast<double>(best + 1));
    return 2;
  }
  Matrix vals = Matrix::zeros(1, a.cols(), a.isComplex());
  Matrix idxs = Matrix::zeros(1, a.cols());
  for (std::size_t c = 0; c < a.cols(); ++c) {
    std::size_t best = 0;
    for (std::size_t r = 1; r < a.rows(); ++r) {
      if (better(a.isComplex() ? std::abs(a.at(r, c)) : a.real(r + c * a.rows()),
                 a.isComplex() ? std::abs(a.at(best, c)) : a.real(best + c * a.rows())))
        best = r;
    }
    vals.set(0, c, a.at(best, c));
    idxs.set(0, c, Complex{static_cast<double>(best + 1), 0.0});
  }
  vals.dropZeroImag();
  out[0] = std::move(vals);
  if (out.size() < 2) return 1;
  out[1] = std::move(idxs);
  return 2;
}

// Radix-2 FFT on a length-n buffer; n must be a power of two.
void fftRadix2(std::vector<Complex>& a, bool inverse) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    double ang = 2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    Complex wl(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        Complex u = a[i + k];
        Complex v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  if (inverse) {
    for (auto& x : a) x /= static_cast<double>(n);
  }
}

// One length-m transform in place; radix-2 when m is a power of two,
// O(m^2) DFT otherwise.
void fftBuffer(std::vector<Complex>& buf, bool inverse) {
  const std::size_t m = buf.size();
  if (m != 0 && (m & (m - 1)) == 0) {
    fftRadix2(buf, inverse);
    return;
  }
  std::vector<Complex> out(m);
  double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < m; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t t = 0; t < m; ++t) {
      double ang = sign * 2.0 * std::numbers::pi * static_cast<double>(k) *
                   static_cast<double>(t) / static_cast<double>(m);
      acc += buf[t] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<double>(m) : acc;
  }
  buf = std::move(out);
}

// MATLAB semantics: vectors transform along their length keeping orientation
// (scalars count as rows), matrices column-wise. n > 0 zero-pads or truncates
// every transform to length n.
Matrix fftImpl(const Matrix& in, bool inverse, std::size_t n = 0) {
  const bool vec = in.isVector() || in.empty();
  const std::size_t inLen = vec ? in.numel() : in.rows();
  const std::size_t m = n ? n : inLen;
  const std::size_t cols = vec ? (m ? 1 : 0) : in.cols();
  const bool colVec = vec && in.rows() > 1;

  Matrix out = vec ? Matrix::zeros(colVec ? m : (m ? 1 : 0), colVec ? (m ? 1 : 0) : m,
                                   /*complex=*/true)
                   : Matrix::zeros(m, cols, /*complex=*/true);
  std::vector<Complex> buf;
  for (std::size_t c = 0; c < cols; ++c) {
    buf.assign(m, Complex{0.0, 0.0});
    for (std::size_t i = 0; i < std::min(inLen, m); ++i)
      buf[i] = vec ? in.at(i) : in.at(i, c);
    fftBuffer(buf, inverse);
    for (std::size_t k = 0; k < m; ++k) {
      if (vec)
        out.set(k, buf[k]);
      else
        out.set(k, c, buf[k]);
    }
  }
  out.dropZeroImag();
  return out;
}

// Shared fft/ifft argument handling: optional second arg is the transform
// length, a positive integer.
std::size_t fftLengthArg(Args args, const char* name) {
  requireArgs(args, 1, 2, name);
  if (args.size() < 2) return 0;
  if (!args[1].isScalar())
    throw RuntimeError(std::string(name) + ": transform length must be a scalar");
  double v = args[1].scalarValue();
  if (!(v >= 1.0) || v != std::floor(v) || v > kMaxCount)
    throw RuntimeError(std::string(name) + ": transform length must be a positive integer");
  return static_cast<std::size_t>(v);
}

const std::map<std::string, BuiltinFn>& makeTable() {
  static const std::map<std::string, BuiltinFn> table = [] {
    std::map<std::string, BuiltinFn> t;

    t["pi"] = [](Args args, Outs outs) {
      requireArgs(args, 0, 0, "pi");
      return put(outs, Matrix::scalar(std::numbers::pi));
    };
    t["eps"] = [](Args args, Outs outs) {
      requireArgs(args, 0, 0, "eps");
      return put(outs, Matrix::scalar(2.220446049250313e-16));
    };
    t["zeros"] = [](Args args, Outs outs) {
      return put(outs, sized(args, "zeros", 0.0));
    };
    t["ones"] = [](Args args, Outs outs) {
      return put(outs, sized(args, "ones", 1.0));
    };
    t["eye"] = [](Args args, Outs outs) {
      Matrix m = sized(args, "eye", 0.0);
      for (std::size_t i = 0; i < std::min(m.rows(), m.cols()); ++i)
        m.set(i, i, Complex{1.0, 0.0});
      return put(outs, std::move(m));
    };
    t["length"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "length");
      double n = static_cast<double>(std::max(args[0].rows(), args[0].cols()));
      return put(outs, Matrix::scalar(n));
    };
    t["numel"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "numel");
      return put(outs, Matrix::scalar(static_cast<double>(args[0].numel())));
    };
    t["size"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 2, "size");
      double m = static_cast<double>(args[0].rows());
      double n = static_cast<double>(args[0].cols());
      if (args.size() == 2) {
        double d = args[1].scalarValue();
        return put(outs, Matrix::scalar(d == 1.0 ? m : (d == 2.0 ? n : 1.0)));
      }
      if (outs.size() >= 2) {
        outs[0] = Matrix::scalar(m);
        outs[1] = Matrix::scalar(n);
        return std::size_t{2};
      }
      Matrix both = Matrix::rowVector({m, n});
      return put(outs, std::move(both));
    };
    t["isempty"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "isempty");
      return put(outs, Matrix::logicalScalar(args[0].empty()));
    };
    t["isreal"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "isreal");
      return put(outs, Matrix::logicalScalar(!args[0].isComplex()));
    };
    t["reshape"] = [](Args args, Outs outs) {
      requireArgs(args, 3, 3, "reshape");
      std::size_t m = countArg(args[1], "reshape");
      std::size_t n = countArg(args[2], "reshape");
      // In doubles, so a product past size_t cannot wrap onto numel().
      if (static_cast<double>(m) * static_cast<double>(n) !=
          static_cast<double>(args[0].numel()))
        throw RuntimeError("reshape: element count mismatch");
      Matrix out = Matrix::zeros(m, n, args[0].isComplex());
      for (std::size_t i = 0; i < m * n; ++i) out.set(i, args[0].at(i));
      return put(outs, std::move(out));
    };
    t["linspace"] = [](Args args, Outs outs) {
      requireArgs(args, 2, 3, "linspace");
      double a = args[0].scalarValue();
      double b = args[1].scalarValue();
      std::size_t n = args.size() == 3 ? countArg(args[2], "linspace") : 100;
      Matrix out = Matrix::zeros(1, n);
      for (std::size_t i = 0; i < n; ++i) {
        double frac = n > 1 ? static_cast<double>(i) / static_cast<double>(n - 1) : 1.0;
        out.set(i, Complex{a + (b - a) * frac, 0.0});
      }
      return put(outs, std::move(out));
    };

    // -- reductions ---------------------------------------------------------
    t["sum"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "sum");
      return put(outs, reduce(args[0], [](Complex a, Complex b) { return a + b; }, Complex{},
                        /*emptyIsInit=*/true));
    };
    t["prod"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "prod");
      return put(outs, reduce(args[0], realProductIf(!args[0].isComplex()), Complex{1.0, 0.0},
                        /*emptyIsInit=*/true));
    };
    t["mean"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "mean");
      const Matrix& a = args[0];
      Matrix s = reduce(a, [](Complex x, Complex y) { return x + y; }, Complex{}, true);
      double n = static_cast<double>(a.isVector() ? a.numel() : a.rows());
      return put(outs, elementwise(ElemOp::Div, s, Matrix::scalar(n)));
    };
    t["min"] = [](Args args, Outs outs) {
      return minmax(args, outs, /*isMax=*/false);
    };
    t["max"] = [](Args args, Outs outs) {
      return minmax(args, outs, /*isMax=*/true);
    };
    t["any"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "any");
      Matrix r = reduce(args[0],
                        [](Complex a, Complex b) {
                          return Complex{(a != Complex{} || b != Complex{}) ? 1.0 : 0.0, 0.0};
                        },
                        Complex{}, true);
      r.setLogical(true);
      return put(outs, std::move(r));
    };
    t["all"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "all");
      Matrix r = reduce(args[0],
                        [](Complex a, Complex b) {
                          return Complex{(a != Complex{} && b != Complex{}) ? 1.0 : 0.0, 0.0};
                        },
                        Complex{1.0, 0.0}, true);
      r.setLogical(true);
      return put(outs, std::move(r));
    };
    t["norm"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "norm");
      if (!args[0].isVector() && !args[0].empty())
        throw RuntimeError("norm: only vectors supported");
      double acc = 0.0;
      for (std::size_t i = 0; i < args[0].numel(); ++i) acc += std::norm(args[0].at(i));
      return put(outs, Matrix::scalar(std::sqrt(acc)));
    };
    t["dot"] = [](Args args, Outs outs) {
      requireArgs(args, 2, 2, "dot");
      const Matrix& a = args[0];
      const Matrix& b = args[1];
      if (a.numel() != b.numel()) throw RuntimeError("dot: length mismatch");
      auto mul = realProductIf(!a.isComplex() && !b.isComplex());
      Complex acc{};
      for (std::size_t i = 0; i < a.numel(); ++i) acc += mul(std::conj(a.at(i)), b.at(i));
      return put(outs, Matrix::scalar(acc));
    };

    // -- scalar math mapped elementwise --------------------------------------
    t["abs"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "abs");
      Matrix out = Matrix::zeros(args[0].rows(), args[0].cols());
      for (std::size_t i = 0; i < args[0].numel(); ++i)
        out.set(i, Complex{std::abs(args[0].at(i)), 0.0});
      return put(outs, std::move(out));
    };
    t["sqrt"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "sqrt");
      const Matrix& a = args[0];
      bool needComplex = a.isComplex();
      if (!needComplex) {
        for (std::size_t i = 0; i < a.numel(); ++i) {
          if (a.real(i) < 0.0) {
            needComplex = true;
            break;
          }
        }
      }
      if (!needComplex) return put(outs, mapUnary(a, [](double v) { return std::sqrt(v); }));
      return put(outs, mapC(a, [](Complex v) { return std::sqrt(v); }));
    };
    t["exp"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "exp");
      if (!args[0].isComplex())
        return put(outs, mapUnary(args[0], [](double v) { return std::exp(v); }));
      return put(outs, mapC(args[0], [](Complex v) { return std::exp(v); }));
    };
    t["log"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "log");
      if (!args[0].isComplex())
        return put(outs, mapUnary(args[0], [](double v) { return std::log(v); }));
      return put(outs, mapC(args[0], [](Complex v) { return std::log(v); }));
    };
    t["log2"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "log2");
      return put(outs, mapUnary(args[0], [](double v) { return std::log2(v); }));
    };
    t["log10"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "log10");
      return put(outs, mapUnary(args[0], [](double v) { return std::log10(v); }));
    };
    auto realFn = [](const char* name, double (*f)(double)) {
      return [name, f](Args args, Outs outs) {
        requireArgs(args, 1, 1, name);
        return put(outs, mapUnary(args[0], f));
      };
    };
    t["sin"] = realFn("sin", [](double v) { return std::sin(v); });
    t["cos"] = realFn("cos", [](double v) { return std::cos(v); });
    t["tan"] = realFn("tan", [](double v) { return std::tan(v); });
    t["asin"] = realFn("asin", [](double v) { return std::asin(v); });
    t["acos"] = realFn("acos", [](double v) { return std::acos(v); });
    t["atan"] = realFn("atan", [](double v) { return std::atan(v); });
    t["floor"] = realFn("floor", [](double v) { return std::floor(v); });
    t["ceil"] = realFn("ceil", [](double v) { return std::ceil(v); });
    t["round"] = realFn("round", [](double v) { return std::round(v); });
    t["fix"] = realFn("fix", [](double v) { return std::trunc(v); });
    t["sign"] = realFn("sign", [](double v) { return v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0); });
    t["atan2"] = [](Args args, Outs outs) {
      requireArgs(args, 2, 2, "atan2");
      const Matrix& y = args[0];
      const Matrix& x = args[1];
      const bool yS = y.isScalar();
      const bool xS = x.isScalar();
      auto [rows, cols] = broadcastShape(y, x, "atan2");
      Matrix out = Matrix::zeros(rows, cols);
      for (std::size_t i = 0; i < rows * cols; ++i) {
        out.set(i, Complex{std::atan2(yS ? y.real(0) : y.real(i), xS ? x.real(0) : x.real(i)),
                           0.0});
      }
      return put(outs, std::move(out));
    };
    t["mod"] = [](Args args, Outs outs) {
      requireArgs(args, 2, 2, "mod");
      const Matrix& a = args[0];
      const Matrix& b = args[1];
      const bool aS = a.isScalar();
      const bool bS = b.isScalar();
      auto [rows, cols] = broadcastShape(a, b, "mod");
      Matrix out = Matrix::zeros(rows, cols);
      for (std::size_t i = 0; i < rows * cols; ++i) {
        double x = aS ? a.real(0) : a.real(i);
        double m = bS ? b.real(0) : b.real(i);
        double r = m == 0.0 ? x : x - std::floor(x / m) * m;
        out.set(i, Complex{r, 0.0});
      }
      return put(outs, std::move(out));
    };
    t["rem"] = [](Args args, Outs outs) {
      requireArgs(args, 2, 2, "rem");
      const Matrix& a = args[0];
      const Matrix& b = args[1];
      const bool aS = a.isScalar();
      const bool bS = b.isScalar();
      auto [rows, cols] = broadcastShape(a, b, "rem");
      Matrix out = Matrix::zeros(rows, cols);
      for (std::size_t i = 0; i < rows * cols; ++i) {
        double x = aS ? a.real(0) : a.real(i);
        double m = bS ? b.real(0) : b.real(i);
        out.set(i, Complex{m == 0.0 ? x : std::fmod(x, m), 0.0});
      }
      return put(outs, std::move(out));
    };

    // -- complex support ------------------------------------------------------
    t["real"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "real");
      Matrix out = Matrix::zeros(args[0].rows(), args[0].cols());
      for (std::size_t i = 0; i < args[0].numel(); ++i)
        out.set(i, Complex{args[0].real(i), 0.0});
      return put(outs, std::move(out));
    };
    t["imag"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "imag");
      Matrix out = Matrix::zeros(args[0].rows(), args[0].cols());
      for (std::size_t i = 0; i < args[0].numel(); ++i)
        out.set(i, Complex{args[0].imag(i), 0.0});
      return put(outs, std::move(out));
    };
    t["conj"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "conj");
      return put(outs, mapC(args[0], [](Complex v) { return std::conj(v); }));
    };
    t["angle"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "angle");
      Matrix out = Matrix::zeros(args[0].rows(), args[0].cols());
      for (std::size_t i = 0; i < args[0].numel(); ++i)
        out.set(i, Complex{std::arg(args[0].at(i)), 0.0});
      return put(outs, std::move(out));
    };
    t["complex"] = [](Args args, Outs outs) {
      requireArgs(args, 2, 2, "complex");
      const Matrix& re = args[0];
      const Matrix& im = args[1];
      const bool rS = re.isScalar();
      const bool iS = im.isScalar();
      auto [rows, cols] = broadcastShape(re, im, "complex");
      Matrix out = Matrix::zeros(rows, cols, /*complex=*/true);
      for (std::size_t i = 0; i < rows * cols; ++i) {
        out.set(i, Complex{rS ? re.real(0) : re.real(i), iS ? im.real(0) : im.real(i)});
      }
      return put(outs, std::move(out));
    };

    // -- transforms -----------------------------------------------------------
    t["fft"] = [](Args args, Outs outs) {
      return put(outs, fftImpl(args[0], /*inverse=*/false, fftLengthArg(args, "fft")));
    };
    t["ifft"] = [](Args args, Outs outs) {
      return put(outs, fftImpl(args[0], /*inverse=*/true, fftLengthArg(args, "ifft")));
    };

    // -- ordering / accumulation ----------------------------------------------
    t["sort"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 2, "sort");
      const Matrix& a = args[0];
      if (!a.isVector() && !a.empty())
        throw RuntimeError("sort: only vectors are supported");
      bool descend = false;
      if (args.size() == 2) {
        if (!args[1].isString()) throw RuntimeError("sort: mode must be a string");
        std::string mode = args[1].stringValue();
        if (mode == "descend") {
          descend = true;
        } else if (mode != "ascend") {
          throw RuntimeError("sort: unknown mode '" + mode + "'");
        }
      }
      std::vector<std::size_t> order(a.numel());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      auto key = [&](std::size_t i) {
        return a.isComplex() ? std::abs(a.at(i)) : a.real(i);
      };
      std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        return descend ? key(x) > key(y) : key(x) < key(y);
      });
      Matrix vals = Matrix::zeros(a.rows(), a.cols(), a.isComplex());
      Matrix idxs = Matrix::zeros(a.rows(), a.cols());
      for (std::size_t i = 0; i < order.size(); ++i) {
        vals.set(i, a.at(order[i]));
        idxs.set(i, Complex{static_cast<double>(order[i] + 1), 0.0});
      }
      vals.dropZeroImag();
      outs[0] = std::move(vals);
      if (outs.size() < 2) return std::size_t{1};
      outs[1] = std::move(idxs);
      return std::size_t{2};
    };
    t["cumsum"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "cumsum");
      const Matrix& a = args[0];
      if (!a.isVector() && !a.empty())
        throw RuntimeError("cumsum: only vectors are supported");
      Matrix out = Matrix::zeros(a.rows(), a.cols(), a.isComplex());
      Complex acc{};
      for (std::size_t i = 0; i < a.numel(); ++i) {
        acc += a.at(i);
        out.set(i, acc);
      }
      out.dropZeroImag();
      return put(outs, std::move(out));
    };
    t["cumprod"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "cumprod");
      const Matrix& a = args[0];
      if (!a.isVector() && !a.empty())
        throw RuntimeError("cumprod: only vectors are supported");
      Matrix out = Matrix::zeros(a.rows(), a.cols(), a.isComplex());
      auto mul = realProductIf(!a.isComplex());
      Complex acc{1.0, 0.0};
      for (std::size_t i = 0; i < a.numel(); ++i) {
        acc = mul(acc, a.at(i));
        out.set(i, acc);
      }
      out.dropZeroImag();
      return put(outs, std::move(out));
    };
    t["var"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "var");
      const Matrix& a = args[0];
      if (!a.isVector()) throw RuntimeError("var: only vectors are supported");
      std::size_t n = a.numel();
      if (n < 2) return put(outs, Matrix::scalar(0.0));
      Complex mean{};
      for (std::size_t i = 0; i < n; ++i) mean += a.at(i);
      mean /= static_cast<double>(n);
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += std::norm(a.at(i) - mean);
      return put(outs, Matrix::scalar(acc / static_cast<double>(n - 1)));
    };
    t["std"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "std");
      const Matrix& a = args[0];
      if (!a.isVector()) throw RuntimeError("std: only vectors are supported");
      std::size_t n = a.numel();
      if (n < 2) return put(outs, Matrix::scalar(0.0));
      Complex mean{};
      for (std::size_t i = 0; i < n; ++i) mean += a.at(i);
      mean /= static_cast<double>(n);
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += std::norm(a.at(i) - mean);
      return put(outs, Matrix::scalar(std::sqrt(acc / static_cast<double>(n - 1))));
    };
    t["repmat"] = [](Args args, Outs outs) {
      requireArgs(args, 3, 3, "repmat");
      const Matrix& a = args[0];
      std::size_t rr = countArg(args[1], "repmat");
      std::size_t cc = countArg(args[2], "repmat");
      Matrix out = Matrix::zeros(a.rows() * rr, a.cols() * cc, a.isComplex());
      for (std::size_t bc = 0; bc < cc; ++bc) {
        for (std::size_t br = 0; br < rr; ++br) {
          for (std::size_t c = 0; c < a.cols(); ++c) {
            for (std::size_t r = 0; r < a.rows(); ++r) {
              out.set(br * a.rows() + r, bc * a.cols() + c, a.at(r, c));
            }
          }
        }
      }
      out.dropZeroImag();
      return put(outs, std::move(out));
    };

    // -- misc -----------------------------------------------------------------
    t["disp"] = [](Args args, Outs) {
      requireArgs(args, 1, 1, "disp");
      return std::size_t{0};
    };
    t["error"] = [](Args args, Outs) -> std::size_t {
      std::string msg = "error";
      if (!args.empty() && args[0].isString()) msg = args[0].stringValue();
      throw RuntimeError(msg);
    };
    t["fliplr"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "fliplr");
      const Matrix& a = args[0];
      Matrix out = Matrix::zeros(a.rows(), a.cols(), a.isComplex());
      for (std::size_t c = 0; c < a.cols(); ++c)
        for (std::size_t r = 0; r < a.rows(); ++r) out.set(r, a.cols() - 1 - c, a.at(r, c));
      return put(outs, std::move(out));
    };
    t["flipud"] = [](Args args, Outs outs) {
      requireArgs(args, 1, 1, "flipud");
      const Matrix& a = args[0];
      Matrix out = Matrix::zeros(a.rows(), a.cols(), a.isComplex());
      for (std::size_t c = 0; c < a.cols(); ++c)
        for (std::size_t r = 0; r < a.rows(); ++r) out.set(a.rows() - 1 - r, c, a.at(r, c));
      return put(outs, std::move(out));
    };

    return t;
  }();
  return table;
}

}  // namespace

const std::map<std::string, BuiltinFn>& builtinRuntime() { return makeTable(); }

bool isRuntimeBuiltin(const std::string& name) { return builtinRuntime().count(name) != 0; }

}  // namespace mat2c
