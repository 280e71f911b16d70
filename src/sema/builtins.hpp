// Classification of the builtin catalog for the *compiled* subset.
//
// The reference interpreter supports a superset (see interp/builtins_runtime);
// the table in sema/builtins.def describes what the code generator can lower
// and how. Builtins not listed there remain interpreter-only: kernels that
// want them compiled must spell them as MATLAB loops, which is exactly what
// the paper's DSP benchmarks do.
#pragma once

#include <cmath>
#include <optional>
#include <string>

namespace mat2c::sema {

enum class BuiltinKind {
  Constant,     // pi, eps — scalar constants
  ElemUnary,    // abs, sqrt, exp, log, sin, cos, ... applied elementwise
  ElemBinary,   // atan2, mod, rem, power-like two-operand elementwise
  MinMax,       // min/max — reduction (1 arg) or elementwise (2 args)
  Reduction,    // sum, mean, prod, dot, norm
  Query,        // length, numel, size, isreal, isempty
  Constructor,  // zeros, ones, eye, linspace
  ComplexPart,  // real, imag, conj, angle, complex
  Transform,    // fft, ifft — whole-tensor transforms with their own loop nests
};

/// What an elementwise builtin does with a complex operand.
enum class ComplexRule {
  Real,    // real-only: the operand is coerced to f64 (c64 is a compile error)
  Keep,    // c64 in, c64 out
  ToReal,  // c64 in, f64 out
};

struct BuiltinInfo {
  BuiltinKind kind;
  /// For Constant: its value.
  double constantValue = 0.0;
  /// Elementwise rows: operand count (1 or 2), complex rule, and the constant
  /// fold of one element (unary rows ignore the second operand; nullopt
  /// outside the fold domain).
  int arity = 0;
  ComplexRule rule = ComplexRule::Real;
  std::optional<double> (*fold)(double, double) = nullptr;
};

/// Lookup in the compilable catalog; nullopt when the name is not a
/// compilable builtin (it may still be a runtime builtin or a user function).
std::optional<BuiltinInfo> findCompilableBuiltin(const std::string& name);

/// Host functions of the table rows that <cmath> does not spell.
inline double matlabSign(double x) { return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0); }
inline double matlabMod(double x, double m) {
  return m == 0.0 ? x : x - std::floor(x / m) * m;
}
inline double matlabRem(double x, double m) { return m == 0.0 ? x : std::fmod(x, m); }

}  // namespace mat2c::sema
