// Seeded random MATLAB programs for the property tests
// (tests/property_test.cpp) and the interpreter digest
// (tests/interp_digest_test.cpp): the same seed gives the same source and
// inputs in both.
#pragma once

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "driver/kernels.hpp"
#include "sema/types.hpp"

namespace mat2c::property {

/// Random elementwise expression over `x` (vector), `s` (scalar), and
/// literals. Division is guarded so results stay finite.
class ExprGen {
 public:
  explicit ExprGen(unsigned seed) : rng_(seed) {}

  std::string expr(int depth) {
    if (depth <= 0) return leaf();
    switch (rng_() % 8) {
      case 0: return "(" + expr(depth - 1) + " + " + expr(depth - 1) + ")";
      case 1: return "(" + expr(depth - 1) + " - " + expr(depth - 1) + ")";
      case 2: return "(" + expr(depth - 1) + " .* " + expr(depth - 1) + ")";
      case 3: return "(" + expr(depth - 1) + " ./ (abs(" + expr(depth - 1) + ") + 2))";
      case 4: return "abs(" + expr(depth - 1) + ")";
      case 5: return "(-" + expr(depth - 1) + ")";
      case 6: return "cos(" + expr(depth - 1) + ")";
      default: return "min(" + expr(depth - 1) + ", " + expr(depth - 1) + ")";
    }
  }

  std::string leaf() {
    switch (rng_() % 4) {
      case 0: return "x";
      case 1: return "s";
      case 2: return std::to_string(static_cast<int>(rng_() % 7) - 3);
      default: return "x";
    }
  }

  std::mt19937 rng_;
};

/// One generated program: `function y = f(...)` with its inputs.
struct Program {
  std::string source;
  std::vector<Matrix> args;
  std::vector<sema::ArgSpec> specs;
};

/// `y = <random elementwise expression of x and s>`.
inline Program elementwise(unsigned seed) {
  ExprGen gen(seed);
  std::string body = gen.expr(4);
  std::int64_t n = 5 + seed % 13;
  kernels::InputGen inputs(seed * 7 + 1);
  Program p;
  p.source = "function y = f(x, s)\ny = " + body + ";\nend\n";
  p.args = {inputs.rowVector(n), Matrix::scalar(inputs.next())};
  p.specs = {sema::ArgSpec::row(n), sema::ArgSpec::scalar()};
  return p;
}

/// A scalar reduction loop over x with control flow.
inline Program loop(unsigned seed) {
  std::mt19937 rng(seed * 31 + 5);
  std::ostringstream body;
  body << "acc = " << static_cast<int>(rng() % 5) << ";\n";
  body << "for k = 1:length(x)\n";
  switch (rng() % 4) {
    case 0:
      body << "  acc = acc + x(k) * " << (1 + rng() % 3) << ";\n";
      break;
    case 1:
      body << "  if x(k) > 0\n    acc = acc + x(k);\n  else\n    acc = acc - x(k);\n  end\n";
      break;
    case 2:
      body << "  if mod(k, 2) == 0\n    continue\n  end\n  acc = acc + x(k) * x(k);\n";
      break;
    default:
      body << "  acc = acc + x(k) * x(length(x) - k + 1);\n";
      break;
  }
  body << "end\ny = acc;";
  std::int64_t n = 4 + seed % 21;
  kernels::InputGen inputs(seed + 100);
  Program p;
  p.source = "function y = f(x)\n" + body.str() + "\nend\n";
  p.args = {inputs.rowVector(n)};
  p.specs = {sema::ArgSpec::row(n)};
  return p;
}

/// A one-line complex pipeline over x and h.
inline Program complexPipeline(unsigned seed) {
  std::mt19937 rng(seed * 17 + 3);
  const char* forms[] = {
      "y = x .* conj(h);",
      "y = real(x) + imag(h) * 1i;",
      "y = abs(x) .* h;",
      "y = x + conj(h) .* 2i;",
      "y = complex(real(x), imag(h));",
      "y = conj(x .* h);",
  };
  std::int64_t n = 3 + seed % 14;
  kernels::InputGen inputs(seed + 500);
  Program p;
  p.source = std::string("function y = f(x, h)\n") + forms[rng() % 6] + "\nend\n";
  p.args = {inputs.complexRowVector(n), inputs.complexRowVector(n)};
  p.specs = {sema::ArgSpec::row(n, true), sema::ArgSpec::row(n, true)};
  return p;
}

/// Seeds each property suite runs (INSTANTIATE_TEST_SUITE_P ranges).
constexpr unsigned kElementwiseSeeds = 32;
constexpr unsigned kLoopSeeds = 24;
constexpr unsigned kComplexSeeds = 18;

}  // namespace mat2c::property
