// Integration test: the emitted C is compiled with the *host* C compiler,
// executed, and its output compared against the reference interpreter.
// This is the paper's portability claim — "the generated code can be used
// as input to any C/C++ compiler" — verified end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "sema/builtins.hpp"
#include "support/string_utils.hpp"

namespace mat2c {
namespace {

std::string cInitializer(const Matrix& m, bool complex) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < m.numel(); ++i) {
    if (i) os << ", ";
    if (complex) {
      os << "{" << formatDouble(m.real(i)) << ", " << formatDouble(m.imag(i)) << "}";
    } else {
      os << formatDouble(m.real(i));
    }
  }
  os << "}";
  return os.str();
}

/// Emits kernel + main, compiles with cc, runs, parses stdout doubles.
std::vector<double> compileAndRunWithCc(const CompiledUnit& unit,
                                        const std::vector<Matrix>& args,
                                        const std::string& tag) {
  const lir::Function& fn = unit.fn();
  std::ostringstream src;
  src << unit.cCode();

  src << "\nint main(void) {\n";
  for (std::size_t i = 0; i < fn.params.size(); ++i) {
    const lir::Param& p = fn.params[i];
    bool cplx = p.elem == lir::Scalar::C64;
    if (p.isArray) {
      src << "  static const " << (cplx ? "mat2c_c64" : "double") << " arg" << i << "[] = "
          << cInitializer(args[i], cplx) << ";\n";
    } else if (cplx) {
      src << "  mat2c_c64 arg" << i << " = {" << formatDouble(args[i].real(0)) << ", "
          << formatDouble(args[i].imag(0)) << "};\n";
    } else {
      src << "  double arg" << i << " = " << formatDouble(args[i].real(0)) << ";\n";
    }
  }
  for (std::size_t i = 0; i < fn.outs.size(); ++i) {
    const lir::Param& p = fn.outs[i];
    bool cplx = p.elem == lir::Scalar::C64;
    if (p.isArray) {
      src << "  static " << (cplx ? "mat2c_c64" : "double") << " out" << i << "["
          << p.numel() << "];\n";
    } else {
      src << "  " << (cplx ? "mat2c_c64" : "double") << " out" << i << ";\n";
    }
  }
  src << "  " << fn.name << "(";
  for (std::size_t i = 0; i < fn.params.size(); ++i) {
    if (i) src << ", ";
    src << "arg" << i;
  }
  for (std::size_t i = 0; i < fn.outs.size(); ++i) {
    if (!fn.params.empty() || i) src << ", ";
    src << (fn.outs[i].isArray ? "out" : "&out") << i;
  }
  src << ");\n";
  for (std::size_t i = 0; i < fn.outs.size(); ++i) {
    const lir::Param& p = fn.outs[i];
    bool cplx = p.elem == lir::Scalar::C64;
    if (p.isArray) {
      src << "  for (int k = 0; k < " << p.numel() << "; ++k) {\n";
      if (cplx) {
        src << "    printf(\"%.17g\\n%.17g\\n\", out" << i << "[k].re, out" << i
            << "[k].im);\n";
      } else {
        src << "    printf(\"%.17g\\n\", out" << i << "[k]);\n";
      }
      src << "  }\n";
    } else if (cplx) {
      src << "  printf(\"%.17g\\n%.17g\\n\", out" << i << ".re, out" << i << ".im);\n";
    } else {
      src << "  printf(\"%.17g\\n\", out" << i << ");\n";
    }
  }
  src << "  return 0;\n}\n";

  std::string base = std::string(::testing::TempDir()) + "/mat2c_" + tag;
  std::string cPath = base + ".c";
  std::string binPath = base + ".bin";
  {
    std::ofstream out(cPath);
    out << src.str();
  }
  std::string cmd = "cc -std=c99 -O1 -o " + binPath + " " + cPath + " -lm 2>" + base + ".log";
  int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "host cc failed; see " << base << ".log";
  if (rc != 0) return {};

  std::vector<double> values;
  FILE* pipe = popen(binPath.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (!pipe) return {};
  char line[128];
  while (std::fgets(line, sizeof line, pipe)) values.push_back(std::strtod(line, nullptr));
  pclose(pipe);
  return values;
}

void checkKernelThroughCc(const kernels::KernelSpec& k, const CompileOptions& options,
                          const std::string& tag) {
  Compiler compiler;
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs, options);
  std::vector<double> actual = compileAndRunWithCc(unit, k.args, tag);

  auto expected = interpretReference(k.source, k.entry, k.args, unit.fn().outs.size());

  std::vector<double> flat;
  for (std::size_t o = 0; o < expected.size(); ++o) {
    bool cplx = unit.fn().outs[o].elem == lir::Scalar::C64;
    for (std::size_t i = 0; i < expected[o].numel(); ++i) {
      flat.push_back(expected[o].real(i));
      if (cplx) flat.push_back(expected[o].imag(i));
    }
  }
  ASSERT_EQ(actual.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_NEAR(actual[i], flat[i], 1e-9 + 1e-9 * std::abs(flat[i])) << "element " << i;
  }
}

TEST(CcIntegration, FirProposed) {
  checkKernelThroughCc(kernels::makeFir(128, 12), CompileOptions::proposed(),
                       "fir_proposed");
}

TEST(CcIntegration, FirCoderLike) {
  checkKernelThroughCc(kernels::makeFir(128, 12), CompileOptions::coderLike(),
                       "fir_coder");
}

TEST(CcIntegration, FdeqComplexIntrinsics) {
  checkKernelThroughCc(kernels::makeFdeq(64), CompileOptions::proposed(), "fdeq");
}

TEST(CcIntegration, CdotComplexReduction) {
  checkKernelThroughCc(kernels::makeCdot(64), CompileOptions::proposed(), "cdot");
}

TEST(CcIntegration, IirRecurrence) {
  checkKernelThroughCc(kernels::makeIir(128, 4), CompileOptions::proposed(), "iir");
}

TEST(CcIntegration, MatmulOnScalarTarget) {
  checkKernelThroughCc(kernels::makeMatmul(8, 8, 8), CompileOptions::proposed("scalar"),
                       "matmul_scalar");
}

TEST(CcIntegration, FmdemodWidth4) {
  checkKernelThroughCc(kernels::makeFmdemod(96), CompileOptions::proposed("dspx_w4"),
                       "fmdemod_w4");
}

TEST(CcIntegration, FftExtendedKernel) {
  checkKernelThroughCc(kernels::makeFft(64), CompileOptions::proposed(), "fft64");
}

/// The C spelling of every elementwise row of sema/builtins.def: one output
/// per row on real operands (v when the row's fold domain holds all of v,
/// else u, which lies inside every domain), plus one on the complex z for
/// each row that takes complex operands.
TEST(CcIntegration, EveryBuiltinRow) {
  struct Row {
    std::string name;
    int arity;
    bool complex;
    bool (*inDomain)(double);
  };
  const Row rows[] = {
#define MAT2C_BUILTIN_UNARY(name, op, lir, rule, host, guard, ...)       \
  {name, 1, sema::ComplexRule::rule != sema::ComplexRule::Real,          \
   []([[maybe_unused]] double x) { return guard; }},
#define MAT2C_BUILTIN_BINARY(name, ...) {name, 2, false, [](double) { return true; }},
#include "sema/builtins.def"
  };
  // Ten lanes: the 8-lane dspx vector loop and its scalar remainder both run.
  const std::vector<double> u = {0.05, 0.2, 0.3, 0.45, 0.5, 0.6, 0.75, 0.8, 0.9, 0.95};
  const std::vector<double> v = {-2.7, -1.5, -0.5, -0.25, 0.0, 0.3, 0.5, 1.2, 1.5, 2.5};
  const std::vector<double> w = {1.5, -0.5, 2.0, 0.7, -1.25, 3.0, 0.4, -2.0, 1.0, 0.0};

  std::vector<std::string> outs;
  std::string body;
  auto out = [&](const std::string& call) {
    outs.push_back("o" + std::to_string(outs.size() + 1));
    body += outs.back() + " = " + call + ";\n";
  };
  for (const Row& r : rows) {
    std::string x = std::all_of(v.begin(), v.end(), r.inDomain) ? "v" : "u";
    out(r.name + "(" + x + (r.arity == 2 ? ", w)" : ")"));
    if (r.complex) out(r.name + "(z)");
  }
  kernels::KernelSpec k;
  k.name = "builtins";
  k.entry = "f";
  k.source = "function [" + join(outs, ", ") + "] = f(u, v, w, z)\n" + body + "end\n";
  k.argSpecs = {sema::ArgSpec::row(10), sema::ArgSpec::row(10), sema::ArgSpec::row(10),
                sema::ArgSpec::row(10, true)};
  k.args = {Matrix::rowVector(u), Matrix::rowVector(v), Matrix::rowVector(w),
            kernels::InputGen(31).complexRowVector(10)};
  checkKernelThroughCc(k, CompileOptions::proposed(), "builtins");
}

/// A negative base with a fractional exponent: the VM's real `.^` is C's
/// pow, so the VM and the host binary agree lane for lane (NaN where the
/// base is negative), while the interpreter's complex answer fails the
/// oracle with a non-finite error.
TEST(CcIntegration, RealPowerOfNegativeBaseMatchesVm) {
  const std::string src = "function y = f(x)\ny = x .^ 0.5;\nend\n";
  const std::vector<Matrix> args = {
      Matrix::rowVector({-2.0, -0.5, 0.0, 0.25, 1.5, 4.0, -1.0, 9.0, -3.5, 2.0})};
  Compiler compiler;
  auto unit = compiler.compileSource(src, "f", {sema::ArgSpec::row(10)},
                                     CompileOptions::proposed());
  std::vector<double> host = compileAndRunWithCc(unit, args, "pow_negative_base");
  Matrix vm = unit.run(args).outputs[0];
  ASSERT_EQ(host.size(), vm.numel());
  for (std::size_t i = 0; i < host.size(); ++i) {
    EXPECT_EQ(std::isnan(host[i]), args[0].real(i) < 0.0) << "element " << i;
    EXPECT_EQ(std::isnan(vm.real(i)), args[0].real(i) < 0.0) << "element " << i;
    if (!std::isnan(host[i])) {
      EXPECT_DOUBLE_EQ(vm.real(i), host[i]) << "element " << i;
    }
  }
  EXPECT_FALSE(std::isfinite(validateAgainstInterpreter(src, "f", unit, args)));
}

/// Property-level: random elementwise programs through the host compiler.
class CcProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CcProperty, HostBinaryMatchesInterpreter) {
  unsigned seed = GetParam();
  std::mt19937 rng(seed * 131 + 7);
  const char* bodies[] = {
      "y = x .* x - 2 .* x + 1;",
      "y = abs(x) + min(x, 0.5) .* max(x, -0.5);",
      "y = (x > 0) .* x + (x <= 0) .* (-x);",
      "y = cos(x) .* cos(x) + sin(x) .* sin(x);",
  };
  std::string src = std::string("function y = f(x)\n") + bodies[rng() % 4] + "\nend\n";
  std::int64_t n = 8 + rng() % 24;

  kernels::KernelSpec k;
  k.name = "prop";
  k.entry = "f";
  k.source = src;
  k.argSpecs = {sema::ArgSpec::row(n)};
  kernels::InputGen gen(seed + 900);
  k.args = {gen.rowVector(n)};
  checkKernelThroughCc(k, CompileOptions::proposed(), "prop" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcProperty, ::testing::Range(0u, 4u));

}  // namespace
}  // namespace mat2c
