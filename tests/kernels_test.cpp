// Benchmark-corpus tests: every kernel compiles in both styles, matches the
// interpreter, and shows the expected performance character on the ASIP.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "parser/parser.hpp"

namespace mat2c {
namespace {

struct SpeedupExpectation {
  const char* name;
  double minSpeedup;
  double maxSpeedup;
};

// Without a printer gtest shows a parameter as its raw bytes, `name` is a
// pointer, and the test name ctest records would change with every load
// address. Print the kernel name instead.
void PrintTo(const SpeedupExpectation& e, std::ostream* os) { *os << e.name; }

class KernelSuiteTest : public ::testing::TestWithParam<SpeedupExpectation> {};

TEST_P(KernelSuiteTest, ValidatesAndSpeedsUp) {
  const auto& expect = GetParam();
  auto k = kernels::kernelByName(expect.name);
  Compiler compiler;
  auto prop = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  auto base = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::coderLike());

  // Numerics: both styles must match the reference interpreter.
  EXPECT_LE(validateAgainstInterpreter(k.source, k.entry, prop, k.args), 1e-9);
  EXPECT_LE(validateAgainstInterpreter(k.source, k.entry, base, k.args), 1e-9);

  // Performance shape: within the expected band on the dspx ASIP.
  double cyclesProp = prop.run(k.args).cycles.total;
  double cyclesBase = base.run(k.args).cycles.total;
  double speedup = cyclesBase / cyclesProp;
  EXPECT_GE(speedup, expect.minSpeedup) << k.title;
  EXPECT_LE(speedup, expect.maxSpeedup) << k.title;
}

// Bands bracket the measured behaviour loosely enough to survive cost-model
// tuning but tightly enough to catch a silently-disabled optimization.
INSTANTIATE_TEST_SUITE_P(
    DspSuite, KernelSuiteTest,
    ::testing::Values(SpeedupExpectation{"fir", 6.0, 40.0},
                      SpeedupExpectation{"iir", 2.5, 8.0},
                      SpeedupExpectation{"matmul", 5.0, 40.0},
                      SpeedupExpectation{"cdot", 5.0, 40.0},
                      SpeedupExpectation{"fdeq", 5.0, 40.0},
                      SpeedupExpectation{"fmdemod", 1.3, 5.0}),
    [](const ::testing::TestParamInfo<SpeedupExpectation>& info) {
      return info.param.name;
    });

struct ExtendedExpectation {
  const char* name;
  double minSpeedup;
  double maxSpeedup;
  int minVecLoops;  // vectorized-loop floor; deeper loop nests must fire
};

void PrintTo(const ExtendedExpectation& e, std::ostream* os) { *os << e.name; }

class ExtendedKernelTest : public ::testing::TestWithParam<ExtendedExpectation> {};

TEST_P(ExtendedKernelTest, ValidatesAndSpeedsUp) {
  const auto& expect = GetParam();
  auto k = kernels::kernelByName(expect.name);
  Compiler compiler;
  auto prop = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  auto base = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::coderLike());
  EXPECT_LE(validateAgainstInterpreter(k.source, k.entry, prop, k.args), 1e-9);
  EXPECT_LE(validateAgainstInterpreter(k.source, k.entry, base, k.args), 1e-9);
  double speedup = base.run(k.args).cycles.total / prop.run(k.args).cycles.total;
  EXPECT_GE(speedup, expect.minSpeedup) << k.title;
  EXPECT_LE(speedup, expect.maxSpeedup) << k.title;
  // These kernels exist to exercise deeper loop structure — vectorization
  // must actually fire.
  EXPECT_GE(prop.optimizationReport().vec.loopsVectorized, expect.minVecLoops);
}

INSTANTIATE_TEST_SUITE_P(
    ExtendedSuite, ExtendedKernelTest,
    ::testing::Values(ExtendedExpectation{"xcorr", 6.0, 40.0, 2},
                      ExtendedExpectation{"blockdct", 3.0, 30.0, 2},
                      ExtendedExpectation{"framepow", 4.0, 30.0, 2},
                      ExtendedExpectation{"fft", 1.2, 4.0, 2},
                      ExtendedExpectation{"qr_decomp", 4.0, 40.0, 2},
                      ExtendedExpectation{"cholesky", 1.2, 8.0, 1},
                      ExtendedExpectation{"uplink_chain", 1.5, 10.0, 1}),
    [](const ::testing::TestParamInfo<ExtendedExpectation>& info) {
      return info.param.name;
    });

TEST(Kernels, ExtendedSuiteHasSeven) {
  EXPECT_EQ(kernels::extendedKernelSuite().size(), 7u);
}

TEST(Kernels, FftMatchesBuiltinOracle) {
  // The compiled loop-style FFT must agree with the interpreter's builtin
  // fft() — two completely independent implementations.
  auto k = kernels::makeFft(128);
  DiagnosticEngine diags;
  auto prog = parseSource(k.source, diags);
  Interpreter interp(*prog);
  Matrix viaKernel = interp.callFunction(k.entry, k.args)[0];

  DiagnosticEngine d2;
  auto builtinProg = parseSource("function y = g(x)\ny = fft(x);\nend\n", d2);
  Interpreter builtinInterp(*builtinProg);
  Matrix viaBuiltin = builtinInterp.callFunction("g", {k.args[0]})[0];
  EXPECT_LE(maxAbsDiff(viaKernel, viaBuiltin), 1e-9);
}

TEST(Kernels, SuiteHasSixBenchmarks) {
  auto suite = kernels::dspBenchmarkSuite();
  EXPECT_EQ(suite.size(), 6u);
  for (const auto& k : suite) {
    EXPECT_FALSE(k.source.empty());
    EXPECT_EQ(k.argSpecs.size(), k.args.size());
  }
}

TEST(Kernels, InputsAreDeterministic) {
  auto a = kernels::makeFir(64, 8, 123);
  auto b = kernels::makeFir(64, 8, 123);
  EXPECT_EQ(maxAbsDiff(a.args[0], b.args[0]), 0.0);
  auto c = kernels::makeFir(64, 8, 124);
  EXPECT_GT(maxAbsDiff(a.args[0], c.args[0]), 0.0);
}

TEST(Kernels, InputGenBounds) {
  kernels::InputGen gen(99);
  for (int i = 0; i < 1000; ++i) {
    double v = gen.next();
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Kernels, BiquadCascadeIsStable) {
  Matrix b;
  Matrix a;
  kernels::biquadCascade(6, b, a);
  ASSERT_EQ(b.rows(), 6u);
  ASSERT_EQ(a.cols(), 3u);
  for (std::size_t j = 0; j < 6; ++j) {
    // Stability: |poles| < 1 <=> |a2| < 1 and |a1| < 1 + a2.
    double a1 = a.at(j, 1).real();
    double a2 = a.at(j, 2).real();
    EXPECT_LT(std::abs(a2), 1.0);
    EXPECT_LT(std::abs(a1), 1.0 + a2);
    EXPECT_DOUBLE_EQ(a.at(j, 0).real(), 1.0);
  }
}

TEST(Kernels, UnknownNameThrows) {
  EXPECT_THROW(kernels::kernelByName("bogus"), std::invalid_argument);
}

TEST(Kernels, SizesAreConfigurable) {
  auto k = kernels::makeMatmul(4, 5, 6);
  EXPECT_EQ(k.args[0].rows(), 4u);
  EXPECT_EQ(k.args[0].cols(), 5u);
  EXPECT_EQ(k.args[1].cols(), 6u);
  Compiler compiler;
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  EXPECT_LE(validateAgainstInterpreter(k.source, k.entry, unit, k.args), 1e-9);
}

TEST(Kernels, FmdemodRecoversPhaseIncrements) {
  // Sanity of the kernel itself: output approximates the phase steps.
  auto k = kernels::makeFmdemod(64);
  DiagnosticEngine diags;
  auto prog = parseSource(k.source, diags);
  Interpreter interp(*prog);
  auto out = interp.callFunction(k.entry, k.args);
  // Phase increments were 0.2 +/- 0.15; all demodulated values in (0, 0.4).
  for (std::size_t i = 1; i < out[0].numel(); ++i) {
    EXPECT_GT(out[0].real(i), 0.0);
    EXPECT_LT(out[0].real(i), 0.4);
  }
}

}  // namespace
}  // namespace mat2c
