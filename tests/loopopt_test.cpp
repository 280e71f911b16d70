// Golden tests for the loop-optimization layer: every DSP kernel is pushed
// through each of the four new passes individually and in combination, always
// with --verify-each semantics on, and compared against the reference
// interpreter. The passes are value-preserving (they reorder or share pure
// computations without reassociating), so the tolerance is tighter than the
// general kernel suite's.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"

namespace mat2c {
namespace {

// All loop passes off; the baseline the per-pass configs build on.
CompileOptions loopLayerOff() {
  CompileOptions o = CompileOptions::proposed();
  o.fuseLoops = false;
  o.unrollRecurrences = false;
  o.licm = false;
  o.cse = false;
  o.deadStores = false;
  o.verifyEach = true;
  return o;
}

struct LoopPassConfig {
  const char* name;
  void (*enable)(CompileOptions&);
};

const LoopPassConfig kConfigs[] = {
    {"fuse", [](CompileOptions& o) { o.fuseLoops = true; }},
    {"unroll", [](CompileOptions& o) { o.unrollRecurrences = true; }},
    {"licm", [](CompileOptions& o) { o.licm = true; }},
    {"cse", [](CompileOptions& o) { o.cse = true; }},
    {"deadstores", [](CompileOptions& o) { o.deadStores = true; }},
    {"all",
     [](CompileOptions& o) {
       o.fuseLoops = o.unrollRecurrences = o.licm = o.cse = o.deadStores = true;
     }},
};

TEST(LoopOpt, EveryKernelMatchesInterpreterUnderEveryPass) {
  Compiler compiler;
  for (const auto& k : kernels::dspBenchmarkSuite()) {
    std::vector<Matrix> reference;  // interpreted once, shared by every config
    for (const auto& cfg : kConfigs) {
      CompileOptions o = loopLayerOff();
      cfg.enable(o);
      auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs, o);
      if (reference.empty()) {
        reference = interpretReference(k.source, k.entry, k.args, unit.fn().outs.size());
      }
      EXPECT_LE(compareToReference(reference, unit.run(k.args).outputs), 1e-12)
          << k.name << " under " << cfg.name;
    }
  }
}

TEST(LoopOpt, CombinedLayerNeverRegressesCycles) {
  // The cycle-regression gate in-process: turning the whole loop layer on
  // must never cost cycles versus leaving it off, on any kernel.
  Compiler compiler;
  for (const auto& k : kernels::dspBenchmarkSuite()) {
    auto off = compiler.compileSource(k.source, k.entry, k.argSpecs, loopLayerOff());
    auto on = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
    double cyclesOff = off.run(k.args).cycles.total;
    double cyclesOn = on.run(k.args).cycles.total;
    EXPECT_LE(cyclesOn, cyclesOff) << k.name;
  }
}

TEST(LoopOpt, UnrollExpandsRecurrenceLoop) {
  Compiler compiler;
  CompileOptions o = loopLayerOff();
  o.unrollRecurrences = true;
  auto unit = compiler.compileSource(
      "function y = f(x)\ns = 0;\nfor k = 1:4\n  s = s * 0.5 + x(k);\nend\ny = s;\nend\n",
      "f", {sema::ArgSpec::row(4)}, o);
  EXPECT_EQ(unit.optimizationReport().loopsUnrolled, 1);
  EXPECT_LE(validateAgainstInterpreter(
                "function y = f(x)\ns = 0;\nfor k = 1:4\n  s = s * 0.5 + x(k);\nend\n"
                "y = s;\nend\n",
                "f", unit,
                {kernels::makeFir(4, 2).args[0]}),
            1e-12);
}

TEST(LoopOpt, UnrollRespectsMaxTrip) {
  Compiler compiler;
  CompileOptions o = loopLayerOff();
  o.unrollRecurrences = true;
  o.unrollMaxTrip = 2;
  auto unit = compiler.compileSource(
      "function y = f(x)\ns = 0;\nfor k = 1:4\n  s = s * 0.5 + x(k);\nend\ny = s;\nend\n",
      "f", {sema::ArgSpec::row(4)}, o);
  EXPECT_EQ(unit.optimizationReport().loopsUnrolled, 0);
}

TEST(LoopOpt, FusionMergesAdjacentElementwiseLoops) {
  // Two explicit loops over the same space, the second reading what the
  // first wrote. Post-vectorize both keep the same (vector) shape, so they
  // fuse; the store-to-load forwarding payoff is CSE's job afterwards.
  const char* src =
      "function y = f(x)\nu = zeros(1, 64);\ny = zeros(1, 64);\n"
      "for k = 1:64\n  u(k) = x(k) + 1;\nend\n"
      "for k = 1:64\n  y(k) = u(k) * 2;\nend\nend\n";
  Compiler compiler;
  CompileOptions o = loopLayerOff();
  o.fuseLoops = true;
  // Dead-loop cleanup is fusion's designed companion: it deletes the
  // zero-trip strip-mine remainder loops that would otherwise sit between
  // the two vectorized main loops.
  o.deadStores = true;
  auto unit = compiler.compileSource(src, "f", {sema::ArgSpec::row(64)}, o);
  EXPECT_GE(unit.optimizationReport().loopsFused, 1);
  EXPECT_LE(validateAgainstInterpreter(src, "f", unit,
                                       {kernels::makeFir(64, 2).args[0]}),
            1e-12);
}

TEST(LoopOpt, CseSharesRepeatedSubexpressions) {
  const char* src =
      "function y = f(x)\ny = (x(1) * 2 + x(2)) + (x(1) * 2 + x(2));\nend\n";
  Compiler compiler;
  CompileOptions o = loopLayerOff();
  o.cse = true;
  auto unit = compiler.compileSource(src, "f", {sema::ArgSpec::row(4)}, o);
  EXPECT_GE(unit.optimizationReport().cseEliminated, 1);
  EXPECT_LE(validateAgainstInterpreter(src, "f", unit,
                                       {kernels::makeFir(4, 2).args[0]}),
            1e-12);
}

TEST(LoopOpt, TelemetryFiresOnTheKernelSuite) {
  // Each new pass must do real work on at least one paper kernel: unroll,
  // fuse and licm (register promotion) on iir, cse on fmdemod.
  Compiler compiler;
  auto iir = kernels::kernelByName("iir");
  CompileOptions o = CompileOptions::proposed();
  o.verifyEach = true;
  auto iirUnit = compiler.compileSource(iir.source, iir.entry, iir.argSpecs, o);
  const auto& ir = iirUnit.optimizationReport();
  EXPECT_GE(ir.loopsUnrolled, 1);
  EXPECT_GE(ir.loopsFused, 1);
  EXPECT_GE(ir.scalarsPromoted, 1);
  EXPECT_GE(ir.exprsHoisted, 1);

  auto fm = kernels::kernelByName("fmdemod");
  auto fmUnit = compiler.compileSource(fm.source, fm.entry, fm.argSpecs, o);
  EXPECT_GE(fmUnit.optimizationReport().cseEliminated, 1);
}

TEST(LoopOpt, IirSpeedupComesFromTheLoopLayer) {
  // The headline iir result: unroll + promotion + hoisting take the biquad
  // cascade from ~1.8x to >=2.5x over the Coder-style baseline.
  Compiler compiler;
  auto k = kernels::kernelByName("iir");
  auto base = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::coderLike());
  auto prop = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  double speedup = base.run(k.args).cycles.total / prop.run(k.args).cycles.total;
  EXPECT_GE(speedup, 2.5);
}

TEST(LoopOpt, FftBuiltinMatchesOracleUnderEveryPass) {
  // The compiled fft/ifft builtin emits its own loop nests (bit reversal,
  // butterfly stages, DFT fallback), so every loop pass gets a shot at it.
  // Each variant runs with --verify-each semantics and is differenced
  // against the interpreter oracle under every pass toggle.
  struct Variant {
    const char* name;
    const char* source;
    std::vector<sema::ArgSpec> specs;
  };
  const Variant variants[] = {
      {"row_pow2", "function y = f(x)\ny = fft(x);\nend\n",
       {sema::ArgSpec::row(16, /*complex=*/true)}},
      {"two_arg_pad", "function y = f(x)\ny = fft(x, 16);\nend\n",
       {sema::ArgSpec::row(11, /*complex=*/true)}},
      {"two_arg_truncate_nonpow2", "function y = f(x)\ny = fft(x, 6);\nend\n",
       {sema::ArgSpec::row(9, /*complex=*/true)}},
      {"matrix_columnwise", "function y = f(x)\ny = fft(x);\nend\n",
       {sema::ArgSpec::matrix(8, 3, /*complex=*/true)}},
      {"ifft_roundtrip", "function y = f(x)\ny = ifft(fft(x));\nend\n",
       {sema::ArgSpec::row(16, /*complex=*/true)}},
      {"nonpow2_real", "function y = f(x)\ny = fft(x);\nend\n",
       {sema::ArgSpec::row(10)}},
      {"inplace_alias", "function y = f(x)\ny = x;\ny = fft(y);\nend\n",
       {sema::ArgSpec::row(8, /*complex=*/true)}},
  };
  Compiler compiler;
  for (const auto& v : variants) {
    std::vector<Matrix> args;
    kernels::InputGen gen(42);
    for (const auto& spec : v.specs) {
      auto rows = spec.type.shape.rows.extent();
      auto cols = spec.type.shape.cols.extent();
      if (spec.type.elem == sema::Elem::Complex) {
        Matrix m = Matrix::zeros(static_cast<std::size_t>(rows),
                                 static_cast<std::size_t>(cols), /*complex=*/true);
        for (std::size_t i = 0; i < m.numel(); ++i)
          m.set(i, Complex{gen.next(), gen.next()});
        args.push_back(std::move(m));
      } else {
        args.push_back(gen.matrix(rows, cols));
      }
    }
    for (const auto& cfg : kConfigs) {
      CompileOptions o = loopLayerOff();
      cfg.enable(o);
      auto unit = compiler.compileSource(v.source, "f", v.specs, o);
      EXPECT_LE(validateAgainstInterpreter(v.source, "f", unit, args), 1e-12)
          << v.name << " under " << cfg.name;
    }
  }
}

TEST(LoopOpt, ReassocStaysAccurateAndIsOffByDefault) {
  EXPECT_FALSE(CompileOptions::proposed().reassoc);
  Compiler compiler;
  for (const auto& k : kernels::dspBenchmarkSuite()) {
    CompileOptions o = CompileOptions::proposed();
    o.reassoc = true;
    o.verifyEach = true;
    auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs, o);
    // Reassociation changes rounding; the drift stays at the 1e-12 scale
    // measured in EXPERIMENTS.md.
    EXPECT_LE(validateAgainstInterpreter(k.source, k.entry, unit, k.args), 1e-12)
        << k.name;
  }
}

}  // namespace
}  // namespace mat2c
