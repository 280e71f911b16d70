// Retargeting invariants: textual descriptions are first-class targets.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"

namespace mat2c {
namespace {

/// A textual clone of dspx_w4 with renamed intrinsics.
isa::IsaDescription textualClone() {
  DiagnosticEngine diags;
  auto d = isa::IsaDescription::parse(R"(
name cloned
simd f64 4
simd c64 2
memlanes 8
feature fma
feature cmul
feature cmac
feature zol
feature agu
)",
                                      diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderAll();
  return d;
}

TEST(Retarget, TextualCloneMatchesPresetCycles) {
  // Identical datapath parameters => identical cycle counts, for every
  // kernel in both corpora. Retargeting is purely the description.
  Compiler compiler;
  CompileOptions preset = CompileOptions::proposed("dspx_w4");
  CompileOptions clone;
  clone.isa = textualClone();
  for (auto& k : kernels::dspBenchmarkSuite()) {
    auto a = compiler.compileSource(k.source, k.entry, k.argSpecs, preset);
    auto b = compiler.compileSource(k.source, k.entry, k.argSpecs, clone);
    EXPECT_DOUBLE_EQ(a.run(k.args).cycles.total, b.run(k.args).cycles.total) << k.name;
  }
}

TEST(Retarget, TextualCloneEmitsOwnVocabulary) {
  Compiler compiler;
  CompileOptions clone;
  clone.isa = textualClone();
  auto k = kernels::makeFir(128, 8);
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs, clone);
  codegen::EmitOptions body;
  body.embedRuntime = false;
  std::string c = unit.cCode(body);
  EXPECT_NE(c.find("cloned_vfma_f64"), std::string::npos);
  EXPECT_EQ(c.find("dspx_"), std::string::npos);
}

TEST(Retarget, EveryPresetCompilesEveryKernel) {
  Compiler compiler;
  const auto suite = kernels::dspBenchmarkSuite();
  // Interpreted once per kernel (on the first preset), shared by every preset.
  std::vector<std::vector<Matrix>> references(suite.size());
  for (const auto& preset : isa::IsaDescription::presetNames()) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const auto& k = suite[i];
      auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                         CompileOptions::proposed(preset));
      if (references[i].empty()) {
        references[i] = interpretReference(k.source, k.entry, k.args, unit.fn().outs.size());
      }
      EXPECT_LE(compareToReference(references[i], unit.run(k.args).outputs), 1e-9)
          << k.name << " on " << preset;
    }
  }
}

TEST(Retarget, RuntimeHeaderCompilesForEveryPreset) {
  // The emitted runtime header must be valid C for every target shape.
  for (const auto& preset : isa::IsaDescription::presetNames()) {
    auto isa = isa::IsaDescription::preset(preset);
    std::string base = std::string(::testing::TempDir()) + "/hdr_" + preset;
    {
      std::ofstream out(base + ".c");
      out << codegen::runtimeHeader(isa);
      out << "int main(void) { return 0; }\n";
    }
    std::string cmd =
        "cc -std=c99 -Wall -Werror -o " + base + ".bin " + base + ".c -lm 2>" + base + ".log";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << preset << " — see " << base << ".log";
  }
}

TEST(Retarget, CostsFollowDescribedDatapath) {
  // Halving the lanes roughly doubles cycles on a bandwidth-bound kernel.
  Compiler compiler;
  auto k = kernels::makeFdeq(2048);
  auto w8 = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                   CompileOptions::proposed("dspx"));
  auto w4 = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                   CompileOptions::proposed("dspx_w4"));
  double ratio = w4.run(k.args).cycles.total / w8.run(k.args).cycles.total;
  EXPECT_NEAR(ratio, 2.0, 0.4);
}

TEST(Retarget, CostOverridesChangeCycleCounts) {
  Compiler compiler;
  auto k = kernels::makeCdot(512);
  CompileOptions expensive = CompileOptions::proposed();
  expensive.isa.setCost(isa::Op::VFmaC, 5.0);
  auto cheap = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                      CompileOptions::proposed());
  auto costly = compiler.compileSource(k.source, k.entry, k.argSpecs, expensive);
  EXPECT_GT(costly.run(k.args).cycles.total, cheap.run(k.args).cycles.total);
}

}  // namespace
}  // namespace mat2c
