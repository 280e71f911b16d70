// ISA description tests: presets, parsing, serialization, cost model.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "isa/isa.hpp"
#include "support/string_utils.hpp"

namespace mat2c::isa {
namespace {

TEST(Isa, ScalarPresetHasNoCustomInstructions) {
  auto d = IsaDescription::preset("scalar");
  EXPECT_EQ(d.lanesF64(), 1);
  EXPECT_EQ(d.lanesC64(), 1);
  EXPECT_FALSE(d.hasFma());
  EXPECT_FALSE(d.hasCmul());
  EXPECT_FALSE(d.supports(Op::VAddF));
  EXPECT_FALSE(d.supports(Op::MulC));
  EXPECT_TRUE(d.supports(Op::AddF));
  EXPECT_TRUE(d.supports(Op::LoadC));
}

TEST(Isa, DspxPreset) {
  auto d = IsaDescription::preset("dspx");
  EXPECT_EQ(d.lanesF64(), 8);
  EXPECT_EQ(d.lanesC64(), 4);
  EXPECT_TRUE(d.hasFma());
  EXPECT_TRUE(d.hasCmul());
  EXPECT_TRUE(d.hasCmac());
  EXPECT_TRUE(d.hasZol());
  EXPECT_TRUE(d.hasAgu());
  EXPECT_TRUE(d.supports(Op::VFmaF));
  EXPECT_TRUE(d.supports(Op::VMulC));
  EXPECT_TRUE(d.supports(Op::VFmaC));
}

TEST(Isa, WidthVariants) {
  EXPECT_EQ(IsaDescription::preset("dspx_w2").lanesF64(), 2);
  EXPECT_EQ(IsaDescription::preset("dspx_w4").lanesF64(), 4);
  EXPECT_EQ(IsaDescription::preset("dspx_w16").lanesF64(), 16);
  EXPECT_EQ(IsaDescription::preset("dspx_novec").lanesF64(), 1);
}

TEST(Isa, NoComplexVariantDisablesComplexUnit) {
  auto d = IsaDescription::preset("dspx_nocomplex");
  EXPECT_FALSE(d.hasCmul());
  EXPECT_FALSE(d.supports(Op::VMulC));
  EXPECT_FALSE(d.supports(Op::MulC));
  EXPECT_TRUE(d.supports(Op::VAddF));  // plain SIMD remains
}

TEST(Isa, UnknownPresetThrows) {
  EXPECT_THROW(IsaDescription::preset("nope"), std::invalid_argument);
}

TEST(Isa, PresetNamesAllConstructible) {
  for (const auto& name : IsaDescription::presetNames()) {
    EXPECT_NO_THROW(IsaDescription::preset(name));
  }
}

TEST(Isa, CmulDecomposition) {
  auto scalar = IsaDescription::preset("scalar");
  // 4 multiplies + 2 adds when there is no complex unit.
  EXPECT_DOUBLE_EQ(scalar.cost(Op::MulC),
                   4 * scalar.cost(Op::MulF) + 2 * scalar.cost(Op::AddF));
  auto dspx = IsaDescription::preset("dspx");
  EXPECT_DOUBLE_EQ(dspx.cost(Op::MulC), 1.0);
}

TEST(Isa, FmaDecomposition) {
  auto scalar = IsaDescription::preset("scalar");
  EXPECT_DOUBLE_EQ(scalar.cost(Op::FmaF), scalar.cost(Op::MulF) + scalar.cost(Op::AddF));
}

TEST(Isa, UnsupportedVectorOpCostThrows) {
  auto scalar = IsaDescription::preset("scalar");
  EXPECT_THROW(scalar.cost(Op::VMulC), std::logic_error);
}

TEST(Isa, ZolAndAguZeroOutOverheads) {
  auto dspx = IsaDescription::preset("dspx");
  EXPECT_DOUBLE_EQ(dspx.cost(Op::LoopOverhead), 0.0);
  EXPECT_DOUBLE_EQ(dspx.cost(Op::AddI), 0.0);
  auto scalar = IsaDescription::preset("scalar");
  EXPECT_GT(scalar.cost(Op::LoopOverhead), 0.0);
  EXPECT_GT(scalar.cost(Op::AddI), 0.0);
}

TEST(Isa, MemoryPortLimitsWideVectors) {
  auto w8 = IsaDescription::preset("dspx");
  auto w16 = IsaDescription::preset("dspx_w16");
  // 16 lanes through an 8-lane port = twice the issues.
  EXPECT_DOUBLE_EQ(w16.cost(Op::VLoadF), 2 * w8.cost(Op::VLoadF));
}

TEST(Isa, ReductionCostScalesWithWidth) {
  auto w4 = IsaDescription::preset("dspx_w4");
  auto w16 = IsaDescription::preset("dspx_w16");
  EXPECT_LT(w4.cost(Op::VReduceAddF), w16.cost(Op::VReduceAddF));
}

TEST(Isa, IntrinsicNamesDeriveFromTargetName) {
  auto d = IsaDescription::preset("dspx");
  EXPECT_EQ(d.intrinsicName(Op::VFmaF), "dspx_vfma_f64");
  EXPECT_EQ(d.intrinsicName(Op::MulC), "dspx_cmul_c64");
}

TEST(Isa, UsesIntrinsicOnlyForCustomOps) {
  auto d = IsaDescription::preset("dspx");
  EXPECT_TRUE(d.usesIntrinsic(Op::VAddF));
  EXPECT_TRUE(d.usesIntrinsic(Op::MulC));
  EXPECT_TRUE(d.usesIntrinsic(Op::FmaF));
  EXPECT_FALSE(d.usesIntrinsic(Op::AddF));   // plain C operator
  EXPECT_FALSE(d.usesIntrinsic(Op::LoadF));  // plain array access
  auto scalar = IsaDescription::preset("scalar");
  EXPECT_FALSE(scalar.usesIntrinsic(Op::MulC));
}

TEST(Isa, ReductionCostOverrideWinsOverDepthFormula) {
  // Without an override a reduction costs its tree depth, log2(lanes)+1.
  auto d = IsaDescription::preset("dspx");
  EXPECT_DOUBLE_EQ(d.cost(Op::VReduceAddF), 4.0);
  EXPECT_DOUBLE_EQ(d.cost(Op::VReduceAddC), 3.0);
  DiagnosticEngine diags;
  auto o = IsaDescription::parse(d.serialize() + "cost vredadd.f64 40\ncost vredadd.c64 7\n", diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.renderAll();
  EXPECT_DOUBLE_EQ(o.cost(Op::VReduceAddF), 40.0);
  EXPECT_DOUBLE_EQ(o.cost(Op::VReduceAddC), 7.0);
  EXPECT_DOUBLE_EQ(o.cost(Op::VReduceMinF), 4.0);  // not overridden
}

TEST(Isa, MnemonicRoundTrip) {
  std::set<std::string> seen;
  for (int i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    const std::string mn = mnemonic(op);
    EXPECT_TRUE(seen.insert(mn).second) << "duplicate mnemonic " << mn;
    auto back = opFromMnemonic(mn);
    ASSERT_TRUE(back.has_value()) << mn;
    EXPECT_EQ(*back, op) << mn;
    for (const char* preset : {"scalar", "dspx"}) {
      auto d = IsaDescription::preset(preset);
      const bool expands = opInfo(op).expansion[0].count > 0;
      if (d.supports(op) || (expands && !isVectorOp(op))) {
        const double c = d.cost(op);
        EXPECT_TRUE(std::isfinite(c) && c >= 0) << preset << " " << mn << " costs " << c;
      } else {
        // Unsupported vector ops are never emitted; costing one is a bug.
        EXPECT_TRUE(isVectorOp(op)) << preset << " " << mn;
        EXPECT_THROW(d.cost(op), std::logic_error) << preset << " " << mn;
      }
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNumOps));
  EXPECT_FALSE(opFromMnemonic("not.an.op").has_value());
}

TEST(Isa, SerializeBytesArePinned) {
  // Overrides are set out of op order; serialize() writes them in op-table
  // order. These bytes are the compile-cache key's ISA component.
  auto d = IsaDescription::preset("dspx_w4");
  d.setCost(Op::SinF, 11);
  d.setCost(Op::AddF, 1.5);
  d.setCost(Op::VFmaC, 2);
  d.setIntrinsicName(Op::VFmaC, "w4_cmac");
  d.setIntrinsicName(Op::SinF, "w4_sin");
  d.setIntrinsicName(Op::AddF, "w4_add");
  EXPECT_EQ(d.serialize(),
            "name dspx_w4\n"
            "simd f64 4\n"
            "simd c64 2\n"
            "memlanes 8\n"
            "feature fma\n"
            "feature cmul\n"
            "feature cmac\n"
            "feature zol\n"
            "feature agu\n"
            "cost add.f64 1.5\n"
            "cost sin.f64 11\n"
            "cost vcmac.c64 2\n"
            "intrinsic add.f64 w4_add\n"
            "intrinsic sin.f64 w4_sin\n"
            "intrinsic vcmac.c64 w4_cmac\n");
  EXPECT_EQ(hex64(d.fingerprint()), "dc9f097274b853d8");
}

TEST(Isa, ParseDescription) {
  DiagnosticEngine diags;
  auto d = IsaDescription::parse(R"(
# my custom DSP
name mydsp
simd f64 4
simd c64 2
memlanes 4
feature fma
feature cmul
cost cmul.c64 2
intrinsic vfma.f64 mydsp_fused_mac
)",
                                 diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderAll();
  EXPECT_EQ(d.name(), "mydsp");
  EXPECT_EQ(d.lanesF64(), 4);
  EXPECT_EQ(d.lanesC64(), 2);
  EXPECT_TRUE(d.hasFma());
  EXPECT_TRUE(d.hasCmul());
  EXPECT_FALSE(d.hasCmac());
  EXPECT_DOUBLE_EQ(d.cost(Op::MulC), 2.0);
  EXPECT_EQ(d.intrinsicName(Op::VFmaF), "mydsp_fused_mac");
}

TEST(Isa, ParseDiagnosesUnknownDirectives) {
  DiagnosticEngine diags;
  IsaDescription::parse("bogus directive\nfeature warp\ncost nop.x 1\n", diags);
  EXPECT_GE(diags.errorCount(), 3u);
}

TEST(Isa, ParseDiagnosesMalformedOperands) {
  // One bad line per case, after a valid first line: each is an error that
  // names line 2, and none of them changes the description.
  const char* cases[] = {
      "cost add.f64 abc",      // not a number
      "cost add.f64 nan",      // not finite
      "cost add.f64 inf",      // not finite
      "cost add.f64 -3",       // negative
      "cost add.f64",          // missing cycles
      "cost add.f64 2 3",      // trailing token
      "memlanes x",            // not an integer
      "memlanes 4 lanes",      // trailing token
      "simd f64 abc",          // not an integer
      "simd f64 2.5",          // not an integer
      "simd f64",              // missing lanes
      "name",                  // missing name
      "name my dsp",           // trailing token
      "feature fma cmul",      // one feature per line
      "feature warp",          // unknown feature
      "intrinsic vfma.f64",    // missing C name
      "intrinsic vfma.f64 mac extra",
  };
  DiagnosticEngine clean;
  const auto reference = IsaDescription::parse("name base\n", clean);
  for (const char* line : cases) {
    DiagnosticEngine diags;
    auto d = IsaDescription::parse(std::string("name base\n") + line + "\n", diags);
    EXPECT_EQ(diags.errorCount(), 1u) << line << ": " << diags.renderAll();
    EXPECT_NE(diags.renderAll().find(" at 2:"), std::string::npos) << line << ": " << diags.renderAll();
    EXPECT_EQ(d.serialize(), reference.serialize()) << line;
  }
}

TEST(Isa, ParseAcceptsTrailingComments) {
  DiagnosticEngine diags;
  auto d = IsaDescription::parse(
      "name mydsp  # target name\nsimd f64 4 # lanes\nmemlanes 2\t#port\n"
      "feature fma # unit\ncost add.f64 1e+06 #big\nintrinsic vfma.f64 mac # c name\n",
      diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderAll();
  EXPECT_EQ(d.name(), "mydsp");
  EXPECT_EQ(d.lanesF64(), 4);
  EXPECT_EQ(d.memLanes(), 2);
  EXPECT_TRUE(d.hasFma());
  EXPECT_DOUBLE_EQ(d.cost(Op::AddF), 1e6);
  EXPECT_EQ(d.intrinsicName(Op::VFmaF), "mac");
}

TEST(Isa, ParseDiagnosesDuplicateCost) {
  // A repeated `cost` entry would silently overwrite the first — the parser
  // must name both definitions so the typo is findable in a long file.
  DiagnosticEngine diags;
  IsaDescription::parse(R"(name dup
cost cmul.c64 2
cost vfma.f64 1
cost cmul.c64 3
)",
                        diags);
  ASSERT_TRUE(diags.hasErrors());
  std::string rendered = diags.renderAll();
  EXPECT_NE(rendered.find("duplicate cost for 'cmul.c64'"), std::string::npos) << rendered;
  // Both line numbers: the diagnostic is at line 4, and names line 2 as the
  // first definition.
  EXPECT_NE(rendered.find("first defined at line 2"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("4"), std::string::npos) << rendered;
}

TEST(Isa, ParseDiagnosesDuplicateIntrinsic) {
  DiagnosticEngine diags;
  IsaDescription::parse(R"(name dup
intrinsic vfma.f64 mac_a
intrinsic vfma.f64 mac_b
)",
                        diags);
  ASSERT_TRUE(diags.hasErrors());
  std::string rendered = diags.renderAll();
  EXPECT_NE(rendered.find("duplicate intrinsic for 'vfma.f64'"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("first defined at line 2"), std::string::npos) << rendered;
}

TEST(Isa, DistinctOpsAreNotDuplicates) {
  // Duplicate detection is per-op: costing two different ops is fine.
  DiagnosticEngine diags;
  auto d = IsaDescription::parse("name ok\ncost cmul.c64 2\ncost vfma.f64 1\n", diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderAll();
  EXPECT_EQ(d.name(), "ok");
}

TEST(Isa, EveryPresetRoundTripsThroughTextByFingerprint) {
  // serialize() -> parse() must reproduce the exact observable state for
  // every preset; fingerprint() hashes serialize(), so equality here means
  // the round-tripped description compiles, costs, and emits identically.
  for (const auto& name : IsaDescription::presetNames()) {
    auto d = IsaDescription::preset(name);
    DiagnosticEngine diags;
    auto d2 = IsaDescription::parse(d.serialize(), diags);
    EXPECT_FALSE(diags.hasErrors()) << name << ": " << diags.renderAll();
    EXPECT_EQ(d2.fingerprint(), d.fingerprint()) << name;
  }
}

TEST(Isa, GeneratedDescriptionRoundTripsByFingerprint) {
  // Mirror of what src/dse emits: a programmatically built description
  // (setters, not parse) must survive the same text round trip.
  auto d = IsaDescription::preset("scalar");
  d.setName("auto_rt");
  d.setLanes(8, 4);
  d.setMemLanes(16);
  for (const char* f : {"fma", "cmul", "zol"}) d.setFeature(f, true);
  d.setCost(Op::MulC, 2);
  d.setIntrinsicName(Op::VFmaF, "auto_rt_mac");
  DiagnosticEngine diags;
  auto d2 = IsaDescription::parse(d.serialize(), diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderAll();
  EXPECT_EQ(d2.fingerprint(), d.fingerprint());
  EXPECT_EQ(d2.memLanes(), 16);
}

TEST(Isa, SerializeRoundTrip) {
  auto d = IsaDescription::preset("dspx");
  d.setCost(Op::SinF, 11);
  d.setIntrinsicName(Op::VAddF, "dspx_wide_add");
  DiagnosticEngine diags;
  auto d2 = IsaDescription::parse(d.serialize(), diags);
  EXPECT_FALSE(diags.hasErrors());
  EXPECT_EQ(d2.name(), d.name());
  EXPECT_EQ(d2.lanesF64(), d.lanesF64());
  EXPECT_EQ(d2.lanesC64(), d.lanesC64());
  EXPECT_EQ(d2.hasCmac(), d.hasCmac());
  EXPECT_DOUBLE_EQ(d2.cost(Op::SinF), 11.0);
  EXPECT_EQ(d2.intrinsicName(Op::VAddF), "dspx_wide_add");
}

TEST(Isa, VectorAndComplexClassifiers) {
  EXPECT_TRUE(isVectorOp(Op::VAddF));
  EXPECT_FALSE(isVectorOp(Op::AddF));
  EXPECT_TRUE(isComplexOp(Op::MulC));
  EXPECT_TRUE(isComplexOp(Op::VLoadC));
  EXPECT_FALSE(isComplexOp(Op::VLoadF));
}

}  // namespace
}  // namespace mat2c::isa
