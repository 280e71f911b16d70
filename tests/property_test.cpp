// Property-based differential testing: randomly generated MATLAB programs
// must produce identical results through the interpreter and through the
// compiled pipeline (both styles, several targets).
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "property_programs.hpp"

namespace mat2c {
namespace {

using sema::ArgSpec;

class ElementwiseProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ElementwiseProperty, InterpreterAndVmAgree) {
  unsigned seed = GetParam();
  property::Program p = property::elementwise(seed);

  Compiler compiler;
  for (const char* isaName : {"dspx", "scalar"}) {
    auto prop = compiler.compileSource(p.source, "f", p.specs, CompileOptions::proposed(isaName));
    EXPECT_LE(validateAgainstInterpreter(p.source, "f", prop, p.args), 1e-9)
        << "proposed/" << isaName << " seed=" << seed << " source: " << p.source;
  }
  auto base = compiler.compileSource(p.source, "f", p.specs, CompileOptions::coderLike());
  EXPECT_LE(validateAgainstInterpreter(p.source, "f", base, p.args), 1e-9)
      << "coder seed=" << seed << " source: " << p.source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElementwiseProperty,
                         ::testing::Range(0u, property::kElementwiseSeeds));

/// Random scalar reduction loops with control flow.
class LoopProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(LoopProperty, InterpreterAndVmAgree) {
  property::Program p = property::loop(GetParam());
  Compiler compiler;
  auto prop = compiler.compileSource(p.source, "f", p.specs, CompileOptions::proposed());
  auto base = compiler.compileSource(p.source, "f", p.specs, CompileOptions::coderLike());
  EXPECT_LE(validateAgainstInterpreter(p.source, "f", prop, p.args), 1e-9) << p.source;
  EXPECT_LE(validateAgainstInterpreter(p.source, "f", base, p.args), 1e-9) << p.source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoopProperty, ::testing::Range(0u, property::kLoopSeeds));

/// Random complex pipelines.
class ComplexProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ComplexProperty, InterpreterAndVmAgree) {
  property::Program p = property::complexPipeline(GetParam());
  Compiler compiler;
  auto prop = compiler.compileSource(p.source, "f", p.specs, CompileOptions::proposed());
  auto base = compiler.compileSource(p.source, "f", p.specs, CompileOptions::coderLike());
  EXPECT_LE(validateAgainstInterpreter(p.source, "f", prop, p.args), 1e-9) << p.source;
  EXPECT_LE(validateAgainstInterpreter(p.source, "f", base, p.args), 1e-9) << p.source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComplexProperty,
                         ::testing::Range(0u, property::kComplexSeeds));

/// Cycle-model invariant: for any generated program, the Proposed style is
/// never slower than CoderLike on the same target.
class CostDominanceProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CostDominanceProperty, ProposedNeverSlower) {
  unsigned seed = GetParam();
  property::ExprGen gen(seed + 77);
  std::string src = "function y = f(x, s)\ny = " + gen.expr(3) + ";\nend\n";
  std::int64_t n = 32 + seed % 64;
  kernels::InputGen inputs(seed);
  std::vector<Matrix> args = {inputs.rowVector(n), Matrix::scalar(0.5)};
  std::vector<ArgSpec> specs = {ArgSpec::row(n), ArgSpec::scalar()};

  Compiler compiler;
  auto prop = compiler.compileSource(src, "f", specs, CompileOptions::proposed());
  auto base = compiler.compileSource(src, "f", specs, CompileOptions::coderLike());
  double cp = prop.run(args).cycles.total;
  double cb = base.run(args).cycles.total;
  EXPECT_LE(cp, cb) << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostDominanceProperty, ::testing::Range(0u, 16u));

}  // namespace
}  // namespace mat2c
