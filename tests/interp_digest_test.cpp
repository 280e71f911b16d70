// Bit-exact digests of the reference interpreter (tests/interp_digest.hpp)
// on every kernel of the Table-1, extended, DSE and tune corpora, on every
// property-test program, and on the real kernels of VmNonFinite over
// ±inf/NaN inputs. The Builtins.* and Interp.* cases check their digests in
// their own binaries; all of them share tests/fixtures/interp_digests.txt.
#include <gtest/gtest.h>

#include <limits>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "interp/interpreter.hpp"
#include "interp_digest.hpp"
#include "parser/parser.hpp"
#include "property_programs.hpp"

namespace mat2c {
namespace {

using namespace testing_digest;

/// One interpretation: `entry` of `source` on `args`, all outputs requested.
struct DigestCase {
  std::string name;
  std::string source;
  std::string entry;
  std::vector<Matrix> args;
};

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

std::vector<DigestCase> digestCases() {
  std::vector<DigestCase> out;
  using SuiteFn = std::vector<kernels::KernelSpec> (*)();
  const std::pair<const char*, SuiteFn> suites[] = {{"table1", kernels::dspBenchmarkSuite},
                                                    {"ext", kernels::extendedKernelSuite},
                                                    {"dse", kernels::dseCorpus},
                                                    {"tune", kernels::tuneCorpus}};
  for (const auto& [suite, fn] : suites)
    for (const auto& k : fn())
      out.push_back({std::string(suite) + "_" + k.name, k.source, k.entry, k.args});

  using ProgramFn = property::Program (*)(unsigned);
  const std::tuple<const char*, ProgramFn, unsigned> programs[] = {
      {"elementwise", property::elementwise, property::kElementwiseSeeds},
      {"loop", property::loop, property::kLoopSeeds},
      {"complex", property::complexPipeline, property::kComplexSeeds}};
  for (const auto& [name, fn, seeds] : programs) {
    for (unsigned seed = 0; seed < seeds; ++seed) {
      property::Program p = fn(seed);
      out.push_back({std::string("property_") + name + "_" + std::to_string(seed), p.source,
                     "f", p.args});
    }
  }

  // The real kernels and inputs of VmNonFinite.RealKernelsStayReal...
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> inputs = {
      {1, inf, 2, -inf, 3, nan, 4, 5}, {inf, 1, 2, 3, 4, 5, 6, 7}, {-2, -inf, 0, 1, 2, 3, 4, 5}};
  const char* bodies[] = {"y = x .* 2 + 1;", "y = x ./ 4 - 3 .* x;", "y = abs(x) + x .* x;",
                          "y = sum(x .* 2);", "y = max(x .* 2);",     "y = prod(x);",
                          "y = dot(x, x);",   "y = x' * x;"};
  for (std::size_t b = 0; b < std::size(bodies); ++b)
    for (std::size_t i = 0; i < inputs.size(); ++i)
      out.push_back({"nonfinite_" + std::to_string(b) + "_" + std::to_string(i),
                     std::string("function y = f(x)\n") + bodies[b] + "\nend\n", "f",
                     {Matrix::rowVector(inputs[i])}});
  return out;
}

class InterpDigest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(InterpDigest, MatchesFixture) {
  const DigestCase& c = GetParam();
  DiagnosticEngine diags;
  auto program = parseSource(c.source, diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.renderAll();
  const ast::Function* fn = program->findFunction(c.entry);
  ASSERT_NE(fn, nullptr);
  Interpreter interp(*program);
  std::string digest;
  try {
    digest = digestValues(interp.callFunction(c.entry, c.args, fn->outs.size()));
  } catch (const RuntimeError& e) {
    digest = digestError(e.what());
  }
  expectDigest(c.name, digest);
}

INSTANTIATE_TEST_SUITE_P(Corpus, InterpDigest, ::testing::ValuesIn(digestCases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace mat2c
