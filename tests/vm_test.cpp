// VM tests: cycle accounting, category attribution, runtime faults.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"

namespace mat2c {
namespace {

using sema::ArgSpec;

CompiledUnit compile(const std::string& src, const std::vector<ArgSpec>& specs,
                     const CompileOptions& options = CompileOptions::proposed()) {
  Compiler compiler;
  return compiler.compileSource(src, "f", specs, options);
}

TEST(Vm, ScalarResult) {
  auto unit = compile("function y = f(a)\ny = a * 3;\nend\n", {ArgSpec::scalar()});
  auto r = unit.run({Matrix::scalar(7)});
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.outputs[0].scalarValue(), 21.0);
  EXPECT_GT(r.cycles.total, 0.0);
}

TEST(Vm, CyclesScaleWithWork) {
  std::string src = "function y = f(x)\ny = x + 1;\nend\n";
  kernels::InputGen gen(50);
  CompileOptions scalarIsa = CompileOptions::proposed("scalar");
  auto small = compile(src, {ArgSpec::row(64)}, scalarIsa);
  auto large = compile(src, {ArgSpec::row(256)}, scalarIsa);
  double cSmall = small.run({gen.rowVector(64)}).cycles.total;
  double cLarge = large.run({gen.rowVector(256)}).cycles.total;
  EXPECT_NEAR(cLarge / cSmall, 4.0, 0.3);
}

TEST(Vm, CategoriesArePopulated) {
  auto k = kernels::makeFir(128, 8);
  Compiler compiler;
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::coderLike("scalar"));
  auto r = unit.run(k.args);
  auto cats = r.cycles.byCategory();
  EXPECT_GT(cats.at("arith"), 0.0);
  EXPECT_GT(cats.at("memory"), 0.0);
  EXPECT_GT(cats.at("loop"), 0.0);
  EXPECT_GT(cats.at("check"), 0.0);
  double sum = 0;
  for (const auto& [cat, v] : cats) sum += v;
  EXPECT_NEAR(sum, r.cycles.total, 1e-6);
}

TEST(Vm, ByOpBreakdownIsConsistent) {
  auto k = kernels::makeCdot(64);
  Compiler compiler;
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  auto r = unit.run(k.args);
  double sum = 0;
  for (double v : r.cycles.byOp) sum += v;
  EXPECT_NEAR(sum, r.cycles.total, 1e-6);
  // The complex MAC unit must actually be used.
  EXPECT_GT(r.cycles.count(isa::Op::VFmaC) + r.cycles.count(isa::Op::FmaC), 0.0);
}

TEST(Vm, IntrinsicOpsCounted) {
  auto k = kernels::makeFdeq(64);
  Compiler compiler;
  auto prop = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  auto base = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::coderLike());
  EXPECT_GT(prop.run(k.args).cycles.intrinsicOpsExecuted, 0u);
  EXPECT_EQ(base.run(k.args).cycles.intrinsicOpsExecuted, 0u);
}

TEST(Vm, ArgumentShapeMismatchThrows) {
  auto unit = compile("function y = f(x)\ny = x + 1;\nend\n", {ArgSpec::row(8)});
  EXPECT_THROW(unit.run({kernels::InputGen(51).rowVector(9)}), RuntimeError);
  EXPECT_THROW(unit.run({}), RuntimeError);
}

TEST(Vm, RealParamRejectsComplexInput) {
  auto unit = compile("function y = f(x)\ny = x + 1;\nend\n", {ArgSpec::row(4)});
  EXPECT_THROW(unit.run({kernels::InputGen(52).complexRowVector(4)}), RuntimeError);
}

TEST(Vm, OutOfBoundsLoadFaults) {
  // Index depends on a runtime scalar — compile succeeds, VM faults.
  auto unit = compile("function y = f(x, i)\ny = x(i);\nend\n",
                      {ArgSpec::row(4), ArgSpec::scalar()});
  EXPECT_THROW(unit.run({kernels::InputGen(53).rowVector(4), Matrix::scalar(9)}),
               RuntimeError);
  auto ok = unit.run({kernels::InputGen(53).rowVector(4), Matrix::scalar(2)});
  EXPECT_EQ(ok.outputs.size(), 1u);
}

TEST(Vm, OpBudgetStopsRunaway) {
  auto unit = compile("function y = f(x)\ny = 0;\nwhile x > -1\n  y = y + 1;\nend\nend\n",
                      {ArgSpec::scalar()});
  vm::Machine machine(unit.isa());
  machine.setMaxOps(10'000);
  EXPECT_THROW(machine.run(unit.fn(), {Matrix::scalar(1)}), RuntimeError);
}

TEST(Vm, ComplexOutputs) {
  auto unit = compile("function y = f(x)\ny = x * 2i;\nend\n", {ArgSpec::complexScalar()});
  auto r = unit.run({Matrix::scalar(Complex{1, 1})});
  EXPECT_EQ(r.outputs[0].at(0), (Complex{-2, 2}));
}

TEST(Vm, ComplexLogChargesWhatTheRuntimeComputes) {
  // mat2c_clog(z) = log(|z|) + i*arg(z): |z|'s charges plus log and atan2.
  auto cycles = [](const char* body) {
    auto unit = compile(std::string("function y = f(z)\ny = ") + body + ";\nend\n",
                        {ArgSpec::complexScalar()});
    auto r = unit.run({Matrix::scalar(Complex{-0.6, 0.8})});
    return r.cycles;
  };
  vm::CycleStats log = cycles("log(z)");
  vm::CycleStats abs = cycles("abs(z)");
  EXPECT_EQ(log.count(isa::Op::LogF), 1.0);
  EXPECT_EQ(log.count(isa::Op::Atan2F), 1.0);
  for (int i = 0; i < isa::kNumOps; ++i) {
    auto op = static_cast<isa::Op>(i);
    if (abs.count(op) > 0) {
      EXPECT_EQ(log.count(op), abs.count(op)) << isa::mnemonic(op);
    }
  }
  auto dspx = isa::IsaDescription::preset("dspx");
  EXPECT_DOUBLE_EQ(log.byCategory().at("arith"), abs.byCategory().at("arith") +
                                                     dspx.cost(isa::Op::LogF) +
                                                     dspx.cost(isa::Op::Atan2F));
}

TEST(Vm, BaselineCheckCyclesDisappearInProposed) {
  auto k = kernels::makeFir(128, 8);
  Compiler compiler;
  auto base = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::coderLike());
  auto prop = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  auto rb = base.run(k.args);
  auto rp = prop.run(k.args);
  EXPECT_GT(rb.cycles.byCategory().at("check"), 0.0);
  EXPECT_EQ(rp.cycles.byCategory().count("check"), 0u);
  EXPECT_EQ(rp.cycles.byCategory().count("alloc"), 0u);
}

TEST(Vm, DeterministicCycles) {
  auto k = kernels::makeFmdemod(128);
  Compiler compiler;
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  double c1 = unit.run(k.args).cycles.total;
  double c2 = unit.run(k.args).cycles.total;
  EXPECT_DOUBLE_EQ(c1, c2);
}

// -- the cycle ledger ---------------------------------------------------------

using SuiteFn = std::vector<kernels::KernelSpec> (*)();
constexpr std::pair<const char*, SuiteFn> kLedgerSuites[] = {
    {"dsp", kernels::dspBenchmarkSuite},
    {"ext", kernels::extendedKernelSuite},
    {"dse", kernels::dseCorpus}};

/// One kernel of one suite in kLedgerSuites, on one preset in one style.
struct LedgerCase {
  std::size_t suite;
  std::size_t kernel;
  std::string preset;
  bool coder;
  std::string name;
};

void PrintTo(const LedgerCase& c, std::ostream* os) { *os << c.name; }

std::vector<LedgerCase> ledgerCases() {
  std::vector<LedgerCase> out;
  for (std::size_t s = 0; s < std::size(kLedgerSuites); ++s) {
    auto suite = kLedgerSuites[s].second();
    for (std::size_t k = 0; k < suite.size(); ++k)
      for (const auto& preset : isa::IsaDescription::presetNames())
        for (bool coder : {false, true})
          out.push_back({s, k, preset, coder,
                         std::string(kLedgerSuites[s].first) + "_" + suite[k].name + "_" +
                             preset + (coder ? "_coder" : "_proposed")});
  }
  return out;
}

class VmLedger : public ::testing::TestWithParam<LedgerCase> {};

TEST_P(VmLedger, TotalIsCountsTimesCosts) {
  // docs/dse.md: the VM total is exactly sum(count[op] * cost[op]), and ops
  // that zol/agu make free still record their counts. dse::explore rescores
  // cost-only design points from the counts alone on that identity.
  const LedgerCase& c = GetParam();
  kernels::KernelSpec spec = kLedgerSuites[c.suite].second()[c.kernel];
  Compiler compiler;
  auto unit = compiler.compileSource(
      spec.source, spec.entry, spec.argSpecs,
      c.coder ? CompileOptions::coderLike(c.preset) : CompileOptions::proposed(c.preset));
  const isa::IsaDescription& isa = unit.isa();
  vm::CycleStats s = unit.run(spec.args).cycles;

  double dot = 0.0, intrinsics = 0.0;
  for (int i = 0; i < isa::kNumOps; ++i) {
    auto op = static_cast<isa::Op>(i);
    if (s.count(op) == 0) continue;
    dot += s.count(op) * isa.cost(op);
    if (isa.usesIntrinsic(op)) intrinsics += s.count(op);
  }
  EXPECT_DOUBLE_EQ(dot, s.total);
  double categories = 0.0;
  auto cats = s.byCategory();
  for (const auto& [cat, cycles] : cats) categories += cycles;
  EXPECT_DOUBLE_EQ(categories, s.total);
  EXPECT_DOUBLE_EQ(intrinsics, static_cast<double>(s.intrinsicOpsExecuted));

  // Every kernel issues loop overhead; where zol makes it free it stays in
  // the ledger, and so does its category.
  EXPECT_GT(s.count(isa::Op::LoopOverhead), 0.0);
  EXPECT_EQ(cats.count("loop"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Corpus, VmLedger, ::testing::ValuesIn(ledgerCases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace mat2c
