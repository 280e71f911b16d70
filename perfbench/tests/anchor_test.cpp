// Anchor: at the library's default sizes and inputs, the benchmark's
// table-1 pass measures exactly the cycles the checked-in cycle gates hold
// (BENCH_table1.json, BENCH_extended.json), and dse::explore reaches the
// geomean BENCH_dse.json holds. The gate files are only read.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>

#include "dse/dse.hpp"
#include "workloads.hpp"

namespace {

using namespace mat2c;

std::string slurp(const std::string& name) {
  std::ifstream in(std::string(MAT2C_ROOT_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// kernel -> (baseline_cycles, proposed_cycles)
std::map<std::string, std::pair<double, double>> gateCycles(const std::string& name) {
  std::map<std::string, std::pair<double, double>> out;
  std::string text = slurp(name);
  std::regex row(R"re("(\w+)": \{"baseline_cycles": ([0-9.eE+-]+), "proposed_cycles": ([0-9.eE+-]+))re");
  for (std::sregex_iterator it(text.begin(), text.end(), row), end; it != end; ++it)
    out[(*it)[1]] = {std::stod((*it)[2]), std::stod((*it)[3])};
  return out;
}

double gateGeomean(const std::string& name) {
  std::smatch m;
  std::string text = slurp(name);
  if (!std::regex_search(text, m, std::regex(R"re("geomean_speedup": ([0-9.]+))re")))
    return -1.0;
  return std::stod(m[1]);
}

void expectSuiteMatchesGate(const std::vector<kernels::KernelSpec>& suite,
                            const std::string& gate) {
  auto expected = gateCycles(gate);
  ASSERT_EQ(expected.size(), suite.size()) << gate;
  for (const auto& spec : suite) {
    SCOPED_TRACE(spec.name);
    perfbench::Table1Row row = perfbench::measureTable1Kernel(spec);
    ASSERT_TRUE(expected.count(spec.name));
    EXPECT_EQ(row.baselineCycles, expected[spec.name].first);
    EXPECT_EQ(row.proposedCycles, expected[spec.name].second);
    EXPECT_LE(row.maxAbsErr, 1e-9);
  }
}

TEST(Anchor, Table1CyclesEqualTheCheckedInGate) {
  expectSuiteMatchesGate(kernels::dspBenchmarkSuite(), "BENCH_table1.json");
}

TEST(Anchor, ExtendedCyclesEqualTheCheckedInGate) {
  expectSuiteMatchesGate(kernels::extendedKernelSuite(), "BENCH_extended.json");
}

TEST(Anchor, OracleCheckAgreesWithValidateAgainstInterpreter) {
  // The table-1 pass compares VM and interpreter outputs itself, to run the
  // VM once per style; it must agree with the library's own validator.
  for (const auto& spec : kernels::dspBenchmarkSuite()) {
    SCOPED_TRACE(spec.name);
    Compiler compiler;
    CompiledUnit unit = compiler.compileSource(spec.source, spec.entry, spec.argSpecs,
                                               CompileOptions::coderLike());
    double err = validateAgainstInterpreter(spec.source, spec.entry, unit, spec.args);
    EXPECT_LE(err, 1e-9);
    EXPECT_LE(perfbench::measureTable1Kernel(spec).maxAbsErr, 1e-9);
  }
}

TEST(Anchor, DseBestGeomeanEqualsTheCheckedInGate) {
  dse::ExploreResult r = dse::explore();
  double gate = gateGeomean("BENCH_dse.json");
  ASSERT_GT(gate, 0.0);
  // The gate file stores four decimals.
  EXPECT_NEAR(r.best.geomean, gate, 5e-5);
}

TEST(Anchor, SeededCorpusKeepsSizesAndCycles) {
  // The workload's seeded inputs change data, not the measured program.
  auto base = kernels::dspBenchmarkSuite();
  auto seeded = perfbench::reseed(base, 7);
  ASSERT_EQ(seeded.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    SCOPED_TRACE(base[i].name);
    EXPECT_EQ(perfbench::argSpecText(seeded[i].argSpecs),
              perfbench::argSpecText(base[i].argSpecs));
    EXPECT_FALSE(maxAbsDiff(seeded[i].args[0], base[i].args[0]) == 0.0);
  }
}

}  // namespace
