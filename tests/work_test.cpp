// Exact, clock-free work counts for the system's own cost (the `work`
// label).
//
// A compile's heap allocations are counted by a counting operator new
// local to this binary, for compileSource + cCode of each Table-1 kernel on
// the dspx preset in both code styles, and checked against the bound for
// the case in tests/fixtures/work_bounds.txt. The count does not depend on
// the clock or the host's load, so a change that makes a compile do more
// work fails here even where a timing gate cannot tell. Absolute counts
// depend on the standard library: the fixture names the toolchain that
// wrote it. Each case prints "work <case> <allocations>", the fixture's
// line format; regenerate only for a change meant to move the counts with
// `./build/tests/test_work | grep '^work ' | cut -d' ' -f2- | sort`, then
// restore the header comment.
//
// A VM run's allocations are checked against themselves: the same count at
// every problem size, for fir, iir and cdot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <utility>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"

// Every operator new in this test binary.
static std::atomic<std::size_t> gAllocations{0};

void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with new.
[[gnu::noinline]] static void release(void* p) noexcept { std::free(p); }
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace mat2c {
namespace {

/// One Table-1 kernel in one style on dspx.
struct WorkCase {
  std::size_t kernel;
  bool coder;
  std::string name;
};

void PrintTo(const WorkCase& c, std::ostream* os) { *os << c.name; }

std::vector<WorkCase> workCases() {
  std::vector<WorkCase> out;
  auto suite = kernels::dspBenchmarkSuite();
  for (std::size_t k = 0; k < suite.size(); ++k)
    for (bool coder : {false, true})
      out.push_back({k, coder, "compile_" + suite[k].name + (coder ? "_coder" : "_proposed")});
  return out;
}

/// tests/fixtures/work_bounds.txt: "<case> <bound>" lines; '#' starts a
/// comment line.
const std::map<std::string, std::size_t>& bounds() {
  static const std::map<std::string, std::size_t> table = [] {
    std::map<std::string, std::size_t> out;
    std::ifstream in(MAT2C_WORK_BOUNDS);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name;
      std::size_t bound = 0;
      if (fields >> name >> bound) out[name] = bound;
    }
    return out;
  }();
  return table;
}

/// Heap allocations of compileSource + cCode of `spec`.
std::size_t compileAllocations(const kernels::KernelSpec& spec, const CompileOptions& options) {
  std::size_t before = gAllocations.load();
  Compiler compiler;
  auto unit = compiler.compileSource(spec.source, spec.entry, spec.argSpecs, options);
  std::string code = unit.cCode();
  std::size_t allocations = gAllocations.load() - before;
  EXPECT_FALSE(code.empty());
  return allocations;
}

class CompileWork : public ::testing::TestWithParam<WorkCase> {};

TEST_P(CompileWork, AllocationsStayWithinBound) {
  const WorkCase& c = GetParam();
  kernels::KernelSpec spec = kernels::dspBenchmarkSuite()[c.kernel];
  CompileOptions options = c.coder ? CompileOptions::coderLike("dspx")
                                   : CompileOptions::proposed("dspx");
  // The first compile in a process also builds process-wide tables (ISA
  // presets, builtin and operator tables); count the second.
  compileAllocations(spec, options);
  std::size_t allocations = compileAllocations(spec, options);
  std::cout << "work " << c.name << " " << allocations << "\n";
  auto it = bounds().find(c.name);
  ASSERT_NE(it, bounds().end()) << "no bound for " << c.name;
  EXPECT_LE(allocations, it->second) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Work, CompileWork, ::testing::ValuesIn(workCases()),
                         [](const auto& info) { return info.param.name; });

TEST(VmWork, RunAllocationsDoNotDependOnN) {
  // The VM resolves names to slots and sizes its arrays once per run, so a
  // Machine::run allocates the same at every problem size. Compares counts
  // of one build with each other, so it holds on any toolchain.
  const std::pair<const char*, kernels::KernelSpec (*)(std::int64_t)> cases[] = {
      {"fir", [](std::int64_t n) { return kernels::makeFir(n); }},
      {"iir", [](std::int64_t n) { return kernels::makeIir(n); }},
      {"cdot", [](std::int64_t n) { return kernels::makeCdot(n); }}};
  for (const auto& [name, make] : cases) {
    std::size_t first = 0;
    for (std::int64_t n : {256, 512, 1024, 2048, 4096}) {
      kernels::KernelSpec spec = make(n);
      auto unit = Compiler().compileSource(spec.source, spec.entry, spec.argSpecs,
                                           CompileOptions::proposed("dspx"));
      unit.run(spec.args);  // the first run in a process also builds tables
      std::size_t before = gAllocations.load();
      vm::RunResult run = unit.run(spec.args);
      std::size_t allocations = gAllocations.load() - before;
      ASSERT_FALSE(run.outputs.empty());
      if (n == 256) first = allocations;
      EXPECT_EQ(allocations, first) << name << " at n = " << n;
    }
    std::cout << "vm-work " << name << " " << first << "\n";
  }
}

}  // namespace
}  // namespace mat2c
