// Ablations behind Table 1, and the development-cost metrics.
//
// A — SIMD width sweep. The paper's ISA description is parameterized; the
//     compiler is retargeted across SIMD widths (1/2/4/8/16 f64 lanes) and
//     every benchmark's speedup over the CoderLike baseline is reported at
//     each width. Expected shape: monotone gains with diminishing returns
//     once the memory port saturates (8-lane port on dspx); recurrence-bound
//     kernels stay flat.
// B — which custom instructions matter where. The paper's ASIP exposes two
//     families of custom instructions, SIMD processing and complex
//     arithmetic; toggling them independently isolates each family's
//     contribution: complex kernels (cdot, fdeq) collapse without cmul/cmac,
//     real kernels (fir, matmul) collapse without SIMD, iir barely moves.
// C — where the MATLAB-Coder-style baseline loses its cycles: the
//     baseline's cycle count split by cost category (arithmetic, memory,
//     loop control, bounds checks, temporary materialization) against the
//     proposed code. This substantiates the substitution argument in
//     DESIGN.md: the 2x-30x spread comes from scalar complex arithmetic,
//     per-op temporaries + checks, and unexploited SIMD — exactly the
//     mechanisms the proposed compiler removes.
// Development cost — "The proposed compiler can be employed to reduce the
//     development time/effort/cost ... by raising the abstraction of
//     application design": the LoC leverage of MATLAB over the generated C.
//
// Every proposed build in A and B is oracle-checked against the reference
// interpreter; the binary exits 1 after printing the tables if any check
// failed. The VM and per-stage compile timings live in bench_table1's timers
// and the perfbench `compile` workload.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "driver/report.hpp"

namespace {

using namespace mat2c;

int validationFailures = 0;

/// One column of a speedup sweep: proposed code for `proposedIsa` over
/// CoderLike code for `baselineIsa`, after oracle-checking the proposed build.
struct Column {
  const char* header;
  const char* proposedIsa;
  const char* baselineIsa;
};

void printSpeedupSweep(const char* heading, const std::vector<Column>& columns) {
  std::printf("%s", heading);
  std::vector<std::string> headers{"benchmark"};
  for (const Column& c : columns) headers.push_back(c.header);
  report::Table table(headers);
  Compiler compiler;
  for (auto& k : kernels::dspBenchmarkSuite()) {
    std::vector<std::string> row{k.name};
    std::vector<Matrix> reference;
    for (const Column& c : columns) {
      auto prop = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                         CompileOptions::proposed(c.proposedIsa));
      auto base = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                         CompileOptions::coderLike(c.baselineIsa));
      if (reference.empty())
        reference = interpretReference(k.source, k.entry, k.args, prop.fn().outs.size());
      vm::RunResult run = prop.run(k.args);
      if (compareToReference(reference, run.outputs) > kOracleMaxAbsErr) {
        std::fprintf(stderr, "VALIDATION FAILED: %s on %s\n", k.name.c_str(), c.proposedIsa);
        ++validationFailures;
      }
      row.push_back(report::Table::num(base.run(k.args).cycles.total / run.cycles.total, 1) +
                    "x");
    }
    table.addRow(std::move(row));
  }
  std::printf("%s\n", table.toString().c_str());
}

double categoryOf(const vm::CycleStats& s, const char* cat) {
  auto cats = s.byCategory();
  auto it = cats.find(cat);
  return it == cats.end() ? 0.0 : it->second;
}

void printAnatomy() {
  std::printf("\n=== Ablation C: baseline cycle anatomy (dspx ASIP) ===\n");
  std::printf("    per-benchmark cycles split by cost category; proposed total for "
              "contrast\n\n");
  report::Table table({"benchmark", "style", "total", "arith", "memory", "loop", "checks",
                       "allocs"});
  Compiler compiler;
  for (auto& k : kernels::dspBenchmarkSuite()) {
    auto base = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                       CompileOptions::coderLike());
    auto prop = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                       CompileOptions::proposed());
    for (bool proposed : {false, true}) {
      auto r = (proposed ? prop : base).run(k.args);
      table.addRow({proposed ? "" : k.name, proposed ? "proposed" : "coder",
                    report::Table::cycles(r.cycles.total),
                    report::Table::cycles(categoryOf(r.cycles, "arith")),
                    report::Table::cycles(categoryOf(r.cycles, "memory")),
                    report::Table::cycles(categoryOf(r.cycles, "loop")),
                    report::Table::cycles(categoryOf(r.cycles, "check")),
                    report::Table::cycles(categoryOf(r.cycles, "alloc"))});
    }
  }
  std::printf("%s\n", table.toString().c_str());

  // Second view: peel the baseline's mechanisms off one at a time with the
  // lowering toggles and attribute the gap to each (paper-style waterfall):
  //   baseline -> drop bounds checks -> fuse elementwise temps ->
  //   proposed (adds custom instructions + SIMD).
  std::printf("=== Baseline loss waterfall (share of the gap to proposed) ===\n\n");
  report::Table decomp({"benchmark", "gap (cycles)", "bounds checks",
                        "per-op temporaries", "intrinsics + SIMD"});
  for (auto& k : kernels::dspBenchmarkSuite()) {
    CompileOptions noChecks = CompileOptions::coderLike();
    noChecks.boundsChecks = false;
    CompileOptions fused = noChecks;
    fused.fuseElementwise = true;

    auto cyclesOf = [&](const CompileOptions& o) {
      auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs, o);
      return unit.run(k.args).cycles.total;
    };
    double c0 = cyclesOf(CompileOptions::coderLike());
    double c1 = cyclesOf(noChecks);
    double c2 = cyclesOf(fused);
    double c3 = cyclesOf(CompileOptions::proposed());
    double gap = c0 - c3;
    auto pct = [&](double v) { return report::Table::num(100.0 * v / gap, 0) + "%"; };
    decomp.addRow({k.name, report::Table::cycles(gap), pct(c0 - c1), pct(c1 - c2),
                   pct(c2 - c3)});
  }
  std::printf("%s\n", decomp.toString().c_str());

  // Third view: the static-shape payoff. Even *keeping* the Coder-style
  // runtime, the specializing front end can prove most checks dead
  // (eliminateProvableChecks) — something a dynamic-shape runtime cannot do.
  std::printf("=== Static-shape payoff: provable bounds-check elimination on the "
              "baseline ===\n\n");
  report::Table ce({"benchmark", "baseline cycles", "after check-elim", "checks removed",
                    "residual checks"});
  for (auto& k : kernels::dspBenchmarkSuite()) {
    CompileOptions elided = CompileOptions::coderLike();
    elided.checkElim = true;
    auto ra = compiler.compileSource(k.source, k.entry, k.argSpecs, CompileOptions::coderLike())
                  .run(k.args);
    auto b = compiler.compileSource(k.source, k.entry, k.argSpecs, elided);
    auto rb = b.run(k.args);
    ce.addRow({k.name, report::Table::cycles(ra.cycles.total),
               report::Table::cycles(rb.cycles.total),
               std::to_string(b.optimizationReport().checksRemoved),
               report::Table::cycles(categoryOf(rb.cycles, "check"))});
  }
  std::printf("%s\n", ce.toString().c_str());
}

void printLeverage() {
  std::printf("\n=== Compiler throughput and abstraction leverage ===\n\n");
  report::Table table({"benchmark", "MATLAB LoC", "generated C LoC (kernel)",
                       "leverage", "intrinsic call sites"});
  Compiler compiler;
  for (auto& k : kernels::dspBenchmarkSuite()) {
    auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                       CompileOptions::proposed());
    codegen::EmitOptions body;
    body.embedRuntime = false;
    std::string c = unit.cCode(body);
    auto mloc = std::count(k.source.begin(), k.source.end(), '\n');
    auto cloc = std::count(c.begin(), c.end(), '\n');
    int intrinsics = 0;
    for (std::size_t pos = c.find("dspx_"); pos != std::string::npos;
         pos = c.find("dspx_", pos + 1)) {
      ++intrinsics;
    }
    table.addRow({k.name, std::to_string(mloc), std::to_string(cloc),
                  report::Table::num(static_cast<double>(cloc) / mloc, 1) + "x",
                  std::to_string(intrinsics)});
  }
  std::printf("%s\n", table.toString().c_str());
}

}  // namespace

int main() {
  printSpeedupSweep("\n=== Ablation A: speedup vs SIMD width (proposed vs CoderLike baseline) "
                    "===\n    columns = f64 lanes (c64 lanes are half); dspx memory port is 8 "
                    "f64/cycle\n\n",
                    {{"W=1", "dspx_novec", "dspx_novec"},
                     {"W=2", "dspx_w2", "dspx_w2"},
                     {"W=4", "dspx_w4", "dspx_w4"},
                     {"W=8", "dspx", "dspx"},
                     {"W=16", "dspx_w16", "dspx_w16"}});
  // Ablation B keeps the paper's baseline fixed: CoderLike on the full dspx.
  printSpeedupSweep("\n=== Ablation B: contribution of the custom-instruction families ===\n"
                    "    speedup of proposed code over the CoderLike baseline on full dspx\n\n",
                    {{"full dspx", "dspx", "dspx"},
                     {"no complex unit", "dspx_nocomplex", "dspx"},
                     {"no SIMD", "dspx_novec", "dspx"}});
  printAnatomy();
  printLeverage();
  if (validationFailures > 0) {
    std::fprintf(stderr, "bench_ablations: %d oracle check(s) failed\n", validationFailures);
    return 1;
  }
  return 0;
}
