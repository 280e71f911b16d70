// Extended corpus — kernels from the authors' journal follow-up
// ("A MATLAB Vectorizing Compiler Targeting Application-Specific Instruction
//  Set Processors", 2017) plus the 5G/comms expansion (ROADMAP item 3):
// sliding cross-correlation, blockwise DCT-II, windowed frame power, the
// loop-style radix-2 FFT, QR and Cholesky factorizations, and a fused OFDM
// uplink chain built on the compiled fft builtin. Exercises the
// dynamic-start slice path, integer index-alias tracking, nested-loop
// declaration sinking, triangular loop nests and the c64 transform path
// that the six headline kernels do not cover.
//
// `--json <path>` writes the same machine-readable schema as bench_table1
// (per-kernel cycles, speedups, geomean) so tools/check_perf.py can gate the
// extended corpus against BENCH_extended.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "driver/report.hpp"

namespace {

using namespace mat2c;

void printTable(const std::vector<bench::SuiteRow>& rows) {
  std::printf("\n=== Extended kernels: proposed vs CoderLike baseline (dspx) ===\n\n");
  report::Table table({"kernel", "description", "baseline cycles", "proposed cycles",
                       "speedup", "max |err|", "vectorized loops"});
  for (const auto& row : rows) {
    table.addRow({row.spec.name, row.spec.title, report::Table::cycles(row.baselineCycles),
                  report::Table::cycles(row.proposedCycles),
                  report::Table::num(row.baselineCycles / row.proposedCycles, 1) + "x",
                  report::Table::num(std::max(row.proposedErr, row.baselineErr), 15),
                  std::to_string(row.proposed.optimizationReport().vec.loopsVectorized)});
  }
  std::printf("%s\n", table.toString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  return bench::runSuite("extended", kernels::extendedKernelSuite(), printTable, argc, argv);
}
