// FIR workbench: the paper's comparison on one kernel, end to end.
// Compiles an FIR filter both ways, prints the two C programs side by
// side conceptually (baseline checks/temps vs intrinsics), and breaks the
// ASIP cycles down by cost category.
//
//   $ ./build/examples/fir_workbench [n] [taps]
#include <cstdio>
#include <cstdlib>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "driver/report.hpp"

int main(int argc, char** argv) {
  using namespace mat2c;

  std::int64_t n = argc > 1 ? std::atoll(argv[1]) : 2048;
  std::int64_t taps = argc > 2 ? std::atoll(argv[2]) : 32;
  auto kernel = kernels::makeFir(n, taps);
  std::printf("%s\n\n", kernel.title.c_str());

  Compiler compiler;
  auto proposed = compiler.compileSource(kernel.source, kernel.entry, kernel.argSpecs,
                                         CompileOptions::proposed());
  auto baseline = compiler.compileSource(kernel.source, kernel.entry, kernel.argSpecs,
                                         CompileOptions::coderLike());

  auto rp = proposed.run(kernel.args);
  auto rb = baseline.run(kernel.args);

  // Correctness gate first — never report cycles for wrong answers.
  auto reference = interpretReference(kernel.source, kernel.entry, kernel.args,
                                      proposed.fn().outs.size());
  std::printf("validated against the MATLAB interpreter: proposed err=%g, baseline err=%g\n\n",
              compareToReference(reference, rp.outputs),
              compareToReference(reference, rb.outputs));

  report::Table table({"metric", "coder-like baseline", "proposed"});
  auto cat = [](const vm::RunResult& r, const char* c) {
    auto cats = r.cycles.byCategory();
    auto it = cats.find(c);
    return report::Table::cycles(it == cats.end() ? 0 : it->second);
  };
  table.addRow({"total cycles", report::Table::cycles(rb.cycles.total),
                report::Table::cycles(rp.cycles.total)});
  table.addRow({"arithmetic", cat(rb, "arith"), cat(rp, "arith")});
  table.addRow({"memory", cat(rb, "memory"), cat(rp, "memory")});
  table.addRow({"bounds checks", cat(rb, "check"), cat(rp, "check")});
  table.addRow({"custom-instruction issues",
                std::to_string(rb.cycles.intrinsicOpsExecuted),
                std::to_string(rp.cycles.intrinsicOpsExecuted)});
  std::printf("%s\n", table.toString().c_str());
  std::printf("speedup: %.1fx\n\n", rb.cycles.total / rp.cycles.total);

  codegen::EmitOptions bodyOnly;
  bodyOnly.embedRuntime = false;
  std::printf("===== baseline C (MATLAB-Coder style: checks, no intrinsics) =====\n%s\n",
              baseline.cCode(bodyOnly).c_str());
  std::printf("===== proposed C (SIMD + MAC intrinsics) =====\n%s\n",
              proposed.cCode(bodyOnly).c_str());
  return 0;
}
