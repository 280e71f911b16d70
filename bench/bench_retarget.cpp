// Retargetability — the paper's parameterized-ISA claim.
//
// "The proposed compiler allows the description of the specialized
//  instruction set of the target processor in a parameterized way allowing
//  the support of any processor."
//
// This harness compiles the same MATLAB kernels against (a) built-in
// presets and (b) a *textual ISA description parsed at run time* with custom
// intrinsic spellings, then shows that the emitted C switches intrinsic
// vocabularies with zero compiler changes and that cycle counts follow the
// described datapaths.
//
// It is also the DSE harness (ROADMAP item 5): --json <path> runs the full
// src/dse exploration loop over the nine-kernel corpus and writes
// BENCH_dse.json — the best auto-designed ISA's per-kernel cycles vs the
// scalar baseline plus the dspx reference block — which tools/check_perf.py
// gates in CI (ctest perf_dse_regression).
#include <cstdio>
#include <string>

#include "bench_harness.hpp"
#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "driver/report.hpp"
#include "dse/dse.hpp"

namespace {

using namespace mat2c;

const char* kCustomIsaText = R"(
# "vecstar" — a hypothetical licensed vector DSP, described textually.
name vecstar
simd f64 4
simd c64 2
memlanes 4
feature fma
feature cmul
feature cmac
feature zol
feature agu
cost cmul.c64 2
intrinsic vfma.f64 vs_mac4d
intrinsic vld.f64 vs_load4d
intrinsic vst.f64 vs_store4d
intrinsic vcmul.c64 vs_cxmul2
)";

isa::IsaDescription customIsa() {
  DiagnosticEngine diags;
  auto d = isa::IsaDescription::parse(kCustomIsaText, diags);
  if (diags.hasErrors()) std::fprintf(stderr, "%s", diags.renderAll().c_str());
  return d;
}

/// Proposed options for an ISA preset, or for the textual "vecstar".
CompileOptions targetOptions(const std::string& target) {
  CompileOptions opts = CompileOptions::proposed();
  opts.isa = target == "vecstar" ? customIsa() : isa::IsaDescription::preset(target);
  return opts;
}

int countOccurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Prints the retargeting table; returns false when any oracle check failed.
bool printTable() {
  bool ok = true;
  std::printf("\n=== Retargeting: one MATLAB source, four ISA descriptions ===\n\n");
  report::Table table({"kernel", "target", "f64xW", "c64xW", "cycles", "speedup vs scalar",
                       "intrinsic calls in C"});
  Compiler compiler;
  for (const char* kernel : {"fir", "fdeq"}) {
    auto k = kernels::kernelByName(kernel);
    double scalarCycles = 0;
    std::vector<Matrix> reference;
    for (std::string target : {"scalar", "dspx_w4", "dspx", "vecstar"}) {
      CompileOptions opts = targetOptions(target);
      std::string label = target == "vecstar" ? "vecstar (textual)" : target;
      auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs, opts);
      if (reference.empty())
        reference = interpretReference(k.source, k.entry, k.args, unit.fn().outs.size());
      vm::RunResult run = unit.run(k.args);
      if (compareToReference(reference, run.outputs) > kOracleMaxAbsErr) {
        std::fprintf(stderr, "VALIDATION FAILED: %s on %s\n", kernel, label.c_str());
        ok = false;
      }
      double cycles = run.cycles.total;
      if (target == "scalar") scalarCycles = cycles;
      codegen::EmitOptions body;
      body.embedRuntime = false;
      std::string c = unit.cCode(body);
      int intrinsics = countOccurrences(c, opts.isa.name() + "_") +
                       countOccurrences(c, "vs_");
      table.addRow({target == "scalar" ? k.name : "", label, std::to_string(opts.isa.lanesF64()),
                    std::to_string(opts.isa.lanesC64()), report::Table::cycles(cycles),
                    report::Table::num(scalarCycles / cycles, 1) + "x",
                    std::to_string(intrinsics)});
    }
  }
  std::printf("%s\n", table.toString().c_str());

  // Show a slice of the emitted C for the textual target, proving the
  // intrinsic vocabulary follows the description.
  auto k = kernels::kernelByName("fir");
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs, targetOptions("vecstar"));
  codegen::EmitOptions body;
  body.embedRuntime = false;
  std::string c = unit.cCode(body);
  std::printf("--- fir inner loop emitted for 'vecstar' (textual description) ---\n");
  std::size_t pos = c.find("vs_mac4d");
  if (pos != std::string::npos) {
    std::size_t start = c.rfind('\n', c.rfind('\n', pos) - 1) + 1;
    std::size_t stop = c.find('\n', c.find('\n', pos) + 1);
    std::printf("%s\n\n", c.substr(start, stop - start).c_str());
  }
  return ok;
}

/// Runs the src/dse exploration loop over the nine-kernel corpus and writes
/// the BENCH_dse.json regression baseline (schema mirrors BENCH_table1.json
/// plus the hw_cost / reference fields check_perf.py gates).
bool writeDseJson(const std::string& path) {
  try {
    dse::ExploreResult r = dse::explore(dse::ExploreOptions{});
    if (!bench::writeFile("bench_retarget", path, dse::benchJson(r))) return false;
    std::fprintf(stderr,
                 "bench_retarget: wrote %s (auto ISA '%s': geomean %.2fx at hw %.0f; "
                 "dspx %.2fx at %.0f; %d points)\n",
                 path.c_str(), r.bestIsa.name().c_str(), r.best.geomean, r.best.hwCost,
                 r.dspxRef.geomean, r.dspxRef.hwCost, r.pointsEvaluated);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_retarget: explore failed: %s\n", e.what());
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = bench::takeJsonPath("bench_retarget", argc, argv);
  if (!jsonPath.empty() && !writeDseJson(jsonPath)) return 1;
  if (!printTable()) return 1;
  auto k = kernels::kernelByName("fir");
  Compiler compiler;
  for (std::string t : {"scalar", "dspx", "vecstar"}) {
    bench::registerVmRun("retarget/fir/" + t,
                         compiler.compileSource(k.source, k.entry, k.argSpecs, targetOptions(t)),
                         k.args);
  }
  return bench::runTimers(argc, argv);
}
