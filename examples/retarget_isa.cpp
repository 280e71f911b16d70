// Retargeting walkthrough: describe a brand-new processor in the textual
// ISA format and watch the same MATLAB source compile to its intrinsic
// vocabulary — no compiler changes, exactly the paper's workflow.
//
//   $ ./build/examples/retarget_isa
#include <cstdio>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"

int main() {
  using namespace mat2c;

  // The kernel: a complex correlator dot product (beamformer inner loop).
  auto kernel = kernels::makeCdot(256);

  // A hypothetical audio DSP, described entirely in text. Two complex lanes,
  // a complex MAC unit, vendor-style intrinsic names.
  const char* isaText = R"(
name audiodsp
simd f64 4
simd c64 2
memlanes 4
feature fma
feature cmul
feature cmac
feature zol
feature agu
intrinsic vcmac.c64 adsp_cmac2
intrinsic vld.c64 adsp_vldc
intrinsic vconj.c64 adsp_conj2
)";
  DiagnosticEngine diags;
  CompileOptions custom;
  custom.isa = isa::IsaDescription::parse(isaText, diags);
  if (diags.hasErrors()) {
    std::fprintf(stderr, "%s", diags.renderAll().c_str());
    return 1;
  }

  Compiler compiler;
  codegen::EmitOptions bodyOnly;
  bodyOnly.embedRuntime = false;

  std::printf("One MATLAB source, three processors:\n\n%s\n", kernel.source.c_str());
  for (int i = 0; i < 3; ++i) {
    CompileOptions options = i == 0   ? CompileOptions::proposed("scalar")
                             : i == 1 ? CompileOptions::proposed("dspx")
                                      : custom;
    auto unit = compiler.compileSource(kernel.source, kernel.entry, kernel.argSpecs,
                                       options);
    auto run = unit.run(kernel.args);
    double err = compareToReference(
        interpretReference(kernel.source, kernel.entry, kernel.args, unit.fn().outs.size()),
        run.outputs);
    std::printf("--- target '%s': %.0f cycles, err=%g ---\n%s\n",
                options.isa.name().c_str(), run.cycles.total, err,
                unit.cCode(bodyOnly).c_str());
  }

  std::printf("The serialized form of the textual target (round-trippable):\n%s\n",
              custom.isa.serialize().c_str());
  return 0;
}
