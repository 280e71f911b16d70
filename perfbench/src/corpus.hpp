// The benchmark's input space, built only from the library's public corpus.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"

namespace perfbench {

/// One corpus kernel at one problem size.
struct KernelCase {
  std::string label;  // "fft@1024"
  mat2c::kernels::KernelSpec spec;
};

/// The 14 corpus kernels (the 13 of `mat2c list-kernels` plus iir16), each
/// at two or three problem sizes. Size matters most for fft, whose butterfly
/// stages unroll at compile time.
std::vector<KernelCase> kernelCases();

/// Every ISA preset (`mat2c list-isas`).
std::vector<std::string> isaPresets();

/// One point of the compile/serve request space: kernel case x style x ISA.
struct RequestPoint {
  std::size_t kernelCase = 0;
  bool coderLike = false;
  std::size_t isa = 0;
};

mat2c::CompileOptions optionsFor(const RequestPoint& p, const std::vector<std::string>& isas);

/// Arg specs in the wire / CLI syntax ("1x1024,c1x64").
std::string argSpecText(const std::vector<mat2c::sema::ArgSpec>& specs);

/// Same kernels and sizes as `base`, inputs drawn from `seed` (seed 0 keeps
/// the library's own inputs). Problem sizes are read from the arg specs, so
/// this follows the library's corpus definitions.
std::vector<mat2c::kernels::KernelSpec> reseed(
    const std::vector<mat2c::kernels::KernelSpec>& base, unsigned seed);

}  // namespace perfbench
