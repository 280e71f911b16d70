// ANSI C code generation from LIR.
//
// This is the compiler's real output (the VM is the evaluation substrate).
// The emitted translation unit is self-contained: it embeds a runtime header
// with the value types (mat2c_c64, vector structs) and *portable fallback
// definitions of every ASIP intrinsic*, so — exactly as the paper claims —
// the generated code "can be used as input to any C/C++ compiler" while the
// ASIP toolchain can map the intrinsic names onto custom instructions.
#pragma once

#include <string>

#include "isa/isa.hpp"
#include "lir/lir.hpp"

namespace mat2c::codegen {

struct EmitOptions {
  bool embedRuntime = true;  // prepend the runtime header (self-contained TU)
};

/// The kernel as a C translation unit.
std::string emitC(const lir::Function& fn, const isa::IsaDescription& isa,
                  const EmitOptions& options = {});

/// Only the function definition (no runtime header).
std::string emitFunction(const lir::Function& fn, const isa::IsaDescription& isa);

/// The C prototype, e.g. "void fir(const double* x, ..., double* y)".
std::string emitSignature(const lir::Function& fn);

/// Runtime support header for `isa`: value types, complex helpers, intrinsic
/// fallbacks for every instruction the description advertises.
std::string runtimeHeader(const isa::IsaDescription& isa);

}  // namespace mat2c::codegen
