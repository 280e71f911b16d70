// mat2c public API.
//
// A Compiler turns MATLAB source into a CompiledUnit, which can
//   * emit the ANSI-C-with-intrinsics translation unit (the paper's output),
//   * execute on the cycle-model VM (the ASIP substitute) returning both
//     numeric results and cycle counts,
//   * be validated element-wise against the reference interpreter.
//
// Typical use:
//   mat2c::Compiler compiler;
//   mat2c::CompileOptions opts;                    // dspx, Proposed style
//   auto unit = compiler.compileSource(src, "fir",
//       {sema::ArgSpec::row(1024), sema::ArgSpec::row(64)}, opts);
//   std::string c = unit.cCode();
//   auto run = unit.run({xMatrix, hMatrix});       // outputs + cycles
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codegen/cemit.hpp"
#include "interp/interpreter.hpp"
#include "isa/isa.hpp"
#include "lower/lowering.hpp"
#include "opt/passes.hpp"
#include "support/errors.hpp"
#include "support/limits.hpp"
#include "vm/vm.hpp"

namespace mat2c {

struct CompileOptions {
  isa::IsaDescription isa = isa::IsaDescription::preset("dspx");
  lower::CodeStyle style = lower::CodeStyle::Proposed;
  /// Pass toggles, one field per row of opt/passes.def (see there and
  /// docs/pipeline.md), defaulting to the Proposed style; override for
  /// ablations.
#define MAT2C_PASS_BOOL(field, key, stage, proposed, ...) bool field = proposed;
#define MAT2C_PASS_TRI(field, key) std::optional<bool> field;
#define MAT2C_PASS_TRIP(field, key, proposed, ...) int field = proposed;
#include "opt/passes.def"

  /// Trip-count rows are clamped to [1, kUnrollTripCap] wherever they are
  /// read: the pipeline, the cache key and the tuner share this one
  /// normalization, so a programmatic caller passing 0 or a negative trip
  /// behaves (and caches) identically to 1 ("never unroll").
  static constexpr int kUnrollTripCap = 1 << 20;  // matches the CLI flag range
  static constexpr int clampTrip(int trip) {
    return trip < 1 ? 1 : (trip > kUnrollTripCap ? kUnrollTripCap : trip);
  }
  int effectiveUnrollMaxTrip() const { return clampTrip(unrollMaxTrip); }

  /// Run the LIR verifier after every optimization pass; a failure throws
  /// CompileError naming the offending pass (CLI --verify-each).
  bool verifyEach = false;
  /// Observer called after each pass with its telemetry record and the
  /// function as the pass left it (CLI --trace-passes).
  std::function<void(const opt::PassRecord&, const lir::Function&)> tracePasses;

  /// Resource bounds for this compilation (see support/limits.hpp). The
  /// serving layer maps per-request deadlines onto limits.wallBudgetMillis.
  CompileLimits limits;

  /// Canonical serialization of every option that can change the compiled
  /// output: style, pass toggles, and the lowering-mechanism overrides.
  /// Excludes the ISA (fingerprinted separately via IsaDescription) and the
  /// observation-only knobs (verifyEach, tracePasses), which cannot alter
  /// the result of a successful compile. Part of the compile-cache key.
  std::string passSignature() const;

  static CompileOptions proposed(const std::string& isaPreset = "dspx") {
    CompileOptions o;
    o.isa = isa::IsaDescription::preset(isaPreset);
    return o;
  }
  /// MATLAB-Coder-like baseline: per-op temporaries, bounds checks, no
  /// vectorization, no custom-instruction idioms.
  static CompileOptions coderLike(const std::string& isaPreset = "dspx") {
    CompileOptions o;
    o.isa = isa::IsaDescription::preset(isaPreset);
    o.style = lower::CodeStyle::CoderLike;
#define MAT2C_PASS_BOOL(field, key, stage, proposed, coder, ...) o.field = coder;
#define MAT2C_PASS_TRIP(field, key, proposed, coder, ...) o.field = coder;
#include "opt/passes.def"
    return o;
  }
};

class CompiledUnit {
 public:
  CompiledUnit(std::shared_ptr<lir::Function> fn, isa::IsaDescription isa,
               opt::PipelineReport report)
      : fn_(std::move(fn)), isa_(std::move(isa)), report_(report) {}

  const lir::Function& fn() const { return *fn_; }
  const isa::IsaDescription& isa() const { return isa_; }
  const opt::PipelineReport& optimizationReport() const { return report_; }

  /// Emitted C translation unit (self-contained with the runtime header).
  std::string cCode(const codegen::EmitOptions& options = {}) const {
    return codegen::emitC(*fn_, isa_, options);
  }
  /// LIR dump (tests/debugging).
  std::string lirDump() const { return lir::print(*fn_); }

  /// Executes on the ASIP cycle-model VM.
  vm::RunResult run(const std::vector<Matrix>& args) const {
    vm::Machine machine(isa_);
    return machine.run(*fn_, args);
  }

 private:
  std::shared_ptr<lir::Function> fn_;
  isa::IsaDescription isa_;
  opt::PipelineReport report_;
};

/// Not thread-safe: a Compiler keeps the diagnostics of its last compile, so
/// concurrent compiles need one Compiler per thread.
class Compiler {
 public:
  /// Parse + type/shape-specialize + lower + optimize. Throws
  /// StructuredError (a CompileError; message includes the first diagnostic)
  /// on any front-end error, classified per support/errors.hpp. Honors
  /// options.limits and, when options.degrade is set, retries pass failures
  /// down the degradation ladder before giving up.
  CompiledUnit compileSource(const std::string& matlabSource, const std::string& entry,
                             const std::vector<sema::ArgSpec>& args,
                             const CompileOptions& options = {});

  /// Diagnostics of the last compilation (also useful after success, for
  /// warnings).
  const DiagnosticEngine& diagnostics() const { return diags_; }

 private:
  /// One rung of the degradation ladder: lower + optimize + verify with the
  /// given (possibly degraded) options against an already-parsed program.
  CompiledUnit compileOnce(const ast::Program& program, const std::string& entry,
                           const std::vector<sema::ArgSpec>& args,
                           const CompileOptions& options,
                           const std::vector<std::string>& degraded);

  DiagnosticEngine diags_;
};

/// The correctness gate: max |error| vs the reference interpreter.
inline constexpr double kOracleMaxAbsErr = 1e-9;

/// What the source means: the reference interpreter's outputs of `entry` on
/// `args`, `nOut` (at least 1) of them -- pass the unit's fn().outs.size().
/// Compute once per (kernel, inputs). Throws CompileError on parse errors.
std::vector<Matrix> interpretReference(const std::string& matlabSource, const std::string& entry,
                                       const std::vector<Matrix>& args, std::size_t nOut);

/// Max elementwise |difference| between `reference` and a run's `outputs`
/// the caller already holds. Throws RuntimeError if the output counts differ.
double compareToReference(const std::vector<Matrix>& reference,
                          const std::vector<Matrix>& outputs);

/// interpretReference, then compareToReference with a fresh run of `unit`.
double validateAgainstInterpreter(const std::string& matlabSource, const std::string& entry,
                                  const CompiledUnit& unit, const std::vector<Matrix>& args);

}  // namespace mat2c
