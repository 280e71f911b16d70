// Optimization passes over LIR.
//
// The pipeline mirrors the paper's compiler flow: constant folding
// normalizes index arithmetic, idiom recognition maps multiply-accumulate
// and complex-arithmetic patterns onto the ASIP's custom scalar
// instructions, and the vectorizer strip-mines innermost loops onto the SIMD
// lane width the active ISA description advertises (with a scalar remainder
// loop). Every transformation is gated on IsaDescription::supports, so
// retargeting is purely a matter of swapping the description.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "lir/lir.hpp"

namespace mat2c::opt {

/// Folds constant scalar arithmetic, canonicalizes affine i64 index
/// expressions ((k - 1) + 1 -> k), and propagates single-assignment i64
/// constants (strip-mine bounds) into their uses so later passes see
/// literal loop bounds.
void constFold(lir::Function& fn);

/// Sinks frame-level declarations of loop-local temporaries into the loop
/// body that owns them, exposing per-iteration privatization to the
/// vectorizer.
void sinkDecls(lir::Function& fn);

/// Rewrites a*b + c into fused multiply-accumulate expressions when the
/// target has the corresponding instruction (fma.f64 / cmac.c64).
/// With `reassociate` set it additionally rewrites (a*b - y) + z into
/// fma(a, b, z) - y; that changes floating-point association (bounded
/// rounding noise, see EXPERIMENTS.md), so it is gated behind an explicit
/// option that defaults off. Returns the number of rewrites.
int recognizeIdioms(lir::Function& fn, const isa::IsaDescription& isa,
                    bool reassociate = false);

struct VectorizeStats {
  int loopsConsidered = 0;
  int loopsVectorized = 0;
  int reductionsVectorized = 0;
  /// One human-readable note per rejected innermost loop — the compiler's
  /// "-Rpass-missed" channel, surfaced by the CLI.
  std::vector<std::string> missed;
};

/// SIMD-vectorizes innermost loops: stride-1 loads/stores, reduction
/// accumulators, splat of loop invariants; emits a scalar remainder loop.
VectorizeStats vectorize(lir::Function& fn, const isa::IsaDescription& isa);

/// Removes Assign/DeclScalar statements whose target is never read (pure
/// right-hand sides make this always safe), in at most 32 removal levels.
/// Returns the number of levels removed.
int eliminateDeadScalars(lir::Function& fn);

/// Dead-store/dead-loop cleanup: drops stores into local arrays that are
/// never loaded, removes For loops with empty bodies or provably zero trip
/// counts, empty If statements, and unreferenced local array declarations.
/// Returns the number of statements/arrays removed.
int eliminateDeadStores(lir::Function& fn);

/// Fuses adjacent For loops with affine-equal iteration spaces and no
/// fusion-preventing dependence, hoisting independent intervening
/// statements out of the way first. Returns the number of fusions.
int fuseLoops(lir::Function& fn);

/// Fully unrolls compile-time-constant-trip loops (trip in [2, maxTrip])
/// that carry a non-reduction scalar recurrence, turning their indices into
/// literals that LICM can then hoist or promote. Returns loops unrolled.
/// With maxStatements > 0 an unroll whose expansion would push the
/// function's statement count past the budget is skipped (not an error —
/// the loop simply stays rolled).
int unrollRecurrences(lir::Function& fn, int maxTrip, std::size_t maxStatements = 0);

struct LicmStats {
  int exprsHoisted = 0;     // invariant subexpressions + preloaded elements
  int scalarsPromoted = 0;  // array elements promoted to registers
};

/// Loop-invariant code motion: hoists invariant f64/c64 subexpressions out
/// of For loops and promotes arrays whose in-loop accesses all use constant
/// in-bounds indices to scalars (preload / writeback around the loop).
LicmStats hoistLoopInvariants(lir::Function& fn);

/// Region CSE with store-to-load forwarding (see src/opt/cse.cpp for the
/// precise availability rules). Returns the number of re-evaluations
/// replaced by register references.
int eliminateCommonSubexprs(lir::Function& fn);

/// Removes BoundsCheck statements whose affine index provably stays inside
/// the (static) array extent. Returns the number of checks removed.
int eliminateProvableChecks(lir::Function& fn);

/// Telemetry for one executed pass: wall-clock time, LIR size before/after,
/// and the pass-specific counters (zero for passes without one). Surfaced
/// through PipelineReport::passes, the CLI's --time-passes/--telemetry-json,
/// and the benches.
struct PassRecord {
  std::string name;
  double millis = 0.0;
  lir::FunctionStats before;
  lir::FunctionStats after;
  int checksRemoved = 0;
  int idiomRewrites = 0;
  int loopsVectorized = 0;
  int loopsFused = 0;
  int loopsUnrolled = 0;
  int exprsHoisted = 0;
  int scalarsPromoted = 0;
  int cseEliminated = 0;
  int storesRemoved = 0;

  /// Whether the pass changed the function's *size* statistics. A pass can
  /// rewrite in place without moving these (e.g. constant folding), so false
  /// does not prove the pass was a no-op.
  bool resized() const { return !(before == after); }
};

struct PipelineOptions {
  /// The pipeline rows of opt/passes.def (stage PIPELINE), under the same
  /// names and defaults as CompileOptions; standardPipeline() reads them.
#define PIPELINE(...) __VA_ARGS__
#define DRIVER(...)
#define MAT2C_PASS_BOOL(field, key, stage, proposed, ...) stage(bool field = proposed;)
#define MAT2C_PASS_TRIP(field, key, proposed, ...) int field = proposed;
#include "opt/passes.def"
  /// Run lir::verify after every pass; a failure throws StructuredError
  /// (VerifyError) naming the offending pass and listing every verifier
  /// problem.
  bool verifyEach = false;
  /// Resource guard: when > 0, a pass that *grows* the function past this
  /// many LIR statements throws StructuredError(ResourceExhausted) naming
  /// the pass. Growth-gated so a program that is already large compiles
  /// unchanged under a tight budget; size-increasing passes (unroll) also
  /// receive the budget and skip expansions instead of tripping it.
  std::size_t maxLirOps = 0;
  /// Called after each pass with its record and the function as the pass
  /// left it — the CLI's --trace-passes hook (dumps via lir::print).
  std::function<void(const PassRecord&, const lir::Function&)> trace;
};

struct PipelineReport {
  int idiomRewrites = 0;
  int checksRemoved = 0;
  int loopsFused = 0;
  int loopsUnrolled = 0;
  int exprsHoisted = 0;
  int scalarsPromoted = 0;
  int cseEliminated = 0;
  int storesRemoved = 0;
  VectorizeStats vec;
  /// One record per executed pass, in execution order.
  std::vector<PassRecord> passes;
  double totalMillis = 0.0;
  /// Degradation-ladder markers recorded by the driver: names of passes the
  /// compile retried without, plus "coderLike" when it fell back entirely.
  /// Empty on a clean first-attempt compile.
  std::vector<std::string> degraded;
};

/// The pass counters, X(PassRecord field, PipelineReport total), in telemetry
/// order: PassPipeline::run sums them, telemetryJson and passTable print them.
#define MAT2C_PASS_COUNTERS(X)            \
  X(checksRemoved, checksRemoved)         \
  X(idiomRewrites, idiomRewrites)         \
  X(loopsVectorized, vec.loopsVectorized) \
  X(loopsFused, loopsFused)               \
  X(loopsUnrolled, loopsUnrolled)         \
  X(exprsHoisted, exprsHoisted)           \
  X(scalarsPromoted, scalarsPromoted)     \
  X(cseEliminated, cseEliminated)         \
  X(storesRemoved, storesRemoved)

/// An ordered, named sequence of passes run through the instrumented
/// harness. The standard pipeline is built by standardPipeline(); tests and
/// tools may assemble custom sequences (e.g. to inject a deliberately broken
/// pass and check verifyEach attribution).
class PassPipeline {
 public:
  /// A pass body: mutates the function and sets its PassRecord counters
  /// (run() sums them into the report); extras go to the report directly.
  using PassFn = std::function<void(lir::Function&, const isa::IsaDescription&,
                                    PassRecord&, PipelineReport&)>;

  PassPipeline& addPass(std::string name, PassFn fn);

  /// Runs every pass in order, recording wall time and LIR stats around
  /// each. Honors options.verifyEach and options.trace.
  PipelineReport run(lir::Function& fn, const isa::IsaDescription& isa,
                     const PipelineOptions& options) const;

  std::size_t size() const { return passes_.size(); }
  std::vector<std::string> names() const;

 private:
  struct Pass {
    std::string name;
    PassFn fn;
  };
  std::vector<Pass> passes_;
};

/// Builds the standard pass order from the option toggles:
///   constfold -> dce -> checkelim -> sinkdecls -> unroll -> idioms
///   -> vectorize -> constfold.post -> dce.post -> fuse -> licm -> cse
///   -> dce.final
/// Unrolling runs before the vectorizer (it only touches loops the
/// vectorizer rejects, and the literal indices it exposes are what LICM
/// promotes). Fusion/LICM/CSE run after the vectorizer and after the .post
/// cleanup: fusing earlier could trade SIMD for locality, and the cleanup's
/// constant propagation is what turns strip-mine bounds into the literals
/// the fusion legality test needs.
PassPipeline standardPipeline(const PipelineOptions& options);

/// Builds the standard pipeline and runs it.
PipelineReport runPipeline(lir::Function& fn, const isa::IsaDescription& isa,
                           const PipelineOptions& options);

}  // namespace mat2c::opt
