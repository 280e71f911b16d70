// Pass-parameter autotuner (ROADMAP item 1).
//
// The paper reports one fixed pass configuration per kernel, but the Table 1
// spread (1.7x-12.7x across the corpus) shows the profitable settings of
// `unrollMaxTrip`, fusion, LICM, CSE and friends are kernel-shaped: the iir
// recurrence wants deep unrolling so LICM can promote its state arrays,
// while a streaming MAC kernel wants the default pipeline and nothing more.
// This subsystem closes the search-then-cache loop Triton applies to GPU
// kernels, on the pass-parameter side of this compiler:
//
//   1. Candidate space — a fixed 640-point grid over the output-affecting
//      knobs the TUNE column of opt/passes.def names, in its rank order:
//      unrollMaxTrip in {1,2,4,8,16}, and vectorize / fuseLoops / licm /
//      cse / deadStores / checkElim / reassoc on/off.
//   2. Search — greedy coordinate descent from the default configuration,
//      one coordinate at a time, repeated until a full sweep finds no
//      improvement; when the whole space fits in the candidate budget the
//      search is exhaustive instead. Every evaluated signature is memoized,
//      so revisits are pruned, and the whole search runs under an optional
//      wall-clock deadline (DeadlineGuard) — on expiry the best
//      configuration found so far wins. The rest of a sweep (or the next
//      grid points) is scored speculatively: compiled in one parallel
//      batch, then VM-run in a second, once per compiled function (ISA and
//      LIR) that no earlier score ran, the first batch beside the reference
//      interpretation. Scores are committed in search order: a candidate
//      whose incumbent was replaced before its commit is scored again, so
//      the report is the sequential search's.
//   3. Scoring — each candidate compiles through the degradation-aware
//      Compiler::compileSource path and runs on the VM cycle model with
//      deterministic inputs; a candidate is accepted only when it is
//      strictly faster AND its outputs match the reference interpreter
//      within the one error bound, reassoc candidates included.
//
// The serving layer memoizes the winner's passSignature() in the compile
// cache keyed WITHOUT the pass options (service/cache_key.hpp makeTuned), so
// a warm tune request returns the tuned artifact without searching again.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"

namespace mat2c::tune {

/// What the autotuner searches over and how long it may look.
struct TuneOptions {
  /// Hard cap on candidates committed (the --budget flag). The
  /// default-configuration candidate always counts as the first one. When
  /// the full grid (searchSpaceSize()) fits under the budget the search is
  /// exhaustive; otherwise greedy coordinate descent.
  int budget = 48;
  /// Oracle bound: a candidate (reassoc ones included) whose max |error| vs
  /// the reference interpreter exceeds this is rejected no matter how fast
  /// it is. The default is the corpus-wide correctness gate.
  double maxAbsErr = kOracleMaxAbsErr;
  /// Wall-clock budget for the whole search in milliseconds (0 = none).
  /// Expiry mid-search keeps the best configuration found so far; expiry
  /// before the default configuration was scored is a Timeout error.
  double wallBudgetMillis = 0.0;
  /// Seed for deterministic VM inputs when TuneInput::args is empty.
  unsigned seed = 1;
};

/// One (kernel, ISA) pair to tune.
struct TuneInput {
  std::string source;
  std::string entry;
  std::vector<sema::ArgSpec> argSpecs;
  /// Concrete inputs for VM scoring and the interpreter oracle; when empty
  /// they are generated deterministically from argSpecs with
  /// TuneOptions::seed (the same generator the CLI --run path uses).
  std::vector<Matrix> args;
  /// Starting configuration; the search varies only the tuned coordinates,
  /// so the ISA, style, limits and degradation setting carry through to
  /// every candidate.
  CompileOptions base = CompileOptions::proposed();
};

/// One scored configuration.
struct TuneCandidate {
  std::string signature;  ///< CompileOptions::passSignature()
  double cycles = std::numeric_limits<double>::infinity();
  double maxAbsErr = 0.0;
  bool compiled = false;   ///< compile succeeded
  bool oracleOk = false;   ///< within the applicable error bound
  bool accepted = false;   ///< became the incumbent when evaluated
  std::string note;        ///< rejection / failure reason ("" when accepted)
};

/// Everything the search did, for reports and the JSON gate document.
struct TuneReport {
  std::string kernel;  ///< entry name (or caller-supplied kernel id)
  std::string isa;
  double defaultCycles = 0.0;  ///< cycles at TuneInput::base
  double tunedCycles = 0.0;    ///< cycles at the winner
  double speedup = 1.0;        ///< defaultCycles / tunedCycles
  double bestMaxAbsErr = 0.0;  ///< oracle error at the winner
  /// Candidates committed, each one compile. Speculative compiles that
  /// went stale before their commit are discarded and not counted.
  int candidatesTried = 0;
  int candidatesPruned = 0;    ///< skipped via the signature memo
  /// VM runs made: one per distinct compiled function (ISA and LIR), so
  /// configurations that compile alike share one.
  int vmRuns = 0;
  bool exhaustive = false;     ///< full grid fit under the budget
  bool budgetExhausted = false;
  bool deadlineExpired = false;
  CompileOptions best;                   ///< winning configuration
  std::vector<TuneCandidate> candidates; ///< in evaluation order
};

/// Search outcome: the report plus the unit compiled at the winner (reused
/// by the service so the tuned artifact is cached without a recompile).
struct TuneResult {
  TuneReport report;
  CompiledUnit unit;
};

/// Runs the search. Throws StructuredError when even the base configuration
/// fails to compile or misses the oracle bound (there is nothing to cache),
/// and Timeout when the deadline expires before the base was scored.
///
/// Starts threads: each batch of candidates (and the reference
/// interpretation) is scored on up to std::thread::hardware_concurrency()
/// threads, the caller's included. Worker threads do not see a
/// DeadlineGuard the caller installed for its own thread; the search's own
/// deadline bounds every candidate compile.
TuneResult autotune(const TuneInput& input, const TuneOptions& options = {});

/// Size of the full candidate grid, 640 (the exhaustive-fallback threshold;
/// exposed for tests and the CLI).
int searchSpaceSize();

/// Deterministic inputs for `specs` (the CLI --run generator); used when
/// TuneInput::args is empty.
std::vector<Matrix> makeTuneInputs(const std::vector<sema::ArgSpec>& specs, unsigned seed);

/// Human-readable per-kernel summary table for `mat2c tune`.
std::string reportTable(const std::vector<TuneReport>& reports);

/// BENCH_tuned.json document for tools/check_perf.py: per kernel,
/// baseline_cycles = the default pipeline, proposed_cycles = the tuned
/// winner, speedup = default/tuned, max_abs_err = oracle error at the
/// winner; geomean_speedup over the tuned-vs-default ratios.
std::string benchJson(const std::vector<TuneReport>& reports, const std::string& isaName);

}  // namespace mat2c::tune
