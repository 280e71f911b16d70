// Automatic custom-instruction design (ROADMAP item 5).
//
// The paper consumes a hand-written parameterized ISA description; the ASIP
// literature derives the instruction set from the workload instead. This
// subsystem closes that loop over the nine oracle-checked corpus kernels in
// three layers:
//
//   1. Idiom mining — walk the post-optimization LIR of every kernel and
//      extract recurring connected dataflow idioms (2-4 op patterns such as
//      mul->add, conj->mul, load->fma->store), weighted by dynamic execution
//      frequency from the VM statement profile and deduplicated by a
//      canonical pattern hash.
//   2. Candidate synthesis + cost model — the top idioms become candidate
//      fused custom instructions with an issue cost, a latency, and a
//      hardware-cost estimate in adder/multiplier/port units; the design
//      space is parameterized over SIMD lanes, complex-unit issue, fused-op
//      inclusion, and memory ports.
//   3. Exploration + emission — enumerate the space, score every point as
//      (geomean cycle-model speedup across the corpus) vs (hardware cost),
//      and emit the Pareto frontier plus an auto-generated ISA description
//      in the docs/isa_format.md textual format that IsaDescription::parse
//      loads unchanged.
//
// Structural dimensions (lanes, fma/cmul/cmac — these change what the
// compiler emits) are compiled once per configuration and kernel, and
// VM-measured once per distinct compiled function: configurations that
// compile a kernel to the same LIR share one run, since the VM's counts
// depend on the LIR alone. Cost-only dimensions (zol/agu, memory ports,
// fused-op subsets) are rescored analytically from the measured per-op
// issue counts, which is exact because the VM's total is exactly
// sum(count[op] * cost[op]).
#pragma once

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "isa/isa.hpp"
#include "lir/lir.hpp"
#include "vm/vm.hpp"

namespace mat2c::dse {

// ---------------------------------------------------------------------------
// Layer 1 — idiom mining
// ---------------------------------------------------------------------------

/// One concrete occurrence of a dataflow idiom in a specific Function: a
/// connected set of 2-4 expression nodes (optionally rooted in the enclosing
/// Store statement), each of which the VM charges exactly one ISA op per
/// execution. Node pointers refer into the mined Function, which must stay
/// alive while instances are used.
struct IdiomInstance {
  std::uint64_t hash = 0;               // canonical pattern hash
  std::string signature;                // e.g. "vfma.f64(vld.f64, vld.f64)"
  const lir::Expr* root = nullptr;      // pattern root (null for store-rooted)
  const lir::Stmt* store = nullptr;     // set when the enclosing Store is a member
  std::vector<const lir::Expr*> nodes;  // all member expressions
  std::vector<isa::Op> ops;             // the VM-charged op of each member
  double dynCount = 0.0;                // dynamic executions of the enclosing stmt
};

/// Mines every connected 2-4 node idiom from `fn`, weighting each instance by
/// the enclosing statement's dynamic execution count in `profile`. Instances
/// overlap freely (a 3-chain also yields its 2-chains); non-overlapping
/// selection happens later in tileFused(). Only node kinds the VM charges as
/// exactly one op are members (loads, stores, splats, neg/conj, add/sub/mul,
/// fma), so fused-candidate savings computed from instances match the VM's
/// FusedCosting hook exactly.
std::vector<IdiomInstance> mineFunction(const lir::Function& fn,
                                        const vm::StmtProfile& profile);

/// A deduplicated idiom aggregated across the corpus.
struct MinedIdiom {
  std::uint64_t hash = 0;
  std::string signature;
  std::vector<isa::Op> ops;
  double dynCount = 0.0;  // summed dynamic occurrences across all kernels
  int kernels = 0;        // number of kernels the idiom appears in
};

/// Aggregates per-kernel instance lists by canonical hash; result is sorted
/// by descending dynCount.
std::vector<MinedIdiom> aggregateIdioms(
    const std::vector<std::vector<IdiomInstance>>& perKernel);

// ---------------------------------------------------------------------------
// Layer 2 — candidate synthesis + cost model
// ---------------------------------------------------------------------------

/// A synthesized fused custom instruction: one idiom promoted to a single
/// issue with a cycle cost, latency, and incremental hardware cost.
struct CandidateInstr {
  std::uint64_t hash = 0;  // pattern hash this candidate fuses
  std::string name;        // vm::CycleStats::fusedCycles key, e.g. "fused.vfma_f64+2vld_f64"
  std::string signature;
  std::vector<isa::Op> ops;
  double cycles = 1.0;   // issue cost: max(member, ceil(sum/2)) — dual-issue fusion
  double latency = 0.0;  // sum of member costs (pipeline depth estimate)
  double hwUnits = 0.0;  // incremental datapath units per SIMD lane
  double dynCount = 0.0;
  int kernels = 0;
  double estSavedCycles = 0.0;  // (sum member costs - cycles) * dynCount at costRef
};

/// Promotes the most profitable mined idioms to candidates, ranked by
/// estimated saved cycles under `costRef`'s cost table; keeps the top `topK`.
std::vector<CandidateInstr> synthesizeCandidates(const std::vector<MinedIdiom>& idioms,
                                                 const isa::IsaDescription& costRef,
                                                 int topK);

/// Hardware-cost estimate of a target in abstract datapath units (adders,
/// multipliers, memory ports, control): base scalar core + SIMD datapath
/// scaled by lanes + per-feature unit costs + memory-port width. The same
/// scale scores fused candidates, so (speedup, hwCost) points are comparable
/// across the whole design space. dspx lands at 70 units.
double hwCostEstimate(const isa::IsaDescription& d);

// ---------------------------------------------------------------------------
// Layer 3 — exploration + emission
// ---------------------------------------------------------------------------

/// One point in the parameterized design space.
struct DesignPoint {
  int lanesF64 = 1;
  int lanesC64 = 1;
  int memLanes = 8;
  bool fma = false;
  bool cmul = false;
  bool cmac = false;  // requires cmul
  bool zol = false;   // zero-overhead loops + AGUs toggle together
  bool agu = false;
  std::vector<int> fused;  // indices into ExploreResult::candidates

  std::string label() const;  // e.g. "w8 fma+cmul+cmac zol+agu m8"
};

/// Materializes a point as a loadable IsaDescription (fused entries excluded:
/// they are not expressible in the textual format and are costed via the VM
/// FusedCosting hook / analytic rescoring instead).
isa::IsaDescription toIsa(const DesignPoint& p, const std::string& name);

/// Greedy non-overlapping tiling of `instances` by the selected candidates
/// (most-profitable-first) under `variant` costs. Returns the analytic saved
/// cycles; when `out` is non-null, also fills the VM costing hook that
/// realizes exactly that saving, so analytic and measured totals agree.
double tileFused(const std::vector<IdiomInstance>& instances,
                 const std::vector<CandidateInstr>& candidates,
                 const std::vector<int>& selection, const isa::IsaDescription& variant,
                 vm::FusedCosting* out = nullptr);

/// One kernel compiled for one structural configuration, and what the VM
/// measured of it.
struct KernelEval {
  const kernels::KernelSpec* spec = nullptr;  // jobs of one kernel share it
  std::shared_ptr<const CompiledUnit> unit;   // null when compiling threw
  std::exception_ptr error;                   // what compiling or measuring threw
  vm::CycleStats::PerOp countByOp{};          // per-op issue counts of the run
  /// Mined with the run's statement profile; node pointers refer into
  /// `unit`'s LIR, which the shared pointer keeps alive.
  std::vector<IdiomInstance> instances;
};

/// Measures compiled jobs (VM run on spec->args + mineFunction) in one
/// fork-join, with one VM run per distinct compiled function: a job whose
/// spec and lir::print of its LIR equal an earlier job's takes that job's
/// counts, instances and unit. A job whose own ISA cannot cost an op that
/// run issued runs the VM itself, so it raises what the VM raises there.
/// Jobs that already hold an error are skipped. Then rethrows the error of
/// the lowest-index job that has one, the error a sequential
/// compile-then-measure loop would throw first. Returns the VM runs made.
int measureDistinct(std::vector<KernelEval>& jobs);

struct PointScore {
  DesignPoint point;
  double geomean = 0.0;  // geomean speedup vs the scalar preset
  double hwCost = 0.0;
  std::map<std::string, double> kernelCycles;
  bool expressible = true;  // no fused ops -> emittable as an .isa file
  bool measured = false;    // cycles from a VM run (vs analytic rescoring)
};

struct ExploreOptions {
  /// Kernels to score; empty means kernels::dseCorpus().
  std::vector<kernels::KernelSpec> corpus;
  std::vector<int> laneWidths = {2, 4, 8, 16};
  int topCandidates = 4;     // fused candidates admitted to the space
  bool exploreFused = true;  // include fused-op inclusion as a dimension
  std::ostream* progress = nullptr;  // optional progress lines (CLI)
};

struct ExploreResult {
  std::vector<MinedIdiom> idioms;        // ranked, at most 16
  std::vector<CandidateInstr> candidates;
  std::vector<PointScore> pareto;        // frontier, ascending hwCost
  PointScore best;     // expressible winner at hwCost <= dspx (VM-measured)
  PointScore dspxRef;  // the hand-written dspx preset (VM-measured)
  std::map<std::string, double> scalarCycles;   // speedup baseline per kernel
  std::map<std::string, double> bestMaxAbsErr;  // oracle |err| at best point
  isa::IsaDescription bestIsa;
  int pointsEvaluated = 0;
  int structuralVmRuns = 0;  // VM runs of the structural sweep (measureDistinct)
};

/// Runs the full mine -> synthesize -> explore loop. Throws StructuredError /
/// std::runtime_error on compile or oracle failures; when several kernels
/// fail, the error is the one a sequential loop over the jobs would throw
/// first.
///
/// Starts threads: the structural measurements and the winner's oracle
/// checks run on up to std::thread::hardware_concurrency() threads, the
/// caller's included, and progress lines are written from the calling thread
/// only. Worker threads do not see a DeadlineGuard the caller installed for
/// its own thread (DeadlineGuard::current() is thread-local).
ExploreResult explore(const ExploreOptions& opts = {});

// -- reporting / emission ----------------------------------------------------

std::string idiomTable(const ExploreResult& r);
std::string candidateTable(const ExploreResult& r);
std::string paretoTable(const ExploreResult& r);

/// Full text of the auto-generated examples/isa/auto_*.isa file: a comment
/// header (provenance, score, unexpressible fused candidates) followed by
/// bestIsa.serialize(); IsaDescription::parse loads it unchanged.
std::string isaFileText(const ExploreResult& r);

/// BENCH_dse.json document for tools/check_perf.py: per-kernel cycles at the
/// best point vs the scalar baseline, geomean, hardware cost, and the dspx
/// reference block the gate compares against.
std::string benchJson(const ExploreResult& r);

}  // namespace mat2c::dse
