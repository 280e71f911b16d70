// LIR virtual machine with an ASIP cycle model.
//
// This is the substitute for the paper's proprietary ASIP toolchain and
// board: it executes the exact operations the emitted C expresses (each
// custom instruction = one VM op) and charges each op the cycle cost the
// active IsaDescription assigns it. Numeric results are bit-identical to
// what the portable C fallbacks compute, so outputs can be validated against
// the reference interpreter while cycles are being counted.
//
// Resolve once, then execute. Each Machine::run first walks the function
// once and builds a plan parallel to the LIR: every node's isa::Op (one
// lir::selectOp per node), its cost and intrinsic flag from the per-Machine
// tables (filled once from IsaDescription::cost and usesIntrinsic), a dense
// slot for every scalar and array name, and its FusedCosting member, store
// member and root status as flags. Execution then runs over that plan with
// no name lookups, no cost queries and no heap allocation per node: f64
// lanes and f64 arrays are held as double (never as a complex number with
// a zero imaginary part, which inf * 0 would turn into NaN), c64 lanes as
// Complex, and statement counts go to a dense vector that is added to the
// StmtProfile once, at the end of the run.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "interp/value.hpp"
#include "isa/isa.hpp"
#include "lir/lir.hpp"

namespace mat2c::vm {

/// The cycle ledger of one run: cycles and issue counts per isa::Op. The
/// total is exactly sum(countByOp[op] * cost(op)) plus the fused roots'
/// cycles, which is what dse::explore's analytic rescoring relies on.
struct CycleStats {
  using PerOp = std::array<double, isa::kNumOps>;
  double total = 0.0;
  PerOp byOp{};       // cycles, indexed by isa::Op
  PerOp countByOp{};  // issue count, indexed by isa::Op
  std::uint64_t opsExecuted = 0;
  std::uint64_t intrinsicOpsExecuted = 0;    // ops that map to custom instructions
  /// Cycles the installed FusedCosting removed (member-op charges replaced by
  /// fused-instruction charges). total already reflects the replacement.
  double fusedSavedCycles = 0.0;
  std::uint64_t fusedOpsExecuted = 0;
  std::map<std::string, double> fusedCycles;  // by FusedCosting::Root name

  void charge(const isa::IsaDescription& isa, isa::Op op, double count = 1.0);
  double count(isa::Op op) const { return countByOp[static_cast<std::size_t>(op)]; }
  /// Where cycles went, for the baseline-anatomy split: "memory" (loads and
  /// stores), "loop" (Branch, LoopOverhead), "check" (BoundsCheck), "alloc"
  /// (AllocTemp) and "arith" (everything else, fused roots too). Lists each
  /// category charged at least once, zero-cost charges (zol loops) included.
  std::map<std::string, double> byCategory() const;
};

struct RunResult {
  std::vector<Matrix> outputs;  // in Function::outs order
  CycleStats cycles;
};

/// Per-statement dynamic execution counts, keyed by Stmt identity within the
/// executed Function. The DSE idiom miner weighs statically mined dataflow
/// patterns by these counts so candidate custom instructions are ranked by
/// dynamic frequency, not source occurrence.
using StmtProfile = std::map<const lir::Stmt*, std::uint64_t>;

/// Costing hook for synthesized fused custom instructions (DSE candidate
/// evaluation). Nodes in `members` (and Store statements in `storeMembers`)
/// have their normal per-op charges suppressed; each expression in `roots`
/// instead charges `cycles` once per execution under the fused instruction's
/// name. The sets refer to nodes of the specific Function being run; matching
/// is by pointer identity, so the annotation pre-pass is free of any
/// per-execution pattern matching.
struct FusedCosting {
  struct Root {
    std::string name;  // CycleStats::fusedCycles key, e.g. "fused.vld_vfma"
    double cycles = 1.0;
  };
  std::map<const lir::Expr*, Root> roots;
  std::set<const lir::Expr*> members;
  std::set<const lir::Stmt*> storeMembers;  // Store statements folded into a root
};

class Machine {
 public:
  explicit Machine(const isa::IsaDescription& isa);

  /// Executes `fn` with MATLAB-value arguments (shapes must match the
  /// parameter declarations). Throws RuntimeError on numeric/shape faults.
  RunResult run(const lir::Function& fn, const std::vector<Matrix>& args);

  void setMaxOps(std::uint64_t maxOps) { maxOps_ = maxOps; }
  /// Optional per-statement execution profile, filled during run().
  void setProfile(StmtProfile* profile) { profile_ = profile; }
  /// Optional fused-instruction costing table (not owned; must outlive run()).
  void setFusedCosting(const FusedCosting* fused) { fused_ = fused; }

 private:
  const isa::IsaDescription& isa_;
  // IsaDescription::cost (NaN where it throws) and usesIntrinsic of every
  // op, read once here so no run asks the description again.
  CycleStats::PerOp costs_{};
  std::array<bool, isa::kNumOps> intrinsic_{};
  std::uint64_t maxOps_ = 2'000'000'000;
  StmtProfile* profile_ = nullptr;
  const FusedCosting* fused_ = nullptr;
};

}  // namespace mat2c::vm
