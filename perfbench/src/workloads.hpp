// The three workloads. Every run executes all three so that every metric is
// always printed; the workload named on the command line is the focus and
// gets the --seconds measuring window, the other two run a fixed short dose
// (see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "corpus.hpp"

namespace perfbench {

/// Everything a run derives from --seed before it measures anything.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<KernelCase> cases;
  std::vector<std::string> isas;
  std::vector<mat2c::kernels::KernelSpec> dseCorpus;    // dse::explore corpus
  std::vector<mat2c::kernels::KernelSpec> tuneCorpus;   // one autotune each
  std::vector<mat2c::kernels::KernelSpec> table1;       // both styles, VM + oracle
  std::size_t requestSpace() const { return cases.size() * 2 * isas.size(); }
  RequestPoint point(std::size_t index) const;
};

Inputs buildInputs(std::uint64_t seed);

struct PhaseConfig {
  bool focus = false;    // measure for `seconds` instead of the fixed dose
  double seconds = 10.0;
  bool traced = false;
  std::string workDir;   // scratch space inside the checkout
  int rootSpan = -1;     // the workload's own trace span
  HostMeter* host = nullptr;  // scales CPU-bound timings (README.md)
};

WorkloadResult runCompile(const Inputs& in, const PhaseConfig& cfg);
WorkloadResult runExplore(const Inputs& in, const PhaseConfig& cfg);
WorkloadResult runServe(const Inputs& in, const PhaseConfig& cfg);

// -- pieces shared with the anchor test --------------------------------------

/// One kernel of the table-1 pass: both styles on dspx, cycles from the VM,
/// each output checked against the reference interpreter.
struct Table1Row {
  double baselineCycles = 0.0;  // CoderLike
  double proposedCycles = 0.0;
  double maxAbsErr = 0.0;       // worst of the two styles vs the interpreter
  double vmOps = 0.0;           // VM ops executed, both styles
  double vmMillis = 0.0;
  double interpMillis = 0.0;
};
Table1Row measureTable1Kernel(const mat2c::kernels::KernelSpec& spec);

}  // namespace perfbench
