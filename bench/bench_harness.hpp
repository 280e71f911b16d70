// Shared pieces of the google-benchmark harnesses in bench/: the `--json`
// argument strip, the one VM-run timer, and the suite driver behind
// bench_table1 and bench_extended.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"

namespace mat2c::bench {

/// Removes every `--json <path>` pair from argv before google-benchmark sees
/// it (argv[argc] stays null) and returns the last path, or "" when absent.
/// A `--json` with no path after it prints "<tool>: --json expects a path"
/// and exits 2.
std::string takeJsonPath(const std::string& tool, int& argc, char** argv);

/// Writes `text` to `path`; prints "<tool>: cannot write '<path>'" and
/// returns false when the file cannot be opened.
bool writeFile(const std::string& tool, const std::string& path, const std::string& text);

/// Registers the timer `name` over unit.run(args). It reports the run's cycle
/// count as `asip_cycles`, its VM op count as `vm_ops`, the wall time per VM
/// op as `ns_per_op`, plus the fixed `counters`.
void registerVmRun(const std::string& name, CompiledUnit unit, std::vector<Matrix> args,
                   std::map<std::string, double> counters = {});

/// Passes the remaining argv to google-benchmark and runs every registered
/// timer.
int runTimers(int argc, char** argv);

/// One suite kernel compiled Proposed and CoderLike for dspx, with each VM
/// and interpreter run done once.
struct SuiteRow {
  kernels::KernelSpec spec;
  CompiledUnit proposed;
  CompiledUnit baseline;
  double proposedCycles = 0.0;
  double baselineCycles = 0.0;
  double proposedErr = 0.0;  // max |err| vs the interpreter
  double baselineErr = 0.0;
};

/// Suite driver of bench_table1 and bench_extended: measures every kernel
/// once, prints the table, writes `--json <path>` (bench `name`, the
/// proposed code's oracle error as max_abs_err) from the same numbers, then
/// runs the timers `<name>/<kernel>/proposed` and `<name>/<kernel>/coder`.
int runSuite(const std::string& name, const std::vector<kernels::KernelSpec>& suite,
             void (*printTable)(const std::vector<SuiteRow>&), int argc, char** argv);

}  // namespace mat2c::bench
