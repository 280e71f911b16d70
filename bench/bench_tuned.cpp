// Autotuned-vs-default pipeline comparison (ROADMAP item 1, src/tune).
//
// The paper fixes one pass configuration for every kernel; this harness
// quantifies what per-kernel pass-parameter tuning adds on top. For each
// kernel in the tune corpus it runs the src/tune search (greedy coordinate
// descent under the default candidate budget), oracle-checks the winner
// against the reference interpreter, and reports tuned vs default cycles.
//
// --json <path> writes BENCH_tuned.json — baseline_cycles = the default
// Proposed pipeline, proposed_cycles = the tuned winner — which
// tools/check_perf.py gates in CI (ctest perf_tuned_regression): a pipeline
// change that erodes a tuned win or breaks a winner's oracle bound fails the
// gate.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "driver/kernels.hpp"
#include "tune/tune.hpp"

namespace {

using namespace mat2c;

std::vector<tune::TuneResult> runTuneSweep(const std::vector<kernels::KernelSpec>& corpus) {
  std::vector<tune::TuneResult> results;
  for (const auto& spec : corpus) {
    tune::TuneInput input;
    input.source = spec.source;
    input.entry = spec.entry;
    input.argSpecs = spec.argSpecs;
    input.args = spec.args;
    results.push_back(tune::autotune(input, tune::TuneOptions{}));
    results.back().report.kernel = spec.name;
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = bench::takeJsonPath("bench_tuned", argc, argv);

  const std::vector<kernels::KernelSpec> corpus = kernels::tuneCorpus();
  std::vector<tune::TuneResult> results;
  try {
    results = runTuneSweep(corpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_tuned: tune sweep failed: %s\n", e.what());
    return 1;
  }
  std::vector<tune::TuneReport> reports;
  for (const auto& r : results) reports.push_back(r.report);
  std::printf("\n=== Autotuned vs default pipeline (dspx) ===\n\n%s\n",
              tune::reportTable(reports).c_str());

  if (!jsonPath.empty()) {
    if (!bench::writeFile("bench_tuned", jsonPath, tune::benchJson(reports, "dspx"))) return 1;
    int improved = 0;
    for (const auto& r : reports) {
      if (r.tunedCycles < r.defaultCycles) ++improved;
    }
    std::fprintf(stderr, "bench_tuned: wrote %s (%d of %zu kernels improved)\n",
                 jsonPath.c_str(), improved, reports.size());
  }

  // Time the sweep's own winners on the two kernels where tuning wins.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].name != "iir" && corpus[i].name != "iir16") continue;
    bench::registerVmRun("tuned/" + corpus[i].name, results[i].unit, corpus[i].args,
                         {{"default_cycles", results[i].report.defaultCycles}});
  }
  return bench::runTimers(argc, argv);
}
