#include "bench_harness.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "driver/report.hpp"

namespace mat2c::bench {

std::string takeJsonPath(const std::string& tool, int& argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--json") != 0) {
      ++i;
      continue;
    }
    if (i + 1 >= argc || argv[i + 1][0] == '-') {
      std::fprintf(stderr, "%s: --json expects a path\n", tool.c_str());
      std::exit(2);
    }
    path = argv[i + 1];
    for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
  }
  return path;
}

bool writeFile(const std::string& tool, const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", tool.c_str(), path.c_str());
    return false;
  }
  out << text;
  return true;
}

void registerVmRun(const std::string& name, CompiledUnit unit, std::vector<Matrix> args,
                   std::map<std::string, double> counters) {
  benchmark::RegisterBenchmark(name.c_str(), [unit = std::move(unit), args = std::move(args),
                                              counters = std::move(counters)](
                                                 benchmark::State& state) {
    double cycles = 0;
    double ops = 0;
    auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
      auto r = unit.run(args);
      cycles = r.cycles.total;
      ops = static_cast<double>(r.cycles.opsExecuted);
      benchmark::DoNotOptimize(r.outputs.data());
    }
    std::chrono::duration<double, std::nano> wall = std::chrono::steady_clock::now() - start;
    state.counters["asip_cycles"] = cycles;
    state.counters["vm_ops"] = ops;
    state.counters["ns_per_op"] = wall.count() / (ops * static_cast<double>(state.iterations()));
    for (const auto& [key, value] : counters) state.counters[key] = value;
  });
}

int runTimers(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

int runSuite(const std::string& name, const std::vector<kernels::KernelSpec>& suite,
             void (*printTable)(const std::vector<SuiteRow>&), int argc, char** argv) {
  const std::string tool = "bench_" + name;
  const std::string jsonPath = takeJsonPath(tool, argc, argv);

  Compiler compiler;
  std::vector<SuiteRow> rows;
  for (const auto& k : suite) {
    SuiteRow row{k,
                 compiler.compileSource(k.source, k.entry, k.argSpecs,
                                        CompileOptions::proposed()),
                 compiler.compileSource(k.source, k.entry, k.argSpecs,
                                        CompileOptions::coderLike())};
    vm::RunResult proposed = row.proposed.run(k.args);
    vm::RunResult baseline = row.baseline.run(k.args);
    auto reference = interpretReference(k.source, k.entry, k.args, row.proposed.fn().outs.size());
    row.proposedCycles = proposed.cycles.total;
    row.baselineCycles = baseline.cycles.total;
    row.proposedErr = compareToReference(reference, proposed.outputs);
    row.baselineErr = compareToReference(reference, baseline.outputs);
    rows.push_back(std::move(row));
  }
  printTable(rows);

  if (!jsonPath.empty()) {
    std::vector<report::SpeedupRow> json;
    for (const SuiteRow& r : rows) {
      json.push_back({r.spec.name, r.baselineCycles, r.proposedCycles,
                      r.baselineCycles / r.proposedCycles, r.proposedErr, {}});
    }
    if (!writeFile(tool, jsonPath,
                   report::speedupJson(name, {report::textField("isa", "dspx")}, json))) {
      return 1;
    }
    std::fprintf(stderr, "%s: wrote %s (geomean %.2fx)\n", tool.c_str(), jsonPath.c_str(),
                 report::geomeanSpeedup(json));
  }

  for (const SuiteRow& r : rows) {
    registerVmRun(name + "/" + r.spec.name + "/proposed", r.proposed, r.spec.args);
    registerVmRun(name + "/" + r.spec.name + "/coder", r.baseline, r.spec.args);
  }
  return runTimers(argc, argv);
}

}  // namespace mat2c::bench
