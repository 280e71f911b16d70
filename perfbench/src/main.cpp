// mat2c_perfbench — runs the compile, explore and serve workloads from one
// seed, checks every output, and prints the metrics as the last line of
// stdout (one JSON object). README.md describes the workloads and metrics.
//
//   mat2c_perfbench --workload compile|explore|serve --seed N --seconds S
//                   --trace 0|1 --work-dir DIR
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// records spans and prints the per-layer metrics; it also writes a Chrome
// trace-event file and a per-module self-time table into DIR.
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "service/compile_service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const char* const kWorkloads[] = {"compile", "explore", "serve"};
constexpr int kSetups = 9;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mat2c_perfbench: " << why
            << "\nusage: mat2c_perfbench --workload compile|explore|serve --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n";
  std::exit(2);
}

/// Set-up: derive every input from the seed, and bring a CompileService with
/// an artifact store up and down once (first-compile lazy initialization
/// included). Returns the inputs of the last repetition; `setupSeconds` is
/// the host-normalized median.
Inputs setUp(std::uint64_t seed, const std::string& workDir, HostMeter& host,
             double& setupSeconds) {
  std::vector<double> times;
  Inputs in;
  ScaledClock clock(host);
  for (int i = 0; i < kSetups; ++i) {
    in = buildInputs(seed);
    std::string dir = workDir + "/setup";
    std::filesystem::remove_all(dir);
    {
      mat2c::service::CompileService::Config sc;
      sc.threads = 1;
      sc.storeDir = dir;
      mat2c::service::CompileService svc(sc);
      mat2c::service::CompileRequest req;
      const auto& spec = in.cases.front().spec;
      req.source = spec.source;
      req.entry = spec.entry;
      req.args = spec.argSpecs;
      if (!svc.submit(req).get().ok) throw std::runtime_error("set-up compile failed");
    }
    std::filesystem::remove_all(dir);
    double before = clock.seconds();
    clock.tick();
    times.push_back(clock.seconds() - before);
  }
  setupSeconds = median(times);
  return in;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metricsJson(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + number(metric.value) + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

/// Writes the Chrome trace and the per-module self-time table, and checks the
/// workload design against the trace: no VM, interpreter or service time on
/// compile, no VM time on serve, and VM + interpreter as the majority of the
/// explore replay. Returns whether the design checks hold. (The compile and
/// serve workloads also check the design against what the program reports:
/// the stage share of compileSource time, and the service's autotune count.)
bool writeTraceReport(const std::string& dir, const std::string& tag,
                      const std::vector<std::pair<std::string, int>>& roots,
                      double exploreVmInterpShare) {
  std::vector<trace::Span> spans = trace::spans();
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/" + tag + ".trace.json") << trace::chromeTraceJson(spans);
  std::ostringstream table;
  table << "self time per module (ms), spans recorded by the benchmark around public calls\n";
  bool designOk = exploreVmInterpShare > 0.5;
  for (const auto& [workload, root] : roots) {
    table << "\n[" << workload << "]\n";
    auto self = trace::selfTimeByModule(spans, root);
    for (const auto& [module, ms] : self) {
      char line[96];
      std::snprintf(line, sizeof line, "  %-18s %12.3f\n", module.c_str(), ms);
      table << line;
    }
    if (workload == "compile")
      designOk = designOk && !self.count("vm") && !self.count("interp") &&
                 !self.count("compile_service");
    if (workload == "serve") designOk = designOk && !self.count("vm");
  }
  table << "\nexplore replay: vm + interp share of self time " << exploreVmInterpShare
        << "\ndesign checks: " << (designOk ? "ok" : "FAILED") << "\n";
  std::ofstream(dir + "/" + tag + ".selftime.txt") << table.str();
  std::cerr << table.str();
  return designOk;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, workDir = ".bench_build/work";
  long long seed = -1;
  double seconds = -1;
  int traceFlag = -1;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoll(v.c_str(), &end, 10);
    else if (a == "--seconds") seconds = std::strtod(v.c_str(), &end);
    else if (a == "--trace") traceFlag = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    else if (a == "--work-dir") workDir = v;
    else usage("unknown flag " + a);
    if (end && *end) usage("bad value for " + a + ": " + v);
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || workload == w;
  if (!known) usage("unknown workload '" + workload + "'");
  if (seed < 0 || !(seconds > 0) || (traceFlag != 0 && traceFlag != 1))
    usage("--seed, --seconds and --trace are required");
  const bool traced = traceFlag == 1;

  double setupS = 0;
  HostMeter host;
  Inputs in = setUp(static_cast<std::uint64_t>(seed), workDir, host, setupS);
  trace::setEnabled(traced);

  WorkloadResult all;
  std::vector<std::pair<std::string, int>> roots;
  for (const char* w : kWorkloads) {
    PhaseConfig cfg;
    cfg.focus = workload == w;
    cfg.seconds = seconds;
    cfg.traced = traced;
    cfg.workDir = workDir;
    cfg.host = &host;
    WorkloadResult r;
    auto phaseStart = Clock::now();
    {
      trace::Scope root("bench", w);
      cfg.rootSpan = root.index();
      roots.emplace_back(w, root.index());
      std::string name = w;
      if (name == "compile") r = runCompile(in, cfg);
      else if (name == "explore") r = runExplore(in, cfg);
      else r = runServe(in, cfg);
    }
    all.endToEnd.insert(r.endToEnd.begin(), r.endToEnd.end());
    all.perLayer.insert(r.perLayer.begin(), r.perLayer.end());
    all.counts.insert(r.counts.begin(), r.counts.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
    std::cerr << "phase " << w << (cfg.focus ? " (focus)" : " (dose)") << ": "
              << secondsSince(phaseStart) << " s, " << r.attempted << " ops, " << r.failed
              << " failed\n";
    for (const auto& f : r.failures) std::cerr << "FAILED [" << w << "] " << f << "\n";
  }
  trace::setEnabled(false);

  if (traced) {
    ++all.attempted;
    if (!writeTraceReport(workDir + "/report", workload + "-seed" + std::to_string(seed), roots,
                          all.perLayer["bench.explore_vm_interp_share"].value)) {
      ++all.failed;
      std::cerr << "FAILED the traced run contradicts the workload design\n";
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  all.endToEnd["setup_s"] = {setupS, "s"};
  all.endToEnd["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};
  all.endToEnd["ok_ratio"] = {
      static_cast<double>(all.attempted - all.failed) / static_cast<double>(all.attempted),
      "ratio"};
  all.perLayer["bench.host_reference_ms"] = {median(host.samples()), "ms"};

  std::string counts = "{";
  for (const auto& [name, v] : all.counts) {
    if (counts.size() > 1) counts += ", ";
    counts += "\"" + name + "\": " + number(v);
  }
  std::cout << "counts " << counts << "}\n";
  std::cout << "host_reference_ms " << number(median(host.samples())) << "\n";
  const bool correct = all.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << all.attempted << ", \"failed\": " << all.failed
            << ", \"metrics\": " << metricsJson(traced ? all.perLayer : all.endToEnd) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
