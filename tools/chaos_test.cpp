// Deterministic chaos harness for the supervised serve plane.
//
// Drives a real multi-process shard fleet (MAT2C_BIN_PATH workers sharing
// one artifact store and one --isa-file server default) through a seeded
// schedule of
//
//   * cold + repeat compile floods,
//   * kill -9 of scheduled shards mid-load,
//   * in-process worker crashes (MAT2C_FAULT=crash:compile:N in the worker
//     environment — every worker incarnation aborts at its Nth compile),
//   * a warm-restart proof (repeats after the kills compile nothing), and
//   * a torn-response-frame fleet (MAT2C_FAULT=torn:frame.write:N), where a
//     worker truncates a frame mid-write and dies,
//
// while a differential checker holds the line: EVERY completed response is
// compared against a local compile of the same kernel under the same ISA —
// itself validated against the reference interpreter — so "zero incorrect
// responses" means oracle-checked, not merely ok=true. The schedule derives
// entirely from the seed (which shard dies at which step, no wall-clock
// randomness in the backoff jitter), so a failure reproduces by rerunning
// with the same seed.
//
// Prints "chaos-ok" and exits 0 on success; any violated invariant prints a
// diagnostic and exits 1. Registered as a ctest with the `chaos` label.
#include <signal.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "service/supervisor.hpp"

namespace fs = std::filesystem;
using namespace mat2c;
using namespace mat2c::service;

namespace {

int gFailures = 0;

#define CHAOS_CHECK(cond, ...)                                   \
  do {                                                           \
    if (!(cond)) {                                               \
      std::fprintf(stderr, "chaos: FAILED %s:%d: ", __FILE__, __LINE__); \
      std::fprintf(stderr, __VA_ARGS__);                         \
      std::fprintf(stderr, "\n");                                \
      ++gFailures;                                               \
    }                                                            \
  } while (0)

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string argsTokenFor(const std::vector<sema::ArgSpec>& specs) {
  std::string out;
  for (const auto& spec : specs) {
    if (!out.empty()) out += ',';
    const sema::Shape& s = spec.type.shape;
    if (spec.type.elem == sema::Elem::Complex) out += 'c';
    out += std::to_string(s.rows.extent()) + "x" + std::to_string(s.cols.extent());
  }
  return out;
}

/// What a correct response for (kernel, ISA) must report. Anchored to the
/// interpreter: the local compile these numbers come from is itself
/// validated element-wise against the reference interpreter first.
struct Expected {
  std::string isaName;
  std::uint64_t cBytes = 0;
  std::int32_t loopsVectorized = 0;
  std::int32_t idiomRewrites = 0;
};

Expected oracleFor(const kernels::KernelSpec& k, const isa::IsaDescription& isa) {
  Compiler compiler;
  CompileOptions opts = CompileOptions::proposed();
  opts.isa = isa;
  CompiledUnit unit = compiler.compileSource(k.source, k.entry, k.argSpecs, opts);
  double err = validateAgainstInterpreter(k.source, k.entry, unit, k.args);
  CHAOS_CHECK(err <= kOracleMaxAbsErr,
              "oracle compile of %s on %s diverges from the interpreter (%g)", k.name.c_str(),
              isa.name().c_str(), err);
  Expected e;
  e.isaName = unit.isa().name();
  e.cBytes = unit.cCode().size();
  e.loopsVectorized = unit.optimizationReport().vec.loopsVectorized;
  e.idiomRewrites = unit.optimizationReport().idiomRewrites;
  return e;
}

/// One submitted request and its (eventual) response.
struct Probe {
  std::string id;
  std::string kernel;  ///< key into the expectation tables
  BinaryResponse response;
  bool answered = false;
};

class ResponseLog {
 public:
  ShardSupervisor::ResponseHandler handlerFor(std::shared_ptr<Probe> probe) {
    return [this, probe](const std::string&, const BinaryResponse& decoded) {
      std::lock_guard<std::mutex> lock(mu_);
      CHAOS_CHECK(!probe->answered, "request %s answered twice", probe->id.c_str());
      probe->answered = true;
      probe->response = decoded;
    };
  }

  std::mutex mu_;
};

void writeIsaFile(const fs::path& path, const isa::IsaDescription& isa) {
  std::ofstream out(path, std::ios::trunc);
  out << isa.serialize();
  if (!out) {
    std::fprintf(stderr, "chaos: cannot write %s\n", path.string().c_str());
    std::exit(1);
  }
}

/// Checks one answered probe against the expectation table, keyed by kernel;
/// every response must carry the fleet's server-default ISA `isaName`.
void checkProbe(const Probe& probe, const std::map<std::string, Expected>& table,
                const std::string& isaName) {
  CHAOS_CHECK(probe.answered, "request %s was dropped (never answered)", probe.id.c_str());
  if (!probe.answered) return;
  const BinaryResponse& r = probe.response;
  CHAOS_CHECK(r.ok, "request %s failed: %s", probe.id.c_str(), r.error.c_str());
  if (!r.ok) return;
  CHAOS_CHECK(r.isa == isaName, "request %s answered with unexpected ISA '%s'",
              probe.id.c_str(), r.isa.c_str());
  if (r.isa != isaName) return;
  const Expected& e = table.at(probe.kernel);
  CHAOS_CHECK(r.cBytes == e.cBytes,
              "request %s (%s on %s): cBytes %llu != oracle %llu", probe.id.c_str(),
              probe.kernel.c_str(), r.isa.c_str(),
              static_cast<unsigned long long>(r.cBytes),
              static_cast<unsigned long long>(e.cBytes));
  CHAOS_CHECK(r.loopsVectorized == e.loopsVectorized,
              "request %s: loopsVectorized %d != oracle %d", probe.id.c_str(),
              r.loopsVectorized, e.loopsVectorized);
  CHAOS_CHECK(r.idiomRewrites == e.idiomRewrites,
              "request %s: idiomRewrites %d != oracle %d", probe.id.c_str(),
              r.idiomRewrites, e.idiomRewrites);
}

WireRequest wireFor(const kernels::KernelSpec& k, const std::string& id) {
  WireRequest w;
  w.id = id;
  w.source = k.source;
  w.entry = k.entry;
  w.args = argsTokenFor(k.argSpecs);
  return w;  // isa stays "" = the server default (the workers' --isa-file)
}

int runMainFleet(std::uint64_t seed, const fs::path& root) {
  // Small problem sizes keep a full chaos run in seconds; distinct content
  // per kernel so consistent-hash routing actually spreads the corpus.
  std::vector<kernels::KernelSpec> corpus = {
      kernels::makeFir(64, 16), kernels::makeMatmul(8, 8, 8), kernels::makeCdot(64),
      kernels::makeFramePow(8, 16)};

  // The server default is not the dspx preset, so a shard (original or
  // restarted) that ignored its --isa-file would answer with the wrong ISA.
  isa::IsaDescription defaultIsa = isa::IsaDescription::preset("dspx_w4");

  // Oracle table first, each entry anchored to the interpreter before the
  // fleet sees a single request.
  std::map<std::string, Expected> oracle;
  for (const auto& k : corpus) oracle[k.name] = oracleFor(k, defaultIsa);
  if (gFailures > 0) return 1;  // a broken oracle invalidates everything else

  fs::path store = root / "store";
  fs::path isaFile = root / "default.isa";
  fs::create_directories(store);
  writeIsaFile(isaFile, defaultIsa);

  ShardSupervisor::Config config;
  config.shards = 3;
  config.binaryPath = MAT2C_BIN_PATH;
  config.workerArgs = {"--store-dir", store.string(), "--isa-file", isaFile.string(),
                       "--jobs", "2"};
  // Every worker incarnation aborts at its 3rd compile: in-process crash
  // coverage on top of the external kill -9s. Warm (cached) answers do not
  // count compiles, so restarted workers serving from the store live on.
  config.workerEnv = {"MAT2C_FAULT=crash:compile:3"};
  config.restart.baseMillis = 5.0;
  config.restart.maxMillis = 100.0;
  config.maxRestarts = 32;
  config.seed = seed;

  ShardSupervisor fleet(config);
  std::string error;
  if (!fleet.start(error)) {
    std::fprintf(stderr, "chaos: cannot start fleet: %s\n", error.c_str());
    return 1;
  }

  ResponseLog log;
  std::vector<std::shared_ptr<Probe>> probes;
  auto submit = [&](const kernels::KernelSpec& k, const std::string& id) {
    auto probe = std::make_shared<Probe>();
    probe->id = id;
    probe->kernel = k.name;
    probes.push_back(probe);
    fleet.submit(wireFor(k, id), log.handlerFor(probe));
  };

  // --- Phase 1: cold flood. Workers crash at their 3rd compile, so even
  // this phase exercises abort-mid-compile + redispatch + store warmup.
  {
    int n = 0;
    for (const auto& k : corpus) submit(k, "cold" + std::to_string(++n));
    fleet.drainPending();
  }

  // --- Phase 2: repeat flood with kill -9 of seeded shards mid-load.
  std::size_t repeatEnd;
  {
    int kills = 0;
    for (int step = 0; step < 24; ++step) {
      const auto& k = corpus[static_cast<std::size_t>(step) % corpus.size()];
      submit(k, "rep" + std::to_string(step));
      if (step == 8 || step == 16) {
        // The victim shard is chosen by the seed, not by the clock.
        std::vector<int> pids = fleet.shardPids();
        int target = static_cast<int>(splitmix64(seed ^ (0xdeadULL + step)) % pids.size());
        if (pids[static_cast<std::size_t>(target)] > 0) {
          ::kill(pids[static_cast<std::size_t>(target)], SIGKILL);
          ++kills;
        }
      }
    }
    fleet.drainPending();
    repeatEnd = probes.size();
    CHAOS_CHECK(kills > 0, "schedule killed no shard (broken schedule)");
  }

  // --- Phase 3: warm-restart proof. Every kernel is in the shared store by
  // now; repeats must be served without compiling (cached), whatever mix of
  // original and restarted workers answers them.
  {
    int n = 0;
    for (const auto& k : corpus) submit(k, "warm" + std::to_string(++n));
    fleet.drainPending();
  }

  ShardSupervisor::Stats stats = fleet.stats();
  fleet.shutdown();

  // --- The differential ledger. Every submitted request must be answered,
  // correct, and on the server-default ISA.
  std::lock_guard<std::mutex> lock(log.mu_);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Probe& p = *probes[i];
    checkProbe(p, oracle, defaultIsa.name());
    if (i >= repeatEnd) {
      CHAOS_CHECK(p.response.cached,
                  "warm repeat %s recompiled after restart (cached=false): the "
                  "restarted shard did not come back warm from the store",
                  p.id.c_str());
    }
  }
  CHAOS_CHECK(stats.completed == probes.size(), "completed %llu != submitted %zu",
              static_cast<unsigned long long>(stats.completed), probes.size());
  CHAOS_CHECK(stats.restarts >= 2, "expected the schedule to force restarts, saw %llu",
              static_cast<unsigned long long>(stats.restarts));
  CHAOS_CHECK(stats.shardsEjected == 0, "no shard should exhaust maxRestarts, %d ejected",
              stats.shardsEjected);
  std::fprintf(stderr,
               "chaos: main fleet: %zu requests, %llu restarts, %llu redispatched\n",
               probes.size(), static_cast<unsigned long long>(stats.restarts),
               static_cast<unsigned long long>(stats.redispatched));
  return gFailures == 0 ? 0 : 1;
}

/// A one-shard fleet whose worker tears its 2nd response frame mid-write and
/// dies: the supervisor must detect the torn stream, kill + reap the worker,
/// restart it, and re-dispatch — the client still sees only correct,
/// complete responses.
int runTornFrameFleet(std::uint64_t seed, const fs::path& root) {
  kernels::KernelSpec k = kernels::makeFir(64, 16);
  isa::IsaDescription dspx = isa::IsaDescription::preset("dspx");
  Expected expected = oracleFor(k, dspx);

  fs::path store = root / "torn_store";
  fs::create_directories(store);
  ShardSupervisor::Config config;
  config.shards = 1;
  config.binaryPath = MAT2C_BIN_PATH;
  config.workerArgs = {"--store-dir", store.string(), "--jobs", "1"};
  // Hit 3, not 2: the supervisor's readmission probe consumes one response
  // frame per restarted incarnation, and torn is sticky from the Nth hit
  // onward — at hit 2 a restarted worker could never answer a compile.
  config.workerEnv = {"MAT2C_FAULT=torn:frame.write:3"};
  config.restart.baseMillis = 5.0;
  config.restart.maxMillis = 50.0;
  config.maxRestarts = 16;
  config.seed = seed;

  ShardSupervisor fleet(config);
  std::string error;
  if (!fleet.start(error)) {
    std::fprintf(stderr, "chaos: cannot start torn-frame fleet: %s\n", error.c_str());
    return 1;
  }

  ResponseLog log;
  std::vector<std::shared_ptr<Probe>> probes;
  for (int i = 0; i < 4; ++i) {
    auto probe = std::make_shared<Probe>();
    probe->id = "torn" + std::to_string(i);
    probe->kernel = k.name;
    probes.push_back(probe);
    fleet.submit(wireFor(k, probe->id), log.handlerFor(probe));
  }
  fleet.drainPending();
  ShardSupervisor::Stats stats = fleet.stats();
  fleet.shutdown();

  std::lock_guard<std::mutex> lock(log.mu_);
  std::map<std::string, Expected> oracle{{k.name, expected}};
  for (const auto& probe : probes) checkProbe(*probe, oracle, dspx.name());
  CHAOS_CHECK(stats.restarts >= 1, "a torn frame must kill and restart the worker");
  std::fprintf(stderr, "chaos: torn-frame fleet: %zu requests, %llu restarts\n",
               probes.size(), static_cast<unsigned long long>(stats.restarts));
  return gFailures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  fs::path root = fs::temp_directory_path() / ("mat2c_chaos_" + std::to_string(seed));
  fs::remove_all(root);
  fs::create_directories(root);

  int rc = runMainFleet(seed, root);
  if (rc == 0) rc = runTornFrameFleet(seed, root);

  fs::remove_all(root);
  if (rc == 0 && gFailures == 0) {
    std::printf("chaos-ok (seed %llu)\n", static_cast<unsigned long long>(seed));
    return 0;
  }
  std::fprintf(stderr, "chaos: %d invariant violation(s) (seed %llu)\n", gFailures,
               static_cast<unsigned long long>(seed));
  return 1;
}
