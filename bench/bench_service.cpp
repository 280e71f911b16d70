// Compilation-service throughput: cold vs. warm cache, and worker scaling.
//
// The north-star workload is a compile farm doing design-space exploration:
// the same kernels recompiled against many ISA variants, with heavy repeat
// traffic. Two questions matter there:
//   1. what does the content-addressed cache buy on repeated requests
//      (warm / cold throughput ratio — the summary table below), and
//   2. how does cold-compile throughput scale with worker threads
//      (service/cold_batch/threads:N).
//
// --json <path> writes BENCH_service.json, the serve-plane regression
// baseline: warm-hit and warm-restart (artifact-store-backed) latency per
// request, JSON vs. binary framing cost, and the sustained warm throughput
// that backs the 10k req/s exit criterion. The measurement hard-fails (exit
// 1) if warm throughput drops below 10k req/s, if a warm restart compiles
// anything (the store must answer every request), or if store-backed warm
// throughput falls below half of in-memory warm.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench_harness.hpp"
#include "driver/report.hpp"
#include "service/compile_service.hpp"
#include "service/protocol.hpp"

namespace {

using namespace mat2c;
using service::CompileRequest;
using service::CompileService;

/// Distinct FIR-like kernels (the varying constant defeats the cache) — each
/// one vectorizes and triggers the MAC idiom, so a cold compile runs the full
/// pipeline.
CompileRequest kernelRequest(int variant) {
  CompileRequest r;
  r.id = "k" + std::to_string(variant);
  r.source = "function y = f(x, h)\n"
             "y = 0;\n"
             "for k = 1:length(x)\n"
             "  y = y + x(k) * h(k) * " + std::to_string(variant + 1) + ";\n"
             "end\n"
             "end\n";
  r.entry = "f";
  r.args = {sema::ArgSpec::row(64), sema::ArgSpec::row(64)};
  r.options = CompileOptions::proposed();
  return r;
}

std::vector<CompileRequest> repeatedWorkload(int distinct, int repeats) {
  std::vector<CompileRequest> batch;
  batch.reserve(static_cast<std::size_t>(distinct) * repeats);
  for (int rep = 0; rep < repeats; ++rep) {
    for (int k = 0; k < distinct; ++k) batch.push_back(kernelRequest(k));
  }
  return batch;
}

/// The acceptance measurement: one repeated-request workload served by a
/// cache-disabled service (every request compiles) and by a pre-warmed
/// cached service (every request hits). Printed before the benchmarks run.
void printColdVsWarmTable() {
  constexpr int kDistinct = 8;
  constexpr int kRepeats = 16;
  std::printf("\n=== Compile service: cold vs. warm cache "
              "(%d distinct kernels x %d repeats, 4 threads) ===\n\n",
              kDistinct, kRepeats);

  auto run = [&](std::size_t cacheEntries, bool prewarm) {
    CompileService::Config config;
    config.threads = 4;
    config.cacheEntries = cacheEntries;
    CompileService svc(config);
    if (prewarm) svc.compileBatch(repeatedWorkload(kDistinct, 1));
    auto batch = repeatedWorkload(kDistinct, kRepeats);
    auto t0 = std::chrono::steady_clock::now();
    auto responses = svc.compileBatch(std::move(batch));
    double millis =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    for (const auto& r : responses) {
      if (!r.ok) {
        std::fprintf(stderr, "bench_service: compile failed: %s\n", r.error.c_str());
        std::exit(1);
      }
    }
    return std::pair<double, service::ServiceStats>(
        1000.0 * static_cast<double>(responses.size()) / millis, svc.stats());
  };

  auto [coldRps, coldStats] = run(/*cacheEntries=*/0, /*prewarm=*/false);
  auto [warmRps, warmStats] = run(/*cacheEntries=*/256, /*prewarm=*/true);

  report::Table table({"configuration", "req/s", "compiles", "cache hits", "dedup joins"});
  table.addRow({"cold (cache off)", report::Table::num(coldRps, 0),
                std::to_string(coldStats.compiles), std::to_string(coldStats.cacheHits),
                std::to_string(coldStats.dedupJoins)});
  table.addRow({"warm (pre-warmed)", report::Table::num(warmRps, 0),
                std::to_string(warmStats.compiles - kDistinct),  // minus the untimed warm-up
                std::to_string(warmStats.cacheHits), std::to_string(warmStats.dedupJoins)});
  std::printf("%s\nwarm/cold throughput ratio: %.1fx\n\n", table.toString().c_str(),
              warmRps / coldRps);
}

/// Cold-compile scaling: every request is distinct, so throughput is bounded
/// by the worker pool. threads = state.range(0).
void BM_ColdBatch(benchmark::State& state) {
  constexpr int kBatch = 32;
  int round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    CompileService::Config config;
    config.threads = static_cast<std::size_t>(state.range(0));
    config.cacheEntries = 0;  // force every request through a compile
    auto svc = std::make_unique<CompileService>(config);
    // New variants every round so neither the service nor any lower layer
    // can learn across iterations.
    std::vector<CompileRequest> batch;
    for (int k = 0; k < kBatch; ++k) batch.push_back(kernelRequest(round * kBatch + k));
    ++round;
    state.ResumeTiming();

    auto responses = svc->compileBatch(std::move(batch));
    benchmark::DoNotOptimize(responses.data());

    state.PauseTiming();
    svc.reset();  // include no teardown in the next timed region
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

/// Warm-cache throughput on the repeated-request workload (all hits).
void BM_WarmBatch(benchmark::State& state) {
  constexpr int kBatch = 32;
  CompileService::Config config;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.cacheEntries = 256;
  CompileService svc(config);
  svc.compileBatch(repeatedWorkload(kBatch, 1));  // warm
  for (auto _ : state) {
    auto responses = svc.compileBatch(repeatedWorkload(kBatch, 1));
    benchmark::DoNotOptimize(responses.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

/// Single-flight burst: N identical requests in flight at once — one
/// compile, N-1 joins (cache cleared each round via a fresh variant).
void BM_IdenticalBurst(benchmark::State& state) {
  constexpr int kBurst = 32;
  CompileService::Config config;
  config.threads = static_cast<std::size_t>(state.range(0));
  CompileService svc(config);
  int round = 0;
  for (auto _ : state) {
    CompileRequest base = kernelRequest(1000000 + round++);
    std::vector<std::future<service::CompileResponse>> futures;
    futures.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
      CompileRequest r = base;
      r.id += "_" + std::to_string(i);
      futures.push_back(svc.submit(std::move(r)));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get().ok);
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}

// --- serve-plane baseline (--json) -----------------------------------------

constexpr std::size_t kThreads = 4;

struct ServeMeasurement {
  double coldNsPerReq = 0;
  double warmNsPerReq = 0;
  double warmRps = 0;
  double restartNsPerReq = 0;
  double restartRps = 0;
  std::uint64_t restartCompiles = 0;
  service::LatencyStats warmLatency;
  double jsonFrameNs = 0;
  double binaryFrameNs = 0;
};

/// Timed batch through a service; returns ns/request.
double timedBatch(CompileService& svc, std::vector<CompileRequest> batch) {
  std::size_t n = batch.size();
  auto t0 = std::chrono::steady_clock::now();
  auto responses = svc.compileBatch(std::move(batch));
  double nanos =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& r : responses) {
    if (!r.ok) {
      std::fprintf(stderr, "bench_service: compile failed: %s\n", r.error.c_str());
      std::exit(1);
    }
  }
  return nanos / static_cast<double>(n);
}

/// Framing cost per request: parse one request + serialize one response, in
/// the JSON-lines encoding vs. the length-prefixed binary encoding. Measures
/// the protocol layer only — no compile, no service.
void measureFraming(ServeMeasurement& m) {
  constexpr int kIters = 20000;
  CompileRequest proto = kernelRequest(0);
  // JSON-lines: the request as clients send it (source newlines escaped).
  std::string escaped;
  for (char c : proto.source) {
    if (c == '\n') escaped += "\\n";
    else escaped += c;
  }
  std::string jsonLine = "{\"id\": \"k0\", \"source\": \"" + escaped +
                         "\", \"entry\": \"f\", \"args\": \"1x64,1x64\"}";
  service::CompileResponse resp;
  resp.id = "k0";
  resp.ok = true;
  resp.cacheHit = true;
  resp.millis = 0.01;
  resp.result = std::make_shared<service::CachedResult>(
      std::string(2048, 'c'), service::CachedResult::Meta{"dspx", 1, 2, {}},
      std::string(), 0, 0.0, 0.0);

  service::ProtocolLimits limits;
  auto time = [&](auto&& body) {
    auto t0 = std::chrono::steady_clock::now();
    std::size_t sink = 0;
    for (int i = 0; i < kIters; ++i) sink += body();
    benchmark::DoNotOptimize(sink);
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
               .count() /
           kIters;
  };

  m.jsonFrameNs = time([&]() -> std::size_t {
    CompileRequest req;
    std::string error;
    if (!service::parseCompileRequest(jsonLine, req, error, nullptr, limits)) {
      std::fprintf(stderr, "bench_service: framing json parse failed: %s\n", error.c_str());
      std::exit(1);
    }
    return req.source.size() + service::responseJson(resp).size();
  });

  service::WireRequest wire;
  wire.id = "k0";
  wire.source = proto.source;
  wire.entry = "f";
  wire.args = "1x64,1x64";
  std::string reqFrame =
      service::encodeFrame(service::FrameType::Request, service::encodeBinaryRequest(wire));
  m.binaryFrameNs = time([&]() -> std::size_t {
    // Decode through the same path the CLI uses: frame header + payload.
    service::WireRequest decoded;
    std::string error;
    if (!service::decodeBinaryRequest(
            std::string_view(reqFrame).substr(service::kFrameHeaderBytes), decoded, error)) {
      std::fprintf(stderr, "bench_service: framing binary decode failed: %s\n",
                   error.c_str());
      std::exit(1);
    }
    return decoded.source.size() +
           service::encodeFrame(service::FrameType::Response,
                                service::encodeBinaryResponse(resp))
               .size();
  });
}

ServeMeasurement measureServePlane() {
  constexpr int kDistinct = 8;
  constexpr int kWarmRepeats = 2000;  // 16k warm requests per timed run
  ServeMeasurement m;

  // Cold: every request a distinct compile, cache off.
  {
    CompileService::Config config;
    config.threads = kThreads;
    config.cacheEntries = 0;
    CompileService svc(config);
    std::vector<CompileRequest> batch;
    for (int k = 0; k < 32; ++k) batch.push_back(kernelRequest(k));
    m.coldNsPerReq = timedBatch(svc, std::move(batch));
  }

  std::filesystem::path storeDir =
      std::filesystem::temp_directory_path() /
      ("mat2c_bench_store." + std::to_string(static_cast<unsigned>(::getpid())));
  std::filesystem::remove_all(storeDir);

  // Warm in-memory: pre-warmed cache, every request a hit. The store is
  // attached so the untimed warm-up batch also populates it for the restart
  // measurement; the timed batch is all hits and writes nothing.
  {
    CompileService::Config config;
    config.threads = kThreads;
    config.cacheEntries = 256;
    config.storeDir = storeDir.string();
    CompileService svc(config);
    svc.compileBatch(repeatedWorkload(kDistinct, 1));  // warm + populate store
    m.warmNsPerReq = timedBatch(svc, repeatedWorkload(kDistinct, kWarmRepeats));
    m.warmRps = 1e9 / m.warmNsPerReq;
    m.warmLatency = svc.stats().latency;
  }

  // Warm restart: a fresh service, empty memory cache, same store directory.
  // Every distinct kernel must come back from disk — zero compiles.
  {
    CompileService::Config config;
    config.threads = kThreads;
    config.cacheEntries = 256;
    config.storeDir = storeDir.string();
    CompileService svc(config);
    m.restartNsPerReq = timedBatch(svc, repeatedWorkload(kDistinct, kWarmRepeats));
    m.restartRps = 1e9 / m.restartNsPerReq;
    m.restartCompiles = svc.stats().compiles;
  }
  std::filesystem::remove_all(storeDir);

  measureFraming(m);
  return m;
}

int writeServeJson(const std::string& path) {
  ServeMeasurement m = measureServePlane();

  // Exit criteria, enforced here so the perf gate inherits them: warm
  // sustained throughput >= 10k req/s; a warm restart never compiles; the
  // store-backed warm path stays within 2x of in-memory warm.
  bool ok = true;
  if (m.warmRps < 10000.0) {
    std::fprintf(stderr, "bench_service: FAIL warm throughput %.0f req/s < 10000\n",
                 m.warmRps);
    ok = false;
  }
  if (m.restartCompiles != 0) {
    std::fprintf(stderr,
                 "bench_service: FAIL warm restart ran %llu compile(s); "
                 "the artifact store must answer every request\n",
                 static_cast<unsigned long long>(m.restartCompiles));
    ok = false;
  }
  if (m.restartNsPerReq > 2.0 * m.warmNsPerReq) {
    std::fprintf(stderr,
                 "bench_service: FAIL warm restart %.0f ns/req exceeds 2x "
                 "in-memory warm %.0f ns/req\n",
                 m.restartNsPerReq, m.warmNsPerReq);
    ok = false;
  }
  if (!ok) return 1;

  // Nanoseconds per request go in the *_cycles fields.
  std::vector<report::SpeedupRow> rows = {
      {"framing", m.jsonFrameNs, m.binaryFrameNs, m.jsonFrameNs / m.binaryFrameNs, 0.0, {}},
      {"warm_hit", m.coldNsPerReq, m.warmNsPerReq, m.coldNsPerReq / m.warmNsPerReq, 0.0,
       {report::numField("rps", m.warmRps, 0),
        report::numField("p50_millis", m.warmLatency.p50Millis, 4),
        report::numField("p99_millis", m.warmLatency.p99Millis, 4)}},
      {"warm_restart", m.coldNsPerReq, m.restartNsPerReq, m.coldNsPerReq / m.restartNsPerReq,
       0.0,
       {report::numField("rps", m.restartRps, 0),
        report::numField("compiles", static_cast<double>(m.restartCompiles), 0)}},
  };
  if (!bench::writeFile("bench_service", path,
                        report::speedupJson("service", {report::numField("threads", kThreads, 0)},
                                            rows))) {
    return 1;
  }
  std::fprintf(stderr,
               "bench_service: wrote %s (warm %.0f req/s, restart %.0f req/s, "
               "framing %.0f -> %.0f ns)\n",
               path.c_str(), m.warmRps, m.restartRps, m.jsonFrameNs, m.binaryFrameNs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = bench::takeJsonPath("bench_service", argc, argv);
  if (!jsonPath.empty()) {
    int rc = writeServeJson(jsonPath);
    if (rc != 0) return rc;
  }

  printColdVsWarmTable();
  for (int threads : {1, 2, 4, 8}) {
    benchmark::RegisterBenchmark("service/cold_batch", BM_ColdBatch)->Arg(threads)
        ->Unit(benchmark::kMillisecond)->UseRealTime();
    benchmark::RegisterBenchmark("service/warm_batch", BM_WarmBatch)->Arg(threads)
        ->Unit(benchmark::kMillisecond)->UseRealTime();
    benchmark::RegisterBenchmark("service/identical_burst", BM_IdenticalBurst)->Arg(threads)
        ->Unit(benchmark::kMillisecond)->UseRealTime();
  }
  return bench::runTimers(argc, argv);
}
