// Shard supervisor: multi-process fleet management over real worker
// processes (MAT2C_BIN_PATH points at the mat2c CLI built in this tree).
//
// These tests exercise the resilience layer end to end — spawn, routing,
// kill -9 recovery with re-dispatch, warm restarts from a shared artifact
// store and permanent ejection — with the seeded
// chaos schedule living in tools/chaos_test.cpp. Labeled `service` and
// `chaos` so the suite runs under the sanitizer presets.
#include <gtest/gtest.h>
#include <signal.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/supervisor.hpp"

namespace mat2c {
namespace {

namespace fs = std::filesystem;
using namespace service;

const char* kFirSource =
    "function y = fir(x, h)\n"
    "y = 0;\n"
    "for k = 1:length(x)\n"
    "  y = y + x(k) * h(k);\n"
    "end\n"
    "end\n";

const char* kScaleSource =
    "function y = scale(x)\n"
    "y = x .* 2;\n"
    "end\n";

WireRequest makeRequest(const std::string& id, const char* source,
                        const std::string& entry, const std::string& args) {
  WireRequest r;
  r.id = id;
  r.source = source;
  r.entry = entry;
  r.args = args;
  return r;
}

/// Collects every response delivered by the supervisor, keyed by arrival.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<BinaryResponse> responses;

  ShardSupervisor::ResponseHandler handler() {
    return [this](const std::string&, const BinaryResponse& decoded) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(decoded);
      cv.notify_all();
    };
  }
  std::vector<BinaryResponse> take() {
    std::lock_guard<std::mutex> lock(mu);
    return responses;
  }
};

fs::path freshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("mat2c_sup_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

ShardSupervisor::Config fleetConfig(int shards, const fs::path& storeDir) {
  ShardSupervisor::Config c;
  c.shards = shards;
  c.binaryPath = MAT2C_BIN_PATH;
  c.workerArgs = {"--store-dir", storeDir.string(), "--jobs", "2"};
  c.restart.baseMillis = 5.0;  // fast restarts keep the tests quick
  c.restart.maxMillis = 50.0;
  c.seed = 7;
  return c;
}

bool waitForAlive(ShardSupervisor& sup, int want, int timeoutMillis = 15000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMillis);
  while (std::chrono::steady_clock::now() < deadline) {
    if (sup.stats().shardsAlive >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(RetryPolicy, DeterministicJitterWithinExponentialEnvelope) {
  RetryPolicy p;
  p.baseMillis = 10.0;
  p.maxMillis = 2000.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    double cap = 10.0;
    for (int i = 0; i < attempt && cap < 2000.0; ++i) cap *= 2.0;
    cap = std::min(cap, 2000.0);
    double d = p.delayMillis(attempt, 42);
    // Full-jitter window: [cap/2, cap].
    EXPECT_GE(d, cap / 2.0) << "attempt " << attempt;
    EXPECT_LE(d, cap) << "attempt " << attempt;
    // Deterministic: the chaos harness replays schedules from a seed.
    EXPECT_EQ(d, p.delayMillis(attempt, 42)) << "attempt " << attempt;
  }
  // Different seeds jitter differently (the point of seeding per shard).
  EXPECT_NE(p.delayMillis(3, 1), p.delayMillis(3, 2));
  // Negative attempts clamp instead of underflowing the exponent.
  EXPECT_GE(p.delayMillis(-5, 1), 5.0);
  EXPECT_LE(p.delayMillis(-5, 1), 10.0);
}

TEST(ShardSupervisor, RouteHashIsStableAndContentSensitive) {
  WireRequest a = makeRequest("id1", kFirSource, "fir", "1x64,1x64");
  WireRequest b = makeRequest("id2", kFirSource, "fir", "1x64,1x64");
  // The id is NOT part of the route: repeats of the same content must land
  // on the same shard to hit its in-memory cache.
  EXPECT_EQ(ShardSupervisor::routeHash(a), ShardSupervisor::routeHash(b));
  WireRequest c = makeRequest("id1", kScaleSource, "scale", "1x64");
  EXPECT_NE(ShardSupervisor::routeHash(a), ShardSupervisor::routeHash(c));
  WireRequest d = a;
  d.isa = "scalar";
  EXPECT_NE(ShardSupervisor::routeHash(a), ShardSupervisor::routeHash(d));
}

TEST(ShardSupervisor, FleetAnswersBatchAndRepeatsHitShardCache) {
  fs::path store = freshDir("fleet_basic");
  ShardSupervisor sup(fleetConfig(2, store));
  std::string error;
  ASSERT_TRUE(sup.start(error)) << error;
  ASSERT_TRUE(waitForAlive(sup, 2));

  Collector out;
  sup.submit(makeRequest("fir1", kFirSource, "fir", "1x64,1x64"), out.handler());
  sup.submit(makeRequest("scale1", kScaleSource, "scale", "1x64"), out.handler());
  sup.submit(makeRequest("fir2", kFirSource, "fir", "1x64,1x64"), out.handler());
  sup.drainPending();

  auto responses = out.take();
  ASSERT_EQ(responses.size(), 3u);
  int firSeen = 0;
  for (const auto& r : responses) {
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    EXPECT_GT(r.cBytes, 0u) << r.id;
    if (r.id == "fir1" || r.id == "fir2") ++firSeen;
  }
  EXPECT_EQ(firSeen, 2);

  auto stats = sup.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(stats.failedNoShard, 0u);
  sup.shutdown();
}

TEST(ShardSupervisor, DrainPendingWaitsForSlowHandlers) {
  // drainPending() counts a request done only once its handler has
  // returned; a handler that is slow to record its response must still be
  // seen by the caller that drained.
  fs::path store = freshDir("fleet_drain");
  ShardSupervisor sup(fleetConfig(2, store));
  std::string error;
  ASSERT_TRUE(sup.start(error)) << error;
  ASSERT_TRUE(waitForAlive(sup, 2));

  Collector out;
  auto slow = [&out](const std::string& raw, const BinaryResponse& decoded) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    out.handler()(raw, decoded);
  };
  sup.submit(makeRequest("a", kFirSource, "fir", "1x64,1x64"), slow);
  sup.submit(makeRequest("b", kScaleSource, "scale", "1x64"), slow);
  sup.drainPending();
  EXPECT_EQ(out.take().size(), 2u);
  EXPECT_EQ(sup.stats().completed, 2u);

  // A fail-fast submit after shutdown is delivered and drained the same way.
  sup.shutdown();
  sup.submit(makeRequest("late", kFirSource, "fir", "1x64,1x64"), slow);
  sup.drainPending();
  auto responses = out.take();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[2].ok);
}

TEST(ShardSupervisor, KillNineMidLoadRedispatchesAndRestartsWarm) {
  fs::path store = freshDir("fleet_kill");
  ShardSupervisor sup(fleetConfig(2, store));
  std::string error;
  ASSERT_TRUE(sup.start(error)) << error;
  ASSERT_TRUE(waitForAlive(sup, 2));

  // One repeat per shard, so drainPending() below waits for both restarts.
  WireRequest onShard1 = makeRequest("r1", kFirSource, "fir", "1x64,1x64");
  WireRequest onShard0 = makeRequest("r2", kScaleSource, "scale", "1x32");
  ASSERT_EQ(ShardSupervisor::routeHash(onShard1) % 2, 1u);
  ASSERT_EQ(ShardSupervisor::routeHash(onShard0) % 2, 0u);

  // Warm the store first so restarted workers can answer from disk.
  Collector warmup;
  sup.submit(makeRequest("w1", kFirSource, "fir", "1x64,1x64"), warmup.handler());
  sup.submit(makeRequest("w2", kScaleSource, "scale", "1x32"), warmup.handler());
  sup.drainPending();
  for (const auto& r : warmup.take()) ASSERT_TRUE(r.ok) << r.id << ": " << r.error;

  // kill -9 the whole fleet, then immediately submit repeats: they queue in
  // the dead shards' backlogs, the monitor restarts the workers, and the
  // repeats must come back correct — and warm (cached), since the artifact
  // store survived the kill.
  std::vector<int> pids = sup.shardPids();
  ASSERT_EQ(pids.size(), 2u);
  for (int pid : pids) {
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
  }

  Collector out;
  sup.submit(onShard1, out.handler());
  sup.submit(onShard0, out.handler());
  sup.drainPending();

  auto responses = out.take();
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& r : responses) {
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    // Zero wrong answers after kill -9: the repeat is byte-identical
    // metadata served from the shared store (or the rebuilt memory tier).
    EXPECT_TRUE(r.cached) << r.id << " should be served warm after restart";
  }

  auto stats = sup.stats();
  EXPECT_GE(stats.restarts, 2u);
  EXPECT_EQ(stats.completed, 4u);
  std::vector<int> newPids = sup.shardPids();
  for (std::size_t i = 0; i < pids.size(); ++i) {
    EXPECT_NE(newPids[i], pids[i]) << "shard " << i << " must be a new process";
  }
  // The metrics surface names the restart/redispatch counters.
  std::string metrics = metricsText(sup.stats());
  EXPECT_NE(metrics.find("mat2c_shard_restarts_total"), std::string::npos);
  EXPECT_NE(metrics.find("mat2c_shard_redispatches_total"), std::string::npos);
  sup.shutdown();
}

TEST(ShardSupervisor, CrashLoopingShardIsEjectedAndSubmitsFailCleanly) {
  ShardSupervisor::Config c;
  c.shards = 1;
  c.binaryPath = "/bin/false";  // exits instantly; never answers the probe
  c.maxRestarts = 0;            // first death ejects
  c.restart.baseMillis = 1.0;
  c.restart.maxMillis = 5.0;
  ShardSupervisor sup(c);
  std::string error;
  ASSERT_TRUE(sup.start(error)) << error;  // fork/exec itself succeeds

  Collector out;
  sup.submit(makeRequest("doomed", kFirSource, "fir", "1x64,1x64"), out.handler());
  sup.drainPending();

  auto responses = out.take();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].errorKind, ErrorKind::ResourceExhausted);
  EXPECT_NE(responses[0].error.find("no shards"), std::string::npos)
      << responses[0].error;

  auto stats = sup.stats();
  EXPECT_EQ(stats.shardsEjected, 1);
  EXPECT_EQ(stats.shardsAlive, 0);

  // Later submissions fail fast — nothing left to queue for.
  Collector late;
  sup.submit(makeRequest("late", kFirSource, "fir", "1x64,1x64"), late.handler());
  sup.drainPending();
  auto lateResponses = late.take();
  ASSERT_EQ(lateResponses.size(), 1u);
  EXPECT_FALSE(lateResponses[0].ok);
  EXPECT_GE(sup.stats().failedNoShard, 2u);
  sup.shutdown();
}

// ---- Byte-exact supervisor documents --------------------------------------

ShardSupervisor::Stats goldenSupervisorStats() {
  ShardSupervisor::Stats s;
  s.submitted = 5;
  s.completed = 4;
  s.restarts = 2;
  s.redispatched = 1;
  s.failedNoShard = 1;
  s.shardsAlive = 1;
  s.shardsEjected = 1;
  s.pids = {42, -1};
  return s;
}

TEST(SupervisorDocumentGolden, StatsJson) {
  EXPECT_EQ(statsJson(goldenSupervisorStats(), 1234.56789), R"doc({
  "requests": 5,
  "completed": 4,
  "restarts": 2,
  "redispatched": 1,
  "failedNoShard": 1,
  "shardsAlive": 1,
  "shardsEjected": 1,
  "wallMillis": 1234.568
}
)doc");
}

TEST(SupervisorDocumentGolden, MetricsText) {
  EXPECT_EQ(metricsText(goldenSupervisorStats()), R"doc(# HELP mat2c_shard_requests_total Requests routed to shards
# TYPE mat2c_shard_requests_total counter
mat2c_shard_requests_total 5
# HELP mat2c_shard_responses_total Responses delivered
# TYPE mat2c_shard_responses_total counter
mat2c_shard_responses_total 4
# HELP mat2c_shard_restarts_total Worker processes respawned
# TYPE mat2c_shard_restarts_total counter
mat2c_shard_restarts_total 2
# HELP mat2c_shard_redispatches_total Requests re-sent after a shard died
# TYPE mat2c_shard_redispatches_total counter
mat2c_shard_redispatches_total 1
# HELP mat2c_shard_route_failures_total Requests failed with every shard ejected
# TYPE mat2c_shard_route_failures_total counter
mat2c_shard_route_failures_total 1
# HELP mat2c_shards_alive Live (readmitted) worker shards
# TYPE mat2c_shards_alive gauge
mat2c_shards_alive 1
# HELP mat2c_shards_ejected Permanently ejected shards
# TYPE mat2c_shards_ejected gauge
mat2c_shards_ejected 1
)doc");
}

TEST(SupervisorDocumentGolden, UnstartedFleetMetricsText) {
  ShardSupervisor::Config c;
  c.shards = 2;
  ShardSupervisor sup(c);
  EXPECT_EQ(metricsText(sup.stats()), R"doc(# HELP mat2c_shard_requests_total Requests routed to shards
# TYPE mat2c_shard_requests_total counter
mat2c_shard_requests_total 0
# HELP mat2c_shard_responses_total Responses delivered
# TYPE mat2c_shard_responses_total counter
mat2c_shard_responses_total 0
# HELP mat2c_shard_restarts_total Worker processes respawned
# TYPE mat2c_shard_restarts_total counter
mat2c_shard_restarts_total 0
# HELP mat2c_shard_redispatches_total Requests re-sent after a shard died
# TYPE mat2c_shard_redispatches_total counter
mat2c_shard_redispatches_total 0
# HELP mat2c_shard_route_failures_total Requests failed with every shard ejected
# TYPE mat2c_shard_route_failures_total counter
mat2c_shard_route_failures_total 0
# HELP mat2c_shards_alive Live (readmitted) worker shards
# TYPE mat2c_shards_alive gauge
mat2c_shards_alive 0
# HELP mat2c_shards_ejected Permanently ejected shards
# TYPE mat2c_shards_ejected gauge
mat2c_shards_ejected 0
)doc");
}

}  // namespace
}  // namespace mat2c
