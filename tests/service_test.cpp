// Compilation service layer: cache key, sharded LRU cache, concurrent
// service with single-flight dedup, and the JSON-lines protocol.
//
// The concurrency tests here carry the `service` ctest label so they can be
// run under TSan: cmake -DMAT2C_SANITIZE=thread && ctest -L service.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "driver/kernels.hpp"
#include "service/compile_service.hpp"
#include "service/protocol.hpp"

namespace mat2c {
namespace {

using sema::ArgSpec;
using namespace service;

const char* kFirSource =
    "function y = fir(x, h)\n"
    "y = 0;\n"
    "for k = 1:length(x)\n"
    "  y = y + x(k) * h(k);\n"
    "end\n"
    "end\n";

CompileRequest firRequest(const std::string& id) {
  CompileRequest r;
  r.id = id;
  r.source = kFirSource;
  r.entry = "fir";
  r.args = {ArgSpec::row(64), ArgSpec::row(64)};
  r.options = CompileOptions::proposed();
  return r;
}

// ---- CacheKey ------------------------------------------------------------

TEST(CacheKey, IdenticalRequestsProduceIdenticalKeys) {
  auto a = CacheKey::make(kFirSource, "fir", {ArgSpec::row(64), ArgSpec::row(64)},
                          CompileOptions::proposed());
  auto b = CacheKey::make(kFirSource, "fir", {ArgSpec::row(64), ArgSpec::row(64)},
                          CompileOptions::proposed());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.fingerprint().size(), 16u);
}

TEST(CacheKey, EveryInputDimensionChangesTheKey) {
  auto base = CacheKey::make(kFirSource, "fir", {ArgSpec::row(64)}, CompileOptions::proposed());
  auto otherSource =
      CacheKey::make(std::string(kFirSource) + " ", "fir", {ArgSpec::row(64)},
                     CompileOptions::proposed());
  auto otherEntry =
      CacheKey::make(kFirSource, "fir2", {ArgSpec::row(64)}, CompileOptions::proposed());
  auto otherArgs =
      CacheKey::make(kFirSource, "fir", {ArgSpec::row(128)}, CompileOptions::proposed());
  auto complexArgs =
      CacheKey::make(kFirSource, "fir", {ArgSpec::row(64, true)}, CompileOptions::proposed());
  auto otherIsa =
      CacheKey::make(kFirSource, "fir", {ArgSpec::row(64)}, CompileOptions::proposed("scalar"));
  CompileOptions noVec = CompileOptions::proposed();
  noVec.vectorize = false;
  auto otherOptions = CacheKey::make(kFirSource, "fir", {ArgSpec::row(64)}, noVec);

  EXPECT_NE(base.canonical, otherSource.canonical);
  EXPECT_NE(base.canonical, otherEntry.canonical);
  EXPECT_NE(base.canonical, otherArgs.canonical);
  EXPECT_NE(base.canonical, complexArgs.canonical);
  EXPECT_NE(base.canonical, otherIsa.canonical);
  EXPECT_NE(base.canonical, otherOptions.canonical);
}

TEST(CacheKey, LoopLayerOptionsChangeTheKey) {
  // Two compiles differing in exactly one loop-layer flag must never share a
  // cache entry — every new flag participates in passSignature().
  auto base = CacheKey::make(kFirSource, "fir", {ArgSpec::row(64)}, CompileOptions::proposed());
  auto vary = [&](void (*mutate)(CompileOptions&)) {
    CompileOptions o = CompileOptions::proposed();
    mutate(o);
    return CacheKey::make(kFirSource, "fir", {ArgSpec::row(64)}, o);
  };
  EXPECT_NE(base.canonical, vary([](CompileOptions& o) { o.fuseLoops = false; }).canonical);
  EXPECT_NE(base.canonical,
            vary([](CompileOptions& o) { o.unrollRecurrences = false; }).canonical);
  EXPECT_NE(base.canonical, vary([](CompileOptions& o) { o.unrollMaxTrip = 4; }).canonical);
  EXPECT_NE(base.canonical, vary([](CompileOptions& o) { o.licm = false; }).canonical);
  EXPECT_NE(base.canonical, vary([](CompileOptions& o) { o.cse = false; }).canonical);
  EXPECT_NE(base.canonical, vary([](CompileOptions& o) { o.deadStores = false; }).canonical);
  EXPECT_NE(base.canonical, vary([](CompileOptions& o) { o.reassoc = true; }).canonical);
}

TEST(CacheKey, PassSignatureDriftGuardCoversEveryField) {
  // Drift guard: flipping ANY output-affecting option must change
  // passSignature(), and each flip must land on its own signature. The pass
  // options are the rows of opt/passes.def, so every row is flipped here; an
  // output-affecting field outside the table needs a hand entry below, and a
  // row dropped from the signature shows up as a collision. Covers the
  // tuner-searched knobs too, since the tuned-options memo stores winners by
  // this string.
  std::vector<std::pair<std::string, std::function<void(CompileOptions&)>>> flips = {
      {"style", [](CompileOptions& o) { o.style = lower::CodeStyle::CoderLike; }},
      {"limits.maxLirOps", [](CompileOptions& o) { o.limits.maxLirOps = 12345; }},
  };
#define MAT2C_PASS_BOOL(field, key, stage, proposed, ...) \
  flips.emplace_back(key, [](CompileOptions& o) { o.field = !(proposed); });
#define MAT2C_PASS_TRI(field, key)                                       \
  flips.emplace_back(key "=0", [](CompileOptions& o) { o.field = false; }); \
  flips.emplace_back(key "=1", [](CompileOptions& o) { o.field = true; });
#define MAT2C_PASS_TRIP(field, key, proposed, ...) \
  flips.emplace_back(key, [](CompileOptions& o) { o.field = (proposed) / 2; });
#include "opt/passes.def"
  const std::string base = CompileOptions{}.passSignature();
  std::set<std::string> signatures{base};
  for (const auto& [name, flip] : flips) {
    CompileOptions o;
    flip(o);
    std::string sig = o.passSignature();
    EXPECT_NE(sig, base) << name << " does not reach passSignature()";
    EXPECT_TRUE(signatures.insert(sig).second) << name << " collides with another flip";
  }
}

TEST(CacheKey, TunedKeyIgnoresPassOptionsAndIsDisjointFromCompileKeys) {
  // The tuned-entry key deliberately takes no CompileOptions: the winning
  // pass configuration is the cache's OUTPUT, so any two tune requests for
  // the same (source, entry, args, ISA) must coalesce regardless of the
  // base options they started from. The namespace is disjoint from compile
  // keys (a version-tagged header), so a plain compile can never be served
  // a tuned artifact by accident or vice versa.
  std::vector<ArgSpec> args = {ArgSpec::row(64), ArgSpec::row(64)};
  auto isa = isa::IsaDescription::preset("dspx");
  auto a = CacheKey::makeTuned(kFirSource, "fir", args, isa);
  auto b = CacheKey::makeTuned(kFirSource, "fir", args, isa);
  EXPECT_EQ(a, b);

  auto compileKey = CacheKey::make(kFirSource, "fir", args, CompileOptions::proposed());
  EXPECT_NE(a.canonical, compileKey.canonical);

  // Every remaining input dimension still participates.
  EXPECT_NE(a.canonical,
            CacheKey::makeTuned(std::string(kFirSource) + " ", "fir", args, isa).canonical);
  EXPECT_NE(a.canonical, CacheKey::makeTuned(kFirSource, "fir2", args, isa).canonical);
  EXPECT_NE(a.canonical,
            CacheKey::makeTuned(kFirSource, "fir", {ArgSpec::row(128)}, isa).canonical);

  // The ISA joins via its fingerprint: any observable ISA change (here a
  // retuned op cost) invalidates the memoized tuned configuration, whose
  // winner was chosen by that ISA's cycle model.
  auto retuned = isa::IsaDescription::preset("dspx");
  retuned.setCost(isa::Op::MulF, 3);
  EXPECT_NE(a.canonical, CacheKey::makeTuned(kFirSource, "fir", args, retuned).canonical);
  EXPECT_NE(a.canonical,
            CacheKey::makeTuned(kFirSource, "fir", args,
                                isa::IsaDescription::preset("scalar")).canonical);
}

TEST(CacheKey, ObservationOnlyOptionsDoNotChangeTheKey) {
  CompileOptions verified = CompileOptions::proposed();
  verified.verifyEach = true;
  verified.tracePasses = [](const opt::PassRecord&, const lir::Function&) {};
  auto a = CacheKey::make(kFirSource, "fir", {ArgSpec::row(64)}, CompileOptions::proposed());
  auto b = CacheKey::make(kFirSource, "fir", {ArgSpec::row(64)}, verified);
  EXPECT_EQ(a, b);
}

TEST(CacheKey, IsaFingerprintTracksObservableState) {
  auto dspx = isa::IsaDescription::preset("dspx");
  auto dspx2 = isa::IsaDescription::preset("dspx");
  EXPECT_EQ(dspx.fingerprint(), dspx2.fingerprint());
  dspx2.setCost(isa::Op::MulF, 3);
  EXPECT_NE(dspx.fingerprint(), dspx2.fingerprint());
  EXPECT_NE(dspx.fingerprint(), isa::IsaDescription::preset("scalar").fingerprint());
}

TEST(CacheKey, ArgSpecTokenRoundTrip) {
  EXPECT_EQ(argSpecToken(ArgSpec::row(64)), "r1x64");
  EXPECT_EQ(argSpecToken(ArgSpec::matrix(4, 3, true)), "c4x3");
}

// ---- CompileCache --------------------------------------------------------

std::shared_ptr<const CachedResult> compileToResult(const CompileRequest& r) {
  Compiler compiler;
  CompiledUnit unit = compiler.compileSource(r.source, r.entry, r.args, r.options);
  std::string c = unit.cCode();
  return std::make_shared<const CachedResult>(std::move(unit), std::move(c));
}

TEST(CompileCache, HitMissAndByteCounters) {
  CompileCache cache(/*maxEntries=*/8, /*shardCount=*/2);
  auto key = CacheKey::make(kFirSource, "fir", {ArgSpec::row(64), ArgSpec::row(64)},
                            CompileOptions::proposed());
  EXPECT_EQ(cache.lookup(key), nullptr);
  auto result = compileToResult(firRequest("a"));
  cache.insert(key, result);
  EXPECT_EQ(cache.lookup(key), result);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_GT(stats.bytes, result->cCode.size());
  cache.clear();
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(CompileCache, LruEvictsOldestWithinShard) {
  // Single shard so the LRU order is total.
  CompileCache cache(/*maxEntries=*/2, /*shardCount=*/1);
  auto result = compileToResult(firRequest("a"));
  auto keyFor = [&](int n) {
    return CacheKey::make(kFirSource, "fir", {ArgSpec::row(n)}, CompileOptions::proposed());
  };
  cache.insert(keyFor(1), result);
  cache.insert(keyFor(2), result);
  EXPECT_NE(cache.lookup(keyFor(1)), nullptr);  // refresh 1 → 2 is now oldest
  cache.insert(keyFor(3), result);              // evicts 2
  EXPECT_EQ(cache.lookup(keyFor(2)), nullptr);
  EXPECT_NE(cache.lookup(keyFor(1)), nullptr);
  EXPECT_NE(cache.lookup(keyFor(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(CompileCache, ZeroCapacityDisablesCaching) {
  CompileCache cache(/*maxEntries=*/0);
  auto key = CacheKey::make(kFirSource, "fir", {ArgSpec::row(64)}, CompileOptions::proposed());
  cache.insert(key, compileToResult(firRequest("a")));
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---- CompileService ------------------------------------------------------

TEST(CompileService, BatchCompilesAndWarmRepeatHitsCache) {
  CompileService::Config config;
  config.threads = 4;
  CompileService svc(config);

  std::vector<CompileRequest> batch;
  for (int i = 0; i < 4; ++i) {
    CompileRequest r;
    r.id = "sq" + std::to_string(i);
    r.source = "function y = sq(x)\ny = x .* " + std::to_string(i + 2) + ";\nend\n";
    r.entry = "sq";
    r.args = {ArgSpec::row(16)};
    r.options = CompileOptions::proposed();
    batch.push_back(r);
  }
  auto cold = svc.compileBatch(batch);
  ASSERT_EQ(cold.size(), 4u);
  for (const auto& r : cold) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.cacheHit);
    ASSERT_NE(r.result, nullptr);
    EXPECT_FALSE(r.result->cCode.empty());
  }

  auto warm = svc.compileBatch(batch);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].ok);
    EXPECT_TRUE(warm[i].cacheHit) << warm[i].id;
    EXPECT_EQ(warm[i].result, cold[i].result) << "hit must share the cold result";
  }

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.compiles, 4u);
  EXPECT_EQ(stats.cacheHits, 4u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(CompileService, SingleFlightDedupCompilesOnce) {
  // Stall the (only possible) underlying compile until all 8 identical
  // requests are submitted, so every later submit must join the first
  // request's flight — the test is deterministic, not timing-dependent.
  std::promise<void> release;
  std::shared_future<void> releaseFuture = release.get_future().share();
  std::atomic<int> started{0};

  CompileService::Config config;
  config.threads = 2;
  config.onCompileStart = [&](const CompileRequest&) {
    started.fetch_add(1);
    releaseFuture.wait();
  };
  CompileService svc(config);

  std::vector<std::future<CompileResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(svc.submit(firRequest("req" + std::to_string(i))));
  }
  release.set_value();

  std::shared_ptr<const CachedResult> shared;
  int deduped = 0;
  for (int i = 0; i < 8; ++i) {
    CompileResponse r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.id, "req" + std::to_string(i)) << "responses keep their own ids";
    ASSERT_NE(r.result, nullptr);
    if (!shared) shared = r.result;
    EXPECT_EQ(r.result, shared) << "all joiners share one compile's result";
    deduped += r.deduped ? 1 : 0;
  }
  EXPECT_EQ(started.load(), 1);
  EXPECT_EQ(deduped, 7);

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.compiles, 1u) << "exactly one underlying compile";
  EXPECT_EQ(stats.dedupJoins, 7u);
  EXPECT_EQ(stats.cacheHits, 0u);

  // The stats JSON (the serve subcommand's end-of-run document) exposes the
  // hit/miss and dedup counters.
  std::string json = statsJson(stats, 12.5);
  EXPECT_NE(json.find("\"compiles\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"dedupJoins\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"hits\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"misses\": "), std::string::npos);
  EXPECT_NE(json.find("\"wallMillis\": 12.500"), std::string::npos);
  EXPECT_NE(json.find("\"requestsPerSecond\": "), std::string::npos);
}

TEST(CompileService, CompileErrorsAreReportedInBandToEveryJoiner) {
  std::promise<void> release;
  std::shared_future<void> releaseFuture = release.get_future().share();
  CompileService::Config config;
  config.threads = 1;
  config.onCompileStart = [&](const CompileRequest&) { releaseFuture.wait(); };
  CompileService svc(config);

  CompileRequest bad;
  bad.id = "bad";
  bad.source = "function y = f(x)\ny = nosuch;\nend\n";
  bad.entry = "f";
  bad.args = {ArgSpec::row(4)};
  auto f1 = svc.submit(bad);
  bad.id = "bad2";
  auto f2 = svc.submit(bad);
  release.set_value();

  CompileResponse r1 = f1.get();
  CompileResponse r2 = f2.get();
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r1.error.find("nosuch"), std::string::npos);
  EXPECT_EQ(r1.error, r2.error);
  EXPECT_EQ(svc.stats().errors, 2u);
  EXPECT_EQ(svc.stats().compiles, 1u) << "errors dedup too";
  // Failures are not cached: a retry compiles again.
  EXPECT_FALSE(svc.submit(bad).get().cacheHit);
}

TEST(CompileService, ConcurrentSubmittersStressCacheAndDedup) {
  CompileService::Config config;
  config.threads = 4;
  config.cacheEntries = 64;
  CompileService svc(config);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Half the traffic is the shared fir kernel (cache/dedup churn),
        // half is a per-(thread,i) unique kernel (cold compiles).
        CompileRequest r;
        if (i % 2 == 0) {
          r = firRequest("t" + std::to_string(t) + "i" + std::to_string(i));
        } else {
          r.id = "u" + std::to_string(t) + "_" + std::to_string(i);
          r.source = "function y = u(x)\ny = x + " + std::to_string(t * 100 + i) + ";\nend\n";
          r.entry = "u";
          r.args = {ArgSpec::row(8)};
        }
        CompileResponse resp = svc.submit(std::move(r)).get();
        if (!resp.ok || !resp.result || resp.result->cCode.empty()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.errors, 0u);
  // The shared kernel compiles at most a handful of times (first miss plus
  // any benign race past the retired flight); far fewer than its 48 requests.
  EXPECT_LE(stats.compiles, static_cast<std::uint64_t>(kThreads * kPerThread / 2 + kThreads));
}

// Satellite: Compiler::compileSource itself must be safe to run from many
// threads at once (one Compiler instance per thread — the documented
// contract), on both distinct and identical inputs.
TEST(Concurrency, ParallelCompileSourceDistinctAndIdenticalInputs) {
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        Compiler compiler;  // thread-local instance
        for (int i = 0; i < 4; ++i) {
          // Identical input on every thread…
          auto shared = compiler.compileSource(kFirSource, "fir",
                                               {ArgSpec::row(32), ArgSpec::row(32)},
                                               CompileOptions::proposed());
          if (shared.cCode().empty()) failures.fetch_add(1);
          // …and a thread-distinct one, executed to check the result.
          double scale = t + 2;
          auto unit = compiler.compileSource(
              "function y = f(x)\ny = x * " + std::to_string(t + 2) + ";\nend\n", "f",
              {ArgSpec::scalar()}, CompileOptions::proposed());
          double got = unit.run({Matrix::scalar(3)}).outputs[0].scalarValue();
          if (got != 3.0 * scale) failures.fetch_add(1);
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- Protocol ------------------------------------------------------------

TEST(Protocol, ParsesRequestWithAllFields) {
  CompileRequest r;
  std::string error;
  ASSERT_TRUE(parseCompileRequest(
      R"({"id": "x", "source": "function y = f(x)\ny = x;\nend", "entry": "f",)"
      R"( "args": "1x8,c2x2", "isa": "scalar", "style": "coder", "vectorize": false,)"
      R"( "checkElim": true})",
      r, error))
      << error;
  EXPECT_EQ(r.id, "x");
  EXPECT_NE(r.source.find('\n'), std::string::npos) << "\\n escape decoded";
  EXPECT_EQ(r.entry, "f");
  ASSERT_EQ(r.args.size(), 2u);
  EXPECT_EQ(argSpecToken(r.args[0]), "r1x8");
  EXPECT_EQ(argSpecToken(r.args[1]), "c2x2");
  EXPECT_EQ(r.options.isa.name(), "scalar");
  EXPECT_EQ(r.options.style, lower::CodeStyle::CoderLike);
  EXPECT_FALSE(r.options.vectorize);
  EXPECT_TRUE(r.options.checkElim);
}

TEST(Protocol, RequestErrorsNameTheProblem) {
  CompileRequest r;
  std::string error;
  EXPECT_FALSE(parseCompileRequest(R"({"entry": "f"})", r, error));
  EXPECT_NE(error.find("source"), std::string::npos);
  EXPECT_FALSE(parseCompileRequest(R"({"source": "s", "entry": "f", "typo": 1})", r, error));
  EXPECT_NE(error.find("typo"), std::string::npos);
  // A request that still sends the removed `tenant` field gets a clean error.
  EXPECT_FALSE(
      parseCompileRequest(R"({"source": "s", "entry": "f", "tenant": "acme"})", r, error));
  EXPECT_EQ(error, "unknown request field 'tenant'");
  EXPECT_FALSE(parseCompileRequest(R"({"source": "s", "entry": "f", "args": "0x3"})", r, error));
  EXPECT_NE(error.find("bad arg spec '0x3'"), std::string::npos);
  EXPECT_FALSE(
      parseCompileRequest(R"({"source": "s", "entry": "f", "isa": "nope"})", r, error));
  EXPECT_NE(error.find("nope"), std::string::npos);
  EXPECT_FALSE(parseCompileRequest("{", r, error));
  EXPECT_NE(error.find("byte"), std::string::npos);
  EXPECT_FALSE(parseCompileRequest("[1, 2]", r, error));
  EXPECT_NE(error.find("object"), std::string::npos);
}

TEST(Protocol, InlineIsaTextOverridesPreset) {
  CompileRequest r;
  std::string error;
  ASSERT_TRUE(parseCompileRequest(
      R"({"source": "s", "entry": "f", "isa": "dspx",)"
      R"( "isa_text": "name mydsp\nsimd f64 4\nfeature fma"})",
      r, error))
      << error;
  EXPECT_EQ(r.options.isa.name(), "mydsp");
  EXPECT_EQ(r.options.isa.lanesF64(), 4);
  EXPECT_TRUE(r.options.isa.hasFma());
}

TEST(Protocol, JsonParserHandlesEscapesNumbersAndStructure) {
  std::string error;
  auto v = parseJson(R"({"s": "a\"bA\n", "n": -2.5e2, "b": true, "z": null,)"
                     R"( "a": [1, "two", {"k": false}]})",
                     error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->find("s")->text, "a\"bA\n");
  EXPECT_EQ(v->find("n")->number, -250.0);
  EXPECT_TRUE(v->find("b")->boolean);
  EXPECT_EQ(v->find("z")->kind, JsonValue::Kind::Null);
  ASSERT_EQ(v->find("a")->elements.size(), 3u);
  EXPECT_EQ(v->find("a")->elements[2].find("k")->kind, JsonValue::Kind::Bool);
  EXPECT_EQ(v->find("missing"), nullptr);

  EXPECT_FALSE(parseJson(R"({"x": 1} junk)", error).has_value());
  EXPECT_FALSE(parseJson(R"("unterminated)", error).has_value());
  EXPECT_FALSE(parseJson("{\"x\": nope}", error).has_value());
}

TEST(Protocol, ResponseJsonCarriesResultOrError) {
  CompileResponse ok;
  ok.id = "r1";
  ok.ok = true;
  ok.cacheHit = true;
  ok.result = compileToResult(firRequest("r1"));
  ok.millis = 1.5;
  std::string line = responseJson(ok);
  EXPECT_NE(line.find("\"id\": \"r1\""), std::string::npos);
  EXPECT_NE(line.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(line.find("\"cached\": true"), std::string::npos);
  EXPECT_NE(line.find("\"cBytes\": "), std::string::npos);
  EXPECT_NE(line.find("\"loopsVectorized\": 1"), std::string::npos);

  CompileResponse bad;
  bad.id = "r2";
  bad.error = "boom \"quoted\"";
  std::string badLine = responseJson(bad);
  EXPECT_NE(badLine.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(badLine.find("\\\"quoted\\\""), std::string::npos);
}

// ---- Autotune through the service ----------------------------------------

CompileRequest tuneRequest(const std::string& id, int budget = 4) {
  CompileRequest r = firRequest(id);
  r.tune = true;
  r.tuneBudget = budget;  // small: the test exercises memoization, not search
  return r;
}

TEST(CompileService, TuneRequestMemoizesTheWinnerForWarmHits) {
  CompileService::Config config;
  config.threads = 2;
  CompileService svc(config);

  CompileResponse cold = svc.submit(tuneRequest("t1")).get();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cacheHit);
  ASSERT_NE(cold.result, nullptr);
  EXPECT_TRUE(cold.result->tuned());
  EXPECT_GE(cold.result->tuneCandidates, 1);
  EXPECT_GT(cold.result->tunedCycles, 0.0);
  EXPECT_GE(cold.result->tuneDefaultCycles, cold.result->tunedCycles);

  // The warm request starts from DIFFERENT base pass options: the tuned key
  // ignores them, so it must still hit the memoized artifact — the whole
  // point of caching the search, a client need not know the winner to get it.
  CompileRequest warmReq = tuneRequest("t2");
  warmReq.options.licm = false;
  warmReq.options.unrollMaxTrip = 2;
  CompileResponse warm = svc.submit(warmReq).get();
  EXPECT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.result, cold.result) << "warm tune must reuse the memoized winner";

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.tunes, 1u) << "the search ran once";
  EXPECT_EQ(stats.cacheHits, 1u);
  EXPECT_EQ(stats.compiles, static_cast<std::uint64_t>(cold.result->tuneCandidates))
      << "compiles counts the search's real compileSource calls";
}

TEST(CompileService, TunedEntryInvalidatedByIsaChangeAndDisjointFromCompiles) {
  CompileService::Config config;
  config.threads = 2;
  CompileService svc(config);

  CompileResponse first = svc.submit(tuneRequest("t1")).get();
  ASSERT_TRUE(first.ok) << first.error;

  // Same request on a different ISA: the fingerprint is in the key, so the
  // dspx winner (chosen by dspx's cycle model) cannot be served for scalar.
  CompileRequest other = tuneRequest("t2");
  other.options = CompileOptions::proposed("scalar");
  CompileResponse second = svc.submit(other).get();
  EXPECT_TRUE(second.ok) << second.error;
  EXPECT_FALSE(second.cacheHit);
  EXPECT_NE(second.result, first.result);
  EXPECT_EQ(svc.stats().tunes, 2u);

  // A plain compile of the same (source, args, ISA) lives in the compile-key
  // namespace and must not be answered from the tuned entry.
  CompileResponse plain = svc.submit(firRequest("t3")).get();
  EXPECT_TRUE(plain.ok) << plain.error;
  EXPECT_FALSE(plain.cacheHit);
  ASSERT_NE(plain.result, nullptr);
  EXPECT_FALSE(plain.result->tuned());
}

TEST(CompileService, ConcurrentTuneRequestsShareOneSearch) {
  // Same single-flight guarantee as plain compiles, but the deduplicated
  // work is a whole pass-parameter search — stall the first search until
  // every identical tune request is queued, then assert one search served
  // all of them.
  std::promise<void> release;
  std::shared_future<void> releaseFuture = release.get_future().share();
  std::atomic<int> started{0};

  CompileService::Config config;
  config.threads = 2;
  config.onCompileStart = [&](const CompileRequest&) {
    started.fetch_add(1);
    releaseFuture.wait();
  };
  CompileService svc(config);

  std::vector<std::future<CompileResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(svc.submit(tuneRequest("t" + std::to_string(i))));
  }
  release.set_value();

  std::shared_ptr<const CachedResult> shared;
  int deduped = 0;
  for (auto& f : futures) {
    CompileResponse r = f.get();
    EXPECT_TRUE(r.ok) << r.error;
    ASSERT_NE(r.result, nullptr);
    EXPECT_TRUE(r.result->tuned());
    if (!shared) shared = r.result;
    EXPECT_EQ(r.result, shared) << "all joiners share one search's winner";
    deduped += r.deduped ? 1 : 0;
  }
  EXPECT_EQ(started.load(), 1);
  EXPECT_EQ(deduped, 5);

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.tunes, 1u) << "exactly one underlying search";
  EXPECT_EQ(stats.dedupJoins, 5u);
}

TEST(CompileCache, ByteAccountingCoversTunedEntries) {
  // The memoized tuned signature is part of the entry's heap footprint, so
  // it must be charged on insert and released on evict — the per-shard
  // audit catches a byteSize() that forgets the new field.
  CompileCache cache(/*maxEntries=*/4, /*shardCount=*/2);
  auto plain = compileToResult(firRequest("a"));

  Compiler compiler;
  CompileRequest r = firRequest("b");
  CompiledUnit unit = compiler.compileSource(r.source, r.entry, r.args, r.options);
  std::string cCode = unit.cCode();
  std::string signature = r.options.passSignature();
  auto tuned = std::make_shared<const CachedResult>(std::move(unit), std::move(cCode),
                                                    signature, /*candidates=*/7,
                                                    /*tunedCycles=*/100.0,
                                                    /*defaultCycles=*/250.0);
  EXPECT_EQ(tuned->byteSize(), plain->byteSize() + signature.size())
      << "the tuned signature joins the entry's footprint";

  auto plainKey = CacheKey::make(r.source, r.entry, r.args, r.options);
  auto tunedKey = CacheKey::makeTuned(r.source, r.entry, r.args, r.options.isa);
  cache.insert(plainKey, plain);
  cache.insert(tunedKey, tuned);
  EXPECT_TRUE(cache.checkByteAccounting());
  EXPECT_EQ(cache.stats().entries, 2u);

  cache.clear();
  EXPECT_TRUE(cache.checkByteAccounting());
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(Protocol, TuneRequestFieldsParseAndValidate) {
  CompileRequest r;
  std::string error;
  ASSERT_TRUE(parseCompileRequest(
      R"({"source": "s", "entry": "f", "tune": true, "tune_budget": 12})", r, error))
      << error;
  EXPECT_TRUE(r.tune);
  EXPECT_EQ(r.tuneBudget, 12);

  EXPECT_FALSE(parseCompileRequest(R"({"source": "s", "entry": "f", "tune": "yes"})",
                                   r, error));
  EXPECT_NE(error.find("'tune' must be a boolean"), std::string::npos);
  EXPECT_FALSE(parseCompileRequest(R"({"source": "s", "entry": "f", "tune_budget": 0})",
                                   r, error));
  EXPECT_NE(error.find("'tune_budget' must be a positive integer"), std::string::npos);
  EXPECT_FALSE(parseCompileRequest(R"({"source": "s", "entry": "f", "tune_budget": 2.5})",
                                   r, error));
}

TEST(Protocol, ResponseJsonCarriesTunedProvenance) {
  Compiler compiler;
  CompileRequest req = firRequest("t1");
  CompiledUnit unit = compiler.compileSource(req.source, req.entry, req.args, req.options);
  std::string cCode = unit.cCode();
  CompileResponse resp;
  resp.id = "t1";
  resp.ok = true;
  resp.result = std::make_shared<const CachedResult>(
      std::move(unit), std::move(cCode), req.options.passSignature(),
      /*candidates=*/9, /*tunedCycles=*/123.0, /*defaultCycles=*/456.0);

  std::string line = responseJson(resp);
  EXPECT_NE(line.find("\"tuned\": true"), std::string::npos);
  EXPECT_NE(line.find("\"tunedSignature\": \"style=proposed;"), std::string::npos);
  EXPECT_NE(line.find("\"tuneCandidates\": 9"), std::string::npos);
  EXPECT_NE(line.find("\"tunedCycles\": 123.0"), std::string::npos);
  EXPECT_NE(line.find("\"tuneDefaultCycles\": 456.0"), std::string::npos);

  // A plain compile result carries none of the tuned fields.
  CompileResponse plain;
  plain.id = "p1";
  plain.ok = true;
  plain.result = compileToResult(firRequest("p1"));
  EXPECT_EQ(responseJson(plain).find("\"tuned\""), std::string::npos);
}

// ---- byte accounting with the optional CompiledUnit ----------------------

TEST(CompileCache, ByteAccountingChargesTheUnitFootprint) {
  // A cached entry pins its whole LIR statement tree; byteSize() must charge
  // for it, or a byte-capped cache holds far more memory than it reports.
  auto withUnit = compileToResult(firRequest("u"));
  ASSERT_TRUE(withUnit->hasUnit());
  EXPECT_GT(withUnit->unitFootprintBytes(), 0u);
  EXPECT_GT(withUnit->byteSize(),
            sizeof(CachedResult) + withUnit->cCode.size() + withUnit->isaName.size());

  // A store-rehydrated entry has no unit: same metadata, smaller footprint.
  CachedResult::Meta meta;
  meta.isaName = withUnit->isaName;
  meta.loopsVectorized = withUnit->loopsVectorized;
  meta.idiomRewrites = withUnit->idiomRewrites;
  meta.degraded = withUnit->degraded;
  CachedResult rehydrated(withUnit->cCode, std::move(meta), "", 0, 0.0, 0.0);
  EXPECT_FALSE(rehydrated.hasUnit());
  EXPECT_EQ(rehydrated.unitFootprintBytes(), 0u);
  EXPECT_EQ(rehydrated.byteSize() + withUnit->unitFootprintBytes(), withUnit->byteSize());

  // The per-shard audit holds with mixed with-unit / metadata-only entries.
  CompileCache cache(/*maxEntries=*/4, /*shardCount=*/2);
  CompileRequest r = firRequest("u");
  cache.insert(CacheKey::make(r.source, r.entry, r.args, r.options), withUnit);
  cache.insert(CacheKey::make(r.source, r.entry, r.args, CompileOptions::coderLike()),
               std::make_shared<const CachedResult>(std::move(rehydrated)));
  EXPECT_TRUE(cache.checkByteAccounting());
}

// ---- latency histogram ----------------------------------------------------

TEST(LatencyHistogram, PercentilesReadBucketUpperBounds) {
  LatencyHistogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().p99Millis, 0.0);

  // 90 fast requests at 3 µs (bucket [2,4)) and 10 slow at 1000 µs (bucket
  // [512,1024)): the median reads the fast bucket's upper bound, the p99 the
  // slow one's.
  for (int i = 0; i < 90; ++i) h.record(3.0);
  for (int i = 0; i < 10; ++i) h.record(1000.0);
  LatencyStats s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50Millis, 0.004);   // 4 µs
  EXPECT_DOUBLE_EQ(s.p99Millis, 1.024);   // 1024 µs
  EXPECT_LE(s.p50Millis, s.p95Millis);
  EXPECT_LE(s.p95Millis, s.p99Millis);

  // Sub-microsecond and absurdly large values both land in real buckets.
  LatencyHistogram edges;
  edges.record(0.0);
  edges.record(1e30);
  EXPECT_EQ(edges.snapshot().count, 2u);
}

// ---- binary wire protocol -------------------------------------------------

TEST(Protocol, BinaryRequestRoundTripMatchesJsonParse) {
  WireRequest wire;
  wire.id = "r1";
  wire.source = "function y = f(x)\ny = x;\nend\n";
  wire.entry = "f";
  wire.args = "1x8,c1x4";
  wire.isa = "dspx";  // empty now means "server default", so name it explicitly
  wire.style = "coder";
  wire.vectorize = false;
  wire.degrade = true;
  wire.deadlineMillis = 1500.0;
  wire.tune = true;
  wire.tuneBudget = 9;

  std::string payload = encodeBinaryRequest(wire);
  WireRequest decoded;
  std::string error;
  ASSERT_TRUE(decodeBinaryRequest(payload, decoded, error)) << error;
  EXPECT_EQ(decoded.id, wire.id);
  EXPECT_EQ(decoded.source, wire.source);
  EXPECT_EQ(decoded.entry, wire.entry);
  EXPECT_EQ(decoded.args, wire.args);
  EXPECT_EQ(decoded.isa, "dspx");
  EXPECT_EQ(decoded.style, "coder");
  EXPECT_EQ(decoded.vectorize, std::optional<bool>(false));
  EXPECT_EQ(decoded.degrade, std::optional<bool>(true));
  EXPECT_EQ(decoded.constFold, std::nullopt) << "absent toggles stay absent";
  EXPECT_EQ(decoded.deadlineMillis, 1500.0);
  EXPECT_TRUE(decoded.tune);
  EXPECT_EQ(decoded.tuneBudget, 9);

  // Both encodings resolve to the same CompileRequest.
  CompileRequest fromBinary, fromJson;
  ASSERT_TRUE(decoded.resolve(fromBinary, error)) << error;
  ASSERT_TRUE(parseCompileRequest(
      R"({"id": "r1", "source": "function y = f(x)\ny = x;\nend\n", "entry": "f",)"
      R"( "args": "1x8,c1x4", "style": "coder",)"
      R"( "vectorize": false, "degrade": true, "deadline_ms": 1500,)"
      R"( "tune": true, "tune_budget": 9})",
      fromJson, error))
      << error;
  EXPECT_EQ(CacheKey::make(fromBinary.source, fromBinary.entry, fromBinary.args,
                           fromBinary.options),
            CacheKey::make(fromJson.source, fromJson.entry, fromJson.args,
                           fromJson.options));
  EXPECT_EQ(fromBinary.deadlineMillis, fromJson.deadlineMillis);
  EXPECT_EQ(fromBinary.tuneBudget, fromJson.tuneBudget);
}

TEST(Protocol, EveryWireToggleRoundTripsJsonAndBinary) {
  // Each opt/passes.def row with a wire bit travels absent, true and false
  // through both encodings under its key, and resolves onto its
  // CompileOptions field (absent keeps the Proposed default).
  const std::string source = "function y = f(x)\ny = x;\nend\n";
  int rows = 0;
  auto check = [&](const char* key, std::optional<bool> WireRequest::*wire,
                   bool CompileOptions::*option) {
    ++rows;
    for (std::optional<bool> v : {std::optional<bool>{}, std::optional<bool>{true},
                                  std::optional<bool>{false}}) {
      SCOPED_TRACE(std::string(key) + " = " + (v ? (*v ? "true" : "false") : "absent"));
      WireRequest req;
      req.source = source;
      req.entry = "f";
      req.*wire = v;
      WireRequest fromBinary;
      std::string error;
      ASSERT_TRUE(decodeBinaryRequest(encodeBinaryRequest(req), fromBinary, error)) << error;
      EXPECT_EQ(fromBinary.*wire, v);

      std::string line = R"({"source": "function y = f(x)\ny = x;\nend\n", "entry": "f")";
      if (v) line += std::string(", \"") + key + "\": " + (*v ? "true" : "false");
      WireRequest fromJson;
      ASSERT_TRUE(parseWireRequest(line + "}", fromJson, error)) << error;
      EXPECT_EQ(fromJson.*wire, v);

      CompileRequest resolved;
      ASSERT_TRUE(fromJson.resolve(resolved, error)) << error;
      EXPECT_EQ(resolved.options.*option, v.value_or(CompileOptions::proposed().*option));
    }
  };
#define WIRE(bit) check
#define NO_WIRE(...)
#define MAT2C_PASS_BOOL(field, key, stage, proposed, coder, passes, flag, wire, ...) \
  wire(key, &WireRequest::field, &CompileOptions::field);
#include "opt/passes.def"
  EXPECT_EQ(rows, 6);
}

TEST(Protocol, WireToggleBitsAreGolden) {
  // The binary request's presence/value masks are a wire format: pin the
  // bit of every toggle with one request that sets all six, alternating
  // true and false in bit order (present 0x3f, value 0x15).
  WireRequest req;
  req.id = "g";
  req.source = "s";
  req.entry = "f";
  req.constFold = true;   // bit 0
  req.idioms = false;     // bit 1
  req.vectorize = true;   // bit 2
  req.sinkDecls = false;  // bit 3
  req.checkElim = true;   // bit 4
  req.degrade = false;    // bit 5
  static const char kGolden[] =
      "\x01\0\0\0g"                   // id
      "\x01\0\0\0s"                   // source
      "\x01\0\0\0f"                   // entry
      "\0\0\0\0\0\0\0\0\0\0\0\0"  // args, isa, isa_text
      "\x08\0\0\0proposed"            // style
      "\x3f\x15"                       // toggle presence, toggle values
      "\0"                              // tune
      "\0\0\0\0"                      // tune_budget
      "\0\0\0\0\0\0\0\0"              // deadline_ms
      "\0\0\0\0";                     // admin
  EXPECT_EQ(encodeBinaryRequest(req), std::string(kGolden, sizeof kGolden - 1));
}

TEST(Protocol, BinaryRequestDecodeRejectsDamage) {
  WireRequest wire;
  wire.source = "s";
  wire.entry = "f";
  std::string good = encodeBinaryRequest(wire);
  WireRequest out;
  std::string error;

  EXPECT_FALSE(decodeBinaryRequest(good.substr(0, good.size() / 2), out, error));
  EXPECT_FALSE(decodeBinaryRequest("", out, error));
  EXPECT_FALSE(decodeBinaryRequest("\xff\xff\xff\xff garbage", out, error));
  EXPECT_FALSE(decodeBinaryRequest(good + "trailing", out, error));
  EXPECT_EQ(error, "malformed request payload");

  // Semantic bounds survive the trip through binary.
  WireRequest badBudget = wire;
  badBudget.tuneBudget = -3;
  EXPECT_FALSE(decodeBinaryRequest(encodeBinaryRequest(badBudget), out, error));
  EXPECT_NE(error.find("tune_budget"), std::string::npos);
}

TEST(Protocol, BinaryResponseRoundTrip) {
  CompileResponse resp;
  resp.id = "ok1";
  resp.ok = true;
  resp.cacheHit = true;
  resp.storeHit = true;
  resp.millis = 2.5;
  CachedResult::Meta meta;
  meta.isaName = "dspx";
  meta.loopsVectorized = 3;
  meta.idiomRewrites = 1;
  meta.degraded = {"licm"};
  resp.result = std::make_shared<const CachedResult>("/* c */", std::move(meta),
                                                     "reassoc=1", 22, 100.0, 250.0);

  BinaryResponse out;
  std::string error;
  ASSERT_TRUE(decodeBinaryResponse(encodeBinaryResponse(resp), out, error)) << error;
  EXPECT_EQ(out.id, "ok1");
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.cached);
  EXPECT_TRUE(out.storeHit);
  EXPECT_FALSE(out.deduped);
  EXPECT_EQ(out.millis, 2.5);
  EXPECT_EQ(out.isa, "dspx");
  EXPECT_EQ(out.cBytes, 7u);
  EXPECT_EQ(out.loopsVectorized, 3);
  EXPECT_EQ(out.degraded, (std::vector<std::string>{"licm"}));
  EXPECT_TRUE(out.tuned);
  EXPECT_EQ(out.tunedSignature, "reassoc=1");
  EXPECT_EQ(out.tuneCandidates, 22);
  EXPECT_EQ(out.tunedCycles, 100.0);
  EXPECT_EQ(out.tuneDefaultCycles, 250.0);

  CompileResponse failure;
  failure.id = "e1";
  failure.error = "type error: something";
  failure.errorKind = ErrorKind::SemaError;
  failure.millis = 0.25;
  ASSERT_TRUE(decodeBinaryResponse(encodeBinaryResponse(failure), out, error)) << error;
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.errorKind, ErrorKind::SemaError);
  EXPECT_EQ(out.error, "type error: something");
  EXPECT_FALSE(out.tuned);

  EXPECT_FALSE(decodeBinaryResponse("short", out, error));
}

TEST(Protocol, FrameRoundTripAndFramingErrors) {
  std::string payload = "hello frames";
  std::string frame = encodeFrame(FrameType::Request, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  // Two frames back to back, then clean EOF.
  std::istringstream in(frame + encodeFrame(FrameType::Response, ""));
  FrameType type{};
  std::string got, error;
  EXPECT_EQ(readFrame(in, type, got, error), 1);
  EXPECT_EQ(type, FrameType::Request);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(readFrame(in, type, got, error), 1);
  EXPECT_EQ(type, FrameType::Response);
  EXPECT_EQ(got, "");
  EXPECT_EQ(readFrame(in, type, got, error), 0) << "stream ends at a frame boundary";

  auto readOne = [&](std::string bytes) {
    std::istringstream s(std::move(bytes));
    error.clear();
    return readFrame(s, type, got, error);
  };
  EXPECT_EQ(readOne(frame.substr(0, 5)), -1);
  EXPECT_NE(error.find("truncated frame header"), std::string::npos);
  EXPECT_EQ(readOne(frame.substr(0, frame.size() - 3)), -1);
  EXPECT_NE(error.find("truncated frame payload"), std::string::npos);

  std::string badMagic = frame;
  badMagic[0] = 'X';
  EXPECT_EQ(readOne(badMagic), -1);
  EXPECT_NE(error.find("bad frame magic"), std::string::npos);

  std::string badVersion = frame;
  badVersion[4] = 9;
  EXPECT_EQ(readOne(badVersion), -1);
  EXPECT_NE(error.find("unsupported frame version"), std::string::npos);

  std::string badType = frame;
  badType[6] = 7;
  EXPECT_EQ(readOne(badType), -1);
  EXPECT_NE(error.find("unknown frame type"), std::string::npos);

  // Payload limit enforced from the header, before any allocation.
  ProtocolLimits tight;
  tight.maxRequestBytes = 4;
  std::istringstream s(frame);
  EXPECT_EQ(readFrame(s, type, got, error, tight), -1);
  EXPECT_NE(error.find("frame payload is"), std::string::npos);
}

TEST(Protocol, FrameHeaderTable) {
  // decodeFrameHeader is the one header check behind readFrame and the shard
  // supervisor's response reader; each row edits one byte of a valid
  // Response header whose payload is 4 bytes.
  const std::string good = encodeFrame(FrameType::Response, "abcd").substr(0, kFrameHeaderBytes);
  auto with = [&](std::size_t at, char byte) {
    std::string h = good;
    h[at] = byte;
    return h;
  };
  struct Case {
    std::string header;
    std::size_t maxPayload;
    std::string error;  ///< "" = decodes, to a payload of `len` bytes
    std::uint32_t len;
  };
  const Case cases[] = {
      {good, 4, "", 4},  // exactly at the limit
      {good, 3, "frame payload is 4 bytes (limit 3)", 0},
      {good.substr(0, kFrameHeaderBytes - 1), 0, "truncated frame header", 0},
      {with(3, 'X'), 0, "bad frame magic", 0},              // last magic byte
      {with(4, 1), 0, "unsupported frame version 1", 0},    // the v1 wire
      {with(4, 2), 0, "unsupported frame version 2", 0},    // the v2 wire
      {with(5, 1), 0, "unsupported frame version 259", 0},  // version high byte
      {with(6, 0), 0, "unknown frame type 0", 0},
      {with(7, 1), 0, "unknown frame type 258", 0},  // type high byte
      // The supervisor's 64 MiB response bound, and 0 = unlimited.
      {with(11, '\xff'), 64u << 20, "frame payload is 4278190084 bytes (limit 67108864)", 0},
      {with(11, '\xff'), 0, "", 4278190084u},
  };
  int row = 0;
  for (const Case& c : cases) {
    FrameHeader h;
    std::string error;
    bool ok = decodeFrameHeader(c.header, c.maxPayload, h, error);
    EXPECT_EQ(ok, c.error.empty()) << "row " << row;
    EXPECT_EQ(error, c.error) << "row " << row;
    if (ok) {
      EXPECT_EQ(h.type, FrameType::Response) << "row " << row;
      EXPECT_EQ(h.payloadLen, c.len) << "row " << row;
    }
    ++row;
  }
}

// ---- stats rendering: JSON, Prometheus, healthz ---------------------------

TEST(CompileService, StatsJsonCarriesLatencyTenantsAndStoreBlocks) {
  CompileService::Config config;
  config.threads = 2;
  CompileService svc(config);
  ASSERT_TRUE(svc.compileBatch({firRequest("s1")})[0].ok);

  std::string doc = statsJson(svc.stats(), /*wallMillis=*/10.0);
  EXPECT_NE(doc.find("\"storeHits\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"latency\""), std::string::npos);
  EXPECT_NE(doc.find("\"p99Millis\""), std::string::npos);
  EXPECT_EQ(doc.find("\"store\""), std::string::npos)
      << "no store block when persistence is disabled";
  EXPECT_NE(doc.find("\"requestsPerSecond\""), std::string::npos);

  std::string metrics = metricsText(svc.stats(), /*wallMillis=*/10.0);
  for (const char* name :
       {"mat2c_requests_total 1", "mat2c_compiles_total 1", "mat2c_store_hits_total 0",
        "mat2c_request_latency_millis{quantile=\"0.99\"}", "mat2c_requests_per_second",
        "mat2c_healthz 1"}) {
    EXPECT_NE(metrics.find(name), std::string::npos) << "missing metric: " << name;
  }
  EXPECT_EQ(healthzText(svc.stats()), "ok");

  ServiceStats degraded = svc.stats();
  degraded.panics = 2;
  EXPECT_NE(healthzText(degraded).find("degraded"), std::string::npos);
  EXPECT_NE(metricsText(degraded).find("mat2c_healthz 0"), std::string::npos);
}

// ---- artifact store: blocked directory degrades, never fails -------------

TEST(CompileService, BlockedStoreDirServesFromMemoryAndReportsDegraded) {
  // Tests run as root, so a chmod 000 directory is still writable; blocking
  // the store with a regular FILE where a path component must be a directory
  // fails create_directories for any uid.
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "mat2c_blocked_store";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::path blocker = dir / "blocker";
  { std::ofstream out(blocker); out << "not a directory"; }

  CompileService::Config config;
  config.threads = 2;
  config.storeDir = (blocker / "store").string();
  CompileService svc(config);

  ASSERT_NE(svc.artifactStore(), nullptr);
  EXPECT_FALSE(svc.artifactStore()->ok());

  // Compiles still succeed — the store failure only costs persistence.
  CompileResponse cold = svc.submit(firRequest("cold")).get();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cacheHit);
  CompileResponse warm = svc.submit(firRequest("warm")).get();
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cacheHit) << "memory tier keeps working without the store";

  // The put runs before the waiter promise is fulfilled, so the doomed put is
  // normally counted already; the short poll only bounds the wait.
  ServiceStats stats = svc.stats();
  for (int i = 0; i < 400 && stats.store.putFailures == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = svc.stats();
  }
  EXPECT_TRUE(stats.storeEnabled);
  EXPECT_GE(stats.store.putFailures, 1u)
      << "every write-behind against the blocked store must be counted";
  EXPECT_NE(healthzText(stats).find("degraded"), std::string::npos);
  EXPECT_NE(healthzText(stats).find("store write failures"), std::string::npos);
  fs::remove_all(dir);
}

// ---- Byte-exact stats, metrics and response documents ---------------------
//
// Hand-made inputs (no timing, no compiles). The store block and the
// wall-time members are all on in one document and all off in the other.

ServiceStats goldenStats(bool blocksOn) {
  ServiceStats s;
  s.requests = 7;
  s.compiles = 3;
  s.tunes = 1;
  s.cacheHits = 2;
  s.storeHits = 1;
  s.dedupJoins = 1;
  s.errors = 1;
  s.timeouts = 1;
  s.degraded = 1;
  s.compileMillis = 12.3456;
  s.threads = 2;
  s.cache = {2, 5, 1, 4, 3, 4096};
  s.latency = {7, 0.512, 2.048, 4.096};
  if (blocksOn) {
    s.storeEnabled = true;
    s.store = {1, 2, 3, 0, 1, 0, 9000, 3};
  }
  return s;
}

TEST(DocumentGolden, StatsJsonWithEveryBlock) {
  EXPECT_EQ(statsJson(goldenStats(true), 2000.0), R"doc({
  "requests": 7,
  "compiles": 3,
  "tunes": 1,
  "cacheHits": 2,
  "storeHits": 1,
  "dedupJoins": 1,
  "errors": 1,
  "timeouts": 1,
  "panics": 0,
  "degraded": 1,
  "threads": 2,
  "compileMillis": 12.346,
  "latency": {"count": 7, "p50Millis": 0.512, "p95Millis": 2.048, "p99Millis": 4.096},
  "store": {"hits": 1, "misses": 2, "puts": 3, "putFailures": 0, "corrupt": 1, "evictions": 0, "bytes": 9000, "files": 3},
  "cache": {"entries": 3, "bytes": 4096, "hits": 2, "misses": 5, "evictions": 1, "insertions": 4},
  "wallMillis": 2000.000,
  "requestsPerSecond": 3.500
}
)doc");
}

TEST(DocumentGolden, StatsJsonWithoutOptionalBlocks) {
  EXPECT_EQ(statsJson(goldenStats(false)), R"doc({
  "requests": 7,
  "compiles": 3,
  "tunes": 1,
  "cacheHits": 2,
  "storeHits": 1,
  "dedupJoins": 1,
  "errors": 1,
  "timeouts": 1,
  "panics": 0,
  "degraded": 1,
  "threads": 2,
  "compileMillis": 12.346,
  "latency": {"count": 7, "p50Millis": 0.512, "p95Millis": 2.048, "p99Millis": 4.096},
  "cache": {"entries": 3, "bytes": 4096, "hits": 2, "misses": 5, "evictions": 1, "insertions": 4}
}
)doc");
}

TEST(DocumentGolden, MetricsTextWithEveryBlock) {
  EXPECT_EQ(metricsText(goldenStats(true), 2000.0), R"doc(# HELP mat2c_requests_total Requests submitted
# TYPE mat2c_requests_total counter
mat2c_requests_total 7
# HELP mat2c_compiles_total Underlying compileSource calls
# TYPE mat2c_compiles_total counter
mat2c_compiles_total 3
# HELP mat2c_tunes_total Autotune searches run
# TYPE mat2c_tunes_total counter
mat2c_tunes_total 1
# HELP mat2c_cache_hits_total Submit-time cache hits (memory or store)
# TYPE mat2c_cache_hits_total counter
mat2c_cache_hits_total 2
# HELP mat2c_store_hits_total Cache hits served from the artifact store
# TYPE mat2c_store_hits_total counter
mat2c_store_hits_total 1
# HELP mat2c_dedup_joins_total Requests joining an in-flight compile
# TYPE mat2c_dedup_joins_total counter
mat2c_dedup_joins_total 1
# HELP mat2c_errors_total Failed responses
# TYPE mat2c_errors_total counter
mat2c_errors_total 1
# HELP mat2c_timeouts_total Responses resolved with Timeout
# TYPE mat2c_timeouts_total counter
mat2c_timeouts_total 1
# HELP mat2c_panics_total Non-standard exceptions contained
# TYPE mat2c_panics_total counter
mat2c_panics_total 0
# HELP mat2c_degraded_total Compiles that used the degradation ladder
# TYPE mat2c_degraded_total counter
mat2c_degraded_total 1
# HELP mat2c_threads Worker pool size
# TYPE mat2c_threads gauge
mat2c_threads 2
# HELP mat2c_cache_entries Live cache entries
# TYPE mat2c_cache_entries gauge
mat2c_cache_entries 3
# HELP mat2c_cache_bytes Cache footprint estimate
# TYPE mat2c_cache_bytes gauge
mat2c_cache_bytes 4096
# HELP mat2c_cache_evictions_total LRU evictions
# TYPE mat2c_cache_evictions_total counter
mat2c_cache_evictions_total 1
# HELP mat2c_cache_insertions_total Cache insertions
# TYPE mat2c_cache_insertions_total counter
mat2c_cache_insertions_total 4
# HELP mat2c_store_bytes Artifact store on-disk bytes
# TYPE mat2c_store_bytes gauge
mat2c_store_bytes 9000
# HELP mat2c_store_files Artifact store file count
# TYPE mat2c_store_files gauge
mat2c_store_files 3
# HELP mat2c_store_puts_total Artifacts persisted
# TYPE mat2c_store_puts_total counter
mat2c_store_puts_total 3
# HELP mat2c_store_put_failures_total Artifact persist failures
# TYPE mat2c_store_put_failures_total counter
mat2c_store_put_failures_total 0
# HELP mat2c_store_corrupt_total Damaged artifacts rejected
# TYPE mat2c_store_corrupt_total counter
mat2c_store_corrupt_total 1
# HELP mat2c_store_evictions_total Artifacts evicted for space
# TYPE mat2c_store_evictions_total counter
mat2c_store_evictions_total 0
# HELP mat2c_request_latency_millis Request latency submit-to-fulfillment
# TYPE mat2c_request_latency_millis summary
mat2c_request_latency_millis{quantile="0.5"} 0.512
mat2c_request_latency_millis{quantile="0.95"} 2.048
mat2c_request_latency_millis{quantile="0.99"} 4.096
mat2c_request_latency_millis_count 7
# HELP mat2c_requests_per_second Observed request throughput
# TYPE mat2c_requests_per_second gauge
mat2c_requests_per_second 3.500
# HELP mat2c_healthz 1 when healthy
# TYPE mat2c_healthz gauge
mat2c_healthz 1
)doc");
}

TEST(DocumentGolden, MetricsTextWithoutOptionalBlocks) {
  EXPECT_EQ(metricsText(goldenStats(false)), R"doc(# HELP mat2c_requests_total Requests submitted
# TYPE mat2c_requests_total counter
mat2c_requests_total 7
# HELP mat2c_compiles_total Underlying compileSource calls
# TYPE mat2c_compiles_total counter
mat2c_compiles_total 3
# HELP mat2c_tunes_total Autotune searches run
# TYPE mat2c_tunes_total counter
mat2c_tunes_total 1
# HELP mat2c_cache_hits_total Submit-time cache hits (memory or store)
# TYPE mat2c_cache_hits_total counter
mat2c_cache_hits_total 2
# HELP mat2c_store_hits_total Cache hits served from the artifact store
# TYPE mat2c_store_hits_total counter
mat2c_store_hits_total 1
# HELP mat2c_dedup_joins_total Requests joining an in-flight compile
# TYPE mat2c_dedup_joins_total counter
mat2c_dedup_joins_total 1
# HELP mat2c_errors_total Failed responses
# TYPE mat2c_errors_total counter
mat2c_errors_total 1
# HELP mat2c_timeouts_total Responses resolved with Timeout
# TYPE mat2c_timeouts_total counter
mat2c_timeouts_total 1
# HELP mat2c_panics_total Non-standard exceptions contained
# TYPE mat2c_panics_total counter
mat2c_panics_total 0
# HELP mat2c_degraded_total Compiles that used the degradation ladder
# TYPE mat2c_degraded_total counter
mat2c_degraded_total 1
# HELP mat2c_threads Worker pool size
# TYPE mat2c_threads gauge
mat2c_threads 2
# HELP mat2c_cache_entries Live cache entries
# TYPE mat2c_cache_entries gauge
mat2c_cache_entries 3
# HELP mat2c_cache_bytes Cache footprint estimate
# TYPE mat2c_cache_bytes gauge
mat2c_cache_bytes 4096
# HELP mat2c_cache_evictions_total LRU evictions
# TYPE mat2c_cache_evictions_total counter
mat2c_cache_evictions_total 1
# HELP mat2c_cache_insertions_total Cache insertions
# TYPE mat2c_cache_insertions_total counter
mat2c_cache_insertions_total 4
# HELP mat2c_request_latency_millis Request latency submit-to-fulfillment
# TYPE mat2c_request_latency_millis summary
mat2c_request_latency_millis{quantile="0.5"} 0.512
mat2c_request_latency_millis{quantile="0.95"} 2.048
mat2c_request_latency_millis{quantile="0.99"} 4.096
mat2c_request_latency_millis_count 7
# HELP mat2c_healthz 1 when healthy
# TYPE mat2c_healthz gauge
mat2c_healthz 1
)doc");
}

TEST(DocumentGolden, ResponseJsonVariants) {
  BinaryResponse ok;
  ok.id = "r1";
  ok.ok = true;
  ok.millis = 1.5;
  ok.isa = "dspx";
  ok.cBytes = 1234;
  ok.loopsVectorized = 1;
  ok.idiomRewrites = 2;
  EXPECT_EQ(responseJson(ok), R"doc({"id": "r1", "ok": true, "cached": false, "deduped": false, "millis": 1.500, "isa": "dspx", "cBytes": 1234, "loopsVectorized": 1, "idiomRewrites": 2})doc");

  BinaryResponse error;
  error.id = "r\"2";
  error.millis = 0.25;
  error.error = "boom \"quoted\"\nsecond line";
  error.errorKind = ErrorKind::ParseError;
  EXPECT_EQ(responseJson(error), R"doc({"id": "r\"2", "ok": false, "cached": false, "deduped": false, "millis": 0.250, "error": "boom \"quoted\"\nsecond line", "errorKind": "ParseError"})doc");

  BinaryResponse admin;
  admin.id = "a1";
  admin.ok = true;
  admin.adminInfo = "{\n  \"requests\": 2\n}\n";
  EXPECT_EQ(responseJson(admin), R"doc({"id": "a1", "ok": true, "cached": false, "deduped": false, "millis": 0.000, "adminInfo": "{\n  \"requests\": 2\n}\n"})doc");

  BinaryResponse storeHit = ok;
  storeHit.id = "s1";
  storeHit.cached = true;
  storeHit.storeHit = true;
  storeHit.millis = 0.0125;
  EXPECT_EQ(responseJson(storeHit), R"doc({"id": "s1", "ok": true, "cached": true, "deduped": false, "millis": 0.013, "storeHit": true, "isa": "dspx", "cBytes": 1234, "loopsVectorized": 1, "idiomRewrites": 2})doc");

  BinaryResponse tuned = ok;
  tuned.id = "t1";
  tuned.tuned = true;
  tuned.tunedSignature = "style=proposed;vectorize=1";
  tuned.tuneCandidates = 9;
  tuned.tunedCycles = 123.0;
  tuned.tuneDefaultCycles = 456.25;
  EXPECT_EQ(responseJson(tuned), R"doc({"id": "t1", "ok": true, "cached": false, "deduped": false, "millis": 1.500, "isa": "dspx", "cBytes": 1234, "loopsVectorized": 1, "idiomRewrites": 2, "tuned": true, "tunedSignature": "style=proposed;vectorize=1", "tuneCandidates": 9, "tunedCycles": 123.0, "tuneDefaultCycles": 456.2})doc");

  BinaryResponse degraded = ok;
  degraded.id = "d1";
  degraded.deduped = true;
  degraded.degraded = {"vectorize", "coderLike"};
  EXPECT_EQ(responseJson(degraded), R"doc({"id": "d1", "ok": true, "cached": false, "deduped": true, "millis": 1.500, "isa": "dspx", "cBytes": 1234, "loopsVectorized": 1, "idiomRewrites": 2, "degraded": ["vectorize", "coderLike"]})doc");
}

}  // namespace
}  // namespace mat2c
