// Workload `serve`: an in-process CompileService with an artifact store in a
// scratch directory, fed by one generator thread on a seeded open-loop
// Poisson schedule at a ladder of fixed offered rates.
//
// Every request is encoded into a binary M2CB frame and decoded again before
// it is submitted. Keys follow a seeded Zipf draw over (kernel, size, style,
// ISA) from a universe three times larger than the memory cache, so hot keys
// hit memory, evicted keys hit the store, and first touches compile and
// write to the store. A small seeded share of requests carries parse or sema
// errors. Latency is timed from each request's due time. After the nominal
// rate, a fresh CompileService reopens the same store and replays a seeded
// sample of keys: it must answer all of them without compiling.
//
// One round is the whole ladder plus the restart phase. Each rate starts
// from a fresh service and store, warmed by the same unmeasured requests,
// so every rate sees the same traffic.
#include <sys/prctl.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "service/cache_key.hpp"
#include "service/compile_service.hpp"
#include "service/protocol.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mat2c;
using namespace mat2c::service;
namespace fs = std::filesystem;

constexpr double kRates[] = {1000, 2000, 4000, 8000, 16000, 32000, 64000};  // offered req/s
constexpr double kNominalRate = 1000;
constexpr std::size_t kRequestsPerRate = 1500;  // measured, after as many warm-up ones
constexpr int kDoseRounds = 1;  // rounds when serve is not the focus
/// How often the client looks for completed responses while it waits.
constexpr auto kPollInterval = std::chrono::microseconds(20);
/// A rate meets the limit when p99 latency, the backlog left after the last
/// due time, and the generator's p99 lateness all stay within it.
constexpr double kLatencyLimitMs = 25.0;
constexpr double kErrorShare = 0.02;
constexpr double kZipfExponent = 1.0;
/// A third of the 434-key request space: the median request is a memory
/// hit, and store hits and compiles make up the tail.
constexpr std::size_t kCacheEntries = 144;
constexpr std::size_t kRestartSample = 400;  // distinct keys replayed after a restart
const std::string kWarmupId = "warm-";

struct BrokenSource {
  const char* source;
  ErrorKind kind;
};
constexpr BrokenSource kBroken[] = {
    {"function y = f(x)\ny = x .* ;\nend\n", ErrorKind::ParseError},
    {"function y = f(x)\ny = (x + 1;\nend\n", ErrorKind::ParseError},
    {"function y = f(x)\ny = x + undefined_thing;\nend\n", ErrorKind::SemaError},
    {"function y = f(x)\ny = zeros(1, 4) + x;\nend\n", ErrorKind::SemaError},
};

/// One request of a schedule: a point of the request space, or a broken
/// source (broken >= 0) whose expected error kind is known.
struct Draw {
  std::size_t point = 0;
  int broken = -1;
};

WireRequest wireFor(const Inputs& in, const Draw& d, std::size_t id) {
  WireRequest w;
  w.id = std::to_string(id);
  if (d.broken >= 0) {
    w.source = kBroken[d.broken].source;
    w.entry = "f";
    w.args = "1x16";
    w.isa = "dspx";
    return w;
  }
  RequestPoint p = in.point(d.point);
  const kernels::KernelSpec& spec = in.cases[p.kernelCase].spec;
  w.source = spec.source;
  w.entry = spec.entry;
  w.args = argSpecText(spec.argSpecs);
  w.isa = in.isas[p.isa];
  w.style = p.coderLike ? "coder" : "proposed";
  return w;
}

/// Seeded Zipf sampler over a seeded permutation of the request space.
class ZipfKeys {
 public:
  ZipfKeys(std::size_t n, Rng& rng) : perm_(n), cdf_(n) {
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(perm_[i - 1], perm_[rng.below(i)]);
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) cdf_[i] = sum += 1.0 / std::pow(i + 1.0, kZipfExponent);
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return perm_[std::min<std::size_t>(it - cdf_.begin(), perm_.size() - 1)];
  }

 private:
  std::vector<std::size_t> perm_;
  std::vector<double> cdf_;
};

/// The counters of `now` accumulated since `before` (sizes stay as of now).
ServiceStats since(ServiceStats now, const ServiceStats& before) {
  now.requests -= before.requests;
  now.compiles -= before.compiles;
  now.cacheHits -= before.cacheHits;
  now.storeHits -= before.storeHits;
  now.dedupJoins -= before.dedupJoins;
  now.errors -= before.errors;
  now.compileMillis -= before.compileMillis;
  now.cache.hits -= before.cache.hits;
  now.cache.misses -= before.cache.misses;
  now.cache.evictions -= before.cache.evictions;
  now.store.hits -= before.store.hits;
  now.store.misses -= before.store.misses;
  now.store.putFailures -= before.store.putFailures;
  return now;
}

/// Decodes a request frame and resolves it into a CompileRequest.
bool decodeRequest(const std::string& frame, CompileRequest& out, std::string& error) {
  std::istringstream stream(frame);
  FrameType type{};
  std::string payload;
  WireRequest wire;
  return readFrame(stream, type, payload, error) == 1 && type == FrameType::Request &&
         decodeBinaryRequest(payload, wire, error) && wire.resolve(out, error);
}

struct RateResult {
  std::vector<double> latencyMs;  // from due time to the client seeing the answer
  double throughput = 0;          // completed / (last completion - first due)
  double backlogMs = 0;           // last completion - last due
  double lagP99Ms = 0;            // generator lateness
  double encodeNs = 0, decodeNs = 0, queueWaitMs = 0;
  ServiceStats stats;
  std::uint64_t tunes = 0;  // autotune searches, warm-up included
  double wallMs = 0;
  double limitShare = 0;  // worst of p99, backlog and lag, over the limit
  bool meetsLimit() const { return limitShare <= 1.0; }
  std::vector<std::size_t> servedPoints;  // valid points answered ok
  std::vector<std::shared_ptr<const CachedResult>> results;  // one per served point
};

class ServeRunner {
 public:
  ServeRunner(const Inputs& in, const PhaseConfig& cfg, WorkloadResult& r)
      : in_(in), cfg_(cfg), r_(r) {}

  /// Reference C for a valid point: a direct Compiler compile of the same
  /// wire request, memoized.
  const std::string& reference(std::size_t point) {
    auto it = refs_.find(point);
    if (it != refs_.end()) return it->second;
    CompileRequest req;
    std::string error;
    WireRequest w = wireFor(in_, Draw{point, -1}, 0);
    std::string c;
    if (w.resolve(req, error)) {
      trace::Scope s("driver", "compileSource");
      Compiler compiler;
      c = compiler.compileSource(req.source, req.entry, req.args, req.options).cCode();
    }
    return refs_.emplace(point, std::move(c)).first->second;
  }

  RateResult runRate(double rate, const std::vector<Draw>& warmup,
                     const std::vector<Draw>& draws, const std::string& storeDir,
                     std::uint64_t scheduleSeed) {
    RateResult rr;
    const std::size_t n = draws.size();
    std::vector<Clock::time_point> due(n), sent(n), done(n), compileStart(n);
    std::vector<std::future<CompileResponse>> futures(n);
    std::vector<bool> decodedOk(n, false);

    CompileService::Config sc;
    sc.threads = workerThreads();
    sc.cacheEntries = kCacheEntries;
    sc.storeDir = storeDir;
    if (cfg_.traced) {
      // Public hook, traced run only: when a worker starts a compile.
      sc.onCompileStart = [&](const CompileRequest& req) {
        if (req.id.rfind(kWarmupId, 0) != 0) compileStart[std::stoul(req.id)] = Clock::now();
      };
    }
    double encodeNs = 0, decodeNs = 0;
    Clock::time_point wallStart;
    {
      CompileService svc(sc);
      // Warm-up, unmeasured: the round's warm-up draws fill the cache and
      // the store, so the measured requests see an operating service.
      std::vector<CompileRequest> warm;
      for (std::size_t i = 0; i < warmup.size(); ++i) {
        CompileRequest req;
        std::string error;
        WireRequest w = wireFor(in_, warmup[i], i);
        w.id = kWarmupId + w.id;
        if (w.resolve(req, error)) warm.push_back(std::move(req));
      }
      for (const CompileResponse& resp : svc.compileBatch(std::move(warm))) {
        ++r_.attempted;
        if (!resp.ok) r_.fail("serve warm-up: " + resp.error);
      }
      const ServiceStats before = svc.stats();
      Rng srng(scheduleSeed);
      // The generator is also the client: a response counts as done when
      // this thread sees its future ready, so the latency from the due time
      // includes encode, decode and the hand-offs. Hits are ready when
      // submit returns; the rest are polled while the thread waits.
      std::thread generator([&] {
        trace::Adopt adopt(cfg_.rootSpan);
        // The default 50 us timer slack would make every request late by
        // more than a cache hit takes.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        std::vector<std::size_t> pending;
        auto collect = [&] {
          std::erase_if(pending, [&](std::size_t i) {
            if (futures[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready)
              return false;
            done[i] = Clock::now();
            return true;
          });
        };
        Clock::time_point t = Clock::now() + std::chrono::milliseconds(2);
        wallStart = t;
        for (std::size_t i = 0; i < n; ++i) {
          t += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(-std::log(1.0 - srng.uniform()) / rate));
          due[i] = t;
          for (auto now = Clock::now(); now < t; now = Clock::now()) {
            collect();
            std::this_thread::sleep_until(std::min(t, now + kPollInterval));
          }
          sent[i] = Clock::now();
          WireRequest wire = wireFor(in_, draws[i], i);
          auto t0 = Clock::now();
          std::string frame;
          {
            trace::Scope s("protocol", "encode", i + 1);
            frame = encodeFrame(FrameType::Request, encodeBinaryRequest(wire));
          }
          auto t1 = Clock::now();
          CompileRequest req;
          std::string error;
          bool ok;
          {
            trace::Scope s("protocol", "decode", i + 1);
            ok = decodeRequest(frame, req, error);
          }
          auto t2 = Clock::now();
          encodeNs += std::chrono::duration<double, std::nano>(t1 - t0).count();
          decodeNs += std::chrono::duration<double, std::nano>(t2 - t1).count();
          decodedOk[i] = ok;
          if (!ok) {
            done[i] = Clock::now();
            continue;
          }
          {
            trace::Scope s("compile_service", "submit", i + 1);
            futures[i] = svc.submit(std::move(req));
          }
          pending.push_back(i);
          collect();
        }
        while (!pending.empty()) {
          std::this_thread::sleep_for(kPollInterval);
          collect();
        }
      });
      generator.join();
      rr.stats = since(svc.stats(), before);
      rr.tunes = svc.stats().tunes;
    }  // the service drains and persists everything before it is destroyed

    Clock::time_point lastCompletion = wallStart;
    std::vector<double> lag;
    double waitSum = 0, waitN = 0;
    std::unordered_set<std::size_t> seen;
    for (std::size_t i = 0; i < n; ++i) {
      ++r_.attempted;
      lag.push_back(millisBetween(due[i], sent[i]));
      if (!decodedOk[i]) {
        r_.fail("serve: request frame failed to decode");
        continue;
      }
      CompileResponse resp = futures[i].get();
      rr.latencyMs.push_back(millisBetween(due[i], done[i]));
      lastCompletion = std::max(lastCompletion, done[i]);
      if (cfg_.traced && compileStart[i] != Clock::time_point{}) {
        waitSum += millisBetween(sent[i], compileStart[i]);
        ++waitN;
      }
      checkResponse(draws[i], resp, rr, seen);
    }
    // The service runs the VM only inside autotune, which no request asks for.
    ++r_.attempted;
    if (rr.tunes != 0)
      r_.fail("serve: the service ran " + std::to_string(rr.tunes) + " autotunes");
    rr.wallMs = millisBetween(wallStart, lastCompletion);
    rr.throughput = static_cast<double>(n) / (rr.wallMs / 1000.0);
    rr.backlogMs = millisBetween(due[n - 1], lastCompletion);
    rr.lagP99Ms = quantile(lag, 0.99);
    rr.encodeNs = encodeNs / static_cast<double>(n);
    rr.decodeNs = decodeNs / static_cast<double>(n);
    rr.queueWaitMs = waitN > 0 ? waitSum / waitN : 0.0;
    rr.limitShare =
        std::max({quantile(rr.latencyMs, 0.99), rr.backlogMs, rr.lagP99Ms}) / kLatencyLimitMs;
    return rr;
  }

  /// Reopens `storeDir` in a fresh service and replays a sample of the keys
  /// it holds, closed loop. Returns per-request latencies in ms, scaled by
  /// the host reference samples taken around the replay.
  std::vector<double> restart(const std::string& storeDir, const RateResult& warm, Rng& rng,
                              bool recordCounts) {
    std::vector<double> lat;
    CompileService::Config sc;
    sc.threads = workerThreads();
    sc.cacheEntries = kCacheEntries;
    sc.storeDir = storeDir;
    CompileService svc(sc);
    ScaledClock clock(*cfg_.host);
    // Distinct keys only, so every answer comes from the store.
    std::vector<std::size_t> sample = warm.servedPoints;
    for (std::size_t i = sample.size(); i > 1; --i) std::swap(sample[i - 1], sample[rng.below(i)]);
    sample.resize(std::min(sample.size(), kRestartSample));
    for (std::size_t i = 0; i < sample.size(); ++i) {
      std::size_t point = sample[i];
      ++r_.attempted;
      auto t0 = Clock::now();
      CompileRequest req;
      std::string error;
      if (!decodeRequest(encodeFrame(FrameType::Request,
                                     encodeBinaryRequest(wireFor(in_, Draw{point, -1}, i))),
                         req, error)) {
        r_.fail("restart: request frame failed to decode: " + error);
        continue;
      }
      CompileResponse resp = [&] {
        trace::Scope s("compile_service", "submit", i + 1);
        return svc.submit(std::move(req)).get();
      }();
      lat.push_back(millisBetween(t0, Clock::now()));
      if (!resp.ok || !resp.result || resp.result->cCode != reference(point))
        r_.fail("restart: wrong answer for " + in_.cases[in_.point(point).kernelCase].label);
    }
    double scale = clock.tick();
    for (double& ms : lat) ms *= scale;
    ServiceStats st = svc.stats();
    ++r_.attempted;
    if (st.compiles != 0) r_.fail("restart: compiled " + std::to_string(st.compiles) + " times");
    ++r_.attempted;
    if (st.tunes != 0)
      r_.fail("restart: the service ran " + std::to_string(st.tunes) + " autotunes");
    if (recordCounts) {
      r_.counts["serve.restart.store_hits"] = static_cast<double>(st.storeHits);
      r_.counts["serve.restart.memory_hits"] = static_cast<double>(st.cacheHits - st.storeHits);
    }
    return lat;
  }

 private:
  static std::size_t workerThreads() {
    // Workers plus the generator thread stay within the machine's cores.
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1;
  }

  void checkResponse(const Draw& d, const CompileResponse& resp, RateResult& rr,
                     std::unordered_set<std::size_t>& seen) {
    // The response must survive the wire too.
    BinaryResponse wire;
    std::string error;
    if (!decodeBinaryResponse(encodeBinaryResponse(resp), wire, error) ||
        wire.ok != resp.ok || wire.errorKind != resp.errorKind) {
      r_.fail("serve: response frame round trip failed");
      return;
    }
    if (d.broken >= 0) {
      if (resp.ok || resp.errorKind != kBroken[d.broken].kind)
        r_.fail(std::string("serve: expected ") + toString(kBroken[d.broken].kind) + ", got " +
                (resp.ok ? "ok" : toString(resp.errorKind)));
      return;
    }
    if (!resp.ok || !resp.result) {
      r_.fail("serve: " + in_.cases[in_.point(d.point).kernelCase].label + ": " + resp.error);
      return;
    }
    if (resp.result->cCode != reference(d.point) || wire.cBytes != resp.result->cCode.size()) {
      r_.fail("serve: C differs from a direct compile for " +
              in_.cases[in_.point(d.point).kernelCase].label);
      return;
    }
    if (seen.insert(d.point).second) {
      rr.servedPoints.push_back(d.point);
      rr.results.push_back(resp.result);
    }
  }

  const Inputs& in_;
  const PhaseConfig& cfg_;
  WorkloadResult& r_;
  std::unordered_map<std::size_t, std::string> refs_;
};

/// Direct ArtifactStore store/load timings over served results (traced run).
void probeStore(const Inputs& in, const RateResult& rr, const std::string& dir,
                WorkloadResult& r) {
  ArtifactStore store({dir, 0});
  double storeUs = 0, loadUs = 0, n = 0;
  for (std::size_t i = 0; i < rr.servedPoints.size() && i < 100; ++i) {
    WireRequest w = wireFor(in, Draw{rr.servedPoints[i], -1}, 0);
    CompileRequest req;
    std::string error;
    if (!w.resolve(req, error)) continue;
    CacheKey key = CacheKey::make(req.source, req.entry, req.args, req.options);
    auto t0 = Clock::now();
    bool stored;
    {
      trace::Scope s("artifact_store", "store");
      stored = store.store(key, *rr.results[i]);
    }
    auto t1 = Clock::now();
    std::shared_ptr<const CachedResult> back;
    {
      trace::Scope s("artifact_store", "load");
      back = store.load(key);
    }
    auto t2 = Clock::now();
    ++r.attempted;
    if (!stored || !back || back->cCode != rr.results[i]->cCode) {
      r.fail("artifact store round trip failed");
      continue;
    }
    storeUs += std::chrono::duration<double, std::micro>(t1 - t0).count();
    loadUs += std::chrono::duration<double, std::micro>(t2 - t1).count();
    ++n;
  }
  r.perLayer["artifact_store.store_us"] = {n > 0 ? storeUs / n : 0.0, "us"};
  r.perLayer["artifact_store.load_us"] = {n > 0 ? loadUs / n : 0.0, "us"};
}

}  // namespace

WorkloadResult runServe(const Inputs& in, const PhaseConfig& cfg) {
  WorkloadResult r;
  ServeRunner runner(in, cfg, r);
  Rng rng(in.seed * 0x9E3779B97F4A7C15ull + 0x5E);
  const fs::path base = fs::path(cfg.workDir) / "serve";

  std::vector<double> nominalLat, restartLat, maxRps;
  RateResult nominal;
  int round = 0;
  auto start = Clock::now();
  do {
    // Each round ranks the keys afresh, so which keys are hot and which are
    // cold varies within one run as well as across seeds.
    ZipfKeys zipf(in.requestSpace(), rng);
    std::vector<Draw> warmup(kRequestsPerRate), draws(kRequestsPerRate);
    for (Draw& d : warmup) d.point = zipf.draw(rng);
    std::size_t brokenCount = 0;
    for (Draw& d : draws) {
      if (rng.uniform() < kErrorShare) {
        d.broken = static_cast<int>(brokenCount++ % std::size(kBroken));
      } else {
        d.point = zipf.draw(rng);
      }
    }
    // The highest rate meeting the limit: the top rate's achieved throughput
    // when every rate meets it, else the point between the last rate that
    // meets it and the first that misses where the worst of p99, backlog
    // and lag reaches the limit (interpolated linearly over log rate).
    double best = 0, prevRate = 0, prevShare = 0;
    bool missed = false;
    for (double rate : kRates) {
      std::string dir = (base / ("r" + std::to_string(round) + "-" +
                                 std::to_string(static_cast<int>(rate))))
                            .string();
      fs::remove_all(dir);
      RateResult rr = runner.runRate(rate, warmup, draws, dir, rng.next());
      if (!missed && rr.meetsLimit()) {
        best = rr.throughput;
      } else if (!missed) {
        missed = true;
        best = prevRate > 0 ? prevRate * std::pow(rate / prevRate, (1.0 - prevShare) /
                                                                        (rr.limitShare - prevShare))
                            : 0.0;
      }
      prevRate = rate;
      prevShare = rr.limitShare;
      const double reqs = static_cast<double>(std::max<std::uint64_t>(rr.stats.requests, 1));
      std::fprintf(stderr,
                   "serve round %d: offered %6.0f/s  p50 %7.3f ms  p99 %7.3f ms  "
                   "achieved %8.1f/s  backlog %7.3f ms  lag p99 %6.3f ms  "
                   "memory/store/compile %.3f/%.3f/%.3f  %s\n",
                   round, rate, quantile(rr.latencyMs, 0.5), quantile(rr.latencyMs, 0.99),
                   rr.throughput, rr.backlogMs, rr.lagP99Ms,
                   (rr.stats.cacheHits - rr.stats.storeHits) / reqs, rr.stats.storeHits / reqs,
                   rr.stats.compiles / reqs, rr.meetsLimit() ? "meets limit" : "misses limit");
      if (rate == kNominalRate) {
        nominalLat.insert(nominalLat.end(), rr.latencyMs.begin(), rr.latencyMs.end());
        std::vector<double> lat = runner.restart(dir, rr, rng, round == 0);
        restartLat.insert(restartLat.end(), lat.begin(), lat.end());
        if (round == 0) {
          nominal = std::move(rr);
          r.counts["serve.requests"] = static_cast<double>(nominal.stats.requests);
          r.counts["serve.errors"] = static_cast<double>(nominal.stats.errors);
          r.counts["serve.distinct_keys"] = static_cast<double>(nominal.servedPoints.size());
          if (cfg.traced) probeStore(in, nominal, (base / "probe").string(), r);
        }
      }
      fs::remove_all(dir);
    }
    maxRps.push_back(best);
    ++round;
  } while (cfg.focus ? secondsSince(start) < cfg.seconds : round < kDoseRounds);
  fs::remove_all(base);

  r.endToEnd["restart_p50_ms"] = {quantile(restartLat, 0.5), "ms"};
  // Measured like end-to-end metrics but too unsteady on a shared host to
  // gate on (README.md, "Demoted metrics").
  r.perLayer["compile_service.serve_p50_ms"] = {quantile(nominalLat, 0.5), "ms"};
  r.perLayer["compile_service.serve_p99_ms"] = {quantile(nominalLat, 0.99), "ms"};
  r.perLayer["compile_service.serve_max_rps"] = {median(maxRps), "1/s"};

  const ServiceStats& st = nominal.stats;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r.perLayer["compile_service.queue_wait_ms"] = {nominal.queueWaitMs, "ms"};
  r.perLayer["compile_service.compile_ms"] = {ratio(st.compileMillis, st.compiles), "ms"};
  r.perLayer["compile_service.compiles_per_request"] = {ratio(st.compiles, st.requests),
                                                        "ratio"};
  r.perLayer["compile_service.memory_hit_share"] = {
      ratio(st.cacheHits - st.storeHits, st.requests), "ratio"};
  r.perLayer["compile_service.store_hit_share"] = {ratio(st.storeHits, st.requests), "ratio"};
  r.perLayer["compile_service.dedup_joins"] = {static_cast<double>(st.dedupJoins), "count"};
  r.perLayer["compile_service.worker_busy_ratio"] = {
      ratio(st.compileMillis, static_cast<double>(st.threads) * nominal.wallMs), "ratio"};
  r.perLayer["compile_cache.hit_ratio"] = {ratio(st.cache.hits, st.cache.hits + st.cache.misses),
                                           "ratio"};
  r.perLayer["compile_cache.evictions"] = {static_cast<double>(st.cache.evictions), "count"};
  r.perLayer["compile_cache.bytes"] = {static_cast<double>(st.cache.bytes), "bytes"};
  r.perLayer["artifact_store.hit_ratio"] = {ratio(st.store.hits, st.store.hits + st.store.misses),
                                            "ratio"};
  r.perLayer["artifact_store.write_failures"] = {static_cast<double>(st.store.putFailures),
                                                 "count"};
  r.perLayer["protocol.encode_ns"] = {nominal.encodeNs, "ns"};
  r.perLayer["protocol.decode_ns"] = {nominal.decodeNs, "ns"};
  r.perLayer["bench.gen_lag_ms"] = {nominal.lagP99Ms, "ms"};
  return r;
}

}  // namespace perfbench
