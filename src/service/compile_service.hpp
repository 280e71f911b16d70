// Concurrent batch-compilation service.
//
// CompileService fronts mat2c::Compiler with the mechanisms a production
// compile farm needs:
//   * a fixed worker pool draining one bounded FIFO (a full queue blocks
//     the submitter, not the heap),
//   * a content-addressed CompileCache (see cache_key.hpp) so repeated
//     requests are served without recompiling,
//   * an optional persistent ArtifactStore second tier (read-through on
//     miss, persisted after compile and before the response) so a
//     restarted — or sibling — server starts warm, and
//   * single-flight deduplication: N identical requests in flight at once
//     trigger exactly one underlying compile; the other N-1 join the first
//     one's "flight" and are fulfilled from its result.
//
// Thread-safety contract with the rest of the compiler: one mat2c::Compiler
// instance is NOT safe to share across threads (it accumulates diagnostics),
// but distinct instances are independent — each worker thread owns one.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/artifact_store.hpp"
#include "service/compile_cache.hpp"

namespace mat2c::service {

struct CompileRequest {
  std::string id;  ///< echoed back in the response (JSON-lines "id" field)
  std::string source;
  std::string entry;
  std::vector<sema::ArgSpec> args;
  CompileOptions options;
  /// Tune mode (src/tune): instead of compiling with `options` as given, the
  /// worker searches the pass-parameter space around them and caches the
  /// winner. Tune requests are keyed WITHOUT the pass options
  /// (CacheKey::makeTuned), so a warm request — whatever baseline options it
  /// carries — returns the tuned artifact straight from the cache, and
  /// concurrent identical tune requests share one search via single-flight.
  bool tune = false;
  /// Candidate budget for the search (0 = TuneOptions default).
  int tuneBudget = 0;
  /// Per-request deadline in milliseconds from submit (0 = none). Covers
  /// queue time and the compile itself: a request still queued past its
  /// deadline is resolved with Timeout at pickup (the future is never
  /// leaked), and a running compile is bounded cooperatively via
  /// CompileLimits::wallBudgetMillis.
  double deadlineMillis = 0.0;
};

struct CompileResponse {
  std::string id;
  bool ok = false;
  bool cacheHit = false;  ///< served without compiling (memory or store tier)
  bool storeHit = false;  ///< the hit came from the persistent artifact store
  bool deduped = false;   ///< joined another request's in-flight compile
  std::string error;      ///< CompileError text when !ok
  /// Structured classification of `error` (ErrorKind::None when ok); see
  /// support/errors.hpp for the taxonomy.
  ErrorKind errorKind = ErrorKind::None;
  std::shared_ptr<const CachedResult> result;  ///< non-null when ok
  double millis = 0.0;    ///< latency from submit to fulfillment
  /// Admin-request result text (healthz/stats), "" for compiles.
  /// Synthesized by the serve loop — CompileService itself never sets it.
  std::string adminInfo;
};

/// Point-in-time percentile summary of the request-latency histogram.
struct LatencyStats {
  std::uint64_t count = 0;
  double p50Millis = 0.0;
  double p95Millis = 0.0;
  double p99Millis = 0.0;
};

/// Lock-free fixed-bucket log-scale latency histogram. Bucket i counts
/// latencies in [2^i, 2^(i+1)) microseconds (bucket 0 also absorbs sub-µs),
/// covering 1 µs .. ~9 min in 32 buckets. record() is one atomic increment,
/// cheap enough for the 10k+ req/s warm path; percentiles are read as the
/// upper bound of the bucket containing the rank (≤ 2x overestimate by
/// construction — honest for tail bounds).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 32;

  void record(double micros);
  LatencyStats snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t compiles = 0;    ///< underlying Compiler::compileSource calls
  std::uint64_t tunes = 0;       ///< autotune searches actually run (cold tune requests)
  std::uint64_t cacheHits = 0;   ///< submit-time fast-path hits (memory or store)
  std::uint64_t storeHits = 0;   ///< subset of cacheHits served from the artifact store
  std::uint64_t dedupJoins = 0;  ///< requests that joined an in-flight compile
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;    ///< responses resolved with ErrorKind::Timeout
  std::uint64_t panics = 0;      ///< non-standard exceptions contained by a worker
  std::uint64_t degraded = 0;    ///< successful compiles that used the degradation ladder
  double compileMillis = 0.0;    ///< wall time spent inside compileSource
  std::size_t threads = 0;
  CacheStats cache;
  LatencyStats latency;
  bool storeEnabled = false;
  ArtifactStore::Stats store;    ///< zeros when !storeEnabled
};

/// Serializes stats in the same style as the pipeline telemetry JSON
/// (docs/pipeline.md); schema documented in docs/service.md. When
/// `wallMillis` >= 0, adds wall time and requests-per-second throughput.
std::string statsJson(const ServiceStats& stats, double wallMillis = -1.0);

/// Prometheus text-exposition rendering of the same stats (metric names in
/// docs/service.md). `wallMillis` >= 0 additionally emits throughput.
std::string metricsText(const ServiceStats& stats, double wallMillis = -1.0);

/// The one Prometheus text writer: a family is HELP, TYPE, then (suffix, value)
/// samples (suffix `{quantile="0.5"}`, `_count`, ...); no samples writes nothing.
struct PrometheusWriter {
  using Samples = std::vector<std::pair<std::string, std::string>>;
  void family(const std::string& name, const std::string& type, const std::string& help,
              const Samples& samples);
  void counter(const std::string& name, std::uint64_t v, const std::string& help) {
    family(name, "counter", help, {{"", std::to_string(v)}});
  }
  void gauge(const std::string& name, std::string v, const std::string& help) {
    family(name, "gauge", help, {{"", std::move(v)}});
  }
  std::string text;
};

/// One-line health summary: "ok" while the pool is alive, "degraded: ..."
/// when panics have been contained or the store is failing writes.
std::string healthzText(const ServiceStats& stats);

class CompileService {
 public:
  struct Config {
    std::size_t threads = 0;        ///< 0 = hardware_concurrency (min 1)
    std::size_t cacheEntries = 1024;
    /// Persistent artifact store directory ("" = disabled). Read-through on
    /// cache miss, persisted after each successful compile and before its
    /// waiters are answered.
    std::string storeDir;
    /// On-disk cap for the store (0 = unlimited), oldest-first eviction.
    std::size_t maxStoreBytes = 0;
    /// Test/instrumentation hook: runs on the worker thread immediately
    /// before each underlying compile (lets tests stall the worker to prove
    /// single-flight dedup deterministically).
    std::function<void(const CompileRequest&)> onCompileStart;
  };

  CompileService();
  explicit CompileService(const Config& config);
  /// Drains every queued job (all returned futures become ready), then joins
  /// the workers.
  ~CompileService();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Enqueues one request. Returns immediately with a ready future on a
  /// cache or store hit; otherwise blocks only while the global job queue is
  /// full (backpressure). The future never throws — failures are reported
  /// through CompileResponse::ok/error.
  std::future<CompileResponse> submit(CompileRequest request);

  /// Submits the whole batch, then waits; responses are in request order.
  std::vector<CompileResponse> compileBatch(std::vector<CompileRequest> requests);

  ServiceStats stats() const;
  const CompileCache& cache() const { return cache_; }
  /// Non-null iff Config::storeDir was set.
  const ArtifactStore* artifactStore() const { return store_.get(); }
  std::size_t threadCount() const { return workers_.size(); }

 private:
  /// One in-flight compile; every identical request registered before it
  /// finishes gets fulfilled from the same result.
  struct Flight {
    struct Waiter {
      std::string id;
      bool deduped = false;
      double deadlineMillis = 0.0;  ///< 0 = none
      std::chrono::steady_clock::time_point submitted;
      std::promise<CompileResponse> promise;
    };
    std::vector<Waiter> waiters;
  };
  struct Job {
    CacheKey key;
    CompileRequest request;
    std::shared_ptr<Flight> flight;
  };
  void workerLoop();
  void runJob(Job& job);
  /// Removes `job`'s flight from inflight_ (caller holds mu_); returns the
  /// flight's waiters, still unanswered.
  std::vector<Flight::Waiter> retireFlightLocked(Job& job);
  /// Answers each waiter with `result`, or, when it is null, with `error`
  /// (counted as an error, and as a timeout when `errorKind` is Timeout);
  /// every answer's latency is recorded.
  void answerWaiters(std::vector<Flight::Waiter>& waiters,
                     const std::shared_ptr<const CachedResult>& result,
                     const std::string& error, ErrorKind errorKind);

  Config config_;
  CompileCache cache_;
  std::unique_ptr<ArtifactStore> store_;  ///< null when persistence disabled

  std::mutex mu_;  // guards queue_ and inflight_
  std::condition_variable notEmpty_;
  std::condition_variable notFull_;
  std::deque<Job> queue_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_;  // by canonical key
  bool stopping_ = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> compiles_{0};
  std::atomic<std::uint64_t> tunes_{0};
  std::atomic<std::uint64_t> cacheHits_{0};
  std::atomic<std::uint64_t> storeHits_{0};
  std::atomic<std::uint64_t> dedupJoins_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> panics_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> compileMicros_{0};
  LatencyHistogram latency_;

  std::vector<std::thread> workers_;
};

}  // namespace mat2c::service
