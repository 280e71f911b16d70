#include "service/compile_service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "driver/report.hpp"
#include "support/fault_injection.hpp"
#include "support/string_utils.hpp"
#include "tune/tune.hpp"

namespace mat2c::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Admission bound on queued jobs: a full queue blocks the submitter, not the
/// heap.
constexpr std::size_t kQueueCapacity = 1024;
/// Lock stripes of the memory compile cache.
constexpr std::size_t kCacheShards = 8;

double millisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double requestsPerSecond(const ServiceStats& stats, double wallMillis) {
  return wallMillis > 0 ? 1000.0 * static_cast<double>(stats.requests) / wallMillis : 0.0;
}

}  // namespace

void LatencyHistogram::record(double micros) {
  int idx = 0;
  if (micros >= 1.0) {
    auto v = static_cast<std::uint64_t>(std::min(micros, 1e18));
    idx = std::min(kBuckets - 1, static_cast<int>(std::bit_width(v)) - 1);
  }
  buckets_[static_cast<std::size_t>(idx)].fetch_add(1, std::memory_order_relaxed);
}

LatencyStats LatencyHistogram::snapshot() const {
  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    total += counts[static_cast<std::size_t>(i)];
  }
  auto percentile = [&](double p) -> double {
    if (total == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(total)));
    rank = std::max<std::uint64_t>(1, rank);
    std::uint64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      cum += counts[static_cast<std::size_t>(i)];
      if (cum >= rank) {
        // Upper bound of bucket i: 2^(i+1) microseconds.
        return std::ldexp(1.0, i + 1) / 1000.0;
      }
    }
    return std::ldexp(1.0, kBuckets) / 1000.0;
  };
  LatencyStats s;
  s.count = total;
  s.p50Millis = percentile(50.0);
  s.p95Millis = percentile(95.0);
  s.p99Millis = percentile(99.0);
  return s;
}

std::string statsJson(const ServiceStats& stats, double wallMillis) {
  using namespace report;
  const LatencyStats& l = stats.latency;
  std::vector<JsonField> doc{
      intField("requests", stats.requests), intField("compiles", stats.compiles),
      intField("tunes", stats.tunes), intField("cacheHits", stats.cacheHits),
      intField("storeHits", stats.storeHits), intField("dedupJoins", stats.dedupJoins),
      intField("errors", stats.errors), intField("timeouts", stats.timeouts),
      intField("panics", stats.panics), intField("degraded", stats.degraded),
      intField("threads", stats.threads),
      numField("compileMillis", stats.compileMillis, 3),
      objectField("latency", {intField("count", l.count), numField("p50Millis", l.p50Millis, 3),
                              numField("p95Millis", l.p95Millis, 3),
                              numField("p99Millis", l.p99Millis, 3)})};
  if (stats.storeEnabled) {
    const ArtifactStore::Stats& st = stats.store;
    doc.push_back(objectField("store",
                              {intField("hits", st.hits), intField("misses", st.misses),
                               intField("puts", st.puts), intField("putFailures", st.putFailures),
                               intField("corrupt", st.corrupt), intField("evictions", st.evictions),
                               intField("bytes", st.bytes), intField("files", st.files)}));
  }
  const CacheStats& c = stats.cache;
  doc.push_back(objectField("cache", {intField("entries", c.entries), intField("bytes", c.bytes),
                                      intField("hits", c.hits), intField("misses", c.misses),
                                      intField("evictions", c.evictions),
                                      intField("insertions", c.insertions)}));
  if (wallMillis >= 0) {
    doc.insert(doc.end(), {numField("wallMillis", wallMillis, 3),
                           numField("requestsPerSecond", requestsPerSecond(stats, wallMillis), 3)});
  }
  return jsonDocument(doc);
}

std::string healthzText(const ServiceStats& stats) {
  if (stats.threads == 0) return "unhealthy: no worker threads";
  std::string degraded;
  if (stats.panics > 0) {
    degraded += std::to_string(stats.panics) + " panics contained";
  }
  if (stats.storeEnabled && stats.store.putFailures > 0) {
    if (!degraded.empty()) degraded += "; ";
    degraded += std::to_string(stats.store.putFailures) + " store write failures";
  }
  if (!degraded.empty()) return "degraded: " + degraded;
  return "ok";
}

void PrometheusWriter::family(const std::string& name, const std::string& type,
                              const std::string& help, const Samples& samples) {
  if (samples.empty()) return;
  text += "# HELP " + name + ' ' + help + "\n# TYPE " + name + ' ' + type + '\n';
  for (const auto& [suffix, value] : samples) text += name + suffix + ' ' + value + '\n';
}

std::string metricsText(const ServiceStats& stats, double wallMillis) {
  PrometheusWriter w;
  w.counter("mat2c_requests_total", stats.requests, "Requests submitted");
  w.counter("mat2c_compiles_total", stats.compiles, "Underlying compileSource calls");
  w.counter("mat2c_tunes_total", stats.tunes, "Autotune searches run");
  w.counter("mat2c_cache_hits_total", stats.cacheHits, "Submit-time cache hits (memory or store)");
  w.counter("mat2c_store_hits_total", stats.storeHits, "Cache hits served from the artifact store");
  w.counter("mat2c_dedup_joins_total", stats.dedupJoins, "Requests joining an in-flight compile");
  w.counter("mat2c_errors_total", stats.errors, "Failed responses");
  w.counter("mat2c_timeouts_total", stats.timeouts, "Responses resolved with Timeout");
  w.counter("mat2c_panics_total", stats.panics, "Non-standard exceptions contained");
  w.counter("mat2c_degraded_total", stats.degraded, "Compiles that used the degradation ladder");
  w.gauge("mat2c_threads", std::to_string(stats.threads), "Worker pool size");
  w.gauge("mat2c_cache_entries", std::to_string(stats.cache.entries), "Live cache entries");
  w.gauge("mat2c_cache_bytes", std::to_string(stats.cache.bytes), "Cache footprint estimate");
  w.counter("mat2c_cache_evictions_total", stats.cache.evictions, "LRU evictions");
  w.counter("mat2c_cache_insertions_total", stats.cache.insertions, "Cache insertions");
  if (stats.storeEnabled) {
    w.gauge("mat2c_store_bytes", std::to_string(stats.store.bytes), "Artifact store on-disk bytes");
    w.gauge("mat2c_store_files", std::to_string(stats.store.files), "Artifact store file count");
    w.counter("mat2c_store_puts_total", stats.store.puts, "Artifacts persisted");
    w.counter("mat2c_store_put_failures_total", stats.store.putFailures,
              "Artifact persist failures");
    w.counter("mat2c_store_corrupt_total", stats.store.corrupt, "Damaged artifacts rejected");
    w.counter("mat2c_store_evictions_total", stats.store.evictions, "Artifacts evicted for space");
  }
  w.family("mat2c_request_latency_millis", "summary", "Request latency submit-to-fulfillment",
           {{"{quantile=\"0.5\"}", report::Table::num(stats.latency.p50Millis, 3)},
            {"{quantile=\"0.95\"}", report::Table::num(stats.latency.p95Millis, 3)},
            {"{quantile=\"0.99\"}", report::Table::num(stats.latency.p99Millis, 3)},
            {"_count", std::to_string(stats.latency.count)}});
  if (wallMillis >= 0) {
    w.gauge("mat2c_requests_per_second",
            report::Table::num(requestsPerSecond(stats, wallMillis), 3),
            "Observed request throughput");
  }
  w.gauge("mat2c_healthz", healthzText(stats) == "ok" ? "1" : "0", "1 when healthy");
  return w.text;
}

CompileService::CompileService() : CompileService(Config{}) {}

CompileService::CompileService(const Config& config)
    : config_(config),
      cache_(config.cacheEntries, kCacheShards) {
  if (!config_.storeDir.empty()) {
    store_ = std::make_unique<ArtifactStore>(
        ArtifactStore::Config{config_.storeDir, config_.maxStoreBytes});
  }
  std::size_t n = config_.threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

CompileService::~CompileService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  notEmpty_.notify_all();
  notFull_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::future<CompileResponse> CompileService::submit(CompileRequest request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Clock::time_point start = Clock::now();
  // Tune requests are keyed without the pass options: the tuned configuration
  // is what the cache stores, not what it is keyed on. Everything downstream
  // (fast path, single-flight, queueing) is shared with plain compiles.
  CacheKey key = request.tune
      ? CacheKey::makeTuned(request.source, request.entry, request.args, request.options.isa)
      : CacheKey::make(request.source, request.entry, request.args, request.options);

  // Fast path: served from cache without touching the queue.
  auto respondHit = [&](std::shared_ptr<const CachedResult> hit, bool fromStore) {
    cacheHits_.fetch_add(1, std::memory_order_relaxed);
    if (fromStore) storeHits_.fetch_add(1, std::memory_order_relaxed);
    CompileResponse r;
    r.id = std::move(request.id);
    r.ok = true;
    r.cacheHit = true;
    r.storeHit = fromStore;
    r.result = std::move(hit);
    r.millis = millisSince(start);
    latency_.record(r.millis * 1000.0);
    std::promise<CompileResponse> p;
    p.set_value(std::move(r));
    return p.get_future();
  };
  if (auto cached = cache_.lookup(key)) return respondHit(std::move(cached), false);
  // Second tier: the persistent store (read-through — a hit is promoted into
  // the in-memory LRU, so a restarted server warms itself as traffic flows).
  if (store_) {
    if (auto fromStore = store_->load(key)) {
      cache_.insert(key, fromStore);
      return respondHit(std::move(fromStore), true);
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  // Single-flight: identical request already compiling → join its flight.
  if (auto it = inflight_.find(key.canonical); it != inflight_.end()) {
    dedupJoins_.fetch_add(1, std::memory_order_relaxed);
    Flight::Waiter waiter;
    waiter.id = std::move(request.id);
    waiter.deduped = true;
    waiter.deadlineMillis = request.deadlineMillis;
    waiter.submitted = start;
    it->second->waiters.push_back(std::move(waiter));
    return it->second->waiters.back().promise.get_future();
  }

  auto flight = std::make_shared<Flight>();
  Flight::Waiter waiter;
  waiter.id = request.id;
  waiter.deadlineMillis = request.deadlineMillis;
  waiter.submitted = start;
  flight->waiters.push_back(std::move(waiter));
  std::future<CompileResponse> future = flight->waiters.back().promise.get_future();
  inflight_.emplace(key.canonical, flight);

  // Bounded admission: block the submitter, not the heap.
  notFull_.wait(lock, [&] { return queue_.size() < kQueueCapacity || stopping_; });
  queue_.push_back(Job{std::move(key), std::move(request), std::move(flight)});
  lock.unlock();
  notEmpty_.notify_one();
  return future;
}

std::vector<CompileResponse> CompileService::compileBatch(std::vector<CompileRequest> requests) {
  std::vector<std::future<CompileResponse>> futures;
  futures.reserve(requests.size());
  for (CompileRequest& r : requests) futures.push_back(submit(std::move(r)));
  std::vector<CompileResponse> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) responses.push_back(f.get());
  return responses;
}

void CompileService::workerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      notEmpty_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping, fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    notFull_.notify_one();
    runJob(job);
  }
}

// Must hold mu_. Runs BEFORE any of the job's promises is fulfilled, so
// later identical submits either hit the cache or start a fresh flight.
std::vector<CompileService::Flight::Waiter> CompileService::retireFlightLocked(Job& job) {
  auto it = inflight_.find(job.key.canonical);
  if (it != inflight_.end() && it->second == job.flight) inflight_.erase(it);
  return std::move(job.flight->waiters);
}

void CompileService::answerWaiters(std::vector<Flight::Waiter>& waiters,
                                   const std::shared_ptr<const CachedResult>& result,
                                   const std::string& error, ErrorKind errorKind) {
  for (Flight::Waiter& w : waiters) {
    CompileResponse r;
    r.id = std::move(w.id);
    r.deduped = w.deduped;
    r.millis = millisSince(w.submitted);
    if (result) {
      r.ok = true;
      r.result = result;
    } else {
      r.error = error;
      r.errorKind = errorKind;
      errors_.fetch_add(1, std::memory_order_relaxed);
      if (errorKind == ErrorKind::Timeout) timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    latency_.record(r.millis * 1000.0);
    w.promise.set_value(std::move(r));
  }
}

void CompileService::runJob(Job& job) {
  Clock::time_point pickup = Clock::now();

  // Pickup-time triage (under the lock): waiters whose per-request deadline
  // already passed while queued are resolved with Timeout NOW, so a
  // backlogged server never leaks a future or compiles for clients that
  // gave up. The largest remaining headroom among surviving deadline-carrying
  // waiters becomes the compile's cooperative wall budget.
  std::vector<Flight::Waiter> expired;
  bool anyUnbounded = false;   // some survivor has no deadline
  double maxHeadroom = 0.0;    // millis the most patient survivor will wait
  bool allExpired = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& waiters = job.flight->waiters;
    for (auto it = waiters.begin(); it != waiters.end();) {
      double waited = std::chrono::duration<double, std::milli>(pickup - it->submitted).count();
      if (it->deadlineMillis > 0 && waited >= it->deadlineMillis) {
        expired.push_back(std::move(*it));
        it = waiters.erase(it);
        continue;
      }
      if (it->deadlineMillis <= 0) {
        anyUnbounded = true;
      } else {
        maxHeadroom = std::max(maxHeadroom, it->deadlineMillis - waited);
      }
      ++it;
    }
    if (waiters.empty()) {
      // Nobody is listening: retire the flight and skip the compile.
      allExpired = true;
      retireFlightLocked(job);
    }
  }
  answerWaiters(expired, nullptr, "request timed out in queue", ErrorKind::Timeout);
  if (allExpired) return;

  if (config_.onCompileStart) config_.onCompileStart(job.request);

  // Chaos crash point: `crash:compile:<N>` aborts the whole worker process
  // here (supervisor restart path); `fail:compile:<N>` turns the compile into
  // an injected failure without the cost of running it.
  if (fault::atPoint("compile") != fault::PointAction::None) {
    std::vector<Flight::Waiter> waiters;
    {
      std::lock_guard<std::mutex> lock(mu_);
      waiters = retireFlightLocked(job);
    }
    answerWaiters(waiters, nullptr, "injected fault at point 'compile'", ErrorKind::PassError);
    return;
  }

  // Bound the compile by the most patient surviving waiter, unless one of
  // them has no deadline (then the compile must be allowed to finish).
  // Combines with any budget the request itself carries (tighter wins).
  CompileOptions options = job.request.options;
  if (!anyUnbounded && maxHeadroom > 0) {
    if (options.limits.wallBudgetMillis <= 0 ||
        options.limits.wallBudgetMillis > maxHeadroom) {
      options.limits.wallBudgetMillis = maxHeadroom;
    }
  }

  Clock::time_point t0 = Clock::now();
  std::shared_ptr<const CachedResult> result;
  std::string error;
  ErrorKind errorKind = ErrorKind::None;
  std::uint64_t compilesThisJob = 1;
  try {
    if (job.request.tune) {
      // Autotune path: search the pass-parameter space and cache the winner
      // with its configuration memoized alongside the artifact. The combined
      // waiter/request wall budget bounds the whole SEARCH (best-so-far wins
      // on expiry), not just one compile.
      tune::TuneInput input;
      input.source = job.request.source;
      input.entry = job.request.entry;
      input.argSpecs = job.request.args;
      input.base = options;
      tune::TuneOptions topt;
      if (job.request.tuneBudget > 0) topt.budget = job.request.tuneBudget;
      topt.wallBudgetMillis = options.limits.wallBudgetMillis;
      tune::TuneResult tuned = tune::autotune(input, topt);
      tunes_.fetch_add(1, std::memory_order_relaxed);
      // The search committed candidatesTried compiles; the counter counts
      // those. Speculative compiles the search discarded before their
      // commit (a few per accepted candidate) are not counted.
      compilesThisJob = static_cast<std::uint64_t>(
          std::max(1, tuned.report.candidatesTried));
      std::string cCode = tuned.unit.cCode();
      result = std::make_shared<const CachedResult>(
          std::move(tuned.unit), std::move(cCode), tuned.report.best.passSignature(),
          tuned.report.candidatesTried, tuned.report.tunedCycles,
          tuned.report.defaultCycles);
    } else {
      Compiler compiler;  // worker-local: a Compiler instance is single-threaded
      CompiledUnit unit = compiler.compileSource(job.request.source, job.request.entry,
                                                 job.request.args, options);
      std::string cCode = unit.cCode();
      result = std::make_shared<const CachedResult>(std::move(unit), std::move(cCode));
    }
  } catch (const StructuredError& e) {
    error = e.what();
    errorKind = e.kind();
  } catch (const std::bad_alloc&) {
    error = "out of memory";
    errorKind = ErrorKind::ResourceExhausted;
  } catch (const std::exception& e) {
    error = e.what();
    errorKind = ErrorKind::Panic;  // escaped the compiler's own classification
    panics_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Panic containment: a non-standard exception must not kill the worker
    // (the pool has no respawn) or leak the flight's waiters.
    error = "panic: non-standard exception escaped the compiler";
    errorKind = ErrorKind::Panic;
    panics_.fetch_add(1, std::memory_order_relaxed);
  }
  compiles_.fetch_add(compilesThisJob, std::memory_order_relaxed);
  compileMicros_.fetch_add(static_cast<std::uint64_t>(millisSince(t0) * 1000.0),
                           std::memory_order_relaxed);
  if (result) {
    cache_.insert(job.key, result);
    if (!result->degraded.empty())
      degraded_.fetch_add(1, std::memory_order_relaxed);
    // Persist before ack: once a waiter holds a success, the artifact is on
    // disk, so a kill -9 right after the response cannot lose it and a
    // sibling server's next request hits the store. Best effort — a failed
    // put is a counted degradation, not an error.
    if (store_) store_->store(job.key, *result);
  }

  // Retire the flight first (under the lock), then fulfill everyone. A
  // slow-but-successful compile is still delivered as success even to
  // waiters whose deadline lapsed mid-compile: the work is done and the
  // result is strictly more useful than a Timeout.
  std::vector<Flight::Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiters = retireFlightLocked(job);
  }
  answerWaiters(waiters, result, error, errorKind);
}

ServiceStats CompileService::stats() const {
  ServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.tunes = tunes_.load(std::memory_order_relaxed);
  s.cacheHits = cacheHits_.load(std::memory_order_relaxed);
  s.storeHits = storeHits_.load(std::memory_order_relaxed);
  s.dedupJoins = dedupJoins_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.panics = panics_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.compileMillis = static_cast<double>(compileMicros_.load(std::memory_order_relaxed)) / 1000.0;
  s.threads = workers_.size();
  s.cache = cache_.stats();
  s.latency = latency_.snapshot();
  if (store_) {
    s.storeEnabled = true;
    s.store = store_->stats();
  }
  return s;
}

}  // namespace mat2c::service
