// Multi-process shard supervisor for the serve plane.
//
// ShardSupervisor runs N worker processes (`mat2c serve - --binary`, sharing
// one --store-dir) behind a single request interface:
//
//   * requests route to a shard by consistent hash of their content, so the
//     same kernel always lands on the same worker and its in-memory cache,
//   * each worker answers over a pipe in the order it reads (the serve loop
//     streams responses in input order), so the supervisor matches responses
//     to requests positionally with a per-shard outstanding FIFO,
//   * worker death — exit, kill -9, abort mid-request — is detected as pipe
//     EOF (or a torn frame); every unanswered request of the dead shard is
//     queued for re-dispatch and the shard restarts with capped exponential
//     backoff + deterministic jitter (RetryPolicy). Re-sending a request
//     that a dying worker may have half-processed is safe by construction:
//     requests are idempotent by content-addressed key, and the restarted
//     worker comes back warm from the shared artifact store,
//   * a restarted shard is readmitted only after it answers a healthz probe;
//     a shard that dies more than maxRestarts times is permanently ejected
//     and its traffic re-routed to surviving shards.
//
// Determinism contract for the chaos harness: given the same schedule of
// submissions and kills, restart delays derive from RetryPolicy's
// seeded jitter — no wall-clock randomness — so a chaos failure reproduces
// from its seed.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"

namespace mat2c::service {

class ShardSupervisor {
 public:
  struct Config {
    int shards = 2;
    /// Worker executable; "" = this process's own binary (/proc/self/exe).
    std::string binaryPath;
    /// Extra argv after `serve - --binary` (e.g. --store-dir, --isa-file,
    /// --jobs). Every shard gets the same arguments.
    std::vector<std::string> workerArgs;
    /// Extra KEY=VALUE environment entries for workers (e.g. MAT2C_FAULT for
    /// chaos runs); appended to the inherited environment.
    std::vector<std::string> workerEnv;
    /// Backoff between restarts of one shard.
    RetryPolicy restart;
    /// Restarts allowed per shard before permanent ejection.
    int maxRestarts = 8;
    /// Jitter seed (chaos determinism).
    std::uint64_t seed = 1;
  };

  struct Stats {
    std::uint64_t submitted = 0;     ///< compile requests accepted
    std::uint64_t completed = 0;     ///< responses delivered to callers
    std::uint64_t restarts = 0;      ///< worker processes respawned
    std::uint64_t redispatched = 0;  ///< requests re-sent after a shard died
    std::uint64_t failedNoShard = 0; ///< requests failed: every shard ejected
    int shardsAlive = 0;
    int shardsEjected = 0;
    std::vector<int> pids;           ///< per shard; -1 when dead/ejected
  };

  /// Completion callback. Runs on a supervisor internal thread; exactly one
  /// call per submit(). `rawPayload` is the Response frame payload as the
  /// worker sent it ("" for supervisor-synthesized failures) and `decoded`
  /// its parsed form.
  using ResponseHandler =
      std::function<void(const std::string& rawPayload, const BinaryResponse& decoded)>;

  explicit ShardSupervisor(Config config);
  /// Joins everything; outstanding requests are failed, workers terminated.
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Spawns the fleet. False (with `error`) when no worker could be started.
  bool start(std::string& error);

  /// Routes one request. Queues for the target shard even while it is
  /// restarting (its cache affinity is worth the wait); fails fast only when
  /// every shard has been permanently ejected.
  void submit(const WireRequest& request, ResponseHandler done);

  /// Blocks until every submitted request has been answered and its
  /// handler has returned.
  void drainPending();

  /// Graceful stop: close worker stdin, let them drain, reap. Idempotent.
  void shutdown();

  Stats stats() const;
  /// Live worker PIDs (per shard; -1 when down) — the chaos harness kills
  /// these directly.
  std::vector<int> shardPids() const;

  /// Stable content hash used for shard routing (source/entry/args/isa/
  /// style/tune — the fields that determine the cache key).
  static std::uint64_t routeHash(const WireRequest& request);

 private:
  struct Pending;
  struct Shard;

  bool spawnLocked(std::size_t idx, std::string& error);
  bool sendLocked(Shard& shard, const std::shared_ptr<Pending>& p);
  void flushBacklogLocked(std::size_t idx);
  void onShardDown(std::size_t idx);
  void readerLoop(std::size_t idx, int fd, pid_t pid);
  void monitorLoop();
  void ejectLocked(std::size_t idx, std::vector<std::shared_ptr<Pending>>& reroute);
  int pickShardLocked(std::uint64_t hash) const;  ///< -1 when all ejected
  void failPending(const std::shared_ptr<Pending>& p, const std::string& why);
  void completeFromShard(std::size_t idx, std::string rawPayload);
  /// Counts one request done. Runs only after its handler has returned, so
  /// drainPending() never wakes with a response still undelivered.
  void markDelivered();

  Config config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< monitor wakeups
  std::condition_variable idleCv_;   ///< drainPending()
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread monitor_;
  bool started_ = false;
  bool stopping_ = false;
  std::size_t pendingCount_ = 0;  ///< submitted, handler not yet returned

  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t redispatched_ = 0;
  std::uint64_t failedNoShard_ = 0;
};

/// The supervisor's stats document (end of run, and the `stats` admin reply):
/// `requests` counts compile requests submitted; `wallMillis` is `%.3f`.
std::string statsJson(const ShardSupervisor::Stats& stats, double wallMillis);

/// Supervisor-level Prometheus metrics (mat2c_shard_*, mat2c_shards_*).
std::string metricsText(const ShardSupervisor::Stats& stats);

}  // namespace mat2c::service
