#include "service/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "driver/report.hpp"
#include "support/string_utils.hpp"

extern char** environ;

namespace mat2c::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Loops ::write over partial writes and EINTR. False on any hard error
/// (EPIPE after a worker died, mostly) — the caller treats that as a dead
/// shard, never as data loss.
bool writeAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool readExact(int fd, char* data, std::size_t size, bool& cleanEof) {
  cleanEof = false;
  std::size_t got = 0;
  while (got < size) {
    ssize_t n = ::read(fd, data + got, size - got);
    if (n == 0) {
      cleanEof = (got == 0);
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// fd flavor of protocol.cpp's readFrame: 1 = Response frame, 0 = clean EOF
/// at a frame boundary, -1 = torn/garbled stream (truncated header or
/// payload, a header decodeFrameHeader rejects, or a Request frame). -1 is
/// not resynchronizable — the shard is declared dead and its traffic
/// re-dispatched.
int readResponseFrameFd(int fd, std::string& payload) {
  char header[kFrameHeaderBytes];
  bool cleanEof = false;
  if (!readExact(fd, header, sizeof header, cleanEof)) return cleanEof ? 0 : -1;
  FrameHeader h;
  std::string error;
  constexpr std::size_t kMaxResponseBytes = 64u << 20;  // a worker never sends more
  if (!decodeFrameHeader({header, sizeof header}, kMaxResponseBytes, h, error)) return -1;
  if (h.type != FrameType::Response) return -1;
  payload.resize(h.payloadLen);
  if (h.payloadLen > 0 && !readExact(fd, payload.data(), h.payloadLen, cleanEof)) return -1;
  return 1;
}

std::string healthzProbePayload() {
  WireRequest probe;
  probe.id = "__probe__";
  probe.admin = "healthz";
  return encodeBinaryRequest(probe);
}

}  // namespace

/// One routed request. It can sit in a backlog or an outstanding FIFO while
/// it is failed elsewhere (shutdown, ejection), so `completed` guards double
/// delivery.
struct ShardSupervisor::Pending {
  std::string id;
  std::string payload;       ///< encoded Request frame payload
  std::uint64_t hash = 0;    ///< route hash (re-routing after ejection)
  ResponseHandler done;
  bool sentOnce = false;     ///< a later send is a re-dispatch (counted)
  bool completed = false;
  bool isProbe = false;      ///< internal readmission probe
};

struct ShardSupervisor::Shard {
  pid_t pid = -1;
  int inFd = -1;   ///< worker stdin (requests out)
  int outFd = -1;  ///< worker stdout (responses in)
  std::thread reader;
  /// Sent and awaiting a response, in send order. The worker answers in the
  /// order it reads, so matching is positional.
  std::deque<std::shared_ptr<Pending>> outstanding;
  /// Routed here but not yet sendable (shard down or still probing).
  std::deque<std::shared_ptr<Pending>> backlog;
  bool spawned = false;  ///< process exists
  bool alive = false;    ///< healthz probe answered; accepting sends
  bool down = false;     ///< death seen, restart scheduled
  bool ejected = false;  ///< permanently out of rotation
  int restarts = 0;
  Clock::time_point restartAt{};
};

ShardSupervisor::ShardSupervisor(Config config) : config_(std::move(config)) {
  if (config_.shards < 1) config_.shards = 1;
}

ShardSupervisor::~ShardSupervisor() { shutdown(); }

std::uint64_t ShardSupervisor::routeHash(const WireRequest& request) {
  std::string key;
  key.reserve(request.source.size() + 64);
  auto field = [&](const std::string& s) {
    key += s;
    key += '\x1f';
  };
  field(request.source);
  field(request.entry);
  field(request.args);
  field(request.isa);
  field(request.isaText);
  field(request.style);
  key += request.tune ? '1' : '0';
  return fnv1a64(key);
}

bool ShardSupervisor::start(std::string& error) {
  // Workers dying mid-write must surface as EPIPE on our write(), not as a
  // process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  if (config_.binaryPath.empty()) {
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0) {
      error = "cannot resolve /proc/self/exe and Config::binaryPath is empty";
      return false;
    }
    buf[n] = '\0';
    config_.binaryPath = buf;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    error = "supervisor already started";
    return false;
  }
  shards_.clear();
  for (int i = 0; i < config_.shards; ++i) shards_.push_back(std::make_unique<Shard>());
  int up = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::string shardError;
    if (spawnLocked(i, shardError)) {
      ++up;
    } else {
      // Couldn't even fork/exec: schedule it like a death so the monitor
      // retries with backoff instead of giving up at startup.
      shards_[i]->down = true;
      shards_[i]->restartAt = Clock::now();
      if (error.empty()) error = shardError;
    }
  }
  if (up == 0) {
    for (auto& s : shards_) s->ejected = true;
    return false;
  }
  error.clear();
  started_ = true;
  monitor_ = std::thread([this] { monitorLoop(); });
  return true;
}

bool ShardSupervisor::spawnLocked(std::size_t idx, std::string& error) {
  Shard& sh = *shards_[idx];
  int toChild[2];   // parent writes -> child stdin
  int fromChild[2]; // child stdout -> parent reads
  if (::pipe2(toChild, O_CLOEXEC) != 0) {
    error = "pipe2: " + std::string(std::strerror(errno));
    return false;
  }
  if (::pipe2(fromChild, O_CLOEXEC) != 0) {
    error = "pipe2: " + std::string(std::strerror(errno));
    ::close(toChild[0]);
    ::close(toChild[1]);
    return false;
  }

  // argv/envp are built BEFORE fork: the child may only use async-signal-safe
  // calls between fork and exec (this process is multithreaded).
  std::vector<std::string> argvStore = {config_.binaryPath, "serve", "-", "--binary"};
  for (const std::string& a : config_.workerArgs) argvStore.push_back(a);
  std::vector<char*> argv;
  for (std::string& s : argvStore) argv.push_back(s.data());
  argv.push_back(nullptr);
  std::vector<std::string> envStore;
  for (char** e = environ; e && *e; ++e) envStore.emplace_back(*e);
  for (const std::string& e : config_.workerEnv) envStore.push_back(e);
  std::vector<char*> envp;
  for (std::string& s : envStore) envp.push_back(s.data());
  envp.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    error = "fork: " + std::string(std::strerror(errno));
    ::close(toChild[0]);
    ::close(toChild[1]);
    ::close(fromChild[0]);
    ::close(fromChild[1]);
    return false;
  }
  if (pid == 0) {
    // Child: wire the pipes to stdio and exec the worker. dup2 clears
    // O_CLOEXEC on the duplicate; every other supervisor fd closes on exec.
    ::dup2(toChild[0], 0);
    ::dup2(fromChild[1], 1);
    ::execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  ::close(toChild[0]);
  ::close(fromChild[1]);
  sh.pid = pid;
  sh.inFd = toChild[1];
  sh.outFd = fromChild[0];
  sh.spawned = true;
  sh.alive = false;
  sh.down = false;

  // Readmission probe: the shard takes traffic only after it answers this.
  auto probe = std::make_shared<Pending>();
  probe->id = "__probe__";
  probe->payload = healthzProbePayload();
  probe->isProbe = true;
  if (!sendLocked(sh, probe)) {
    // Write failed instantly (exec failure racing us); the reader will see
    // EOF and schedule the restart.
    error = "probe write to shard " + std::to_string(idx) + " failed";
  }
  int fd = sh.outFd;
  sh.reader = std::thread([this, idx, fd, pid] { readerLoop(idx, fd, pid); });
  return true;
}

bool ShardSupervisor::sendLocked(Shard& shard, const std::shared_ptr<Pending>& p) {
  if (shard.inFd < 0) return false;
  std::string frame = encodeFrame(FrameType::Request, p->payload);
  shard.outstanding.push_back(p);
  if (p->sentOnce && !p->isProbe) ++redispatched_;
  p->sentOnce = true;
  // The write happens under mu_: requests are small relative to the pipe
  // buffer and workers drain continuously, so this does not block in
  // practice; in exchange the outstanding FIFO order always matches the
  // byte order on the pipe.
  if (!writeAll(shard.inFd, frame.data(), frame.size())) {
    shard.outstanding.pop_back();
    return false;
  }
  return true;
}

void ShardSupervisor::flushBacklogLocked(std::size_t idx) {
  Shard& sh = *shards_[idx];
  while (sh.alive && !sh.backlog.empty()) {
    std::shared_ptr<Pending> p = sh.backlog.front();
    sh.backlog.pop_front();
    if (p->completed) continue;  // already answered or failed
    if (!sendLocked(sh, p)) {
      sh.backlog.push_front(p);
      break;
    }
  }
}

void ShardSupervisor::submit(const WireRequest& request, ResponseHandler done) {
  auto p = std::make_shared<Pending>();
  p->id = request.id;
  p->payload = encodeBinaryRequest(request);
  p->hash = routeHash(request);
  p->done = std::move(done);
  std::string failWhy;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Counted even when it fails fast: markDelivered() runs for every
    // request, and drainPending() must wait for its handler too.
    ++pendingCount_;
    if (stopping_ || !started_) {
      failWhy = "supervisor is not running";
    } else {
      ++submitted_;
      int idx = pickShardLocked(p->hash);
      if (idx < 0) {
        ++failedNoShard_;
        failWhy = "no shards available (all permanently ejected)";
      } else {
        Shard& sh = *shards_[static_cast<std::size_t>(idx)];
        if (!sh.alive || !sendLocked(sh, p)) sh.backlog.push_back(p);
      }
    }
  }
  if (!failWhy.empty()) failPending(p, failWhy);
}

int ShardSupervisor::pickShardLocked(std::uint64_t hash) const {
  const std::size_t n = shards_.size();
  for (std::size_t probe = 0; probe < n; ++probe) {
    std::size_t idx = (static_cast<std::size_t>(hash) + probe) % n;
    if (!shards_[idx]->ejected) return static_cast<int>(idx);
  }
  return -1;
}

void ShardSupervisor::failPending(const std::shared_ptr<Pending>& p, const std::string& why) {
  ResponseHandler done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (p->completed || p->isProbe) return;
    p->completed = true;
    done = std::move(p->done);
  }
  if (done) {
    BinaryResponse r;
    r.id = p->id;
    r.ok = false;
    r.error = why;
    r.errorKind = ErrorKind::ResourceExhausted;
    done(encodeBinaryResponse(r), r);
  }
  markDelivered();
}

void ShardSupervisor::markDelivered() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_;
    if (pendingCount_ > 0) --pendingCount_;
  }
  idleCv_.notify_all();
}

void ShardSupervisor::completeFromShard(std::size_t idx, std::string rawPayload) {
  ResponseHandler done;
  BinaryResponse decoded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Shard& sh = *shards_[idx];
    if (sh.outstanding.empty()) return;  // reader already validated alignment
    std::shared_ptr<Pending> p = sh.outstanding.front();
    sh.outstanding.pop_front();
    if (p->isProbe) {
      // Readmission: the worker is answering, so it is healthy enough to
      // take its backlog (healthz "degraded" still answers — degraded beats
      // down).
      if (!sh.alive && !sh.down) {
        sh.alive = true;
        flushBacklogLocked(idx);
      }
      return;
    }
    if (p->completed) return;  // already failed: deliver once
    std::string error;
    if (!decodeBinaryResponse(rawPayload, decoded, error)) {
      decoded = BinaryResponse{};
      decoded.id = p->id;
      decoded.ok = false;
      decoded.error = "malformed response payload from shard " + std::to_string(idx);
      decoded.errorKind = ErrorKind::Panic;
      rawPayload = encodeBinaryResponse(decoded);
    }
    p->completed = true;
    done = std::move(p->done);
  }
  if (done) done(rawPayload, decoded);
  markDelivered();
}

void ShardSupervisor::onShardDown(std::size_t idx) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Shard& sh = *shards_[idx];
    if (sh.down || !sh.spawned) return;
    sh.down = true;
    sh.alive = false;
    sh.spawned = false;
    if (sh.inFd >= 0) {
      ::close(sh.inFd);
      sh.inFd = -1;
    }
    if (sh.outFd >= 0) {
      ::close(sh.outFd);
      sh.outFd = -1;
    }
    // Unanswered requests go back to the FRONT of the backlog in their send
    // order — re-dispatch preserves FIFO fairness. Internal probes die with
    // the process (a fresh probe is part of every respawn).
    for (auto it = sh.outstanding.rbegin(); it != sh.outstanding.rend(); ++it) {
      if ((*it)->isProbe || (*it)->completed) continue;
      sh.backlog.push_front(*it);
    }
    sh.outstanding.clear();
    // Deterministic backoff: delay depends only on (seed, shard, attempt).
    double delay = config_.restart.delayMillis(
        sh.restarts, config_.seed ^ (0x9e3779b97f4a7c15ULL * (idx + 1)));
    sh.restartAt = Clock::now() + std::chrono::microseconds(static_cast<long>(delay * 1000.0));
  }
  cv_.notify_all();
}

void ShardSupervisor::readerLoop(std::size_t idx, int fd, pid_t pid) {
  int rc = 0;
  while (true) {
    std::string payload;
    rc = readResponseFrameFd(fd, payload);
    if (rc <= 0) break;
    completeFromShard(idx, std::move(payload));
  }
  // A torn stream (rc < 0) does not mean the process exited — a worker that
  // wrote garbage may be alive and blocked on stdin, and waitpid would hang
  // behind it. It is unusable either way: kill before reaping. Clean EOF
  // means the worker closed stdout, i.e. it is exiting on its own.
  if (rc < 0) ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  onShardDown(idx);
}

void ShardSupervisor::ejectLocked(std::size_t idx,
                                  std::vector<std::shared_ptr<Pending>>& reroute) {
  Shard& sh = *shards_[idx];
  sh.ejected = true;
  sh.down = false;
  for (auto& p : sh.backlog) {
    if (!p->completed && !p->isProbe) reroute.push_back(p);
  }
  sh.backlog.clear();
}

void ShardSupervisor::monitorLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    // Next deadline: the earliest scheduled restart.
    Clock::time_point wake = Clock::now() + std::chrono::seconds(3600);
    bool haveWork = false;
    for (auto& shPtr : shards_) {
      if (shPtr->down && !shPtr->ejected) {
        wake = std::min(wake, shPtr->restartAt);
        haveWork = true;
      }
    }
    if (!haveWork) {
      cv_.wait(lock, [&] {
        if (stopping_) return true;
        for (auto& s : shards_) {
          if (s->down && !s->ejected) return true;
        }
        return false;
      });
      continue;
    }
    cv_.wait_until(lock, wake);
    if (stopping_) break;

    // Restarts due.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& sh = *shards_[i];
      if (!sh.down || sh.ejected || Clock::now() < sh.restartAt) continue;
      // Join the finished reader outside the lock: it may still be inside
      // onShardDown waiting for mu_.
      std::thread oldReader = std::move(sh.reader);
      lock.unlock();
      if (oldReader.joinable()) oldReader.join();
      lock.lock();
      if (stopping_) break;
      if (!sh.down || sh.ejected) continue;  // state moved while unlocked
      if (sh.restarts >= config_.maxRestarts) {
        std::vector<std::shared_ptr<Pending>> reroute;
        ejectLocked(i, reroute);
        std::vector<std::shared_ptr<Pending>> failed;
        for (auto& p : reroute) {
          int target = pickShardLocked(p->hash);
          if (target < 0) {
            ++failedNoShard_;
            failed.push_back(p);
            continue;
          }
          Shard& dst = *shards_[static_cast<std::size_t>(target)];
          if (!dst.alive || !sendLocked(dst, p)) dst.backlog.push_back(p);
        }
        lock.unlock();
        for (auto& p : failed) failPending(p, "no shards available (all permanently ejected)");
        lock.lock();
        continue;
      }
      ++sh.restarts;
      ++restarts_;
      std::string error;
      if (!spawnLocked(i, error)) {
        // Spawn itself failed (fork limit, binary gone): back off again.
        sh.down = true;
        double delay = config_.restart.delayMillis(
            sh.restarts, config_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
        sh.restartAt =
            Clock::now() + std::chrono::microseconds(static_cast<long>(delay * 1000.0));
      }
    }
  }
}

void ShardSupervisor::drainPending() {
  std::unique_lock<std::mutex> lock(mu_);
  idleCv_.wait(lock, [&] { return pendingCount_ == 0; });
}

void ShardSupervisor::shutdown() {
  std::vector<std::thread> readers;
  std::vector<std::shared_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      if (!started_) return;
    }
    stopping_ = true;
    for (auto& shPtr : shards_) {
      Shard& sh = *shPtr;
      // Closing stdin lets a live worker drain and exit; its reader sees the
      // trailing responses, then EOF.
      if (sh.inFd >= 0) {
        ::close(sh.inFd);
        sh.inFd = -1;
      }
      for (auto& p : sh.backlog) {
        if (!p->completed && !p->isProbe) orphans.push_back(p);
      }
      sh.backlog.clear();
    }
  }
  cv_.notify_all();
  idleCv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& shPtr : shards_) {
      if (shPtr->reader.joinable()) readers.push_back(std::move(shPtr->reader));
    }
  }
  for (std::thread& t : readers) t.join();
  {
    // Readers exited; any request still unanswered never will be (worker
    // died mid-drain — onShardDown may have moved it outstanding → backlog
    // after the first sweep). Fail them cleanly rather than hanging callers.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& shPtr : shards_) {
      for (auto& p : shPtr->outstanding) {
        if (!p->completed && !p->isProbe) orphans.push_back(p);
      }
      shPtr->outstanding.clear();
      for (auto& p : shPtr->backlog) {
        if (!p->completed && !p->isProbe) orphans.push_back(p);
      }
      shPtr->backlog.clear();
      if (shPtr->outFd >= 0) {
        ::close(shPtr->outFd);
        shPtr->outFd = -1;
      }
    }
  }
  for (auto& p : orphans) failPending(p, "supervisor shut down before the request completed");
}

ShardSupervisor::Stats ShardSupervisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.restarts = restarts_;
  s.redispatched = redispatched_;
  s.failedNoShard = failedNoShard_;
  for (const auto& shPtr : shards_) {
    if (shPtr->alive) ++s.shardsAlive;
    if (shPtr->ejected) ++s.shardsEjected;
    s.pids.push_back(shPtr->spawned ? static_cast<int>(shPtr->pid) : -1);
  }
  return s;
}

std::vector<int> ShardSupervisor::shardPids() const {
  return stats().pids;
}

std::string statsJson(const ShardSupervisor::Stats& s, double wallMillis) {
  using namespace report;
  return jsonDocument({intField("requests", s.submitted), intField("completed", s.completed),
                       intField("restarts", s.restarts), intField("redispatched", s.redispatched),
                       intField("failedNoShard", s.failedNoShard),
                       intField("shardsAlive", s.shardsAlive),
                       intField("shardsEjected", s.shardsEjected),
                       numField("wallMillis", wallMillis, 3)});
}

std::string metricsText(const ShardSupervisor::Stats& s) {
  PrometheusWriter w;
  w.counter("mat2c_shard_requests_total", s.submitted, "Requests routed to shards");
  w.counter("mat2c_shard_responses_total", s.completed, "Responses delivered");
  w.counter("mat2c_shard_restarts_total", s.restarts, "Worker processes respawned");
  w.counter("mat2c_shard_redispatches_total", s.redispatched,
            "Requests re-sent after a shard died");
  w.counter("mat2c_shard_route_failures_total", s.failedNoShard,
            "Requests failed with every shard ejected");
  w.gauge("mat2c_shards_alive", std::to_string(s.shardsAlive), "Live (readmitted) worker shards");
  w.gauge("mat2c_shards_ejected", std::to_string(s.shardsEjected), "Permanently ejected shards");
  return w.text;
}

}  // namespace mat2c::service
