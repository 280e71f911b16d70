// Small helpers shared by the benchmark's workloads: a seeded RNG, order
// statistics, a content hash, and the metric table every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double millisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: every workload derives its inputs from the --seed through it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

inline double geomean(const std::vector<double>& xs) {
  double logSum = 0.0;
  for (double x : xs) logSum += std::log(x);
  return xs.empty() ? 0.0 : std::exp(logSum / static_cast<double>(xs.size()));
}

inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Milliseconds a fixed CPU task independent of mat2c takes (sorting, map
/// inserts and hashing over a seeded array), median of three. It tracks the
/// host's speed, which drifts by tens of percent over minutes on a shared
/// machine.
inline double hostReferenceMs() {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    Rng rng(42);
    std::vector<std::uint64_t> v(1 << 16);
    for (auto& x : v) x = rng.next();
    std::sort(v.begin(), v.end());
    std::map<std::uint64_t, std::uint64_t> m;
    for (std::size_t i = 0; i < v.size(); i += 4) m[v[i] >> 7] = fnv1a(std::to_string(v[i]));
    volatile std::uint64_t sink = m.begin()->second;
    (void)sink;
    times.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Host-normalized timing for CPU-bound work (README.md, "Host
/// normalization"): measured time is scaled to a host on which the reference
/// task takes kNominalMs. Samples run on the measuring thread itself, between
/// pieces of its work: a sampler on another vCPU does not see the slowdowns
/// of this one.
class HostMeter {
 public:
  static constexpr double kNominalMs = 8.0;
  double sample() {
    all_.push_back(hostReferenceMs());
    return all_.back();
  }
  const std::vector<double>& samples() const { return all_; }

 private:
  std::vector<double> all_;
};

/// Host-normalized stopwatch for a stretch of work on one thread. tick()
/// closes a segment: it takes a reference sample and adds the segment's time
/// scaled by the mean of the samples at its two ends. Sampling is not timed.
class ScaledClock {
 public:
  explicit ScaledClock(HostMeter& host)
      : host_(host), lastMs_(host.sample()), start_(Clock::now()) {}
  /// Closes the open segment and returns its scale (times are multiplied by
  /// it, rates divided).
  double tick() {
    double raw = secondsSince(start_);
    double ms = host_.sample();
    double scale = HostMeter::kNominalMs / ((lastMs_ + ms) / 2.0);
    lastMs_ = ms;
    rawSeconds_ += raw;
    seconds_ += raw * scale;
    start_ = Clock::now();
    return scale;
  }
  double seconds() const { return seconds_; }         // scaled, closed segments
  double rawSeconds() const { return rawSeconds_; }   // unscaled, closed segments
  double openSeconds() const { return secondsSince(start_); }

 private:
  HostMeter& host_;
  double lastMs_;
  Clock::time_point start_;
  double rawSeconds_ = 0.0, seconds_ = 0.0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
/// Metric name -> measured value; std::map keeps the printed order stable.
using Metrics = std::map<std::string, Metric>;

/// What one workload reports: end-to-end metrics (measured untraced),
/// per-layer metrics (meaningful from the traced run), deterministic counts
/// that must not depend on tracing, and its operation tally.
struct WorkloadResult {
  Metrics endToEnd;
  Metrics perLayer;
  std::map<std::string, double> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions

  void fail(std::string what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
};

}  // namespace perfbench
