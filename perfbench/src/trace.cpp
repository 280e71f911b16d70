#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>

namespace perfbench::trace {
namespace {

std::atomic<bool> gEnabled{false};
std::mutex gMu;  // guards gSpans and gThreads
std::vector<Span> gSpans;
int gThreads = 0;
thread_local int tParent = -1;
thread_local int tThread = -1;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void setEnabled(bool on) { gEnabled.store(on, std::memory_order_relaxed); }
bool enabled() { return gEnabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* module, const char* name, std::uint64_t request) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(gMu);
  if (tThread < 0) tThread = gThreads++;
  Span s;
  s.module = module;
  s.name = name;
  s.parent = tParent;
  s.request = request;
  s.thread = tThread;
  s.startNs = nowNs();
  index_ = static_cast<int>(gSpans.size());
  gSpans.push_back(s);
  savedParent_ = tParent;
  tParent = index_;
}

Scope::~Scope() {
  if (index_ < 0) return;
  std::int64_t end = nowNs();
  std::lock_guard<std::mutex> lock(gMu);
  gSpans[static_cast<std::size_t>(index_)].endNs = end;
  tParent = savedParent_;
}

Adopt::Adopt(int parent) : saved_(tParent) { tParent = parent; }
Adopt::~Adopt() { tParent = saved_; }

std::vector<Span> spans() {
  std::lock_guard<std::mutex> lock(gMu);
  return gSpans;
}

std::map<std::string, double> selfTimeByModule(const std::vector<Span>& spans, int root) {
  const std::size_t n = spans.size();
  std::vector<std::vector<int>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(
        static_cast<int>(i));
  }
  std::map<std::string, double> self;
  std::vector<int> stack = {root};
  while (!stack.empty()) {
    int i = stack.back();
    stack.pop_back();
    const Span& s = spans[static_cast<std::size_t>(i)];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (int c : children[static_cast<std::size_t>(i)]) {
      const Span& cs = spans[static_cast<std::size_t>(c)];
      iv.emplace_back(std::max(cs.startNs, s.startNs), std::min(cs.endNs, s.endNs));
      stack.push_back(c);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, curStart = 0, curEnd = -1;
    for (auto [a, b] : iv) {
      if (b <= a) continue;
      if (a > curEnd) {
        if (curEnd > curStart) covered += curEnd - curStart;
        curStart = a;
        curEnd = b;
      } else {
        curEnd = std::max(curEnd, b);
      }
    }
    if (curEnd > curStart) covered += curEnd - curStart;
    self[s.module] += static_cast<double>(s.endNs - s.startNs - covered) / 1e6;
  }
  return self;
}

std::string chromeTraceJson(const std::vector<Span>& spans) {
  std::int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
  for (const Span& s : spans) t0 = std::min(t0, s.startNs);
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"req\":%llu}}",
                  i ? "," : "", s.name, s.module, s.thread,
                  static_cast<double>(s.startNs - t0) / 1e3,
                  static_cast<double>(s.endNs - s.startNs) / 1e3, i, s.parent,
                  static_cast<unsigned long long>(s.request));
    os << buf;
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace perfbench::trace
