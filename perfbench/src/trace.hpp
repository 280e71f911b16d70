// In-memory span recorder for the traced run (--trace 1).
//
// Spans are recorded only from the benchmark's own files, around its calls
// into the mat2c libraries; the libraries themselves are not instrumented.
// Each span carries a module (the layer it measures), a name, start and end,
// its parent span, and a request id where one exists. Nothing is written
// until the run ends. When tracing is off a Scope costs one branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace perfbench::trace {

struct Span {
  const char* module = "";
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;          // index into the span list, -1 for a root
  std::uint64_t request = 0;  // request id on serve, 0 elsewhere
  int thread = 0;
};

void setEnabled(bool on);
bool enabled();

/// Opens a span on construction and closes it on destruction; nested scopes
/// on one thread become children. The module and name must be literals.
class Scope {
 public:
  Scope(const char* module, const char* name, std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  int index_ = -1;
  int savedParent_ = -1;
};

/// Makes `parent` the parent of spans opened on this thread while alive, so a
/// helper thread's spans hang under the span that started it.
class Adopt {
 public:
  explicit Adopt(int parent);
  ~Adopt();
  Adopt(const Adopt&) = delete;
  Adopt& operator=(const Adopt&) = delete;

 private:
  int saved_;
};

/// All spans recorded so far (copy).
std::vector<Span> spans();

/// Self time per module, in milliseconds, over the subtree of `root`. A
/// span's self time is its duration minus the union of its children's.
std::map<std::string, double> selfTimeByModule(const std::vector<Span>& spans, int root);

/// Chrome trace-event JSON ("X" complete events, microseconds).
std::string chromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench::trace
