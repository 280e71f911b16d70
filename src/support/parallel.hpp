// The one fork-join of the code base: independent jobs over every core.
//
// dse::explore fans its structural measurements and oracle checks out over
// forEachIndex, and tune::autotune its speculative candidate batches; both
// aggregate on the calling thread in index order, so their results are
// bit-identical to a sequential loop.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace mat2c {

/// Runs job(0) .. job(n-1) on min(n, hardware threads) threads, the calling
/// thread included; jobs are claimed in index order through an atomic
/// counter. Once a job throws no new job is claimed, and after the join the
/// exception of the lowest failed index is rethrown. That is the one a
/// sequential loop would throw: every job below a failed index was claimed
/// before it and has run to completion.
///
/// Worker threads do not see a DeadlineGuard the caller installed for its
/// own thread (DeadlineGuard::current() is thread-local).
template <class Job>
void forEachIndex(std::size_t n, const Job& job) {
  std::size_t workers =
      std::min<std::size_t>(n, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  auto work = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        job(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < workers; ++t) {
    try {
      threads.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // no more threads: the ones started and the caller do the rest
    }
  }
  work();
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace mat2c
