// Data-parallel loop helpers built on ThreadPool.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <future>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"

namespace hgp {

/// Runs body(i) for i in [begin, end) across the pool, blocking until done.
/// The range is split into contiguous chunks (one per worker by default).
/// The first exception thrown by any chunk is rethrown on the caller.
///
/// A non-null `exec` makes the loop cooperative: every chunk checks
/// cancellation before each item (an atomic load) and the deadline on a
/// stride, so a cancel or expiry raised mid-loop stops the remaining work
/// promptly and surfaces as SolveError{kCancelled|kDeadlineExceeded}.
/// Items already dispatched to body() always run to completion.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const Body& body, std::size_t min_chunk = 1,
                  const ExecContext* exec = nullptr) {
  if (begin >= end) return;
  auto run_range = [&body, exec](std::size_t lo, std::size_t hi) {
    PeriodicCheck guard(exec, "parallel_for", 256);
    for (std::size_t i = lo; i < hi; ++i) {
      guard.tick();
      body(i);
    }
  };
  const std::size_t n = end - begin;
  const std::size_t workers = std::max<std::size_t>(pool.thread_count(), 1);
  const std::size_t chunk =
      std::max(min_chunk, (n + workers - 1) / workers);
  if (pool.thread_count() == 0 || n <= chunk) {
    run_range(begin, end);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve((n + chunk - 1) / chunk);
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(lo + chunk, end);
    futures.push_back(
        pool.submit([lo, hi, &run_range] { run_range(lo, hi); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// parallel_for over the shared pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  std::size_t min_chunk = 1,
                  const ExecContext* exec = nullptr) {
  parallel_for(ThreadPool::shared(), begin, end, body, min_chunk, exec);
}

}  // namespace hgp
