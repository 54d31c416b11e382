// Fixed-size thread pool with futures.
//
// Design notes (following C++ Core Guidelines CP.*):
//  * tasks are type-erased into packaged jobs; exceptions propagate through
//    the returned std::future;
//  * the pool joins all workers in the destructor (RAII — no detached
//    threads);
//  * a pool of size 0 is valid and runs tasks inline on submit(), which keeps
//    single-core and debugging configurations simple.
//
// Observability (compiled out under HGP_OBS=OFF): every pool feeds the
// shared metrics registry — `pool.tasks_submitted`, the `pool.queue_depth`
// gauge (with high-water mark), and the `pool.task_wait_ms` /
// `pool.task_run_ms` histograms measuring queue latency and execution
// time.  All pools share these series; per-pool attribution is not worth a
// registry namespace while the library runs one shared pool.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/obs.hpp"
#include "util/sync.hpp"

namespace hgp {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers; 0 means "run tasks inline".
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Submits a callable; the result (or exception) arrives via the future.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      note_submit(/*queued=*/false);
      run_job([task] { (*task)(); });
      return fut;
    }
    note_submit(/*queued=*/true);
    {
      const MutexLock lock(mutex_);
      queue_.emplace_back(make_job([task] { (*task)(); }));
    }
    // Notify outside the lock: the job was enqueued (the predicate the
    // workers wait on) while it was held, so the wakeup cannot be lost.
    cv_.notify_one();
    return fut;
  }

  /// Hardware concurrency, never zero.
  static std::size_t default_thread_count();

  /// Process-wide shared pool (created on first use with
  /// default_thread_count() workers).
  static ThreadPool& shared();

 private:
#if HGP_OBS_ENABLED
  struct Job {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued_at;
  };
#else
  struct Job {
    std::function<void()> fn;
  };
#endif

  static Job make_job(std::function<void()> fn);

  void worker_loop() HGP_EXCLUDES(mutex_);
  /// Metrics bookkeeping around one submit (counter + queue-depth gauge).
  void note_submit(bool queued);
  /// Runs `fn`, timing it into the task-latency histograms.
  void run_job(const std::function<void()>& fn);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::deque<Job> queue_ HGP_GUARDED_BY(mutex_);
  bool stop_ HGP_GUARDED_BY(mutex_) = false;
};

}  // namespace hgp
