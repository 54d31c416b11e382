#include "parallel/thread_pool.hpp"

namespace hgp {

#if HGP_OBS_ENABLED
namespace {

/// Millisecond bucket tops shared by the wait and run histograms: spans
/// from "dequeued immediately" to "stuck behind a multi-second DP", 1-2-5
/// per decade so an interpolated quantile is off by at most one such step.
std::vector<double> latency_buckets_ms() {
  std::vector<double> tops;
  for (const double decade : {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0}) {
    for (const double step : {1.0, 2.0, 5.0}) tops.push_back(step * decade);
  }
  tops.push_back(10000.0);
  return tops;
}

obs::Histogram& wait_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "pool.task_wait_ms", latency_buckets_ms());
  return h;
}

obs::Histogram& run_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "pool.task_run_ms", latency_buckets_ms());
  return h;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace
#endif  // HGP_OBS_ENABLED

ThreadPool::ThreadPool(std::size_t threads) {
#if HGP_OBS_ENABLED
  // Touch the shared instruments up front: the registry is constructed
  // before the first worker can record into it, and destroyed after the
  // pool (static destruction runs in reverse construction order).
  wait_histogram();
  run_histogram();
#endif
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::Job ThreadPool::make_job(std::function<void()> fn) {
#if HGP_OBS_ENABLED
  return Job{std::move(fn), std::chrono::steady_clock::now()};
#else
  return Job{std::move(fn)};
#endif
}

void ThreadPool::note_submit(bool queued) {
  HGP_COUNTER_ADD("pool.tasks_submitted", 1);
  if (queued) HGP_GAUGE_ADD("pool.queue_depth", +1);
#if !HGP_OBS_ENABLED
  (void)queued;
#endif
}

void ThreadPool::run_job(const std::function<void()>& fn) {
#if HGP_OBS_ENABLED
  const auto start = std::chrono::steady_clock::now();
  fn();
  run_histogram().observe(ms_since(start));
#else
  fn();
#endif
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job job;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stop_ must be true
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    HGP_GAUGE_ADD("pool.queue_depth", -1);
#if HGP_OBS_ENABLED
    wait_histogram().observe(ms_since(job.enqueued_at));
#endif
    run_job(job.fn);
  }
}

std::size_t ThreadPool::default_thread_count() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

}  // namespace hgp
