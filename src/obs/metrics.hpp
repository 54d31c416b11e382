// Metrics registry: named counters, gauges and fixed-bucket histograms
// with atomic hot paths and JSON export.
//
// Instruments register-once, update-many: MetricsRegistry::global() hands
// out stable references (get-or-create under a mutex), after which every
// update is lock-free — counters and gauges are single relaxed atomics,
// histograms one atomic per bucket plus a CAS-loop sum.  The instrumented
// call sites cache the reference (see the HGP_COUNTER_ADD macro in
// obs/obs.hpp, or hold a Counter*/Histogram* member), so the registry
// mutex is never on a hot path.
//
// Unlike tracing there is no runtime on/off switch: collection is a few
// relaxed atomic ops at cold-to-warm call sites, cheap enough to leave on
// whenever the layer is compiled in (HGP_OBS=ON).  reset_values() re-zeroes
// every instrument without invalidating references, so tests and CLI runs
// can scope their measurements.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"

namespace hgp::obs {

/// Monotonic event count.  add() is a relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, live workers) with a high-water mark.
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
    raise_max(value);
  }
  void add(std::int64_t delta) {
    raise_max(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t max_value() const {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_max(std::int64_t candidate) {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket histogram: `upper_bounds` are the inclusive bucket tops in
/// strictly increasing order, plus an implicit +inf overflow bucket.
/// observe() is one atomic bucket increment, one count increment and
/// CAS-loops on the running sum, minimum and maximum — safe under
/// arbitrary concurrency.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest and largest observation; +inf and -inf while empty.
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Point-in-time copies of one instrument, for exporters and percentile
/// math that must not hold registry references across their own I/O.
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max_value = 0;
};
struct HistogramSnapshot {
  std::string name;
  /// Inclusive bucket upper bounds; `buckets` has one extra trailing
  /// overflow (+inf) entry.
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0;
  /// Smallest and largest observation; +inf and -inf while empty.
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// Quantile estimate (q in [0, 1]) from a histogram snapshot: finds the
/// bucket holding the q-th observation and interpolates linearly inside it
/// (the overflow bucket ends at the largest observation), then clamps the
/// estimate to the observed [min, max].  Returns NaN for an empty
/// histogram.
double histogram_quantile(const HistogramSnapshot& h, double q);

/// Name → instrument map.  Names are dot-separated lowercase paths
/// ("dp.merge_operations", "pool.queue_depth" — scheme in
/// docs/OBSERVABILITY.md); counters, gauges and histograms live in
/// separate namespaces.  References returned by the accessors stay valid
/// for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry the instrumentation macros record into.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Get-or-create; `upper_bounds` only applies on first registration
  /// (later callers receive the existing histogram unchanged).
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  /// Current counter value, 0 when the counter was never registered.
  std::uint64_t counter_value(const std::string& name) const;

  /// Zeroes every instrument; references stay valid.
  void reset_values();

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  void write_json(std::ostream& os) const;

  /// Name-sorted point-in-time copies (values are relaxed atomic reads;
  /// concurrent updates may straddle the copy).
  std::vector<CounterSnapshot> counter_snapshots() const;
  std::vector<GaugeSnapshot> gauge_snapshots() const;
  std::vector<HistogramSnapshot> histogram_snapshots() const;

  /// Prometheus text exposition (version 0.0.4): counters as `counter`,
  /// gauges as two `gauge` series (value and `_max` high-water), histograms
  /// as cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.  Names
  /// are sanitized to the Prometheus charset with an `hgp_` prefix; the
  /// `# HELP` line carries the exact registered name.
  void write_prometheus(std::ostream& os) const;

 private:
  /// Reader/writer split: get-or-create takes the writer side; lookups and
  /// exports take the reader side (instrument values are atomics, so a
  /// shared hold is enough to read them).  A leaf lock.
  mutable SharedMutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      HGP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      HGP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      HGP_GUARDED_BY(mutex_);
};

}  // namespace hgp::obs
