#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "obs/json_escape.hpp"
#include "util/check.hpp"

namespace hgp::obs {

namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; the project's
/// dotted names map onto that by replacing every other byte with '_'.
/// Distinct hostile names may collide after sanitization — the HELP line
/// carries the exact original (JSON-escaped) so scrapes stay attributable.
std::string prometheus_name(const std::string& name) {
  std::string out = "hgp_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Prometheus sample values: plain decimal, `+Inf`/`-Inf`/`NaN` specials.
void write_prometheus_value(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    os << v;
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  HGP_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                        bounds_.end(),
                "histogram bounds must be strictly increasing");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double x) {
  double low = min_.load(std::memory_order_relaxed);
  while (x < low &&
         !min_.compare_exchange_weak(low, x, std::memory_order_relaxed)) {
  }
  double high = max_.load(std::memory_order_relaxed);
  while (x > high &&
         !max_.compare_exchange_weak(high, x, std::memory_order_relaxed)) {
  }
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double seen = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(seen, seen + x,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const WriterLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const WriterLock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  const WriterLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *slot;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const ReaderLock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

void MetricsRegistry::reset_values() {
  // Shared hold: only the map structure is guarded — the instrument
  // values being zeroed are atomics.
  const ReaderLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const ReaderLock lock(mutex_);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_json_escaped(os, name);
    os << "\": " << c->value();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_json_escaped(os, name);
    os << "\": {\"value\": " << g->value() << ", \"max\": " << g->max_value()
       << "}";
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_json_escaped(os, name);
    os << "\": {\"count\": " << h->count() << ", \"sum\": " << h->sum()
       << ", \"buckets\": [";
    const auto counts = h->bucket_counts();
    const auto& bounds = h->upper_bounds();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"le\": ";
      if (i < bounds.size()) {
        os << bounds[i];
      } else {
        os << "\"inf\"";
      }
      os << ", \"count\": " << counts[i] << "}";
    }
    os << "]}";
    first = false;
  }
  os << "\n  }\n}\n";
}

std::vector<CounterSnapshot> MetricsRegistry::counter_snapshots() const {
  const ReaderLock lock(mutex_);
  std::vector<CounterSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.push_back({name, c->value()});
  }
  return out;
}

std::vector<GaugeSnapshot> MetricsRegistry::gauge_snapshots() const {
  const ReaderLock lock(mutex_);
  std::vector<GaugeSnapshot> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, g->value(), g->max_value()});
  }
  return out;
}

std::vector<HistogramSnapshot> MetricsRegistry::histogram_snapshots() const {
  const ReaderLock lock(mutex_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot snap;
    snap.name = name;
    snap.upper_bounds = h->upper_bounds();
    snap.buckets = h->bucket_counts();
    snap.count = h->count();
    snap.sum = h->sum();
    snap.min = h->min();
    snap.max = h->max();
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

/// histogram_quantile before the clamp to the observed range.
double bucket_quantile(const HistogramSnapshot& h, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : h.buckets) total += b;
  if (total == 0) return std::nan("");
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target observation, 1-based; q=0 maps to the first.
  const double rank = std::max(q * static_cast<double>(total), 1.0);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const std::uint64_t in_bucket = h.buckets[i];
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    const double lo = i == 0 ? 0.0 : h.upper_bounds[i - 1];
    // The overflow bucket ends at the largest observation.
    const double hi =
        i < h.upper_bounds.size() ? h.upper_bounds[i] : std::max(h.max, lo);
    const double frac = (rank - before) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * std::min(std::max(frac, 0.0), 1.0);
  }
  return h.upper_bounds.empty() ? std::nan("") : h.upper_bounds.back();
}

}  // namespace

double histogram_quantile(const HistogramSnapshot& h, double q) {
  const double estimate = bucket_quantile(h, q);
  // A snapshot taken during an observe() may count an observation whose
  // min and max it does not hold yet; it is not clamped.
  if (std::isnan(estimate) || !(h.min <= h.max)) return estimate;
  return std::clamp(estimate, h.min, h.max);
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  // Snapshots, not a registry hold, so the exposition's own formatting
  // cost never extends the reader lock.
  for (const CounterSnapshot& c : counter_snapshots()) {
    const std::string pn = prometheus_name(c.name);
    os << "# HELP " << pn << " counter \"" << json_escaped(c.name) << "\"\n";
    os << "# TYPE " << pn << " counter\n";
    os << pn << " " << c.value << "\n";
  }
  for (const GaugeSnapshot& g : gauge_snapshots()) {
    const std::string pn = prometheus_name(g.name);
    os << "# HELP " << pn << " gauge \"" << json_escaped(g.name) << "\"\n";
    os << "# TYPE " << pn << " gauge\n";
    os << pn << " " << g.value << "\n";
    os << "# HELP " << pn << "_max high-water mark of \""
       << json_escaped(g.name) << "\"\n";
    os << "# TYPE " << pn << "_max gauge\n";
    os << pn << "_max " << g.max_value << "\n";
  }
  for (const HistogramSnapshot& h : histogram_snapshots()) {
    const std::string pn = prometheus_name(h.name);
    os << "# HELP " << pn << " histogram \"" << json_escaped(h.name) << "\"\n";
    os << "# TYPE " << pn << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      os << pn << "_bucket{le=\"";
      if (i < h.upper_bounds.size()) {
        write_prometheus_value(os, h.upper_bounds[i]);
      } else {
        os << "+Inf";
      }
      os << "\"} " << cumulative << "\n";
    }
    os << pn << "_sum ";
    write_prometheus_value(os, h.sum);
    os << "\n" << pn << "_count " << h.count << "\n";
  }
}

}  // namespace hgp::obs
