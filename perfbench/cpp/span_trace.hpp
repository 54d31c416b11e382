// Outside-in span recorder for the traced benchmark runs.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions — nothing inside src/ is instrumented — and
// kept in memory until the run ends, then written as a Chrome trace-event
// file (chrome://tracing, Perfetto).  Every span carries the id of the
// request that caused it and the index of its parent span, so a layer's
// self time is its duration minus the part its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanTrace {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    std::uint64_t request = 0;
    int parent = kNoParent;
    double start_us = 0;
    double end_us = 0;
    double dur_ms() const { return (end_us - start_us) / 1e3; }
  };

  /// Opens a span now; returns its index.
  int begin(const std::string& name, std::uint64_t request,
            int parent = kNoParent);
  void end(int index);
  /// Records a span whose bounds were measured elsewhere (µs since the
  /// recorder's epoch, see now_us()).
  int add(const std::string& name, std::uint64_t request, int parent,
          double start_us, double end_us);
  double now_us() const;
  /// Converts a steady-clock reading in ms (perfbench::now_ms) to the
  /// recorder's µs timeline.
  double steady_to_us(double steady_ms) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Per request span named `root`: Σ duration of each direct-child name
  /// (ms).  Requests lacking a child name contribute 0 for it.
  std::map<std::string, std::vector<double>> child_totals(
      const std::string& root) const;
  /// Per request span named `root`: Σ duration of descendants named
  /// `name` at any depth (ms).
  std::vector<double> descendant_totals(const std::string& root,
                                        const std::string& name) const;
  /// Per request span named `root`: the share of its wall covered by its
  /// direct children.
  std::vector<double> coverage(const std::string& root) const;
  std::vector<double> durations(const std::string& name) const;

  /// Writes the Chrome trace-event JSON ("X" complete events; tid = the
  /// request id so each request is one row).  Returns false on I/O error.
  bool write_chrome(const std::string& path) const;

  class Scope {
   public:
    Scope(SpanTrace& trace, const std::string& name, std::uint64_t request,
          int parent = kNoParent)
        : trace_(trace), index_(trace.begin(name, request, parent)) {}
    ~Scope() { trace_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const { return index_; }

   private:
    SpanTrace& trace_;
    int index_;
  };

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
