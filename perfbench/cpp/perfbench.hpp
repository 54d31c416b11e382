// Shared pieces of the repository benchmark: run configuration, the
// per-request outcome record, the run result every workload fills, and the
// small statistics / host helpers the workloads share.
//
// A workload runs in two modes.  The timed mode (trace off) replays the
// workload's seeded request list in rounds for the configured seconds with
// no instrumentation and reports the end-to-end metrics.  The traced mode
// replays the same list outside-in — calling each layer's public functions
// itself, inside spans recorded by span_trace.hpp — and reports the
// per-layer metrics.  Both modes run the correctness gates.
//
// Every round repeats identical work, and its results must repeat bit for
// bit; cold set-ups are timed between rounds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "hierarchy/hierarchy.hpp"
#include "runtime/solver.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase.  The first round over the request list
  /// always completes, so 0 means "exactly one round".
  double seconds = 10;
  bool trace = false;
  /// Shrinks every request list to a few entries, one round (self-tests).
  bool smoke = false;
  /// Directory for the Chrome trace and the shard sockets.
  std::string out_dir = ".bench_build/out";
  /// The hgp_shardd worker binary (sharded workload only).
  std::string shardd;
  /// Print the generated request list and exit (self-tests).
  bool print_schedule = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Summary of one completed (or failed) request.
struct Outcome {
  bool failed = false;  ///< threw, was rejected, or degraded (method != kHgp)
  std::string error;
  double wall_ms = 0;   ///< call/submit → result
  double solve_ms = 0;  ///< the solve's own telemetry.total_ms
  double cost_ratio = 0;
  double max_violation = 0;
  std::uint64_t digest = 0;  ///< cost bits + placement
  bool cache_hit = false;
  int retries = 0;
  hgp::SolveTelemetry telemetry;
  std::size_t arena_bytes = 0;
};

struct RunResult {
  std::vector<std::string> failures;  ///< correctness-gate messages
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;      ///< end-to-end (timed) or per-layer
  std::vector<Metric> diagnostics;  ///< printed, never gated
  /// Hash of the generated request list (inputs only).
  std::uint64_t schedule_fingerprint = 0;
  /// Hash of the exact work counters and result digests of the first
  /// round; repeats bit for bit for a given seed.
  std::uint64_t work_fingerprint = 0;
  std::string trace_file;

  void gate(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void diag(const std::string& name, double value, const std::string& unit) {
    diagnostics.push_back({name, value, unit});
  }
};

// ---------------------------------------------------------------- helpers

/// Deterministic 64-bit stream value for (seed, stream, index).
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index);

/// FNV-1a style mixing of one 64-bit word into a running hash.
std::uint64_t mix(std::uint64_t h, std::uint64_t word);
std::uint64_t mix_double(std::uint64_t h, double x);

/// Digest of a solve result: cost bits and every placement entry.
std::uint64_t result_digest(const hgp::HgpResult& r);

/// Fills the outcome's quality fields from a solve result and runs the
/// structural placement gate; returns false (with `error` set) when the
/// placement is malformed.
bool summarize(const hgp::Graph& g, const hgp::Hierarchy& h,
               const hgp::HgpResult& r, Outcome& out);

double now_ms();
/// Median / linear-interpolated quantile (q in [0, 1]); 0 when empty.
double median(const std::vector<double>& v);
double quantile(const std::vector<double>& v, double q);

/// VmHWM of this process, in MiB.
double peak_rss_mb();

/// A fixed CPU kernel timed on its own (median of a few repetitions, ms).
/// It runs no library code: it tells a slow host from a slow program.
double host_calibration_ms();

/// Wall seconds of one call to `fn`.
double seconds_of(const std::function<void()>& fn);

/// Adds request_ms.p50 and requests_per_s of the wall times of every
/// timed request, `walls`, completed in `timed_s` seconds of rounds (set-up
/// excluded), and the p90 / sample-count diagnostics.
void add_latency(RunResult& rr, const std::vector<double>& walls,
                 double timed_s);

/// Aggregates of the first round over the request list: mean cost ratio,
/// worst violation, exact DP work counts.
struct FirstRound {
  double cost_ratio_sum = 0;
  double violation_sum = 0;  ///< Σ per-request worst level load factor
  double max_violation = 0;  ///< the worst of them
  std::int64_t requests = 0;
  std::uint64_t merges = 0, feasible = 0, pruned = 0, signatures = 0;
  std::uint64_t nodes_built = 0, nodes_reused = 0;
  std::uint64_t cache_hits = 0, retries = 0;
  std::size_t arena_bytes = 0;
  std::uint64_t digest = 0;
  std::uint64_t first_digest = 0;

  void add(const Outcome& o);
  /// Folds another window in (callers merge in a fixed order, so sums and
  /// digests stay bit-exact).
  void merge(const FirstRound& o);
  /// Hash of the digests and exact counters.
  std::uint64_t fingerprint() const;
  double cost_ratio() const { return mean(cost_ratio_sum); }
  double violation() const { return mean(violation_sum); }
  double mean(double sum) const {
    return requests > 0 ? sum / static_cast<double>(requests) : 0;
  }
};

/// The end-to-end metrics every workload shares besides its latency and
/// throughput: quality of the first round, success share, memory, and
/// setup_s, the median of the run's cold set-ups.
void add_quality(RunResult& rr, const FirstRound& fp,
                 const std::vector<double>& setup_s);

class SpanTrace;

/// Completes a traced run: adds the layer counters of the first round and
/// the host calibration to the layer metrics the workload measured, and
/// writes the Chrome trace.  run.py reports a per-layer metric of
/// BENCHMARK.json that a workload does not reach as 0.
void finish_trace(RunResult& rr, const RunConfig& cfg, const FirstRound& fp,
                  const SpanTrace& tr);

// --------------------------------------------------------------- workloads

RunResult run_deep_dp(const RunConfig& cfg);
RunResult run_wide_decomp(const RunConfig& cfg);
RunResult run_churn_service(const RunConfig& cfg);
RunResult run_sharded(const RunConfig& cfg);

}  // namespace perfbench
