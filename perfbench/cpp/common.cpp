#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "perfbench.hpp"
#include "span_trace.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace perfbench {

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  hgp::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ull + stream);
  sm.next();
  hgp::SplitMix64 sm2(sm.next() ^ (index * 0xbf58476d1ce4e5b9ull));
  return sm2.next();
}

std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix_double(std::uint64_t h, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return mix(h, bits);
}

std::uint64_t result_digest(const hgp::HgpResult& r) {
  std::uint64_t h = mix_double(0xcbf29ce484222325ull, r.cost);
  for (hgp::LeafId leaf : r.placement.leaf_of) {
    h = mix(h, static_cast<std::uint64_t>(leaf));
  }
  return h;
}

bool summarize(const hgp::Graph& g, const hgp::Hierarchy& h,
               const hgp::HgpResult& r, Outcome& out) {
  out.solve_ms = r.telemetry.total_ms;
  out.telemetry = r.telemetry;
  out.arena_bytes = r.stats.arena_bytes;
  out.cache_hit = r.telemetry.forest_cache_hit;
  out.retries = r.retries_used;
  out.digest = result_digest(r);
  if (r.method != hgp::SolveMethod::kHgp) {
    out.failed = true;
    out.error = std::string("degraded to ") +
                hgp::solve_method_name(r.method) + ": " +
                r.status.to_string();
  }
  try {
    hgp::validate_placement(g, h, r.placement);
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = std::string("invalid placement: ") + e.what();
    return false;
  }
  // Eq.-1 cost against the worst case (every edge paying cm(0)); exact.
  const double scale = h.cm(0) * g.total_edge_weight();
  out.cost_ratio = scale > 0 ? r.cost / scale : 0;
  out.max_violation = r.loads.max_violation();
  return true;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  hgp::Samples s;
  for (const double x : v) s.add(x);
  return s.percentile(q);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

namespace {

// Keeps the kernel's result observable, so its work is not optimised away.
volatile std::uint64_t g_calibration_sink = 0;

// A fixed integer kernel: fill 64 Ki words from xorshift and sort them,
// four times.  Deterministic work, no library code, fits in L2.
double calibration_once() {
  constexpr std::size_t kN = 1u << 16;
  std::vector<std::uint32_t> a(kN);
  std::uint32_t x = 2463534242u;
  const double t0 = now_ms();
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 4; ++rep) {
    for (auto& v : a) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      v = x;
    }
    std::sort(a.begin(), a.end());
    sink += a[kN / 2];
  }
  const double dt = now_ms() - t0;
  g_calibration_sink = sink;
  return dt;
}

}  // namespace

double host_calibration_ms() {
  std::vector<double> v;
  for (int i = 0; i < 7; ++i) v.push_back(calibration_once());
  return median(v);
}

double seconds_of(const std::function<void()>& fn) {
  const double t0 = now_ms();
  fn();
  return (now_ms() - t0) / 1e3;
}

void add_latency(RunResult& rr, const std::vector<double>& walls,
                 double timed_s) {
  rr.metric("request_ms.p50", median(walls), "ms");
  rr.metric("requests_per_s", static_cast<double>(walls.size()) / timed_s,
            "1/s");
  // p90 tracks host-interference episodes more than the program, so it is
  // a diagnostic, printed with the sample count it rests on.
  rr.diag("request_ms.p90", quantile(walls, 0.9), "ms");
  rr.diag("request_ms.samples", static_cast<double>(walls.size()), "count");
}

void FirstRound::add(const Outcome& o) {
  if (requests == 0) first_digest = o.digest;
  ++requests;
  cost_ratio_sum += o.cost_ratio;
  violation_sum += o.max_violation;
  max_violation = std::max(max_violation, o.max_violation);
  merges += o.telemetry.dp_merge_operations;
  feasible += o.telemetry.dp_feasible_states;
  pruned += o.telemetry.dp_states_pruned;
  signatures += o.telemetry.dp_signatures;
  nodes_built += o.telemetry.dp_nodes_built;
  nodes_reused += o.telemetry.dp_nodes_reused;
  cache_hits += o.cache_hit ? 1 : 0;
  retries += static_cast<std::uint64_t>(o.retries);
  arena_bytes = std::max(arena_bytes, o.arena_bytes);
  digest = mix(digest, o.digest);
}

void FirstRound::merge(const FirstRound& o) {
  if (requests == 0) first_digest = o.first_digest;
  cost_ratio_sum += o.cost_ratio_sum;
  violation_sum += o.violation_sum;
  max_violation = std::max(max_violation, o.max_violation);
  requests += o.requests;
  merges += o.merges;
  feasible += o.feasible;
  pruned += o.pruned;
  signatures += o.signatures;
  nodes_built += o.nodes_built;
  nodes_reused += o.nodes_reused;
  cache_hits += o.cache_hits;
  retries += o.retries;
  arena_bytes = std::max(arena_bytes, o.arena_bytes);
  digest = mix(digest, o.digest);
}

void add_quality(RunResult& rr, const FirstRound& fp,
                 const std::vector<double>& setup_s) {
  rr.metric("placement_cost_ratio", fp.cost_ratio(), "ratio");
  // The mean of each request's worst level load factor: the worst over the
  // window is an extreme value that swings with the seed, so it is only
  // a diagnostic.
  rr.metric("max_violation", fp.violation(), "ratio");
  rr.diag("max_violation.worst", fp.max_violation, "ratio");
  rr.metric("success_share",
            rr.attempted > 0 ? static_cast<double>(rr.attempted - rr.failed) /
                                   static_cast<double>(rr.attempted)
                             : 0.0,
            "ratio");
  rr.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  rr.metric("setup_s", median(setup_s), "s");
  rr.diag("setup_s.samples", static_cast<double>(setup_s.size()), "count");
  rr.work_fingerprint = fp.fingerprint();
}

std::uint64_t FirstRound::fingerprint() const {
  std::uint64_t w = digest;
  for (std::uint64_t x : {merges, feasible, pruned, signatures, nodes_built,
                          nodes_reused, cache_hits, retries}) {
    w = mix(w, x);
  }
  return w;
}

void finish_trace(RunResult& rr, const RunConfig& cfg, const FirstRound& fp,
                  const SpanTrace& tr) {
  rr.metric("core.merge_operations", static_cast<double>(fp.merges), "count");
  rr.metric("core.feasible_states", static_cast<double>(fp.feasible), "count");
  rr.metric("core.states_pruned", static_cast<double>(fp.pruned), "count");
  rr.metric("core.signatures", static_cast<double>(fp.signatures), "count");
  rr.metric("core.arena_bytes", static_cast<double>(fp.arena_bytes), "bytes");
  const std::uint64_t nodes = fp.nodes_built + fp.nodes_reused;
  rr.metric("core.reuse_ratio",
            nodes > 0 ? static_cast<double>(fp.nodes_reused) /
                            static_cast<double>(nodes)
                      : 0.0,
            "ratio");
  rr.metric("runtime.forest_cache_hits", static_cast<double>(fp.cache_hits),
            "count");
  rr.metric("runtime.retries", static_cast<double>(fp.retries), "count");
  rr.metric("host.calib_ms", host_calibration_ms(), "ms");
  rr.work_fingerprint = fp.fingerprint();
  const std::string path = cfg.out_dir + "/trace_" + cfg.workload + "_seed" +
                           std::to_string(cfg.seed) + ".json";
  rr.gate(tr.write_chrome(path), "could not write the trace to " + path);
  rr.trace_file = path;
}

}  // namespace perfbench
