// hgp_solve — command-line front end.
//
//   hgp_solve --graph tasks.metis --deg 2,4,2 --cm 10,4,1,0
//             [--algo hgp|greedy|multilevel|rb|random] [--trees 4]
//             [--units 8 | --epsilon 0.5] [--seed 1] [--out placement.txt]
//             [--timeout-ms MS] [--fallback chain|none]
//
// Reads a METIS task graph (vertex weights = demands scaled by 1/1000,
// edge weights = communication volumes), solves the placement against the
// given hierarchy, prints a per-level load/cost report, and optionally
// writes the placement in the library's "task leaf" format.
//
// Exit codes are keyed to the final hgp::Status (see docs/RESILIENCE.md):
//   0 OK   1 internal error   2 usage error   3 invalid input
//   4 infeasible   5 deadline exceeded   6 cancelled
//   7 resource exhausted (memory budget / admission rejected the work)
//   8 retry budget exhausted (--retries N spent, last failure transient)
//   9 data loss (--load-snapshot file corrupt / wrong version / truncated)
//  10 unavailable (--shards workers could not be spawned / reached at all)
// A degraded run (fallback placement under an expired deadline) still
// prints and writes its placement but exits with the status's code, so
// scripts can tell a full-quality solve from a downgraded one.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "baseline/greedy.hpp"
#include "baseline/multilevel.hpp"
#include "baseline/random_placement.hpp"
#include "baseline/recursive_bisection.hpp"
#include "decomp/cutter.hpp"
#include "graph/fingerprint.hpp"
#include "graph/io.hpp"
#include "hierarchy/cost.hpp"
#include "hierarchy/placement_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/forest_cache.hpp"
#include "runtime/service.hpp"
#include "runtime/solver.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitResourceExhausted = 7;
/// The --retries budget was spent on transient failures; distinct from 7 so
/// scripts can tell "rejected up front" from "kept failing transiently".
constexpr int kExitRetriesExhausted = 8;
/// A snapshot file failed integrity checking (kDataLoss): re-reading the
/// same bytes cannot help, so scripts should fall back to a cold solve.
constexpr int kExitDataLoss = 9;
/// Every shard worker was unreachable/lost and the solve could not proceed
/// (kUnavailable is transient: scripts may retry or drop --shards).
constexpr int kExitUnavailable = 10;

int exit_code_for(hgp::StatusCode code) {
  switch (code) {
    case hgp::StatusCode::kOk:
      return kExitOk;
    case hgp::StatusCode::kInvalidInput:
      return 3;
    case hgp::StatusCode::kInfeasible:
      return 4;
    case hgp::StatusCode::kDeadlineExceeded:
      return 5;
    case hgp::StatusCode::kCancelled:
      return 6;
    case hgp::StatusCode::kInternal:
      return kExitInternal;
    case hgp::StatusCode::kResourceExhausted:
      return kExitResourceExhausted;
    case hgp::StatusCode::kDataLoss:
      return kExitDataLoss;
    case hgp::StatusCode::kUnavailable:
      return kExitUnavailable;
  }
  return kExitInternal;
}

void print_usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s --graph FILE --deg D0,D1,... --cm C0,C1,...,Ch\n"
      "          [--algo hgp|greedy|multilevel|rb|random] [--trees N]\n"
      "          [--units U | --epsilon E] [--seed S] [--out FILE]\n"
      "          [--timeout-ms MS] [--fallback chain|none] [--retries N]\n"
      "          [--save-snapshot FILE] [--load-snapshot FILE]\n"
      "          [--shards N] [--shardd PATH]\n"
      "          [--trace FILE] [--metrics FILE] [--report] [--help]\n"
      "\n"
      "  --graph FILE     METIS task graph (vertex weights = demands/1000)\n"
      "  --deg LIST       children per hierarchy level, e.g. 2,4,2\n"
      "  --cm LIST        level cost multipliers, e.g. 10,4,1,0\n"
      "  --algo NAME      placement algorithm (default hgp)\n"
      "  --trees N        decomposition trees sampled by hgp (default 4)\n"
      "  --units U        demand units per leaf (default 8)\n"
      "  --epsilon E      derive units from rounding accuracy E instead\n"
      "  --seed S         PRNG seed (default 1)\n"
      "  --out FILE       write the placement in task-leaf format\n"
      "  --timeout-ms MS  wall-clock budget; on expiry hgp degrades to the\n"
      "                   fallback chain instead of running over (default:\n"
      "                   unbounded)\n"
      "  --fallback MODE  chain = degrade hgp->multilevel->greedy (default),\n"
      "                   none = fail with a typed status instead\n"
      "  --retries N      retry transient failures up to N times with\n"
      "                   exponential backoff (service-layer semantics;\n"
      "                   exit 8 when the budget is spent, default 0)\n"
      "  --save-snapshot FILE\n"
      "                   after an hgp solve, write the sampled forest (with\n"
      "                   its graph) as a durable binary snapshot\n"
      "  --load-snapshot FILE\n"
      "                   warm the forest cache from a snapshot before\n"
      "                   solving; a corrupt/stale file exits 9 (data loss)\n"
      "  --shards N       spawn N local hgp_shardd worker processes and\n"
      "                   distribute the tree solves across them (hgp only;\n"
      "                   bit-identical to the single-process solve; lost\n"
      "                   shards degrade back to in-process solving)\n"
      "  --shardd PATH    shard worker binary (default: hgp_shardd next to\n"
      "                   this binary, or $HGP_SHARDD)\n"
      "  --trace FILE     record trace spans, write Chrome trace-event JSON\n"
      "                   (open in chrome://tracing or ui.perfetto.dev)\n"
      "  --metrics FILE   write the metrics registry as JSON\n"
      "  --report         print per-tree attempts, phase timings and a span\n"
      "                   summary to stderr\n"
      "  --help           print this message and exit\n",
      argv0);
}

[[noreturn]] void usage_error(const char* argv0, const char* fmt,
                              const char* detail) {
  std::fprintf(stderr, "hgp_solve: ");
  std::fprintf(stderr, fmt, detail);
  std::fprintf(stderr, "\n");
  print_usage(stderr, argv0);
  std::exit(kExitUsage);
}

/// Strict integer parse: the whole token must be a base-10 integer within
/// [lo, hi].  Exits 2 naming the offending flag otherwise (std::atoi would
/// silently yield 0 on garbage like `--trees abc`).
long long parse_int(const char* flag, const std::string& value, long long lo,
                    long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno != 0) {
    std::fprintf(stderr, "hgp_solve: invalid integer '%s' for %s\n",
                 value.c_str(), flag);
    std::exit(kExitUsage);
  }
  if (parsed < lo || parsed > hi) {
    std::fprintf(stderr,
                 "hgp_solve: value %lld for %s out of range [%lld, %lld]\n",
                 parsed, flag, lo, hi);
    std::exit(kExitUsage);
  }
  return parsed;
}

/// Strict finite-double parse with the same failure contract as parse_int.
double parse_double(const char* flag, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() || errno != 0 ||
      !std::isfinite(parsed)) {
    std::fprintf(stderr, "hgp_solve: invalid number '%s' for %s\n",
                 value.c_str(), flag);
    std::exit(kExitUsage);
  }
  return parsed;
}

/// Shard-worker binary for --shards: the explicit flag wins, then
/// $HGP_SHARDD, then `hgp_shardd` sitting next to this binary (the build
/// tree and installed layouts both put them side by side).
std::string resolve_shardd(const char* argv0, const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  if (const char* env = std::getenv("HGP_SHARDD"); env && *env) return env;
  const std::string self = argv0;
  const std::size_t slash = self.find_last_of('/');
  if (slash == std::string::npos) return "hgp_shardd";
  return self.substr(0, slash + 1) + "hgp_shardd";
}

std::vector<double> parse_list(const char* flag, const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(parse_double(flag, s.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hgp;
  std::string graph_path, out_path, algo = "hgp";
  std::string trace_path, metrics_path;
  std::string save_snapshot_path, load_snapshot_path;
  std::string shardd_path;
  bool report = false;
  std::string deg_spec, cm_spec;
  int trees = 4;
  int retries = 0;
  int shards = 0;
  double epsilon = 0.5;
  double timeout_ms = 0;
  DemandUnits units = 8;
  std::uint64_t seed = 1;
  FallbackPolicy fallback = FallbackPolicy::kChain;

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) usage_error(argv[0], "missing value for %s", flag);
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      print_usage(stdout, argv[0]);
      return kExitOk;
    } else if (!std::strcmp(argv[i], "--graph")) {
      graph_path = need("--graph");
    } else if (!std::strcmp(argv[i], "--deg")) {
      deg_spec = need("--deg");
    } else if (!std::strcmp(argv[i], "--cm")) {
      cm_spec = need("--cm");
    } else if (!std::strcmp(argv[i], "--algo")) {
      algo = need("--algo");
    } else if (!std::strcmp(argv[i], "--trees")) {
      trees = static_cast<int>(
          parse_int("--trees", need("--trees"), 1, 1 << 20));
    } else if (!std::strcmp(argv[i], "--retries")) {
      retries = static_cast<int>(
          parse_int("--retries", need("--retries"), 0, 1 << 20));
    } else if (!std::strcmp(argv[i], "--units")) {
      units = static_cast<DemandUnits>(
          parse_int("--units", need("--units"), 1, 1 << 30));
    } else if (!std::strcmp(argv[i], "--epsilon")) {
      epsilon = parse_double("--epsilon", need("--epsilon"));
      if (epsilon <= 0) {
        usage_error(argv[0], "--epsilon must be > 0%s", "");
      }
      units = 0;
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = static_cast<std::uint64_t>(
          parse_int("--seed", need("--seed"), 0,
                    std::numeric_limits<long long>::max()));
    } else if (!std::strcmp(argv[i], "--timeout-ms")) {
      timeout_ms = parse_double("--timeout-ms", need("--timeout-ms"));
      if (timeout_ms < 0) {
        usage_error(argv[0], "--timeout-ms must be >= 0%s", "");
      }
    } else if (!std::strcmp(argv[i], "--fallback")) {
      const std::string mode = need("--fallback");
      if (mode == "chain") {
        fallback = FallbackPolicy::kChain;
      } else if (mode == "none") {
        fallback = FallbackPolicy::kNone;
      } else {
        usage_error(argv[0], "unknown --fallback mode '%s'", mode.c_str());
      }
    } else if (!std::strcmp(argv[i], "--shards")) {
      shards = static_cast<int>(parse_int("--shards", need("--shards"), 1, 256));
    } else if (!std::strcmp(argv[i], "--shardd")) {
      shardd_path = need("--shardd");
    } else if (!std::strcmp(argv[i], "--save-snapshot")) {
      save_snapshot_path = need("--save-snapshot");
    } else if (!std::strcmp(argv[i], "--load-snapshot")) {
      load_snapshot_path = need("--load-snapshot");
    } else if (!std::strcmp(argv[i], "--out")) {
      out_path = need("--out");
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace_path = need("--trace");
    } else if (!std::strcmp(argv[i], "--metrics")) {
      metrics_path = need("--metrics");
    } else if (!std::strcmp(argv[i], "--report")) {
      report = true;
    } else {
      usage_error(argv[0], "unknown argument '%s'", argv[i]);
    }
  }
  if (graph_path.empty() || deg_spec.empty() || cm_spec.empty()) {
    usage_error(argv[0], "--graph, --deg and --cm are required%s", "");
  }
  if ((!save_snapshot_path.empty() || !load_snapshot_path.empty()) &&
      algo != "hgp") {
    usage_error(argv[0], "--save/--load-snapshot require --algo hgp%s", "");
  }
  if (shards > 0 && algo != "hgp") {
    usage_error(argv[0], "--shards requires --algo hgp%s", "");
  }
  if (shards > 0 && retries > 0) {
    usage_error(argv[0], "--shards cannot be combined with --retries%s", "");
  }

  // Tracing must be live before the solve starts; it is off by default so
  // un-traced runs pay nothing beyond an atomic load per span site.
  if (!trace_path.empty()) obs::TraceBuffer::global().set_enabled(true);

  try {
    // A CheckError out of file parsing or hierarchy construction is the
    // input's fault, not ours — reclassify so the exit code says so.
    const Graph g = [&] {
      try {
        return io::read_metis_file(graph_path);
      } catch (const SolveError&) {
        throw;
      } catch (const CheckError& e) {
        throw SolveError(StatusCode::kInvalidInput, e.what());
      }
    }();
    const Hierarchy h = [&] {
      std::vector<int> deg;
      for (double d : parse_list("--deg", deg_spec)) {
        deg.push_back(static_cast<int>(d));
      }
      try {
        return Hierarchy(deg, parse_list("--cm", cm_spec));
      } catch (const SolveError&) {
        throw;
      } catch (const CheckError& e) {
        throw SolveError(StatusCode::kInvalidInput, e.what());
      }
    }();
    std::printf("graph: %d tasks, %d edges, total demand %.2f\n",
                g.vertex_count(), g.edge_count(), g.total_demand());
    std::printf("machine: %s\n", h.to_string().c_str());

    // Warm the forest cache from a prior snapshot before the solve: a
    // matching (fingerprint, seed, trees, cutter) key turns the forest
    // build into a cache hit.  Integrity failures are terminal here —
    // the user explicitly pointed us at the file, so silently cold-solving
    // would hide the corruption (scripts catch exit 9 and fall back).
    if (!load_snapshot_path.empty()) {
      const Status s =
          ForestCache::global().warm_load_file(load_snapshot_path);
      if (!s.ok()) {
        std::fprintf(stderr, "error: --load-snapshot %s: %s\n",
                     load_snapshot_path.c_str(), s.to_string().c_str());
        return exit_code_for(s.code);
      }
      std::printf("snapshot loaded: %s\n", load_snapshot_path.c_str());
    }

    Placement p;
    Status status;
    std::string solved_by = algo;
    HgpResult hgp_result;
    bool have_hgp = false;
    CoordinatorReport crep;  // --shards only
    bool retries_exhausted = false;
    if (algo == "hgp") {
      SolverOptions opt;
      opt.num_trees = trees;
      opt.epsilon = epsilon;
      opt.units_override = units;
      opt.seed = seed;
      opt.timeout_ms = timeout_ms;
      opt.fallback = fallback;
      // The forest's trees run concurrently; the answer is the one a
      // single-thread solve gives.
      opt.pool = &ThreadPool::shared();
      if (retries > 0) {
        RetryOptions ro;
        ro.max_retries = retries;
        ro.jitter_seed = seed;
        RetrySolveReport rep = solve_with_retry(g, h, opt, ro);
        retries_exhausted = rep.retry_budget_exhausted;
        if (rep.retries_used > 0 || rep.degrades > 0) {
          std::printf("retries: %d of %d used, %d degradation step(s)%s\n",
                      rep.retries_used, retries, rep.degrades,
                      retries_exhausted ? " (budget exhausted)" : "");
        }
        if (!rep.has_result) {
          std::fprintf(stderr, "error: %s\n", rep.status.to_string().c_str());
          return retries_exhausted ? kExitRetriesExhausted
                                   : exit_code_for(rep.status.code);
        }
        hgp_result = std::move(rep.result);
      } else if (shards > 0) {
        CoordinatorOptions copt;
        copt.num_shards = shards;
        copt.shardd_path = resolve_shardd(argv[0], shardd_path);
        hgp_result = solve_hgp_sharded(g, h, opt, copt, &crep);
        std::printf(
            "shards: %d up, %d lost, %d lease expiries, %d reassigned, "
            "%d zombies fenced, %d/%d trees remote%s\n",
            crep.shards_up, crep.shards_lost, crep.lease_expiries,
            crep.batches_reassigned, crep.zombies_fenced,
            crep.trees_from_shards, trees,
            crep.degraded_inprocess ? " (degraded to in-process)" : "");
      } else {
        hgp_result = solve_hgp(g, h, opt);
      }
      have_hgp = true;
      const HgpResult& r = hgp_result;
      p = r.placement;
      status = r.status;
      solved_by = solve_method_name(r.method);
      int failed = 0;
      for (const TreeAttempt& a : r.attempts) failed += a.ok() ? 0 : 1;
      if (failed > 0) {
        std::printf("trees: %zu sampled, %d failed\n", r.attempts.size(),
                    failed);
        for (std::size_t t = 0; t < r.attempts.size(); ++t) {
          const TreeAttempt& a = r.attempts[t];
          if (!a.ok()) {
            std::printf("  tree %zu: %s (%.1f ms) %s\n", t,
                        status_code_name(a.status), a.elapsed_ms,
                        a.error.c_str());
          }
        }
      }
      if (r.degraded()) {
        std::printf("degraded: %s (fallback: %s)\n",
                    status.to_string().c_str(), solved_by.c_str());
      }
    } else if (algo == "greedy") {
      p = greedy_placement(g, h);
    } else if (algo == "multilevel") {
      Rng rng(seed);
      MultilevelOptions mopt;
      ExecContext exec;
      if (timeout_ms > 0) {
        exec.deadline = Deadline::after_ms(timeout_ms);
        mopt.exec = &exec;
      }
      p = multilevel_placement(g, h, rng, mopt);
    } else if (algo == "rb") {
      Rng rng(seed);
      p = recursive_bisection_placement(g, h, rng);
    } else if (algo == "random") {
      Rng rng(seed);
      p = random_placement(g, h, rng);
    } else {
      usage_error(argv[0], "unknown --algo '%s'", algo.c_str());
    }

    // Persist the sampled forest under the exact key the solver cached it
    // with.  A miss (forest cache disabled, or the retry ladder degraded
    // the tree count) is a warning, not a failure: the solve itself stands.
    if (!save_snapshot_path.empty()) {
      const ForestCacheKey key{graph_fingerprint(g), seed, trees,
                               FmCutter().name()};
      const Status s =
          ForestCache::global().save_entry(key, g, save_snapshot_path);
      if (s.ok()) {
        std::printf("snapshot written to %s\n", save_snapshot_path.c_str());
      } else {
        std::fprintf(stderr, "warning: --save-snapshot %s: %s\n",
                     save_snapshot_path.c_str(), s.to_string().c_str());
      }
    }

    const double cost = placement_cost(g, h, p);
    const LoadReport loads = load_report(g, h, p);
    std::printf("\nalgorithm: %s\nstatus: %s\ncommunication cost: %.3f\n",
                solved_by.c_str(), status_code_name(status.code), cost);
    Table table({"level", "nodes", "capacity", "max load", "violation"});
    for (int j = 0; j <= h.height(); ++j) {
      double max_load = 0;
      for (double x : loads.load[static_cast<std::size_t>(j)]) {
        max_load = std::max(max_load, x);
      }
      table.row()
          .add(j)
          .add(static_cast<std::int64_t>(h.nodes_at(j)))
          .add(static_cast<std::int64_t>(h.capacity(j)))
          .add(max_load)
          .add(loads.violation[static_cast<std::size_t>(j)], 3);
    }
    table.print(std::cout);

    if (!out_path.empty()) {
      io::write_placement_file(p, out_path);
      std::printf("\nplacement written to %s\n", out_path.c_str());
    }

    // Telemetry surface: the report goes to stderr (stdout carries the
    // placement/report contract above), exports go to their files.
    if (report) {
      std::fprintf(stderr, "\n== solve report ==\n");
      if (have_hgp) {
        Table attempts(
            {"tree", "status", "cost", "elapsed ms", "build ms", "error"});
        for (std::size_t t = 0; t < hgp_result.attempts.size(); ++t) {
          const TreeAttempt& a = hgp_result.attempts[t];
          Table& row = attempts.row()
                           .add(static_cast<std::int64_t>(t))
                           .add(status_code_name(a.status));
          if (a.ok()) {
            row.add(a.cost);
          } else {
            row.add("-");
          }
          row.add(a.elapsed_ms, 1).add(a.build_ms, 1).add(a.error);
        }
        attempts.print(std::cerr);
        const SolveTelemetry& tm = hgp_result.telemetry;
        std::fprintf(stderr,
                     "phases: total %.1f ms = trees %.1f + fallback %.1f "
                     "(+ overhead); tree builds %.1f ms, summed over the "
                     "attempts\n",
                     tm.total_ms, tm.tree_solve_ms, tm.fallback_ms,
                     tm.forest_build_ms);
        if (shards > 0) {
          std::fprintf(stderr,
                       "coordinator: job %.1f ms, connect %.1f ms, trees "
                       "%.1f ms, teardown %.1f ms\n",
                       crep.job_ms, crep.connect_ms, crep.trees_ms,
                       crep.teardown_ms);
        }
        std::fprintf(stderr,
                     "trees: %d/%d succeeded; dp: %llu signatures, %llu "
                     "feasible states, %llu merges (%llu rejected), %llu "
                     "pruned\n",
                     tm.trees_succeeded, tm.trees_attempted,
                     static_cast<unsigned long long>(tm.dp_signatures),
                     static_cast<unsigned long long>(tm.dp_feasible_states),
                     static_cast<unsigned long long>(tm.dp_merge_operations),
                     static_cast<unsigned long long>(tm.dp_merges_rejected),
                     static_cast<unsigned long long>(tm.dp_states_pruned));
      }
      const auto histograms =
          obs::MetricsRegistry::global().histogram_snapshots();
      if (!histograms.empty()) {
        std::fprintf(stderr, "\nhistogram percentiles:\n");
        Table pct({"histogram", "count", "p50", "p90", "p99"});
        for (const obs::HistogramSnapshot& hs : histograms) {
          if (hs.count == 0) continue;
          pct.row()
              .add(hs.name)
              .add(static_cast<std::int64_t>(hs.count))
              .add(obs::histogram_quantile(hs, 0.50), 3)
              .add(obs::histogram_quantile(hs, 0.90), 3)
              .add(obs::histogram_quantile(hs, 0.99), 3);
        }
        pct.print(std::cerr);
      }
      if (obs::TraceBuffer::global().size() > 0) {
        std::fprintf(stderr, "\nspan summary:\n");
        obs::TraceBuffer::global().summary().print(std::cerr);
      }
    }
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      obs::TraceBuffer::global().write_chrome_json(os);
      if (!os) {
        std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                     trace_path.c_str());
        return kExitInternal;
      }
      std::printf("trace written to %s (%zu spans)\n", trace_path.c_str(),
                  obs::TraceBuffer::global().size());
    }
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      obs::MetricsRegistry::global().write_json(os);
      if (!os) {
        std::fprintf(stderr, "error: cannot write metrics file '%s'\n",
                     metrics_path.c_str());
        return kExitInternal;
      }
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    // A placed-but-retry-exhausted run keeps its report and placement but
    // exits 8: the placement is a degraded floor, not the requested solve.
    return retries_exhausted ? kExitRetriesExhausted
                             : exit_code_for(status.code);
  } catch (const SolveError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitInternal;
  }
}
