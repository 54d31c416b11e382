// sharded: the coordinator, src/net and the src/io snapshot shipping.
//
// Each request is a solve_hgp_sharded with 2 spawned hgp_shardd workers:
// the coordinator builds the forest, ships graph + hierarchy + forest as a
// snapshot blob, leases trees to the workers and aggregates through
// solve_hgp.  The result must be bit-identical to in-process solve_hgp.
// That final solve_hgp always finds the forest the coordinator has just
// built in the forest cache, so every request reports one cache hit.
#include <memory>
#include <stdexcept>

#include "decomp/builder.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "io/snapshot.hpp"
#include "net/protocol.hpp"
#include "parallel/thread_pool.hpp"
#include "perfbench.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/forest_cache.hpp"
#include "span_trace.hpp"

namespace perfbench {
namespace {

/// Distinct requests in the list; more than the forest cache holds.
constexpr std::size_t kRequests = 32;
constexpr int kSetupsPerRound = 2;

struct ShardRequest {
  hgp::Graph g;
  hgp::SolverOptions opt;
};

ShardRequest make_request(std::uint64_t seed, std::uint64_t index,
                          std::uint64_t stream = 40) {
  hgp::Rng rng(derive(seed, stream, index));
  hgp::gen::StreamDagOptions o;
  o.sources = 5;
  o.sinks = 2;
  o.stages = 4;
  // n = 63..95, the same mix for every seed: a broad spread of request
  // costs keeps the median from jumping between the host's fast and slow
  // states.  n stays within the 96 demand units of 16 leaves × 6 units, so
  // the rounding never has to coarsen the units.
  o.stage_width = static_cast<int>(14 + index % 9);
  o.demand_lo = 0.03;
  o.demand_hi = 0.12;
  ShardRequest r{hgp::gen::stream_dag(o, rng), {}};
  r.opt.num_trees = 4;
  r.opt.units_override = 6;
  r.opt.seed = derive(seed, stream + 1, index);
  return r;
}

struct Sharded {
  Outcome o;
  hgp::CoordinatorReport report;
};

Sharded sharded_solve(const ShardRequest& r, const hgp::Hierarchy& h,
                      const hgp::CoordinatorOptions& copt) {
  Sharded s;
  const double t0 = now_ms();
  try {
    const hgp::HgpResult res =
        hgp::solve_hgp_sharded(r.g, h, r.opt, copt, &s.report);
    s.o.wall_ms = now_ms() - t0;
    summarize(r.g, h, res, s.o);
  } catch (const std::exception& e) {
    s.o.wall_ms = now_ms() - t0;
    s.o.failed = true;
    s.o.error = e.what();
  }
  return s;
}

/// The job payload the coordinator ships: graph, hierarchy and forest
/// snapshot sections inside a Job frame payload (src/io + src/net codecs).
std::size_t encode_job(const ShardRequest& r, const hgp::Hierarchy& h,
                       const std::vector<hgp::DecompTree>& forest,
                       const std::string& cutter) {
  hgp::io::SnapshotWriter w;
  hgp::io::append_graph_sections(w, r.g);
  hgp::io::append_hierarchy_sections(w, h);
  hgp::io::ForestSnapshotMeta meta;
  meta.graph_fingerprint = hgp::graph_fingerprint(r.g);
  meta.seed = r.opt.seed;
  meta.num_trees = r.opt.num_trees;
  meta.cutter = cutter;
  hgp::io::append_forest_sections(w, meta, forest);
  hgp::net::JobMsg job;
  job.epsilon = r.opt.epsilon;
  job.units_override = r.opt.units_override;
  job.seed = r.opt.seed;
  job.num_trees = r.opt.num_trees;
  job.snapshot_blob = w.serialize();
  return hgp::net::encode_job(job).size();
}

}  // namespace

RunResult run_sharded(const RunConfig& cfg) {
  RunResult rr;
  const hgp::Hierarchy h({4, 4}, {4, 1, 0});
  const std::size_t n = cfg.smoke ? 3 : kRequests;
  const double seconds = cfg.smoke ? 0 : cfg.seconds;
  hgp::CoordinatorOptions copt;
  copt.num_shards = 2;
  copt.shardd_path = cfg.shardd;
  copt.socket_dir = cfg.out_dir;

  std::vector<ShardRequest> list;
  const auto make_list = [&] {
    list.clear();
    for (std::size_t i = 0; i < n; ++i) {
      list.push_back(make_request(cfg.seed, i));
    }
  };
  make_list();
  for (const ShardRequest& r : list) {
    rr.schedule_fingerprint =
        mix(rr.schedule_fingerprint, hgp::graph_fingerprint(r.g));
    rr.schedule_fingerprint = mix(rr.schedule_fingerprint, r.opt.seed);
    if (cfg.print_schedule) {
      std::printf("n=%d m=%d seed=%llu graph=%016llx\n", r.g.vertex_count(),
                  r.g.edge_count(), static_cast<unsigned long long>(r.opt.seed),
                  static_cast<unsigned long long>(hgp::graph_fingerprint(r.g)));
    }
  }
  if (cfg.print_schedule) return rr;
  if (cfg.shardd.empty()) throw std::runtime_error("--shardd is required");

  // A cold set-up: empty forest cache, the request list, one sharded
  // warm-up request (spawns and retires a worker pair).  The warm-up
  // request is the same for every seed, so set-up time does not vary with
  // the run's inputs.
  const auto cold_setup = [&] {
    hgp::ForestCache::global().clear();
    make_list();
    const Sharded w = sharded_solve(make_request(0, 0, 50), h, copt);
    if (w.o.failed) throw std::runtime_error("warm-up failed: " + w.o.error);
  };

  FirstRound fp;
  std::vector<std::uint64_t> digests;
  std::vector<double> setup_s, walls;
  SpanTrace tr;
  std::uint64_t tree_nodes = 0, job_bytes = 0;
  std::uint64_t from_shards = 0, expiries = 0, respawns = 0, inprocess = 0;
  // Reference solves run in-process on 2 threads (results do not depend
  // on the pool); the pool idles while the shards work.
  hgp::ThreadPool pool(2);
  const hgp::FmCutter cutter;
  const int setups = cfg.smoke ? 1 : kSetupsPerRound;
  double timed_ms = 0;
  const double start = now_ms();
  for (int round = 0; round == 0 || now_ms() - start < seconds * 1e3;
       ++round) {
    for (int k = 0; k < setups; ++k) setup_s.push_back(seconds_of(cold_setup));
    const double round_start = now_ms();
    for (std::size_t i = 0; i < n; ++i) {
      const ShardRequest& r = list[i];
      Sharded s = sharded_solve(r, h, copt);
      const std::uint64_t id = static_cast<std::uint64_t>(rr.attempted);
      const std::string what = "sharded request " + std::to_string(i) +
                               " round " + std::to_string(round);
      ++rr.attempted;
      // A request the shards did not serve in full fell back to solving in
      // process: it is correct, but it bypassed src/net.
      if (!s.o.failed && (s.report.degraded_inprocess ||
                          s.report.trees_from_shards < r.opt.num_trees)) {
        s.o.failed = true;
        s.o.error = "served in process (" +
                    std::to_string(s.report.trees_from_shards) + " of " +
                    std::to_string(r.opt.num_trees) + " trees from shards)";
      }
      if (s.o.failed) {
        ++rr.failed;
        rr.gate(false, what + ": " + s.o.error);
      }
      walls.push_back(s.o.wall_ms);
      inprocess += s.report.degraded_inprocess ? 1 : 0;
      if (round == 0) {
        fp.add(s.o);
        digests.push_back(s.o.digest);
        from_shards += static_cast<std::uint64_t>(s.report.trees_from_shards);
        expiries += static_cast<std::uint64_t>(s.report.lease_expiries);
        respawns += static_cast<std::uint64_t>(s.report.respawns);
      } else {
        rr.gate(s.o.digest == digests[i], what + " did not repeat bit for bit");
      }
      if (!cfg.trace) continue;

      // Traced replay: build the forest and cache it as solve_hgp would,
      // encode the job the coordinator ships, then the coordinated solve
      // (which now finds the forest cached).  Outside the request, the
      // same request in-process on a 2-thread pool for net.local_ratio.
      hgp::HgpResult shard_res;
      {
        const SpanTrace::Scope req(tr, "request", id);
        std::shared_ptr<const std::vector<hgp::DecompTree>> forest;
        {
          const SpanTrace::Scope sp(tr, "decomp.forest", id, req.index());
          forest = std::make_shared<const std::vector<hgp::DecompTree>>(
              hgp::build_decomposition_forest(r.g, r.opt.num_trees,
                                              r.opt.seed, cutter));
          hgp::ForestCache::global().insert(
              hgp::ForestCacheKey{hgp::graph_fingerprint(r.g), r.opt.seed,
                                  r.opt.num_trees, cutter.name()},
              forest);
        }
        std::size_t bytes = 0;
        {
          const SpanTrace::Scope sp(tr, "io.encode", id, req.index());
          bytes = encode_job(r, h, *forest, cutter.name());
        }
        if (round == 0) {
          job_bytes += bytes;
          for (const hgp::DecompTree& t : *forest) {
            tree_nodes += static_cast<std::uint64_t>(t.tree().node_count());
          }
        }
        const SpanTrace::Scope sp(tr, "net.sharded", id, req.index());
        shard_res = hgp::solve_hgp_sharded(r.g, h, r.opt, copt);
      }
      hgp::SolverOptions local = r.opt;
      local.pool = &pool;
      hgp::HgpResult local_res;
      {
        const SpanTrace::Scope sp(tr, "runtime.inprocess", id);
        local_res = hgp::solve_hgp(r.g, h, local);
      }
      rr.gate(result_digest(shard_res) == s.o.digest &&
                  result_digest(local_res) == s.o.digest,
              what + " is not bit-identical to in-process solve_hgp");
    }
    timed_ms += now_ms() - round_start;
  }
  rr.diag("requests_per_round", static_cast<double>(n), "count");
  rr.diag("rounds", static_cast<double>(walls.size() / n), "count");
  rr.diag("degraded_inprocess", static_cast<double>(inprocess), "count");

  if (!cfg.trace) {
    // Every request of the list against in-process solve_hgp (the traced
    // run checks every request it makes).
    for (std::size_t k = 0; k < n; ++k) {
      hgp::SolverOptions local = list[k].opt;
      local.pool = &pool;
      const hgp::HgpResult ref = hgp::solve_hgp(list[k].g, h, local);
      rr.gate(result_digest(ref) == digests[k],
              "sharded request " + std::to_string(k) +
                  " is not bit-identical to in-process solve_hgp");
    }
    add_latency(rr, walls, timed_ms / 1e3);
    add_quality(rr, fp, setup_s);
    return rr;
  }

  const auto children = tr.child_totals("request");
  rr.metric("decomp.forest_ms", median(children.at("decomp.forest")), "ms");
  rr.metric("decomp.tree_nodes", static_cast<double>(tree_nodes), "count");
  rr.metric("io.encode_ms", median(children.at("io.encode")), "ms");
  rr.metric("io.job_bytes", static_cast<double>(job_bytes), "bytes");
  rr.metric("net.trees_from_shards", static_cast<double>(from_shards),
            "count");
  rr.metric("net.lease_expiries", static_cast<double>(expiries), "count");
  rr.metric("net.respawns", static_cast<double>(respawns), "count");
  rr.metric("net.local_ratio",
            median(children.at("net.sharded")) /
                median(tr.durations("runtime.inprocess")),
            "ratio");
  rr.metric("trace.coverage", median(tr.coverage("request")), "ratio");
  rr.metric("obs.trace_overhead",
            median(tr.durations("request")) / median(walls) - 1.0, "ratio");
  finish_trace(rr, cfg, fp, tr);
  return rr;
}

}  // namespace perfbench
