// deep_dp and wide_decomp: single-threaded solve_hgp requests.
//
// deep_dp puts ≥98% of a request in the signature DP (deep 2×4×2
// hierarchy, small stream DAGs); wide_decomp puts ~90% in the
// decomposition-forest build (32×32 grids, flat 64-leaf hierarchy, tiny
// DP tables).  The two share every line of library code, so a change aimed
// at one layer is exercised by one workload and bypassed by the other.
#include <cstdio>
#include <stdexcept>

#include "core/convert.hpp"
#include "core/signature.hpp"
#include "core/tree_dp.hpp"
#include "decomp/builder.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "hierarchy/cost.hpp"
#include "perfbench.hpp"
#include "runtime/forest_cache.hpp"
#include "span_trace.hpp"

namespace perfbench {
namespace {

struct SolveSpec {
  const char* name;
  hgp::Hierarchy hierarchy;
  hgp::Graph (*make_graph)(hgp::Rng&, std::uint64_t index);
  int trees;
  hgp::DemandUnits units;
  /// Distinct requests in the list; more than the forest cache holds, so
  /// replaying the list in rounds never hits it.
  std::size_t requests;
  int setups_per_round;  ///< cold set-ups timed before each round
};

// Warm-up requests come from a fixed seed of their own stream: they cannot
// seed the forest cache with a timed request, and set-up time does not
// vary with the run's inputs.
constexpr std::uint64_t kWarmups = 2;
constexpr std::uint64_t kWarmupSeed = 0;

struct SolveRequest {
  hgp::Graph g;
  hgp::SolverOptions opt;
};

hgp::Graph deep_dp_graph(hgp::Rng& rng, std::uint64_t /*index*/) {
  hgp::gen::StreamDagOptions o;
  o.sources = 3;
  o.sinks = 2;
  o.stages = 2;
  o.stage_width = 13;  // n = 31
  return hgp::gen::stream_dag(o, rng);
}

hgp::Graph wide_decomp_graph(hgp::Rng& rng, std::uint64_t index) {
  // Side lengths 24..40 (32×32 on average), the same mix for every seed: a
  // broad spread of request costs keeps the median from jumping between
  // the host's fast and slow states.
  const auto rows = static_cast<int>(24 + index * 5 % 17);
  const auto cols = static_cast<int>(24 + (index * 11 + 8) % 17);
  hgp::Graph g = hgp::gen::grid2d(rows, cols, {1.0, 9.0}, &rng);
  hgp::gen::set_random_demands(g, rng, 0.02, 0.05);
  return g;
}

SolveSpec deep_dp_spec() {
  return {"deep_dp", hgp::Hierarchy({2, 4, 2}, {10, 4, 1, 0}),
          &deep_dp_graph, 2, 4, 64, 2};
}

SolveSpec wide_decomp_spec() {
  return {"wide_decomp", hgp::Hierarchy::uniform(1, 64, {1, 0}),
          &wide_decomp_graph, 2, 32, 16, 2};
}

/// Request `index` of stream `stream` (1: the timed requests, 3: warm-up).
SolveRequest make_request(const SolveSpec& spec, std::uint64_t seed,
                          std::uint64_t index, std::uint64_t stream = 1) {
  hgp::Rng rng(derive(seed, stream, index));
  SolveRequest r{spec.make_graph(rng, index), {}};
  r.opt.num_trees = spec.trees;
  r.opt.units_override = spec.units;
  r.opt.seed = derive(seed, stream + 1, index);
  return r;
}

/// solve_hgp replayed outside-in: the same layer calls solve_hgp makes
/// (forest build, per-tree signature DP, Theorem-5 conversion, map-back,
/// Eq.-1 cost, arg-min, load report), each inside a span.  The signature
/// space is additionally enumerated once per tree on its own, outside the
/// DP span, to time that layer.
hgp::HgpResult replay(SpanTrace& tr, std::uint64_t id, const hgp::Graph& g,
                      const hgp::Hierarchy& h, const hgp::SolverOptions& opt,
                      std::uint64_t* tree_nodes) {
  const SpanTrace::Scope req(tr, "request", id);
  std::vector<hgp::DecompTree> forest;
  {
    const SpanTrace::Scope s(tr, "decomp.forest", id, req.index());
    const hgp::FmCutter cutter;
    forest = hgp::build_decomposition_forest(g, opt.num_trees, opt.seed,
                                             cutter);
  }
  hgp::HgpResult best;
  best.best_tree = -1;
  for (std::size_t i = 0; i < forest.size(); ++i) {
    const SpanTrace::Scope tree(tr, "runtime.tree", id, req.index());
    const hgp::Tree& t = forest[i].tree();
    *tree_nodes += static_cast<std::uint64_t>(t.node_count());
    {
      const SpanTrace::Scope s(tr, "core.space", id, tree.index());
      const hgp::SignatureSpace space(
          hgp::scale_demands(t, h, opt.epsilon, opt.units_override),
          h.height());
      if (space.size() == 0) throw std::runtime_error("empty signature space");
    }
    hgp::TreeDpResult dp;
    {
      const SpanTrace::Scope s(tr, "core.dp", id, tree.index());
      hgp::TreeDpOptions o;
      o.epsilon = opt.epsilon;
      o.units_override = opt.units_override;
      dp = hgp::solve_rhgpt(t, h, o);
    }
    hgp::TreeAssignment a;
    {
      const SpanTrace::Scope s(tr, "core.convert", id, tree.index());
      a = hgp::convert_to_assignment(t, h, dp.solution, dp.scaled.units);
    }
    {
      // solve_hgpt also scores the tree assignment; keep the work equal.
      const SpanTrace::Scope s(tr, "core.assignment_cost", id, tree.index());
      const double c = hgp::assignment_cost(t, h, a);
      const auto v = hgp::assignment_violation(t, h, a);
      if (!(c >= 0) || v.empty()) throw std::runtime_error("bad assignment");
    }
    hgp::Placement p;
    {
      const SpanTrace::Scope s(tr, "runtime.map_back", id, tree.index());
      p.leaf_of.assign(static_cast<std::size_t>(g.vertex_count()), 0);
      for (hgp::Vertex v = 0; v < g.vertex_count(); ++v) {
        p.leaf_of[static_cast<std::size_t>(v)] =
            a.of(forest[i].leaf_of_vertex(v));
      }
    }
    double cost = 0;
    {
      const SpanTrace::Scope s(tr, "hierarchy.cost", id, tree.index());
      cost = hgp::placement_cost(g, h, p);
    }
    // solve_hgp's arg-min: strictly cheaper wins, first tree on ties.
    if (best.best_tree < 0 || cost < best.cost) {
      best.best_tree = static_cast<int>(i);
      best.cost = cost;
      best.placement = std::move(p);
      best.stats = dp.stats;
    }
  }
  const SpanTrace::Scope s(tr, "hierarchy.loads", id, req.index());
  best.loads = hgp::load_report(g, h, best.placement);
  return best;
}

Outcome timed_solve(const SolveRequest& r, const hgp::Hierarchy& h) {
  Outcome o;
  const double t0 = now_ms();
  try {
    const hgp::HgpResult res = hgp::solve_hgp(r.g, h, r.opt);
    o.wall_ms = now_ms() - t0;
    summarize(r.g, h, res, o);
  } catch (const std::exception& e) {
    o.wall_ms = now_ms() - t0;
    o.failed = true;
    o.error = e.what();
  }
  return o;
}

RunResult run_solve_workload(const RunConfig& cfg, const SolveSpec& spec) {
  RunResult rr;
  const hgp::Hierarchy& h = spec.hierarchy;
  const std::size_t n = cfg.smoke ? 3 : spec.requests;
  const double seconds = cfg.smoke ? 0 : cfg.seconds;

  // The request list is seeded: request i is a pure function of (seed, i)
  // with a solve seed of its own, and generating it is part of set-up.
  std::vector<SolveRequest> list;
  const auto make_list = [&] {
    list.clear();
    for (std::size_t i = 0; i < n; ++i) {
      list.push_back(make_request(spec, cfg.seed, i));
    }
  };
  make_list();
  for (const SolveRequest& r : list) {
    rr.schedule_fingerprint =
        mix(rr.schedule_fingerprint, hgp::graph_fingerprint(r.g));
    rr.schedule_fingerprint = mix(rr.schedule_fingerprint, r.opt.seed);
    if (cfg.print_schedule) {
      std::printf("n=%d m=%d seed=%llu graph=%016llx\n", r.g.vertex_count(),
                  r.g.edge_count(),
                  static_cast<unsigned long long>(r.opt.seed),
                  static_cast<unsigned long long>(hgp::graph_fingerprint(r.g)));
    }
  }
  if (cfg.print_schedule) return rr;

  // A cold set-up: empty forest cache, the request list, the warm-up
  // requests.  Set-ups are timed between rounds, so their median samples
  // the host over the whole run.
  const auto cold_setup = [&] {
    hgp::ForestCache::global().clear();
    make_list();
    for (std::uint64_t w = 0; w < kWarmups; ++w) {
      const Outcome o = timed_solve(make_request(spec, kWarmupSeed, w, 3), h);
      if (o.failed) throw std::runtime_error("warm-up failed: " + o.error);
    }
  };

  FirstRound fp;
  std::vector<std::uint64_t> digests;
  std::vector<double> setup_s, walls, queue_ms;
  SpanTrace tr;
  std::uint64_t tree_nodes = 0;
  std::uint64_t cache_hits = 0;
  const int setups = cfg.smoke ? 1 : spec.setups_per_round;
  double timed_ms = 0;
  const double start = now_ms();
  for (int round = 0; round == 0 || now_ms() - start < seconds * 1e3;
       ++round) {
    for (int k = 0; k < setups; ++k) setup_s.push_back(seconds_of(cold_setup));
    const double round_start = now_ms();
    for (std::size_t i = 0; i < n; ++i) {
      const SolveRequest& r = list[i];
      const Outcome o = timed_solve(r, h);
      const std::string what = std::string(spec.name) + " request " +
                               std::to_string(i) + " round " +
                               std::to_string(round);
      ++rr.attempted;
      if (o.failed) {
        ++rr.failed;
        rr.gate(false, what + ": " + o.error);
      }
      cache_hits += o.cache_hit ? 1 : 0;
      walls.push_back(o.wall_ms);
      queue_ms.push_back(o.wall_ms - o.solve_ms);
      if (round == 0) {
        fp.add(o);
        digests.push_back(o.digest);
      } else {
        rr.gate(o.digest == digests[i], what + " did not repeat bit for bit");
      }
      if (cfg.trace) {
        std::uint64_t nodes = 0;
        const hgp::HgpResult rep =
            replay(tr, static_cast<std::uint64_t>(rr.attempted - 1), r.g, h,
                   r.opt, &nodes);
        if (round == 0) tree_nodes += nodes;
        rr.gate(result_digest(rep) == o.digest,
                "traced replay of " + what + " differs from solve_hgp");
      }
    }
    timed_ms += now_ms() - round_start;
  }
  // The list holds more requests than the forest cache, so the cache must
  // miss throughout.
  rr.gate(cache_hits == 0, "forest cache hit in a round of distinct requests");
  rr.diag("requests_per_round", static_cast<double>(n), "count");
  rr.diag("rounds", static_cast<double>(walls.size() / n), "count");

  if (!cfg.trace) {
    add_latency(rr, walls, timed_ms / 1e3);
    add_quality(rr, fp, setup_s);
    return rr;
  }

  rr.metric("core.dp_ms", median(tr.descendant_totals("request", "core.dp")),
            "ms");
  rr.metric("core.space_ms",
            median(tr.descendant_totals("request", "core.space")), "ms");
  rr.metric("core.convert_ms",
            median(tr.descendant_totals("request", "core.convert")), "ms");
  rr.metric("hierarchy.cost_ms",
            median(tr.descendant_totals("request", "hierarchy.cost")), "ms");
  const auto children = tr.child_totals("request");
  rr.metric("decomp.forest_ms", median(children.at("decomp.forest")), "ms");
  rr.metric("runtime.tree_ms", median(children.at("runtime.tree")), "ms");
  rr.metric("runtime.queue_ms", median(queue_ms), "ms");
  rr.metric("decomp.tree_nodes", static_cast<double>(tree_nodes), "count");
  rr.metric("trace.coverage", median(tr.coverage("request")), "ratio");
  rr.metric("obs.trace_overhead",
            median(tr.durations("request")) / median(walls) - 1.0, "ratio");
  finish_trace(rr, cfg, fp, tr);
  return rr;
}

}  // namespace

RunResult run_deep_dp(const RunConfig& cfg) {
  return run_solve_workload(cfg, deep_dp_spec());
}

RunResult run_wide_decomp(const RunConfig& cfg) {
  return run_solve_workload(cfg, wide_decomp_spec());
}

}  // namespace perfbench
