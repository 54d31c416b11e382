#include "runtime/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "baseline/greedy.hpp"
#include "baseline/multilevel.hpp"
#include "core/demand.hpp"
#include "graph/fingerprint.hpp"
#include "obs/event_journal.hpp"  // stage constants under HGP_OBS=OFF
#include "obs/obs.hpp"
#include "runtime/forest_cache.hpp"
#include "parallel/parallel_for.hpp"
#include "util/contracts.hpp"
#include "util/fault_injector.hpp"
#include "util/timer.hpp"

namespace hgp {

ForestTreeResult solve_forest_tree(const Graph& g, const Hierarchy& h,
                                   const DecompTree& dt,
                                   const TreeDpOptions& tree_opt) {
  const TreeHgpSolution sol = solve_hgpt(dt.tree(), h, tree_opt);
  ForestTreeResult out;
  HGP_TRACE_SPAN("tree.map_back");
  out.placement.leaf_of.assign(static_cast<std::size_t>(g.vertex_count()), 0);
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    out.placement.leaf_of[static_cast<std::size_t>(v)] =
        sol.assignment.of(dt.leaf_of_vertex(v));
  }
  // Judge every candidate by the true objective on G, not the tree cost
  // (the tree cost over-estimates by the embedding stretch).
  out.cost = placement_cost(g, h, out.placement);
  out.stats = sol.stats;
  HGP_COUNTER_ADD("solver.trees_solved", 1);
  // The leaf↔vertex bijection must yield a structurally valid placement
  // whose leaf loads match the tree solution's (leaves carry the same
  // demand on both sides of the mapping).
  if (contracts_enabled()) validate_placement(g, h, out.placement);
  return out;
}

namespace {

/// Aggregates a primary-pipeline failure into the one status the caller
/// should see: a gone deadline dominates (the trees were killed, not
/// broken), then "every tree infeasible", then memory-budget exhaustion
/// (the degradation ladder keys off it), then the first internal error.
Status classify_forest_failure(const ExecContext& exec,
                               const std::vector<TreeAttempt>& attempts) {
  if (exec.deadline.expired()) {
    return Status(StatusCode::kDeadlineExceeded,
                  "deadline expired before any tree solve completed");
  }
  bool all_infeasible = !attempts.empty();
  for (const TreeAttempt& a : attempts) {
    all_infeasible = all_infeasible && a.status == StatusCode::kInfeasible;
  }
  if (all_infeasible) {
    return Status(StatusCode::kInfeasible,
                  "every decomposition tree reported an infeasible "
                  "instance: " +
                      attempts.front().error);
  }
  for (const TreeAttempt& a : attempts) {
    if (a.status == StatusCode::kResourceExhausted) {
      return Status(StatusCode::kResourceExhausted,
                    "tree solves hit the memory budget: " + a.error);
    }
  }
  for (const TreeAttempt& a : attempts) {
    if (!a.ok()) {
      return Status(StatusCode::kInternal,
                    "all tree solves failed; first error: " + a.error);
    }
  }
  return Status(StatusCode::kInternal, "no decomposition trees were solved");
}

/// The classified failure of a solve whose rounded demand total exceeds
/// the root capacity, decided before any tree is built: every tree's DP
/// would reject it with the same message.  Each of the `count` attempts is
/// recorded as kInfeasible with that message, no build and no time.
/// Returns kOk, touching nothing, when rounded_demand_overflow is empty.
Status reject_rounded_overflow(const Graph& g, const Hierarchy& h,
                               std::size_t count, double epsilon,
                               DemandUnits units_override, HgpResult& result) {
  const std::string overflow =
      rounded_demand_overflow(g, h, epsilon, units_override);
  if (overflow.empty()) return Status();
  TreeAttempt rejected;
  rejected.status = StatusCode::kInfeasible;
  rejected.error = overflow;
  result.attempts.assign(count, rejected);
  result.tree_costs.assign(count, rejected.cost);
  result.telemetry.trees_attempted = narrow<int>(count);
  HGP_COUNTER_ADD("solver.tree_failures", count);
  return Status(StatusCode::kInfeasible,
                "every decomposition tree reported an infeasible instance: " +
                    overflow);
}

/// Where an attempt takes tree i when the checkpoint holds no fitting
/// result: tree i of `given` when set, else a build with `cutter` on
/// stream i of forest_tree_rngs(seed, count), kept in built[i].
struct TreeSource {
  const std::vector<DecompTree>* given = nullptr;
  const Cutter* cutter = nullptr;
  std::vector<DecompTree> built;
  std::vector<char> built_ok;  ///< built_ok[i] != 0 once tree i is built
};

/// The forest executor: isolated per-tree attempts at trees 0..count-1
/// (each served from the checkpoint, or taken from `source` and solved),
/// the solve_finalize fault site, the Theorem-7 arg-min over the survivors
/// and the telemetry sums.  On a survivor it fills `result` with the winner
/// and returns kOk; otherwise it returns the classified failure.  Throws
/// only SolveError: kCancelled (naming `entry`), or a fault injected at
/// solve_finalize.
Status solve_forest_trees(const Graph& g, const Hierarchy& h,
                          std::size_t count, TreeSource& source,
                          const ForestSolveOptions& opt,
                          const ExecContext& exec, const char* entry,
                          HgpResult& result) {
  if (opt.reuse_out != nullptr) {
    opt.reuse_out->assign(count, DpReuseStore{});
  }
  std::vector<Rng> rngs;
  if (source.given == nullptr) {
    rngs = forest_tree_rngs(opt.seed, narrow<int>(count));
    source.built.assign(count, DecompTree{});
    source.built_ok.assign(count, 0);
  }
  TreeDpOptions base_opt;
  base_opt.epsilon = opt.epsilon;
  base_opt.units_override = opt.units_override;
  base_opt.exec = &exec;

  // Isolated per-tree solves.  Theorem 7's arg-min is over whatever
  // survives, so nothing a single tree does — throw, stall past the
  // deadline, report infeasibility — may escape its attempt record.
  std::vector<ForestTreeResult> outcomes(count);
  result.attempts.assign(count, TreeAttempt{});
  auto run = [&](std::size_t i) {
    TreeAttempt& attempt = result.attempts[i];
    HGP_TRACE_SPAN_ARG("tree.attempt", i);
    Timer timer;
    try {
      CheckpointedTree ck;
      // Checkpoints may have been recovered from disk, so an entry is
      // re-validated against THIS instance before it is trusted: a spill
      // that survived its CRCs but matched a different run, or hostile
      // bytes, is treated as a miss and the tree is simply re-solved.
      if (opt.checkpoint != nullptr &&
          opt.checkpoint->lookup(static_cast<int>(i), &ck) &&
          tree_result_fits(g, h, ck)) {
        // A previous attempt of this request already solved tree i — the
        // subproblem is deterministic in the checkpoint key, so reuse the
        // recorded placement instead of re-running the DP.  No DP runs, so
        // the tree's reuse_out slot stays empty.
        outcomes[i] = ForestTreeResult{std::move(ck.placement), ck.cost,
                                       ck.stats};
        attempt.from_checkpoint = true;
        HGP_COUNTER_ADD("solver.checkpoint_trees", 1);
      } else {
        const DecompTree* tree = nullptr;
        if (source.given != nullptr) {
          tree = &(*source.given)[i];
        } else {
          Timer build_timer;
          Rng rng = rngs[i];
          source.built[i] = build_decomp_tree(g, rng, *source.cutter, &exec);
          source.built_ok[i] = 1;
          attempt.build_ms = build_timer.millis();
          tree = &source.built[i];
        }
        FaultInjector::instance().on_site("solve_one_tree",
                                          static_cast<int>(i));
        exec.check("tree solve start");
        TreeDpOptions tree_opt = base_opt;
        if (opt.reuse_in != nullptr) tree_opt.reuse_in = &(*opt.reuse_in)[i];
        if (opt.reuse_out != nullptr) {
          tree_opt.reuse_out = &(*opt.reuse_out)[i];
        }
        outcomes[i] = solve_forest_tree(g, h, *tree, tree_opt);
        if (opt.checkpoint != nullptr) {
          opt.checkpoint->record(
              static_cast<int>(i),
              CheckpointedTree{outcomes[i].placement, outcomes[i].cost,
                               outcomes[i].stats});
        }
      }
      attempt.status = StatusCode::kOk;
      attempt.cost = outcomes[i].cost;
    } catch (...) {
      const Status s = status_from_current_exception();
      attempt.status = s.code;
      attempt.error = s.message;
    }
    attempt.elapsed_ms = timer.millis();
  };
  // No exec on this loop: isolation happens inside `run`, and the loop
  // itself must visit every index so every attempt is recorded.
  {
    HGP_TRACE_SPAN_ARG("solve.trees", count);
    Timer trees_timer;
    if (opt.pool != nullptr) {
      parallel_for(*opt.pool, 0, count, run);
    } else {
      for (std::size_t i = 0; i < count; ++i) run(i);
    }
    result.telemetry.tree_solve_ms = trees_timer.millis();
  }

  if (exec.cancelled()) {
    throw SolveError(StatusCode::kCancelled, std::string(entry) + " cancelled");
  }

  // Post-tree fault hook: by now every completed tree is checkpointed, so
  // a fault injected here models the worst checkpoint-resume case — the
  // attempt dies with all its tree work banked (tests and the chaos
  // harness use it to force a resume that skips completed trees).  The
  // injected CheckError is classified here so the entry points keep their
  // only-typed-errors contract.
  try {
    FaultInjector::instance().on_site("solve_finalize", 0);
  } catch (const SolveError&) {
    throw;
  } catch (...) {
    throw SolveError(status_from_current_exception());
  }

  // Arg-min over the survivors (Theorem 7).
  result.telemetry.trees_attempted = narrow<int>(result.attempts.size());
  result.tree_costs.reserve(result.attempts.size());
  for (std::size_t i = 0; i < result.attempts.size(); ++i) {
    if (result.attempts[i].from_checkpoint) {
      ++result.telemetry.checkpoint_trees;
    }
    result.telemetry.forest_build_ms += result.attempts[i].build_ms;
    if (result.attempts[i].ok()) {
      ++result.telemetry.trees_succeeded;
      const TreeDpStats& s = outcomes[i].stats;
      result.telemetry.dp_signatures += s.signature_count;
      result.telemetry.dp_feasible_states += s.feasible_states;
      result.telemetry.dp_merge_operations += s.merge_operations;
      result.telemetry.dp_merges_rejected += s.merges_rejected;
      result.telemetry.dp_states_pruned += s.states_pruned;
      result.telemetry.dp_nodes_built += s.nodes_built;
      result.telemetry.dp_nodes_reused += s.nodes_reused;
    } else {
      HGP_COUNTER_ADD("solver.tree_failures", 1);
    }
    result.tree_costs.push_back(result.attempts[i].cost);
    if (result.attempts[i].ok() &&
        (result.best_tree < 0 ||
         result.attempts[i].cost <
             result.attempts[static_cast<std::size_t>(result.best_tree)]
                 .cost)) {
      result.best_tree = narrow<int>(i);
    }
  }
  if (result.best_tree < 0) {
    return classify_forest_failure(exec, result.attempts);
  }
  ForestTreeResult& best = outcomes[static_cast<std::size_t>(result.best_tree)];
  result.placement = std::move(best.placement);
  result.cost = best.cost;
  result.stats = best.stats;
  result.loads = load_report(g, h, result.placement);
  result.method = SolveMethod::kHgp;
  result.status = Status();
  return Status();
}

/// Runs the degradation chain (multilevel, then greedy) without a deadline:
/// the caller already blew its budget and wants *some* feasible placement;
/// both heuristics are orders of magnitude cheaper than the DP pipeline.
HgpResult run_fallback_chain(const Graph& g, const Hierarchy& h,
                             const SolverOptions& opt, HgpResult result,
                             Status reason) {
  result.best_tree = -1;
  result.stats = TreeDpStats{};
  result.status = std::move(reason);
  HGP_TRACE_SPAN("solve.fallback");
  Timer fallback_timer;
  try {
    HGP_COUNTER_ADD("solver.fallback.multilevel", 1);
    HGP_JOURNAL_SCOPED(kFallbackStage, obs::kFallbackStageMultilevel,
                       result.status.code);
    HGP_TRACE_SPAN("fallback.multilevel");
    // Stage-boundary fault hook: tests kill the multilevel stage here to
    // drive the chain down to greedy (and beyond, to exhaustion).
    FaultInjector::instance().on_site("fallback_multilevel", 0);
    Rng rng(opt.seed);
    result.placement = multilevel_placement(g, h, rng);
    result.method = SolveMethod::kMultilevel;
  } catch (...) {
    const Status ml = status_from_current_exception();
    try {
      HGP_COUNTER_ADD("solver.fallback.greedy", 1);
      HGP_JOURNAL_SCOPED(kFallbackStage, obs::kFallbackStageGreedy,
                         ml.code);
      HGP_TRACE_SPAN("fallback.greedy");
      FaultInjector::instance().on_site("fallback_greedy", 0);
      result.placement = greedy_placement(g, h);
      result.method = SolveMethod::kGreedy;
    } catch (...) {
      const Status gr = status_from_current_exception();
      throw SolveError(StatusCode::kInfeasible,
                       "fallback chain exhausted (primary: " +
                           result.status.to_string() +
                           "; multilevel: " + ml.to_string() +
                           "; greedy: " + gr.to_string() + ")");
    }
  }
  result.cost = placement_cost(g, h, result.placement);
  result.loads = load_report(g, h, result.placement);
  result.telemetry.fallback_ms = fallback_timer.millis();
  HGP_POSTCONDITION_MSG(result.placement.task_count() == g.vertex_count(),
                        "fallback placement must cover every task");
  return result;
}

/// solve_hgp, and with `forest` set the incremental base solve: bind the
/// checkpoint, serve the trees from the forest cache or build them in the
/// executor's attempts, cache a forest built whole, then degrade or throw.
HgpResult solve_sampled(const Graph& g, const Hierarchy& h,
                        const SolverOptions& opt, const char* entry,
                        std::vector<DpReuseStore>* reuse_out,
                        CachedForest* forest) {
  validate_solve_args(g, opt.num_trees, opt.timeout_ms, opt.epsilon);
  if (contracts_enabled()) validate_hierarchy(h);

  HGP_TRACE_SPAN_ARG("solve", g.vertex_count());
  Timer total_timer;

  const ExecContext exec{opt.timeout_ms > 0 ? Deadline::after_ms(opt.timeout_ms)
                                           : Deadline::never(),
                         opt.cancel};
  exec.check(entry);

  const std::uint64_t fingerprint = graph_fingerprint(g);
  // (Re)bind the checkpoint to this solve's parameters: retries with
  // identical parameters resume recorded trees, a degraded retry (e.g.
  // fewer trees) invalidates them — the forest it samples differs.
  if (opt.checkpoint != nullptr) {
    opt.checkpoint->bind(CheckpointKey{fingerprint, opt.seed, opt.num_trees,
                                       opt.epsilon, opt.units_override});
  }
  // Tree i is deterministic in (graph content, seed, i, cutter), so the
  // global LRU cache can serve repeated solves of the same instance.
  const FmCutter default_cutter;
  TreeSource source;
  source.cutter = opt.cutter != nullptr ? opt.cutter : &default_cutter;
  ForestCache& cache = ForestCache::global();
  const ForestCacheKey key{fingerprint, opt.seed, opt.num_trees,
                           source.cutter->name()};
  CachedForest whole = cache.find(key);
  source.given = whole.get();

  ForestSolveOptions fo;
  fo.epsilon = opt.epsilon;
  fo.units_override = opt.units_override;
  fo.seed = opt.seed;
  fo.pool = opt.pool;
  fo.checkpoint = opt.checkpoint;
  fo.reuse_out = reuse_out;
  HgpResult result;
  const auto count = static_cast<std::size_t>(opt.num_trees);
  Status reason = reject_rounded_overflow(g, h, count, opt.epsilon,
                                          opt.units_override, result);
  if (reason.ok()) {
    reason = solve_forest_trees(g, h, count, source, fo, exec, entry, result);
  }
  result.telemetry.forest_cache_hit =
      whole != nullptr ||
      std::all_of(result.attempts.begin(), result.attempts.end(),
                  [](const TreeAttempt& a) { return a.from_checkpoint; });
  if (whole == nullptr && !source.built_ok.empty() &&
      std::all_of(source.built_ok.begin(), source.built_ok.end(),
                  [](char ok) { return ok != 0; })) {
    whole = std::make_shared<const std::vector<DecompTree>>(
        std::move(source.built));
    cache.insert(key, whole);
  }
  if (forest != nullptr) {
    // A partial forest cannot be patched: without a checkpoint, a tree is
    // missing only because its attempt failed.
    for (const TreeAttempt& a : result.attempts) {
      if (reason.ok() && whole == nullptr && !a.ok()) {
        reason = Status(a.status, a.error);
      }
    }
    *forest = std::move(whole);
  }
  if (!reason.ok()) {
    if (forest != nullptr || opt.fallback == FallbackPolicy::kNone) {
      throw SolveError(std::move(reason));
    }
    result =
        run_fallback_chain(g, h, opt, std::move(result), std::move(reason));
  }
  result.telemetry.total_ms = total_timer.millis();
  return result;
}

}  // namespace

const char* solve_method_name(SolveMethod method) {
  switch (method) {
    case SolveMethod::kHgp:
      return "hgp";
    case SolveMethod::kMultilevel:
      return "multilevel";
    case SolveMethod::kGreedy:
      return "greedy";
  }
  return "unknown";
}

std::string rounded_demand_overflow(const Graph& g, const Hierarchy& h,
                                    double epsilon,
                                    DemandUnits units_override) {
  const std::vector<double>& demands = g.demands();
  if (!std::all_of(demands.begin(), demands.end(),
                   [](double d) { return d > 0.0 && d <= 1.0; })) {
    return {};
  }
  return rounded_total_overflow(
      round_demands(demands, h, epsilon, units_override));
}

void validate_solve_args(const Graph& g, int num_trees, double timeout_ms,
                         double epsilon) {
  if (!g.has_demands()) {
    throw SolveError(StatusCode::kInvalidInput,
                     "HGP instances require vertex demands");
  }
  if (num_trees < 1) {
    throw SolveError(StatusCode::kInvalidInput, "num_trees must be >= 1");
  }
  if (timeout_ms < 0) {
    throw SolveError(StatusCode::kInvalidInput, "timeout_ms must be >= 0");
  }
  if (epsilon <= 0) {
    throw SolveError(StatusCode::kInvalidInput, "epsilon must be > 0");
  }
}

bool tree_result_fits(const Graph& g, const Hierarchy& h,
                      const CheckpointedTree& tree) {
  const std::vector<LeafId>& leaf_of = tree.placement.leaf_of;
  return leaf_of.size() == static_cast<std::size_t>(g.vertex_count()) &&
         std::isfinite(tree.cost) &&
         std::all_of(leaf_of.begin(), leaf_of.end(), [&h](LeafId leaf) {
           return leaf >= 0 && leaf < h.leaf_count();
         });
}

HgpResult solve_hgp(const Graph& g, const Hierarchy& h,
                    const SolverOptions& opt) {
  HGP_COUNTER_ADD("solver.solves", 1);
  return solve_sampled(g, h, opt, "solve_hgp", nullptr, nullptr);
}

HgpResult solve_hgp_keep_forest(const Graph& g, const Hierarchy& h,
                                const SolverOptions& opt,
                                std::vector<DpReuseStore>* reuse_out,
                                CachedForest* forest) {
  HGP_CHECK(opt.checkpoint == nullptr && forest != nullptr);
  return solve_sampled(g, h, opt, "incremental base solve", reuse_out,
                       forest);
}

HgpResult solve_on_forest(const Graph& g, const Hierarchy& h,
                          const std::vector<DecompTree>& forest,
                          const ForestSolveOptions& opt) {
  if (forest.empty()) {
    throw SolveError(StatusCode::kInvalidInput,
                     "solve_on_forest requires a non-empty forest");
  }
  validate_solve_args(g, narrow<int>(forest.size()), opt.timeout_ms,
                      opt.epsilon);
  for (const DecompTree& dt : forest) {
    if (dt.graph_vertex_count() != g.vertex_count()) {
      throw SolveError(StatusCode::kInvalidInput,
                       "forest tree does not decompose the solved graph");
    }
  }
  if (opt.reuse_in != nullptr && opt.reuse_in->size() != forest.size()) {
    throw SolveError(StatusCode::kInvalidInput,
                     "reuse_in must carry one store per forest tree");
  }
  if (opt.reuse_out != nullptr && opt.reuse_out == opt.reuse_in) {
    throw SolveError(StatusCode::kInvalidInput,
                     "reuse_in and reuse_out must not alias");
  }
  if (contracts_enabled()) validate_hierarchy(h);

  HGP_TRACE_SPAN_ARG("solve.on_forest", g.vertex_count());
  Timer total_timer;

  const ExecContext exec{opt.timeout_ms > 0 ? Deadline::after_ms(opt.timeout_ms)
                                           : Deadline::never(),
                         opt.cancel};
  exec.check("solve_on_forest entry");

  // Same binding rule as solve_hgp: retries with identical parameters
  // resume recorded trees; any parameter drift invalidates the store.
  if (opt.checkpoint != nullptr) {
    opt.checkpoint->bind(CheckpointKey{graph_fingerprint(g), opt.seed,
                                       narrow<int>(forest.size()), opt.epsilon,
                                       opt.units_override});
  }

  HgpResult result;
  TreeSource source;
  source.given = &forest;
  Status reason = solve_forest_trees(g, h, forest.size(), source, opt, exec,
                                     "solve_on_forest", result);
  if (!reason.ok()) throw SolveError(std::move(reason));
  result.telemetry.total_ms = total_timer.millis();
  return result;
}

}  // namespace hgp
