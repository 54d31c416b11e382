// Differential churn suite: the incremental re-solve path must be
// BIT-IDENTICAL to a from-scratch solve of the same mutated instance.
//
// Every seed derives a stream-DAG instance plus a seeded churn schedule
// (tests/churn_schedule.hpp), applies the schedule through an
// IncrementalSolver (patched forest + clean-subtree DP reuse), and then
// solves the SAME patched forest from scratch with reuse disabled.  The
// two arms must agree exactly: same cost bits, same placement, same
// per-tree feasible-state counts — reuse may only change how tables are
// obtained, never their content.  The merge counters are where the arms
// are allowed to differ, and must differ in the right direction: the
// incremental arm re-merges only dirty subtrees.  Any mismatch prints the
// seed so the instance and its schedule replay in isolation, mirroring
// tests/test_dp_differential.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "churn_schedule.hpp"
#include "graph/fingerprint.hpp"
#include "hierarchy/placement.hpp"
#include "obs/obs.hpp"
#include "runtime/incremental.hpp"
#include "util/fault_injector.hpp"
#include "util/status.hpp"

namespace hgp {
namespace {

using testchurn::ChurnInstance;
using testchurn::make_churn_instance;

ForestSolveOptions scratch_options(const IncrementalSolver& solver) {
  ForestSolveOptions fo;
  fo.epsilon = 0.25;
  fo.units_override = solver.units();
  return fo;
}

TEST(ChurnDifferential, TwoHundredSeedsBitIdenticalToScratch) {
  int resolved = 0;
  int structural = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const ChurnInstance inst = make_churn_instance(seed);
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " n=" << inst.graph->vertex_count()
                 << " h=" << inst.hierarchy.height()
                 << " units=" << inst.opt.units_override
                 << " trees=" << inst.opt.num_trees
                 << " ops=" << inst.churn.ops);

    IncrementalSolver solver(inst.graph, inst.hierarchy, inst.opt);
    const std::shared_ptr<MutationLog> log = solver.begin_batch();
    testchurn::apply_schedule(*log, inst);
    if (log->empty()) continue;

    ResolveStats rs;
    HgpResult inc;
    try {
      inc = solver.resolve(*log, ResolveOptions{}, &rs);
    } catch (const SolveError& e) {
      // Only infeasibility is an acceptable way out, and the scratch arm
      // must then agree (the sizing makes this rare; a disagreement or any
      // other error is a bug).
      ASSERT_EQ(e.status().code, StatusCode::kInfeasible) << e.what();
      const MutationLog::Materialized mat = log->materialize();
      const ForestPatch patch = patch_forest(solver.forest(), *log, mat);
      EXPECT_THROW(solve_on_forest(mat.graph, inst.hierarchy, patch.forest,
                                   scratch_options(solver)),
                   SolveError);
      continue;
    }
    ++resolved;
    if (rs.patch.added_leaves > 0 || rs.patch.removed_leaves > 0) {
      ++structural;
    }

    // From-scratch arm: full DP on the SAME patched forest (committed by
    // the successful resolve), reuse disabled.
    const Graph& g = *solver.graph();
    const HgpResult scratch = solve_on_forest(
        g, inst.hierarchy, solver.forest(), scratch_options(solver));

    // Bit-identical outcome: cost, winning tree, placement.
    ASSERT_EQ(inc.cost, scratch.cost);
    ASSERT_EQ(inc.best_tree, scratch.best_tree);
    ASSERT_EQ(inc.placement.leaf_of, scratch.placement.leaf_of);
    ASSERT_EQ(inc.tree_costs.size(), scratch.tree_costs.size());
    for (std::size_t i = 0; i < inc.tree_costs.size(); ++i) {
      ASSERT_EQ(inc.tree_costs[i], scratch.tree_costs[i]);
    }
    validate_placement(g, inst.hierarchy, inc.placement);

    // Identical DP tables: rehydration may never create or lose states.
    ASSERT_EQ(inc.telemetry.dp_feasible_states,
              scratch.telemetry.dp_feasible_states);

    // The arms split the same node set differently: scratch builds every
    // node, incremental builds dirty ones and rehydrates the rest.
    ASSERT_EQ(scratch.telemetry.dp_nodes_reused, 0u);
    ASSERT_EQ(inc.telemetry.dp_nodes_built + inc.telemetry.dp_nodes_reused,
              scratch.telemetry.dp_nodes_built);

    // Merge work only ever shrinks: clean subtrees skip their merge loops.
    ASSERT_LE(inc.telemetry.dp_merge_operations,
              scratch.telemetry.dp_merge_operations);

    // Stability metric bookkeeping is exact.
    ASSERT_LE(rs.moved_vertices, rs.surviving_vertices);
    ASSERT_LE(rs.surviving_vertices, inst.graph->vertex_count());
  }
  // The sweep must keep exercising both regimes; if the generator drifts,
  // fail loudly instead of silently weakening the suite.
  EXPECT_GE(resolved, 150);
  EXPECT_GE(structural, 40);
}

TEST(ChurnDifferential, SmallChurnReusesAtLeastFiveFoldMerges) {
  // Acceptance floor: a drift-dominant churn run touching ≤ 10% of the
  // vertices must cost ≥ 5x fewer merge relaxations than re-solving every
  // batch from scratch.  Two effects compound: demand drift that rounds to
  // the same units leaves the whole forest content-hash clean (zero
  // merges), and a volume reweight re-merges only its two leaf→LCA paths.
  // (Single-batch ratios sit around 3-6x because the rebuilt root path
  // carries the biggest merge loops; the run-level ratio is the metric the
  // E12 bench reports and is comfortably ≥ 10x — 5 here is the floor.)
  Rng rng(977);
  gen::StreamDagOptions sopt;
  sopt.sources = 6;
  sopt.sinks = 3;
  sopt.stages = 8;
  sopt.stage_width = 24;
  sopt.demand_lo = 0.01;
  sopt.demand_hi = 0.05;
  auto g = std::make_shared<const Graph>(gen::stream_dag(sopt, rng));

  IncrementalOptions iopt;
  iopt.num_trees = 2;
  iopt.units_override = 3;
  iopt.seed = 11;
  const Hierarchy h = Hierarchy::uniform(1, 24, {2.0, 0.0});
  IncrementalSolver solver(g, h, iopt);

  std::uint64_t inc_merges = 0;
  std::uint64_t scratch_merges = 0;
  std::uint64_t built = 0;
  std::uint64_t reused = 0;
  std::size_t touched_total = 0;
  for (int batch = 0; batch < 8; ++batch) {
    SCOPED_TRACE(::testing::Message() << "batch=" << batch);
    gen::ChurnOptions copt;
    copt.ops = 2;
    copt.w_add_vertex = 0;
    copt.w_remove_vertex = 0;
    copt.w_add_edge = 0;
    copt.w_remove_edge = 0;
    copt.w_reweight_edge = 1;
    copt.w_set_demand = 6;
    copt.demand_lo = 0.01;
    copt.demand_hi = 0.05;
    const std::shared_ptr<MutationLog> log = solver.begin_batch();
    Rng crng(SplitMix64(1000 + static_cast<std::uint64_t>(batch)).next());
    gen::churn(*log, copt, crng);
    ASSERT_FALSE(log->empty());
    touched_total += log->touched().size();

    ResolveStats rs;
    const HgpResult inc = solver.resolve(*log, ResolveOptions{}, &rs);
    const HgpResult scratch = solve_on_forest(
        *solver.graph(), h, solver.forest(), scratch_options(solver));
    ASSERT_EQ(inc.cost, scratch.cost);
    ASSERT_EQ(inc.placement.leaf_of, scratch.placement.leaf_of);
    inc_merges += inc.telemetry.dp_merge_operations;
    scratch_merges += scratch.telemetry.dp_merge_operations;
    built += rs.nodes_built;
    reused += rs.nodes_reused;
  }
  ASSERT_LE(touched_total, static_cast<std::size_t>(g->vertex_count() / 10));
  EXPECT_GT(reused, built);
  ASSERT_GT(scratch_merges, 0u);
  ASSERT_GT(inc_merges, 0u);  // the run did hit the rebuild path
  EXPECT_GE(scratch_merges, 5 * inc_merges)
      << "scratch=" << scratch_merges << " incremental=" << inc_merges;
}

TEST(ChurnDifferential, ChainedResolvesStayIdenticalToScratch) {
  // Five successive batches against one solver: every commit becomes the
  // next batch's base, and each step must still match scratch exactly.
  const ChurnInstance inst = make_churn_instance(7);
  IncrementalSolver solver(inst.graph, inst.hierarchy, inst.opt);
  for (std::uint64_t step = 0; step < 5; ++step) {
    SCOPED_TRACE(::testing::Message() << "step=" << step);
    const std::shared_ptr<MutationLog> log = solver.begin_batch();
    Rng rng(SplitMix64(inst.churn_seed + step).next());
    gen::ChurnOptions copt = inst.churn;
    copt.ops = 6;
    gen::churn(*log, copt, rng);
    if (log->empty()) continue;
    const HgpResult inc = solver.resolve(*log);
    const HgpResult scratch = solve_on_forest(
        *solver.graph(), inst.hierarchy, solver.forest(),
        scratch_options(solver));
    ASSERT_EQ(inc.cost, scratch.cost);
    ASSERT_EQ(inc.placement.leaf_of, scratch.placement.leaf_of);
    ASSERT_EQ(inc.telemetry.dp_feasible_states,
              scratch.telemetry.dp_feasible_states);
    ASSERT_EQ(solver.fingerprint(), graph_fingerprint(*solver.graph()));
  }
}

// A clean subtree's DP table passes from one resolve's store to the next
// by pointer.  A demand total that moves a per-level bound
// min(capacity_j, total) re-interns the reused tables into the new
// signature space; a total that moves no bound re-interns nothing and
// shares every clean table as it is.  Both arms stay bit-identical to
// scratch.
TEST(ChurnDifferential, CleanSubtreesShareTablesAcrossResolves) {
  // 15 vertices of one unit each (0.3 at U = 4) under a two-level
  // hierarchy: the level-1 bound is min(16, total), so a total of 15 → 16
  // moves it and 16 → 17 does not; the level-2 bound stays 4.
  auto base = gen::grid2d(3, 5);
  gen::set_uniform_demands(base, 0.3);
  const auto g = std::make_shared<const Graph>(std::move(base));
  const Hierarchy h = Hierarchy::uniform(2, 4, {3.0, 1.0, 0.0});
  IncrementalOptions iopt;
  iopt.num_trees = 2;
  iopt.units_override = 4;
  iopt.seed = 5;
  IncrementalSolver solver(g, h, iopt);
  const auto translated = [] {
    return obs::MetricsRegistry::global().counter_value("dp.nodes_translated");
  };

  const struct {
    Vertex vertex;
    DemandUnits total_after;
    bool bounds_move;
  } steps[] = {{0, 16, true}, {7, 17, false}};
  for (const auto& step : steps) {
    SCOPED_TRACE(::testing::Message() << "total=" << step.total_after);
    const std::vector<DpReuseStore> before = solver.stores();
    const std::shared_ptr<MutationLog> log = solver.begin_batch();
    log->set_demand(step.vertex, 0.6);  // 1 → 2 units
    const std::uint64_t translated_before = translated();
    ResolveStats rs;
    const HgpResult inc = solver.resolve(*log, ResolveOptions{}, &rs);
    const std::uint64_t translated_now = translated() - translated_before;
    ASSERT_GT(rs.nodes_reused, 0u);

    const HgpResult scratch =
        solve_on_forest(*solver.graph(), h, solver.forest(),
                        scratch_options(solver));
    ASSERT_EQ(inc.cost, scratch.cost);
    ASSERT_EQ(inc.tree_costs, scratch.tree_costs);
    ASSERT_EQ(inc.placement.leaf_of, scratch.placement.leaf_of);
    ASSERT_EQ(inc.telemetry.dp_feasible_states,
              scratch.telemetry.dp_feasible_states);

    const std::vector<DpReuseStore>& after = solver.stores();
    ASSERT_EQ(after.size(), before.size());
    std::size_t common = 0;
    std::size_t shared = 0;
    for (std::size_t t = 0; t < after.size(); ++t) {
      ASSERT_EQ(after[t].total, step.total_after);
      ASSERT_EQ(before[t].total + 1, after[t].total);
      for (const auto& [key, table] : after[t].entries) {
        const auto old = before[t].entries.find(key);
        if (old == before[t].entries.end()) continue;
        ++common;
        shared += old->second == table ? 1 : 0;
      }
    }
    ASSERT_GT(common, 0u);
    if (step.bounds_move) {
      // Every reused table was re-interned into the new space.
      EXPECT_EQ(shared, 0u);
      if (HGP_OBS_ENABLED) {
        EXPECT_EQ(translated_now, rs.nodes_reused);
      }
    } else {
      // Every clean subtree's entry is the very object the old store held.
      EXPECT_EQ(shared, common);
      EXPECT_EQ(translated_now, 0u);
    }
  }
}

TEST(ChurnDifferential, StaleLogIsRejectedWithoutStateDamage) {
  const ChurnInstance inst = make_churn_instance(3);
  IncrementalSolver solver(inst.graph, inst.hierarchy, inst.opt);
  const std::shared_ptr<MutationLog> log = solver.begin_batch();
  testchurn::apply_schedule(*log, inst);
  ASSERT_FALSE(log->empty());
  const HgpResult first = solver.resolve(*log);

  // The same log is now stale: its base is the pre-commit snapshot.
  try {
    solver.resolve(*log);
    FAIL() << "stale log must be rejected";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
  }
  // Committed state undamaged: a fresh batch still resolves.
  EXPECT_EQ(solver.last().cost, first.cost);
  const std::shared_ptr<MutationLog> fresh = solver.begin_batch();
  fresh->set_demand(0, 0.2);
  EXPECT_NO_THROW(solver.resolve(*fresh));
}

FaultInjector::Fault fault_of(FaultInjector::Action action) {
  FaultInjector::Fault f;
  f.action = action;
  return f;
}

// Per-tree fault isolation on the incremental path: a resolve whose tree 0
// throws still commits, from the surviving trees, exactly what
// solve_on_forest returns on the same patched forest under the same fault.
TEST(ChurnDifferential, TreeFaultDuringResolveCommitsFromSurvivors) {
  const ChurnInstance inst = make_churn_instance(5);
  ASSERT_GE(inst.opt.num_trees, 2);
  IncrementalSolver solver(inst.graph, inst.hierarchy, inst.opt);
  const std::shared_ptr<MutationLog> log = solver.begin_batch();
  testchurn::apply_schedule(*log, inst);
  ASSERT_FALSE(log->empty());

  const FaultScope fault("solve_one_tree", 0,
                         fault_of(FaultInjector::Action::kThrow));
  const HgpResult inc = solver.resolve(*log);
  ASSERT_EQ(inc.attempts.size(), static_cast<std::size_t>(inst.opt.num_trees));
  EXPECT_EQ(inc.attempts[0].status, StatusCode::kInternal);
  EXPECT_FALSE(inc.attempts[0].error.empty());
  ASSERT_GT(inc.best_tree, 0);
  EXPECT_EQ(solver.last().placement.leaf_of, inc.placement.leaf_of);

  const HgpResult scratch =
      solve_on_forest(*solver.graph(), inst.hierarchy, solver.forest(),
                      scratch_options(solver));
  ASSERT_EQ(inc.cost, scratch.cost);
  ASSERT_EQ(inc.best_tree, scratch.best_tree);
  ASSERT_EQ(inc.placement.leaf_of, scratch.placement.leaf_of);
  ASSERT_EQ(inc.tree_costs, scratch.tree_costs);
  for (std::size_t i = 0; i < inc.attempts.size(); ++i) {
    EXPECT_EQ(inc.attempts[i].status, scratch.attempts[i].status) << i;
  }
}

// When every tree fails, resolve throws the classified status and the
// committed state (graph, forest, last result) is untouched, so the same
// log resolves once the fault is gone.
TEST(ChurnDifferential, ResolveWithEveryTreeFailingKeepsCommittedState) {
  const ChurnInstance inst = make_churn_instance(5);
  IncrementalSolver solver(inst.graph, inst.hierarchy, inst.opt);
  const std::shared_ptr<MutationLog> log = solver.begin_batch();
  testchurn::apply_schedule(*log, inst);
  ASSERT_FALSE(log->empty());

  const std::shared_ptr<const Graph> graph_before = solver.graph();
  const std::vector<DecompTree>* forest_before = &solver.forest();
  const HgpResult last_before = solver.last();
  const struct {
    FaultInjector::Action action;
    StatusCode classified;
  } kinds[] = {{FaultInjector::Action::kThrow, StatusCode::kInternal},
               {FaultInjector::Action::kInfeasible, StatusCode::kInfeasible}};
  for (const auto& kind : kinds) {
    SCOPED_TRACE(::testing::Message() << status_code_name(kind.classified));
    const FaultScope fault("solve_one_tree", FaultInjector::kEveryIndex,
                           fault_of(kind.action));
    try {
      solver.resolve(*log);
      FAIL() << "resolve must throw when every tree fails";
    } catch (const SolveError& e) {
      EXPECT_EQ(e.status().code, kind.classified) << e.what();
    }
    EXPECT_EQ(solver.graph(), graph_before);
    EXPECT_EQ(&solver.forest(), forest_before);
    EXPECT_EQ(solver.last().cost, last_before.cost);
    EXPECT_EQ(solver.last().placement.leaf_of, last_before.placement.leaf_of);
  }
  EXPECT_NO_THROW(solver.resolve(*log));
}

}  // namespace
}  // namespace hgp
