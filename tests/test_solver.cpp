#include <gtest/gtest.h>

#include "baseline/exact.hpp"
#include "baseline/random_placement.hpp"
#include "runtime/solver.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"

namespace hgp {
namespace {

Graph workload(std::uint64_t seed, Vertex n = 24) {
  Rng rng(seed);
  Graph g = gen::planted_partition(n, 4, 0.75, 0.05, rng,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 4.0 / n);
  return g;
}

const Hierarchy& hier() {
  static const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});
  return h;
}

TEST(Solver, ProducesValidatedPlacement) {
  const Graph g = workload(1);
  SolverOptions opt;
  opt.num_trees = 2;
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.placement.leaf_of.size(),
            static_cast<std::size_t>(g.vertex_count()));
  EXPECT_NEAR(r.cost, placement_cost(g, hier(), r.placement), 1e-9);
  EXPECT_GE(r.best_tree, 0);
  EXPECT_EQ(r.tree_costs.size(), 2u);
}

TEST(Solver, ViolationWithinTheoremOneBound) {
  const double eps = 0.5;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = workload(seed);
    SolverOptions opt;
    opt.epsilon = eps;
    opt.num_trees = 2;
    opt.seed = seed;
    const HgpResult r = solve_hgp(g, hier(), opt);
    const int h = hier().height();
    EXPECT_LE(r.loads.max_violation(), (1 + eps) * (1 + h) + 1e-9)
        << "seed " << seed;
  }
}

TEST(Solver, BeatsRandomPlacementOnClusteredWorkloads) {
  const Graph g = workload(5, 32);
  SolverOptions opt;
  opt.num_trees = 3;
  const HgpResult r = solve_hgp(g, hier(), opt);
  Rng rng(6);
  double random_cost = 0;
  for (int i = 0; i < 5; ++i) {
    random_cost +=
        placement_cost(g, hier(), random_placement(g, hier(), rng));
  }
  random_cost /= 5;
  EXPECT_LT(r.cost, random_cost);
}

TEST(Solver, NearOptimalOnSmallInstances) {
  // Bicriteria guarantee: cost ≤ O(log n)·OPT.  On small clustered
  // instances with a good tree the practical ratio should be small; we
  // assert a loose factor-3 envelope to catch regressions, and that the
  // solver is never *better* than the violation-free OPT by more than the
  // capacity slack it enjoys... (it may beat OPT thanks to violation).
  Rng rng(7);
  int compared = 0;
  for (std::uint64_t seed = 10; seed <= 14 && compared < 3; ++seed) {
    Graph g = gen::erdos_renyi(9, 0.5, rng, gen::WeightRange{1.0, 9.0});
    gen::set_random_demands(g, rng, 0.15, 0.35);
    const ExactResult exact = solve_exact_hgp(g, hier());
    if (!exact.feasible) continue;
    SolverOptions opt;
    opt.num_trees = 4;
    opt.seed = seed;
    const HgpResult r = solve_hgp(g, hier(), opt);
    EXPECT_LE(r.cost, 3.0 * exact.cost + 1e-9) << "seed " << seed;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(Solver, DeterministicInSeed) {
  const Graph g = workload(8);
  SolverOptions opt;
  opt.num_trees = 2;
  opt.seed = 42;
  const HgpResult a = solve_hgp(g, hier(), opt);
  const HgpResult b = solve_hgp(g, hier(), opt);
  EXPECT_EQ(a.placement.leaf_of, b.placement.leaf_of);
  EXPECT_EQ(a.cost, b.cost);
}

TEST(Solver, ParallelMatchesSequential) {
  // The pool only spreads the forest's trees across workers.  A one-tree
  // forest runs its tree inline on the caller, so the pool must change
  // nothing there either, down to the DP workspace it reserves.
  struct Input {
    Graph g;
    int num_trees;
    DemandUnits units;
  };
  const Input inputs[] = {{workload(9), 3, 0}, {workload(12, 96), 1, 4}};
  ThreadPool pool(2);
  for (const Input& in : inputs) {
    SCOPED_TRACE(::testing::Message() << "num_trees=" << in.num_trees);
    SolverOptions seq;
    seq.num_trees = in.num_trees;
    seq.units_override = in.units;
    seq.seed = 5;
    SolverOptions par = seq;
    par.pool = &pool;
    const HgpResult a = solve_hgp(in.g, hier(), seq);
    const HgpResult b = solve_hgp(in.g, hier(), par);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.placement.leaf_of, b.placement.leaf_of);
    EXPECT_EQ(a.stats.arena_bytes, b.stats.arena_bytes);
  }
}

TEST(Solver, MoreTreesNeverHurt) {
  const Graph g = workload(10, 28);
  SolverOptions one;
  one.num_trees = 1;
  one.seed = 3;
  SolverOptions many;
  many.num_trees = 4;
  many.seed = 3;
  // Tree 0 is identical under both runs (same fork), so min over a superset
  // can only be ≤.
  EXPECT_LE(solve_hgp(g, hier(), many).cost, solve_hgp(g, hier(), one).cost);
}

TEST(Solver, CutterChoiceIsPluggable) {
  const Graph g = workload(11);
  const RandomCutter random_cutter;
  SolverOptions opt;
  opt.num_trees = 2;
  opt.cutter = &random_cutter;
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_GT(r.cost, 0.0);  // random trees still produce a valid solution
}

TEST(Solver, RequiresDemands) {
  const Graph g = gen::grid2d(3, 3);
  EXPECT_THROW(solve_hgp(g, hier(), {}), CheckError);
}

TEST(Solver, GeneralCostMultipliersSupported) {
  // Non-normalized cm: the solver evaluates Eq. 1 under the original
  // multipliers (Lemma 1 handling is internal to the DP cost structure).
  const Graph g = workload(12);
  const Hierarchy h({2, 2}, {5.0, 2.0, 1.0});
  SolverOptions opt;
  opt.num_trees = 2;
  const HgpResult r = solve_hgp(g, h, opt);
  EXPECT_GE(r.cost, trivial_cost_lower_bound(g, h) - 1e-9);
}

TEST(Solver, TinyInstancesEndToEnd) {
  // Degenerate sizes through the whole pipeline.
  const Hierarchy h = hier();
  {
    GraphBuilder b(1);
    b.set_demand(0, 0.7);
    const HgpResult r = solve_hgp(b.build(), h, {});
    EXPECT_EQ(r.placement.leaf_of.size(), 1u);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
  }
  {
    GraphBuilder b(2);
    b.add_edge(0, 1, 3.0);
    b.set_demand(0, 0.9);
    b.set_demand(1, 0.9);
    SolverOptions opt;
    opt.units_override = 10;
    const HgpResult r = solve_hgp(b.build(), h, opt);
    // Two heavy tasks cannot share a leaf: they sit apart, ideally on
    // sibling leaves (LCA level 1, cm = 1): cost 3.
    EXPECT_NE(r.placement[0], r.placement[1]);
    EXPECT_NEAR(r.cost, 3.0, 1e-9);
  }
}

TEST(Solver, DisconnectedWorkload) {
  GraphBuilder b(6);
  b.add_edge(0, 1, 5.0);
  b.add_edge(2, 3, 5.0);
  b.add_edge(4, 5, 5.0);
  for (Vertex v = 0; v < 6; ++v) b.set_demand(v, 0.4);
  SolverOptions opt;
  opt.units_override = 10;
  const HgpResult r = solve_hgp(b.build(), hier(), opt);
  // Each pair fits one leaf: zero communication cost is reachable.
  EXPECT_NEAR(r.cost, 0.0, 1e-9);
  EXPECT_EQ(r.placement[0], r.placement[1]);
  EXPECT_EQ(r.placement[2], r.placement[3]);
  EXPECT_EQ(r.placement[4], r.placement[5]);
}

TEST(Solver, RoundedDemandOverflowFailsBeforeAnyTreeIsBuilt) {
  // Five tasks of 0.9 against a hierarchy of 4 leaves: the rounded total
  // exceeds the root capacity whatever the trees, so no tree is built.
  // The outcome is the one every tree's DP reported before: kInfeasible
  // with the DP's message, then the fallback chain's placement.
  GraphBuilder b(5);
  for (Vertex v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1, 1.0);
  for (Vertex v = 0; v < 5; ++v) b.set_demand(v, 0.9);
  const Graph g = b.build();
  SolverOptions opt;
  opt.num_trees = 3;
  opt.units_override = 10;
  const auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t built0 = reg.counter_value("decomp.trees_built");
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(reg.counter_value("decomp.trees_built"), built0);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.method, SolveMethod::kMultilevel);
  EXPECT_EQ(r.status.code, StatusCode::kInfeasible);
  EXPECT_EQ(r.status.message,
            "every decomposition tree reported an infeasible instance: "
            "instance infeasible: total rounded demand 45 units exceeds "
            "hierarchy capacity 40 units");
  EXPECT_EQ(r.placement.leaf_of.size(), 5u);
  ASSERT_EQ(r.attempts.size(), 3u);
  for (const TreeAttempt& a : r.attempts) {
    EXPECT_EQ(a.status, StatusCode::kInfeasible);
    EXPECT_EQ(a.build_ms, 0.0);
  }
  opt.fallback = FallbackPolicy::kNone;
  try {
    solve_hgp(g, hier(), opt);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInfeasible);
  }
  EXPECT_EQ(reg.counter_value("decomp.trees_built"), built0);
}

}  // namespace
}  // namespace hgp
