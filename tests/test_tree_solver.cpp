#include <gtest/gtest.h>

#include "baseline/exact.hpp"
#include "core/tree_solver.hpp"
#include "graph/generators.hpp"

namespace hgp {
namespace {

Tree random_instance(Vertex n, Rng& rng, double lo = 0.2, double hi = 0.6) {
  const Graph g = gen::random_tree(n, rng, gen::WeightRange{1.0, 9.0});
  Tree t = Tree::from_graph(g, 0);
  std::vector<double> d(t.leaves().size());
  for (auto& x : d) x = rng.next_double(lo, hi);
  t.set_leaf_demands(d);
  return t;
}

TEST(TreeSolver, CostBelowExactOptimum) {
  // Theorem 2: cost is *optimal* (≤ OPT, paying with capacity violation).
  Rng rng(1);
  int compared = 0;
  for (int round = 0; round < 8; ++round) {
    const Tree t = random_instance(8, rng, 0.3, 0.7);
    const Hierarchy h({2, 2}, {3.0, 1.0, 0.0});
    const ExactTreeResult exact = solve_exact_hgpt(t, h);
    if (!exact.feasible) continue;
    TreeDpOptions opt;
    opt.epsilon = 0.25;
    const TreeHgpSolution sol = solve_hgpt(t, h, opt);
    EXPECT_LE(assignment_cost(t, h, sol.assignment), exact.cost + 1e-6) << "round " << round;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(TreeSolver, RelaxedCostIsALowerBoundForAssignmentCost) {
  Rng rng(2);
  const Tree t = random_instance(16, rng);
  const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});
  const TreeHgpSolution sol = solve_hgpt(t, h, {});
  EXPECT_LE(assignment_cost(t, h, sol.assignment), sol.relaxed_cost + 1e-9);
}

class TreeSolverSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(TreeSolverSweep, ViolationBoundHoldsAcrossHeightsAndSeeds) {
  const int height = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  const double eps = 0.5;
  std::vector<double> cm;
  for (int j = height; j >= 0; --j) cm.push_back(static_cast<double>(j) * 2);
  const Hierarchy h = Hierarchy::uniform(height, 2, cm);
  Rng rng(seed);
  const Tree t = random_instance(12, rng, 0.2, 0.5);
  TreeDpOptions opt;
  opt.epsilon = eps;
  const TreeHgpSolution sol = solve_hgpt(t, h, opt);
  for (int j = 0; j <= height; ++j) {
    EXPECT_LE(sol.violation[static_cast<std::size_t>(j)],
              (1.0 + eps) * (1.0 + j) + 1e-9)
        << "level " << j;
  }
  EXPECT_LE(sol.max_violation(), (1.0 + eps) * (1.0 + height) + 1e-9);
  EXPECT_LE(assignment_cost(t, h, sol.assignment), sol.relaxed_cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    HeightsAndSeeds, TreeSolverSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(11ull, 22ull, 33ull)));

TEST(TreeSolver, EpsilonTradesAccuracyForSpeed) {
  Rng rng(3);
  const Tree t = random_instance(18, rng, 0.1, 0.3);
  const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});
  TreeDpOptions coarse;
  coarse.units_override = 4;
  TreeDpOptions fine;
  fine.units_override = 24;
  const TreeHgpSolution sc = solve_hgpt(t, h, coarse);
  const TreeHgpSolution sf = solve_hgpt(t, h, fine);
  EXPECT_LT(sc.stats.signature_count, sf.stats.signature_count);
  EXPECT_LT(sc.stats.merge_operations, sf.stats.merge_operations);
}

TEST(TreeSolver, StarTreeHeavyEdgesStayTogether) {
  // Star with two heavy-edge leaves and two light ones; capacity forces a
  // 2+2 split — the heavy pair must share a leaf.
  Tree t = Tree::from_parents({-1, 0, 0, 0, 0}, {0, 100.0, 100.0, 1.0, 1.0});
  t.set_leaf_demands(std::vector<double>{0.5, 0.5, 0.5, 0.5});
  const Hierarchy h = Hierarchy::kbgp(2);
  TreeDpOptions opt;
  opt.units_override = 2;
  const TreeHgpSolution sol = solve_hgpt(t, h, opt);
  EXPECT_EQ(sol.assignment.of(1), sol.assignment.of(2))
      << "heavy communicators split across leaves";
  // Definition cost: separating {3,4} from {1,2} cuts edges of weight 1+1;
  // both sets pay their separator: (2+2)/2 · (1-0) = 2.
  EXPECT_NEAR(assignment_cost(t, h, sol.assignment), 2.0, 1e-9);
}

}  // namespace
}  // namespace hgp
