// The dummy-leaf reduction (§3): partitioning all nodes of a tree via
// leaves-only HGPT on the modified tree.
#include <gtest/gtest.h>

#include "baseline/exact.hpp"
#include "core/all_nodes.hpp"
#include "graph/generators.hpp"

namespace hgp {
namespace {

Tree chain4() {
  // 0 - 1 - 2 - 3 rooted at 0; only node 3 is a leaf.
  return Tree::from_parents({-1, 0, 1, 2}, {0, 5.0, 1.0, 5.0});
}

TEST(AllNodes, ReductionShape) {
  const Tree t = chain4();
  const auto red = reduce_all_nodes(t, {0.5, 0.5, 0.5, 0.5});
  // 3 internal nodes gain dummies.
  EXPECT_EQ(red.tree.node_count(), 7);
  EXPECT_EQ(red.tree.leaf_count(), 4);
  for (Vertex v = 0; v < 4; ++v) {
    const Vertex leaf = red.job_leaf[static_cast<std::size_t>(v)];
    EXPECT_TRUE(red.tree.is_leaf(leaf));
    EXPECT_DOUBLE_EQ(red.tree.demand(leaf), 0.5);
    if (!t.is_leaf(v)) {
      EXPECT_EQ(red.tree.parent(leaf), v);
      EXPECT_TRUE(red.tree.parent_edge_infinite(leaf))
          << "dummy edges must be uncuttable";
    }
  }
}

TEST(AllNodes, DummyTravelsWithItsNode) {
  const Tree t = chain4();
  const auto red = reduce_all_nodes(t, {0.5, 0.5, 0.5, 0.5});
  // Separating {dummy of node 0} pulls node 0 along: the uncuttable dummy
  // edge forces the separator to cut the real edge (0,1) instead.
  std::vector<char> s(static_cast<std::size_t>(red.tree.node_count()), 0);
  const Vertex dummy0 = red.job_leaf[0];
  s[static_cast<std::size_t>(dummy0)] = 1;
  const auto sep = red.tree.leaf_separator(s);
  ASSERT_TRUE(sep.feasible);
  EXPECT_DOUBLE_EQ(sep.weight, 5.0);  // edge (0,1), not the dummy edge
  EXPECT_EQ(sep.s_side[static_cast<std::size_t>(dummy0)], sep.s_side[0])
      << "node 0 must stay on its dummy's side";
}

TEST(AllNodes, CostEqualsDirectLcaCostOnTheOriginalTree) {
  // For an all-nodes assignment, the reduced tree's HGPT objective equals
  // Σ_{edges of T} cm(LCA(hosts)) · w — the Lemma-2 identity carried
  // through the reduction.
  Rng rng(3);
  for (int round = 0; round < 5; ++round) {
    const Graph g = gen::random_tree(10, rng, gen::WeightRange{1.0, 9.0});
    const Tree t = Tree::from_graph(g, 0);
    std::vector<double> demand(static_cast<std::size_t>(t.node_count()));
    for (auto& d : demand) d = rng.next_double(0.2, 0.45);
    const Hierarchy h({2, 2}, {3.0, 1.0, 0.0});
    TreeDpOptions opt;
    opt.units_override = 8;
    const AllNodesSolution sol = solve_hgpt_all_nodes(t, demand, h, opt);
    double direct = 0;
    for (Vertex v = 0; v < t.node_count(); ++v) {
      if (v == t.root()) continue;
      direct += h.cm(h.lca_level(
                    sol.leaf_of[static_cast<std::size_t>(v)],
                    sol.leaf_of[static_cast<std::size_t>(t.parent(v))])) *
                t.parent_weight(v);
    }
    EXPECT_NEAR(sol.cost, direct, 1e-9) << "round " << round;
  }
}

TEST(AllNodes, MatchesExactOnTinyChain) {
  const Tree t = chain4();
  const std::vector<double> demand{0.4, 0.4, 0.4, 0.4};
  const Hierarchy h = Hierarchy::kbgp(2);
  TreeDpOptions opt;
  opt.units_override = 10;
  const AllNodesSolution sol = solve_hgpt_all_nodes(t, demand, h, opt);
  // Optimal: split at the cheap middle edge (1,2): {0,1} | {2,3}.
  // Each side's separator is that edge: cost 2 · 1.0 / 2 = 1.
  EXPECT_NEAR(sol.cost, 1.0, 1e-9);
  EXPECT_EQ(sol.leaf_of[0], sol.leaf_of[1]);
  EXPECT_EQ(sol.leaf_of[2], sol.leaf_of[3]);
  EXPECT_NE(sol.leaf_of[0], sol.leaf_of[2]);

  // Exact search over the reduced tree agrees.
  const auto red = reduce_all_nodes(t, demand);
  const ExactTreeResult exact = solve_exact_hgpt(red.tree, h);
  ASSERT_TRUE(exact.feasible);
  EXPECT_NEAR(exact.cost, 1.0, 1e-9);
}

TEST(AllNodes, ViolationBoundStillHolds) {
  Rng rng(7);
  const Graph g = gen::random_tree(14, rng, gen::WeightRange{1.0, 6.0});
  const Tree t = Tree::from_graph(g, 0);
  std::vector<double> demand(static_cast<std::size_t>(t.node_count()));
  for (auto& d : demand) d = rng.next_double(0.1, 0.3);
  const Hierarchy h({2, 2}, {3.0, 1.0, 0.0});
  TreeDpOptions opt;
  opt.epsilon = 0.5;
  const AllNodesSolution sol = solve_hgpt_all_nodes(t, demand, h, opt);
  for (int j = 0; j <= h.height(); ++j) {
    EXPECT_LE(sol.violation[static_cast<std::size_t>(j)],
              (1 + 0.5) * (1 + j) + 1e-9);
  }
}

TEST(AllNodes, RejectsBadDemands) {
  const Tree t = chain4();
  EXPECT_THROW(reduce_all_nodes(t, {0.5, 0.5, 0.5}), CheckError);  // size
  EXPECT_THROW(reduce_all_nodes(t, {0.5, 0.0, 0.5, 0.5}), CheckError);
  EXPECT_THROW(reduce_all_nodes(t, {0.5, 1.5, 0.5, 0.5}), CheckError);
}

}  // namespace
}  // namespace hgp
