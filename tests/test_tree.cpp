#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "graph/tree.hpp"

namespace hgp {
namespace {

/// A small caterpillar: root 0 with children {1, 2}; node 1 has leaf
/// children {3, 4}; node 2 has leaf child {5}.
Tree caterpillar() {
  return Tree::from_parents({-1, 0, 0, 1, 1, 2},
                            {0, 2.0, 3.0, 1.0, 4.0, 5.0});
}

TEST(Tree, BasicTopology) {
  const Tree t = caterpillar();
  EXPECT_EQ(t.node_count(), 6);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.parent(3), 1);
  EXPECT_EQ(t.depth(5), 2);
  EXPECT_TRUE(t.is_leaf(4));
  EXPECT_FALSE(t.is_leaf(1));
  EXPECT_EQ(t.leaf_count(), 3);
  EXPECT_EQ(t.leaves(), (std::vector<Vertex>{3, 4, 5}));
}

TEST(Tree, PreorderVisitsParentsFirst) {
  const Tree t = caterpillar();
  std::vector<int> pos(6, -1);
  for (std::size_t i = 0; i < t.preorder().size(); ++i) {
    pos[static_cast<std::size_t>(t.preorder()[i])] = static_cast<int>(i);
  }
  for (Vertex v = 1; v < 6; ++v) {
    EXPECT_LT(pos[static_cast<std::size_t>(t.parent(v))],
              pos[static_cast<std::size_t>(v)]);
  }
}

TEST(Tree, MultipleRootsRejected) {
  EXPECT_THROW(Tree::from_parents({-1, -1}, {0, 0}), CheckError);
}

TEST(Tree, CycleRejected) {
  EXPECT_THROW(Tree::from_parents({-1, 2, 1}, {0, 1, 1}), CheckError);
}

TEST(Tree, LcaQueries) {
  const Tree t = caterpillar();
  EXPECT_EQ(t.lca(3, 4), 1);
  EXPECT_EQ(t.lca(3, 5), 0);
  EXPECT_EQ(t.lca(4, 4), 4);
  EXPECT_EQ(t.lca(1, 3), 1);
  EXPECT_EQ(t.lca(5, 2), 2);
}

TEST(Tree, LcaOnRandomTreesMatchesNaive) {
  Rng rng(31);
  const Graph g = gen::random_tree(60, rng);
  const Tree t = Tree::from_graph(g, 0);
  auto naive_lca = [&](Vertex u, Vertex v) {
    while (u != v) {
      if (t.depth(u) >= t.depth(v)) u = t.parent(u);
      else v = t.parent(v);
    }
    return u;
  };
  for (int q = 0; q < 200; ++q) {
    const auto u = narrow<Vertex>(rng.next_below(60));
    const auto v = narrow<Vertex>(rng.next_below(60));
    EXPECT_EQ(t.lca(u, v), naive_lca(u, v));
  }
}

TEST(Tree, FromGraphRejectsNonTrees) {
  EXPECT_THROW(Tree::from_graph(gen::ring(4), 0), CheckError);
}

TEST(Tree, FromGraphCarriesDemandsToLeaves) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0);
  b.add_edge(0, 2, 1.0);
  for (Vertex v = 0; v < 3; ++v) b.set_demand(v, 0.5);
  const Tree t = Tree::from_graph(b.build(), 0);
  ASSERT_TRUE(t.has_demands());
  EXPECT_DOUBLE_EQ(t.demand(1), 0.5);
  EXPECT_DOUBLE_EQ(t.demand(0), 0.0);  // root is internal here
}

TEST(Tree, LeafDemandSetters) {
  Tree t = caterpillar();
  t.set_leaf_demands(std::vector<double>{0.1, 0.2, 0.3});
  EXPECT_DOUBLE_EQ(t.demand(3), 0.1);
  EXPECT_DOUBLE_EQ(t.demand(5), 0.3);
  EXPECT_NEAR(t.total_demand(), 0.6, 1e-12);
  EXPECT_THROW(t.set_demands({1, 0, 0, 0, 0, 0}), CheckError);  // internal ≠ 0
}

TEST(LeafSeparator, SingleLeafCutsItsLightestBoundary) {
  const Tree t = caterpillar();
  // Separate {3}: cheapest is cutting edge (1,3) with weight 1.
  std::vector<char> s(6, 0);
  s[3] = 1;
  const auto sep = t.leaf_separator(s);
  EXPECT_TRUE(sep.feasible);
  EXPECT_DOUBLE_EQ(sep.weight, 1.0);
  EXPECT_TRUE(sep.s_side[3]);
  EXPECT_FALSE(sep.s_side[4]);
}

TEST(LeafSeparator, GroupNearCommonAncestorUsesUpperEdge) {
  const Tree t = caterpillar();
  // Separate {3,4}: cutting edge (0,1) costs 2 < cutting both leaf edges (5).
  std::vector<char> s(6, 0);
  s[3] = s[4] = 1;
  const auto sep = t.leaf_separator(s);
  EXPECT_DOUBLE_EQ(sep.weight, 2.0);
  EXPECT_TRUE(sep.s_side[1]);
  EXPECT_FALSE(sep.s_side[0]);
}

TEST(LeafSeparator, EmptySetAndFullSetCostZero) {
  const Tree t = caterpillar();
  EXPECT_DOUBLE_EQ(t.leaf_separator(std::vector<char>(6, 0)).weight, 0.0);
  std::vector<char> all(6, 0);
  all[3] = all[4] = all[5] = 1;
  EXPECT_DOUBLE_EQ(t.leaf_separator(all).weight, 0.0);
}

TEST(LeafSeparator, InfiniteEdgeMakesSeparationInfeasible) {
  // 0 - 1(∞) and 0 - 2; separating leaf 1 from leaf 2 must cut edge (0,1)
  // or (0,2); (0,1) is uncuttable so the separator uses (0,2).
  Tree t = Tree::from_parents({-1, 0, 0}, {0, 7.0, 3.0}, {0, 1, 0});
  std::vector<char> s(3, 0);
  s[1] = 1;
  const auto sep = t.leaf_separator(s);
  EXPECT_TRUE(sep.feasible);
  EXPECT_DOUBLE_EQ(sep.weight, 3.0);

  // Both edges uncuttable ⇒ infeasible.
  Tree t2 = Tree::from_parents({-1, 0, 0}, {0, 7.0, 3.0}, {0, 1, 1});
  const auto sep2 = t2.leaf_separator(s);
  EXPECT_FALSE(sep2.feasible);
  EXPECT_TRUE(std::isinf(sep2.weight));
}

TEST(LeafSeparator, TieBreakMinimizesSSideNodes) {
  // Star: root 0 with leaves 1,2,3, all weight 1.  Separating {1} can cut
  // (0,1) [1 node on S side] or (0,2)+(0,3) — heavier.  Weight decides here,
  // but for equal-weight alternatives prefer fewer S-side nodes: make
  // cutting (0,1) and cutting {(0,2),(0,3)} both cost 2.
  Tree t = Tree::from_parents({-1, 0, 0, 0}, {0, 2.0, 1.0, 1.0});
  std::vector<char> s(4, 0);
  s[1] = 1;
  const auto sep = t.leaf_separator(s);
  EXPECT_DOUBLE_EQ(sep.weight, 2.0);
  int ones = 0;
  for (char c : sep.s_side) ones += c;
  EXPECT_EQ(ones, 1);  // only leaf 1, not {0,1} or more
}

TEST(LeafSeparator, TieBreakPrefersAConnectedSSide) {
  // Root 0 with children 1 and leaf 2; node 1 has leaves 3 and 4.
  // Separating {2,3} costs 3 either by cutting (0,2)+(1,3) — S side {2,3},
  // two components — or by cutting (1,4) — S side {0,1,2,3}, connected.
  // Fewer components wins over fewer nodes.
  const Tree t =
      Tree::from_parents({-1, 0, 0, 1, 1}, {0, 5.0, 1.0, 2.0, 3.0});
  std::vector<char> s(5, 0);
  s[2] = s[3] = 1;
  const auto sep = t.leaf_separator(s);
  EXPECT_DOUBLE_EQ(sep.weight, 3.0);
  EXPECT_EQ(sep.s_side, (std::vector<char>{1, 1, 1, 1, 0}));
}

TEST(LeafSeparator, WeightMatchesLabelCut) {
  Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    const Graph g = gen::random_tree(40, rng, gen::WeightRange{1.0, 9.0});
    const Tree t = Tree::from_graph(g, 0);
    std::vector<char> s(40, 0);
    for (Vertex leaf : t.leaves()) s[leaf] = rng.next_bool(0.5) ? 1 : 0;
    const auto sep = t.leaf_separator(s);
    ASSERT_TRUE(sep.feasible);
    // Recompute the cut weight from the labelling.
    Weight w = 0;
    for (Vertex v = 0; v < t.node_count(); ++v) {
      if (v == t.root()) continue;
      if (sep.s_side[static_cast<std::size_t>(v)] !=
          sep.s_side[static_cast<std::size_t>(t.parent(v))]) {
        w += t.parent_weight(v);
      }
    }
    EXPECT_NEAR(w, sep.weight, 1e-9);
    // Labels must respect leaf membership.
    for (Vertex leaf : t.leaves()) {
      EXPECT_EQ(sep.s_side[static_cast<std::size_t>(leaf)] != 0,
                s[static_cast<std::size_t>(leaf)] != 0);
    }
  }
}

TEST(Tree, TotalFiniteEdgeWeightSkipsInfinite) {
  Tree t = Tree::from_parents({-1, 0, 0}, {0, 7.0, 3.0}, {0, 1, 0});
  EXPECT_DOUBLE_EQ(t.total_finite_edge_weight(), 3.0);
}

}  // namespace
}  // namespace hgp
