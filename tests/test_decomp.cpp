#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "decomp/builder.hpp"
#include "decomp/frt.hpp"
#include "decomp/quality.hpp"
#include "fm_reference.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/forest_cache.hpp"
#include "runtime/solver.hpp"

namespace hgp {
namespace {

Graph demo_graph(std::uint64_t seed, Vertex n = 24) {
  Rng rng(seed);
  Graph g = gen::planted_partition(n, 3, 0.7, 0.08, rng,
                                   gen::WeightRange{1.0, 5.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 0.1);
  return g;
}

TEST(DecompBuilder, LeafBijection) {
  const Graph g = demo_graph(1);
  Rng rng(2);
  const SpectralCutter cutter;
  const DecompTree dt = build_decomp_tree(g, rng, cutter);
  EXPECT_EQ(dt.tree().leaf_count(), g.vertex_count());
  std::set<Vertex> seen;
  for (Vertex t : dt.tree().leaves()) {
    seen.insert(dt.vertex_of_leaf(t));
    EXPECT_EQ(dt.leaf_of_vertex(dt.vertex_of_leaf(t)), t);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(g.vertex_count()));
}

TEST(DecompBuilder, EdgeWeightsAreSubtreeBoundaries) {
  // The defining property: w_T(parent, c) = δ_G(leaves under c).
  const Graph g = demo_graph(3);
  Rng rng(4);
  const FmCutter cutter;
  const DecompTree dt = build_decomp_tree(g, rng, cutter);
  const Tree& t = dt.tree();
  for (Vertex c = 0; c < t.node_count(); ++c) {
    if (c == t.root()) continue;
    // Gather leaves under c.
    std::vector<char> in_g(static_cast<std::size_t>(g.vertex_count()), 0);
    std::vector<Vertex> stack{c};
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      if (t.is_leaf(v)) {
        in_g[static_cast<std::size_t>(dt.vertex_of_leaf(v))] = 1;
      }
      for (Vertex ch : t.children(v)) stack.push_back(ch);
    }
    EXPECT_NEAR(t.parent_weight(c), g.boundary_weight(in_g), 1e-9);
  }
}

TEST(DecompBuilder, DemandsTravelToLeaves) {
  const Graph g = demo_graph(5);
  Rng rng(6);
  const SpectralCutter cutter;
  const DecompTree dt = build_decomp_tree(g, rng, cutter);
  ASSERT_TRUE(dt.tree().has_demands());
  for (Vertex t : dt.tree().leaves()) {
    EXPECT_DOUBLE_EQ(dt.tree().demand(t), g.demand(dt.vertex_of_leaf(t)));
  }
}

TEST(DecompBuilder, HandlesDisconnectedGraphs) {
  GraphBuilder b(6);
  b.add_edge(0, 1, 1.0);
  b.add_edge(2, 3, 1.0);
  b.add_edge(4, 5, 1.0);
  for (Vertex v = 0; v < 6; ++v) b.set_demand(v, 0.3);
  const Graph g = b.build();
  Rng rng(7);
  const SpectralCutter cutter;
  const DecompTree dt = build_decomp_tree(g, rng, cutter);
  EXPECT_EQ(dt.tree().leaf_count(), 6);
  // Cross-component separations are free.
  std::vector<char> in_set(static_cast<std::size_t>(dt.tree().node_count()),
                           0);
  for (Vertex t : dt.tree().leaves()) {
    const Vertex v = dt.vertex_of_leaf(t);
    if (v <= 1) in_set[static_cast<std::size_t>(t)] = 1;
  }
  EXPECT_DOUBLE_EQ(dt.tree().leaf_separator(in_set).weight, 0.0);
}

TEST(DecompBuilder, SingleVertexGraph) {
  GraphBuilder b(1);
  b.set_demand(0, 0.5);
  const Graph g = b.build();
  Rng rng(8);
  const SpectralCutter cutter;
  const DecompTree dt = build_decomp_tree(g, rng, cutter);
  EXPECT_EQ(dt.tree().node_count(), 1);
  EXPECT_EQ(dt.vertex_of_leaf(dt.tree().root()), 0);
}

TEST(DecompBuilder, DeterministicInSeed) {
  const Graph g = demo_graph(9);
  const FmCutter cutter;
  Rng r1(10), r2(10);
  const DecompTree a = build_decomp_tree(g, r1, cutter);
  const DecompTree b = build_decomp_tree(g, r2, cutter);
  ASSERT_EQ(a.tree().node_count(), b.tree().node_count());
  for (Vertex v = 0; v < a.tree().node_count(); ++v) {
    EXPECT_EQ(a.tree().parent(v), b.tree().parent(v));
  }
}

class CutterKinds : public ::testing::TestWithParam<int> {
 protected:
  const Cutter& cutter() const {
    static const SpectralCutter spectral;
    static const RandomCutter random;
    static const FmCutter fm;
    switch (GetParam()) {
      case 0: return spectral;
      case 1: return random;
      default: return fm;
    }
  }
};

TEST_P(CutterKinds, Proposition1HoldsForRandomSubsets) {
  // w_T(CUT_T(P)) ≥ w(δ_G(m(P))) — guaranteed by construction via cut
  // sub-additivity; verified on sampled subsets.
  const Graph g = demo_graph(11, 30);
  Rng rng(12);
  const DecompTree dt = build_decomp_tree(g, rng, cutter());
  const CutQuality q = measure_cut_quality(g, dt, 60, rng);
  ASSERT_GT(q.samples, 0u);
  EXPECT_GE(q.min_ratio, 1.0 - 1e-9)
      << "Proposition 1 violated by " << cutter().name();
}

TEST_P(CutterKinds, SubtreeSetsAreExact) {
  // For a subtree's own leaf set the tree cut is the parent edge = exact
  // boundary, so the ratio is exactly 1 on those samples.
  const Graph g = demo_graph(13, 20);
  Rng rng(14);
  const DecompTree dt = build_decomp_tree(g, rng, cutter());
  const Tree& t = dt.tree();
  for (Vertex c = 0; c < t.node_count(); ++c) {
    if (c == t.root() || t.is_leaf(c)) continue;
    std::vector<char> in_set(static_cast<std::size_t>(t.node_count()), 0);
    std::vector<Vertex> stack{c};
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      if (t.is_leaf(v)) in_set[static_cast<std::size_t>(v)] = 1;
      for (Vertex ch : t.children(v)) stack.push_back(ch);
    }
    const double r = cut_ratio(g, dt, in_set);
    if (r > 0) {
      EXPECT_NEAR(r, 1.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCutters, CutterKinds, ::testing::Values(0, 1, 2));

TEST(DecompForest, CountAndIndependence) {
  const Graph g = demo_graph(15);
  const FmCutter cutter;
  const auto forest = build_decomposition_forest(g, 3, 99, cutter);
  ASSERT_EQ(forest.size(), 3u);
  // Trees from different forks should (generically) differ.
  bool any_diff = false;
  for (Vertex v = 0;
       v < std::min(forest[0].tree().node_count(),
                    forest[1].tree().node_count());
       ++v) {
    if (forest[0].tree().parent(v) != forest[1].tree().parent(v)) {
      any_diff = true;
      break;
    }
  }
  any_diff |= forest[0].tree().node_count() != forest[1].tree().node_count();
  EXPECT_TRUE(any_diff);
}

void expect_same_tree(const DecompTree& a, const DecompTree& b) {
  ASSERT_EQ(a.tree().node_count(), b.tree().node_count());
  for (Vertex v = 0; v < a.tree().node_count(); ++v) {
    EXPECT_EQ(a.tree().parent(v), b.tree().parent(v));
    EXPECT_EQ(a.tree().parent_weight(v), b.tree().parent_weight(v));
  }
  ASSERT_EQ(a.graph_vertex_count(), b.graph_vertex_count());
  for (Vertex v = 0; v < a.graph_vertex_count(); ++v) {
    EXPECT_EQ(a.leaf_of_vertex(v), b.leaf_of_vertex(v));
  }
}

TEST(DecompForest, ParallelBuildMatchesSequential) {
  // solve_hgp builds each tree inside its own attempt, concurrently on its
  // pool, and caches the forest it built whole: tree by tree, that forest
  // must be the one build_decomposition_forest builds in sequence.
  if (!ForestCache::global().enabled()) GTEST_SKIP() << "forest cache off";
  const Graph g = demo_graph(16);
  const SpectralCutter cutter;
  ThreadPool pool(2);
  SolverOptions opt;
  opt.num_trees = 3;
  opt.seed = 7;
  opt.cutter = &cutter;
  opt.pool = &pool;
  ForestCache::global().clear();
  const HgpResult r = solve_hgp(g, Hierarchy({2, 2}, {4.0, 1.0, 0.0}), opt);
  EXPECT_FALSE(r.telemetry.forest_cache_hit);
  const CachedForest par = ForestCache::global().find(ForestCacheKey{
      graph_fingerprint(g), opt.seed, opt.num_trees, cutter.name()});
  ASSERT_NE(par, nullptr);
  const auto seq = build_decomposition_forest(g, 3, 7, cutter);
  ASSERT_EQ(seq.size(), par->size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_tree(seq[i], (*par)[i]);
  }
  ForestCache::global().clear();
}

TEST(DecompForest, TreeRngRebuildsEachForestTree) {
  // A shard worker, and each solver tree attempt, builds only its own tree,
  // so tree i built alone from the last of forest_tree_rngs(seed, i + 1)
  // must be tree i of the forest, and the stream must be the one forests
  // have always used: the i-th of successive forks of Rng(seed).
  const Graph g = demo_graph(18);
  const FmCutter cutter;
  constexpr int kTrees = 5;
  constexpr std::uint64_t kSeed = 23;
  const auto forest = build_decomposition_forest(g, kTrees, kSeed, cutter);
  Rng parent(kSeed);
  for (int i = 0; i < kTrees; ++i) {
    SCOPED_TRACE(i);
    Rng alone = forest_tree_rngs(kSeed, i + 1).back();
    Rng forked = parent.fork(static_cast<std::uint64_t>(i));
    EXPECT_EQ(Rng(alone).next(), forked.next());
    expect_same_tree(build_decomp_tree(g, alone, cutter),
                     forest[static_cast<std::size_t>(i)]);
  }
}

TEST(DecompQuality, SpectralBeatsRandomOnClusteredGraphs) {
  const Graph g = demo_graph(17, 36);
  Rng rng(18);
  const SpectralCutter spectral;
  const RandomCutter random;
  Rng r1 = rng.fork(1), r2 = rng.fork(2), r3 = rng.fork(3);
  const DecompTree ds = build_decomp_tree(g, r1, spectral);
  const DecompTree dr = build_decomp_tree(g, r2, random);
  const CutQuality qs = measure_cut_quality(g, ds, 80, r3);
  const CutQuality qr = measure_cut_quality(g, dr, 80, r3);
  EXPECT_LT(qs.mean_ratio, qr.mean_ratio)
      << "spectral trees should approximate cuts better than random trees";
}

TEST(FrtTree, LeafBijectionAndDemands) {
  const Graph g = demo_graph(31);
  Rng rng(32);
  const DecompTree dt = build_frt_tree(g, rng);
  EXPECT_EQ(dt.tree().leaf_count(), g.vertex_count());
  std::set<Vertex> seen;
  for (Vertex t : dt.tree().leaves()) {
    seen.insert(dt.vertex_of_leaf(t));
    EXPECT_DOUBLE_EQ(dt.tree().demand(t), g.demand(dt.vertex_of_leaf(t)));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(g.vertex_count()));
}

TEST(FrtTree, Proposition1StillHolds) {
  // Edge weights are recomputed as exact boundaries, so the cut domination
  // property is preserved regardless of the metric split structure.
  const Graph g = demo_graph(33, 28);
  Rng rng(34);
  const DecompTree dt = build_frt_tree(g, rng);
  const CutQuality q = measure_cut_quality(g, dt, 60, rng);
  ASSERT_GT(q.samples, 0u);
  EXPECT_GE(q.min_ratio, 1.0 - 1e-9);
}

TEST(FrtTree, DeterministicInSeed) {
  const Graph g = demo_graph(35);
  Rng r1(36), r2(36);
  const DecompTree a = build_frt_tree(g, r1);
  const DecompTree b = build_frt_tree(g, r2);
  ASSERT_EQ(a.tree().node_count(), b.tree().node_count());
  for (Vertex v = 0; v < a.tree().node_count(); ++v) {
    EXPECT_EQ(a.tree().parent(v), b.tree().parent(v));
  }
}

TEST(FrtTree, HandlesDisconnectedGraphs) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 5.0);
  b.add_edge(2, 3, 5.0);
  for (Vertex v = 0; v < 4; ++v) b.set_demand(v, 0.2);
  Rng rng(37);
  const DecompTree dt = build_frt_tree(b.build(), rng);
  EXPECT_EQ(dt.tree().leaf_count(), 4);
}

TEST(FrtTree, GroupsHeavyCommunicators) {
  // Two heavy pairs joined by a light bridge: the 1/w metric puts each
  // pair at tiny distance, so some subtree contains exactly one pair.
  GraphBuilder b(4);
  b.add_edge(0, 1, 100.0);
  b.add_edge(2, 3, 100.0);
  b.add_edge(1, 2, 0.1);
  for (Vertex v = 0; v < 4; ++v) b.set_demand(v, 0.2);
  const Graph g = b.build();
  Rng rng(38);
  const DecompTree dt = build_frt_tree(g, rng);
  const Tree& t = dt.tree();
  // Find the pair {0,1} as the leaf set of some internal node.
  bool found = false;
  for (Vertex v = 0; v < t.node_count(); ++v) {
    if (t.is_leaf(v) || v == t.root()) continue;
    std::vector<Vertex> leaves;
    std::vector<Vertex> stack{v};
    while (!stack.empty()) {
      const Vertex x = stack.back();
      stack.pop_back();
      if (t.is_leaf(x)) leaves.push_back(dt.vertex_of_leaf(x));
      for (Vertex c : t.children(x)) stack.push_back(c);
    }
    std::sort(leaves.begin(), leaves.end());
    if (leaves == std::vector<Vertex>{0, 1} ||
        leaves == std::vector<Vertex>{2, 3}) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DecompForest, BoundaryWeightsMatchFullScan) {
  // Every tree edge weight is δ_G of the subtree's vertex set; the
  // part-local boundary must have the full edge scan's bits, for the
  // recursive-cut builder and the FRT builder alike.
  Rng rng(404);
  const FmCutter fm;
  const SpectralCutter spectral;
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE(round);
    const auto n = static_cast<Vertex>(2 + rng.next_below(60));
    const Graph g = testref::random_instance(rng, n, round % 2 == 0,
                                             round % 3 == 1);
    std::vector<char> scratch(static_cast<std::size_t>(n), 0);
    for (int k = 0; k < 8; ++k) {
      std::vector<Vertex> set;
      for (Vertex v = 0; v < n; ++v) {
        if (rng.next_bool(0.4)) set.push_back(v);
      }
      if (!set.empty() && k % 2 == 1) set.push_back(set.front());
      rng.shuffle(set);
      EXPECT_TRUE(testref::same_bits(g.boundary_weight(set, scratch),
                                     testref::boundary_weight(g, set)));
      EXPECT_EQ(std::count(scratch.begin(), scratch.end(), 1), 0);
    }
    Rng r1(static_cast<std::uint64_t>(round)), r2 = r1, r3 = r1;
    for (const DecompTree& dt :
         {build_decomp_tree(g, r1, fm), build_decomp_tree(g, r2, spectral),
          build_frt_tree(g, r3)}) {
      const Tree& t = dt.tree();
      for (Vertex c = 0; c < t.node_count(); ++c) {
        if (c == t.root()) continue;
        std::vector<Vertex> below;
        std::vector<Vertex> stack{c};
        while (!stack.empty()) {
          const Vertex v = stack.back();
          stack.pop_back();
          if (t.is_leaf(v)) below.push_back(dt.vertex_of_leaf(v));
          for (Vertex ch : t.children(v)) stack.push_back(ch);
        }
        EXPECT_TRUE(testref::same_bits(t.parent_weight(c),
                                       testref::boundary_weight(g, below)))
            << "node " << c;
      }
    }
  }
}

}  // namespace
}  // namespace hgp
