#include <gtest/gtest.h>

#include <algorithm>

#include "fm_reference.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace hgp {
namespace {

Graph triangle_plus_pendant() {
  // 0-1-2 triangle with weights 1,2,3; pendant 3 hanging off 0 with weight 5.
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  b.add_edge(0, 2, 3.0);
  b.add_edge(0, 3, 5.0);
  return b.build();
}

TEST(Graph, CountsAndTotalWeight) {
  const Graph g = triangle_plus_pendant();
  EXPECT_EQ(g.vertex_count(), 4);
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 11.0);
}

TEST(Graph, AdjacencyIsSymmetric) {
  const Graph g = triangle_plus_pendant();
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    for (const HalfEdge& h : g.neighbors(v)) {
      const auto back = g.neighbors(h.to);
      const bool found = std::any_of(back.begin(), back.end(),
                                     [&](const HalfEdge& r) {
                                       return r.to == v && r.weight == h.weight;
                                     });
      EXPECT_TRUE(found) << "edge " << v << "->" << h.to << " not mirrored";
    }
  }
}

TEST(Graph, WeightedDegree) {
  const Graph g = triangle_plus_pendant();
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 1.0 + 3.0 + 5.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(3), 5.0);
}

TEST(Graph, ParallelEdgesAreMerged) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 0, 2.5);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_DOUBLE_EQ(g.edge(0).weight, 3.5);
}

TEST(Graph, SelfLoopsAreDropped) {
  GraphBuilder b(2);
  b.add_edge(0, 0, 9.0);
  b.add_edge(0, 1, 1.0);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 1.0);
}

TEST(Graph, EdgesAreCanonicalized) {
  GraphBuilder b(3);
  b.add_edge(2, 0, 1.0);
  const Graph g = b.build();
  EXPECT_EQ(g.edge(0).u, 0);
  EXPECT_EQ(g.edge(0).v, 2);
}

TEST(Graph, NegativeWeightRejected) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 1, -1.0), CheckError);
}

TEST(Graph, OutOfRangeVertexRejected) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2, 1.0), CheckError);
}

TEST(Graph, CutWeightOfBipartition) {
  const Graph g = triangle_plus_pendant();
  // {0,3} vs {1,2}: edges 0-1 (1) and 0-2 (3) cross.
  std::vector<char> side{1, 0, 0, 1};
  EXPECT_DOUBLE_EQ(g.cut_weight(side), 4.0);
}

TEST(Graph, CutWeightAllSameSideIsZero) {
  const Graph g = triangle_plus_pendant();
  EXPECT_DOUBLE_EQ(g.cut_weight(std::vector<char>(4, 1)), 0.0);
}

TEST(Graph, ComponentsOnDisconnectedGraph) {
  GraphBuilder b(5);
  b.add_edge(0, 1, 1.0);
  b.add_edge(2, 3, 1.0);
  const Graph g = b.build();
  Vertex k = 0;
  const auto comp = g.components(&k);
  EXPECT_EQ(k, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_FALSE(g.is_connected());
}

TEST(Graph, ConnectedGraphHasOneComponent) {
  EXPECT_TRUE(triangle_plus_pendant().is_connected());
}

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  const Graph g = triangle_plus_pendant();
  const std::vector<Vertex> keep{0, 1, 2};
  const Graph sub = g.induced_subgraph(keep);
  EXPECT_EQ(sub.vertex_count(), 3);
  EXPECT_EQ(sub.edge_count(), 3);  // pendant edge dropped
  EXPECT_DOUBLE_EQ(sub.total_edge_weight(), 6.0);
}

TEST(Graph, InducedSubgraphRemapsIds) {
  const Graph g = triangle_plus_pendant();
  const std::vector<Vertex> keep{3, 0};  // order defines new ids
  const Graph sub = g.induced_subgraph(keep);
  EXPECT_EQ(sub.vertex_count(), 2);
  ASSERT_EQ(sub.edge_count(), 1);
  EXPECT_DOUBLE_EQ(sub.edge(0).weight, 5.0);
}

TEST(Graph, InducedSubgraphCarriesDemands) {
  Graph g = triangle_plus_pendant();
  g.set_demands({0.1, 0.2, 0.3, 0.4});
  const std::vector<Vertex> keep{2, 3};
  const Graph sub = g.induced_subgraph(keep);
  ASSERT_TRUE(sub.has_demands());
  EXPECT_DOUBLE_EQ(sub.demand(0), 0.3);
  EXPECT_DOUBLE_EQ(sub.demand(1), 0.4);
}

TEST(Graph, DemandsValidation) {
  Graph g = triangle_plus_pendant();
  EXPECT_FALSE(g.has_demands());
  EXPECT_THROW(g.set_demands({0.5}), CheckError);  // wrong size
  g.set_demands({0.5, 0.5, 0.5, 0.5});
  EXPECT_DOUBLE_EQ(g.total_demand(), 2.0);
}

TEST(Graph, BuilderDemandRangeEnforced) {
  GraphBuilder b(2);
  EXPECT_THROW(b.set_demand(0, 0.0), CheckError);
  EXPECT_THROW(b.set_demand(0, 1.5), CheckError);
  b.set_demand(0, 1.0);
  b.set_demand(1, 0.25);
  const Graph g = b.build();
  EXPECT_DOUBLE_EQ(g.demand(1), 0.25);
}

TEST(Graph, BuilderPartialDemandsRejected) {
  GraphBuilder b(2);
  b.set_demand(0, 0.5);  // vertex 1 left unset
  EXPECT_THROW(b.build(), CheckError);
}

TEST(UnionFind, BasicUnion) {
  UnionFind uf(5);
  EXPECT_EQ(uf.set_count(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));
  EXPECT_EQ(uf.set_count(), 3u);
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_FALSE(uf.same(0, 3));
  EXPECT_EQ(uf.set_size(2), 3u);
}

TEST(UnionFind, SingletonSizes) {
  UnionFind uf(3);
  EXPECT_EQ(uf.set_size(0), 1u);
  EXPECT_EQ(uf.find(2), 2u);
}

TEST(Graph, InducedSubgraphMatchesEdgeScan) {
  // The adjacency-local subgraph must equal the full edge scan's: same
  // edges in the same order, same adjacency order and the same bits of
  // every weight and of total_edge_weight.
  Rng rng(31);
  for (int round = 0; round < 120; ++round) {
    SCOPED_TRACE(round);
    const auto n = static_cast<Vertex>(1 + rng.next_below(70));
    const Graph g = testref::random_instance(rng, n, round % 2 == 0,
                                             round % 3 == 2);
    std::vector<Vertex> keep(static_cast<std::size_t>(n));
    for (Vertex v = 0; v < n; ++v) keep[static_cast<std::size_t>(v)] = v;
    rng.shuffle(keep);
    keep.resize(rng.next_below(keep.size() + 1));
    const Graph want = testref::induced_subgraph(g, keep);
    const Graph got = g.induced_subgraph(keep);
    ASSERT_EQ(got.vertex_count(), want.vertex_count());
    ASSERT_EQ(got.edge_count(), want.edge_count());
    EXPECT_TRUE(
        testref::same_bits(got.total_edge_weight(), want.total_edge_weight()));
    for (EdgeId e = 0; e < got.edge_count(); ++e) {
      EXPECT_EQ(got.edge(e).u, want.edge(e).u);
      EXPECT_EQ(got.edge(e).v, want.edge(e).v);
      EXPECT_TRUE(testref::same_bits(got.edge(e).weight, want.edge(e).weight));
    }
    for (Vertex v = 0; v < got.vertex_count(); ++v) {
      const auto a = got.neighbors(v);
      const auto b = want.neighbors(v);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].to, b[i].to);
        EXPECT_EQ(a[i].edge, b[i].edge);
        EXPECT_TRUE(testref::same_bits(a[i].weight, b[i].weight));
      }
    }
    EXPECT_EQ(got.demands(), want.demands());
  }
  // A rejected vertex list leaves no stale ids behind for the next call.
  const Graph g = triangle_plus_pendant();
  const std::vector<Vertex> dup{2, 0, 2};
  EXPECT_ANY_THROW((void)g.induced_subgraph(dup));
  const std::vector<Vertex> bad{1, 9};
  EXPECT_ANY_THROW((void)g.induced_subgraph(bad));
  const std::vector<Vertex> keep{0, 2, 1};
  EXPECT_EQ(g.induced_subgraph(keep).edge_count(), 3);
}

}  // namespace
}  // namespace hgp
