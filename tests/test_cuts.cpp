#include <gtest/gtest.h>

#include <limits>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/mincut.hpp"

namespace hgp {
namespace {

/// Exhaustive global min cut for verification (n ≤ 20).
Weight brute_force_min_cut(const Graph& g) {
  const Vertex n = g.vertex_count();
  Weight best = std::numeric_limits<Weight>::infinity();
  for (std::uint64_t mask = 1; mask + 1 < (std::uint64_t{1} << n); ++mask) {
    std::vector<char> side(static_cast<std::size_t>(n), 0);
    for (Vertex v = 0; v < n; ++v) side[v] = (mask >> v) & 1;
    best = std::min(best, g.cut_weight(side));
  }
  return best;
}

TEST(StoerWagner, PathGraphCutsLightestEdge) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 3.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 3, 2.0);
  const auto result = global_min_cut(b.build());
  EXPECT_DOUBLE_EQ(result.weight, 1.0);
}

TEST(StoerWagner, CutSideIsConsistent) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 3.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 3, 2.0);
  const Graph g = b.build();
  const auto result = global_min_cut(g);
  EXPECT_DOUBLE_EQ(g.cut_weight(result.side), result.weight);
}

TEST(StoerWagner, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    Graph g = gen::erdos_renyi(9, 0.5, rng, gen::WeightRange{1.0, 10.0});
    if (!g.is_connected()) continue;
    const auto result = global_min_cut(g);
    EXPECT_NEAR(result.weight, brute_force_min_cut(g), 1e-9)
        << "seed " << seed;
    EXPECT_NEAR(g.cut_weight(result.side), result.weight, 1e-9);
  }
}

TEST(StoerWagner, RejectsDisconnectedOrTrivialInput) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0);
  EXPECT_THROW(global_min_cut(b.build()), CheckError);
  GraphBuilder one(1);
  EXPECT_THROW(global_min_cut(one.build()), CheckError);
}

}  // namespace
}  // namespace hgp
