#include <gtest/gtest.h>

#include <cmath>

#include "fm_reference.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"
#include "obs/obs.hpp"

namespace hgp {
namespace {

TEST(Fiedler, OrthogonalToConstantAndUnitNorm) {
  Rng rng(1);
  const Graph g = gen::grid2d(5, 5);
  const auto f = fiedler_vector(g, rng);
  double sum = 0, norm = 0;
  for (double x : f) {
    sum += x;
    norm += x * x;
  }
  EXPECT_NEAR(sum, 0.0, 1e-6);
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(Fiedler, SeparatesTwoCliquesJoinedByABridge) {
  // Two K5s joined by a single light edge: the Fiedler vector's sign splits
  // them.
  GraphBuilder b(10);
  for (Vertex u = 0; u < 5; ++u)
    for (Vertex v = u + 1; v < 5; ++v) b.add_edge(u, v, 1.0);
  for (Vertex u = 5; u < 10; ++u)
    for (Vertex v = u + 1; v < 10; ++v) b.add_edge(u, v, 1.0);
  b.add_edge(4, 5, 0.1);
  Rng rng(2);
  const auto f = fiedler_vector(b.build(), rng);
  for (Vertex v = 0; v < 5; ++v) {
    for (Vertex u = 5; u < 10; ++u) {
      EXPECT_LT(f[static_cast<std::size_t>(v)] * f[static_cast<std::size_t>(u)],
                0.0)
          << "vertices " << v << " and " << u << " on same side";
    }
  }
}

TEST(Fiedler, PathGraphIsMonotone) {
  GraphBuilder b(8);
  for (Vertex v = 0; v + 1 < 8; ++v) b.add_edge(v, v + 1, 1.0);
  Rng rng(3);
  auto f = fiedler_vector(b.build(), rng);
  if (f.front() > f.back()) {
    for (auto& x : f) x = -x;  // eigenvectors have sign freedom
  }
  for (std::size_t i = 0; i + 1 < f.size(); ++i) {
    EXPECT_LE(f[i], f[i + 1] + 1e-5);
  }
}

TEST(Fiedler, CountsCallsAndCallsStoppedAtTheCap) {
  // decomp.fiedler_calls counts every call; decomp.fiedler_capped the
  // ones that ran all max_iterations without meeting the tolerance.
  const auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t calls0 = reg.counter_value("decomp.fiedler_calls");
  const std::uint64_t capped0 = reg.counter_value("decomp.fiedler_capped");
  const Graph g = gen::grid2d(4, 4);
  Rng rng(5);
  // A tolerance no step can miss stops after one iteration.
  const auto converged = fiedler_vector(g, rng, {300, 1e9});
  // A zero tolerance is never met, so all 5 iterations run.
  const auto capped = fiedler_vector(g, rng, {5, 0.0});
  EXPECT_EQ(converged.size(), 16u);
  EXPECT_EQ(capped.size(), 16u);
  if (HGP_OBS_ENABLED) {
    EXPECT_EQ(reg.counter_value("decomp.fiedler_calls"), calls0 + 2);
    EXPECT_EQ(reg.counter_value("decomp.fiedler_capped"), capped0 + 1);
  }
}

TEST(SpectralBisect, BothSidesNonEmpty) {
  Rng rng(4);
  const Graph g = gen::erdos_renyi(30, 0.2, rng);
  const auto side = spectral_bisect(g, rng);
  int ones = 0;
  for (char c : side) ones += c;
  EXPECT_GT(ones, 0);
  EXPECT_LT(ones, 30);
}

TEST(SpectralBisect, RoughDemandBalance) {
  Rng rng(5);
  Graph g = gen::grid2d(6, 6);
  gen::set_uniform_demands(g, 0.02);
  const auto side = spectral_bisect(g, rng);
  double load1 = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    if (side[static_cast<std::size_t>(v)]) load1 += g.demand(v);
  }
  const double total = g.total_demand();
  EXPECT_GT(load1, 0.3 * total);
  EXPECT_LT(load1, 0.7 * total);
}

TEST(SpectralBisect, CutQualityBeatsWorstCaseOnCliquePair) {
  GraphBuilder b(12);
  for (Vertex u = 0; u < 6; ++u)
    for (Vertex v = u + 1; v < 6; ++v) b.add_edge(u, v, 1.0);
  for (Vertex u = 6; u < 12; ++u)
    for (Vertex v = u + 1; v < 12; ++v) b.add_edge(u, v, 1.0);
  b.add_edge(0, 6, 1.0);
  const Graph g = b.build();
  Rng rng(6);
  const auto side = spectral_bisect(g, rng);
  EXPECT_DOUBLE_EQ(g.cut_weight(side), 1.0);  // finds the bridge
}

TEST(SpectralBisect, EdgelessGraphStillSplits) {
  GraphBuilder b(4);
  const Graph g = b.build();
  Rng rng(7);
  const auto side = spectral_bisect(g, rng);
  int ones = 0;
  for (char c : side) ones += c;
  EXPECT_GT(ones, 0);
  EXPECT_LT(ones, 4);
}

TEST(SpectralBisect, TwoVertexGraph) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1.0);
  Rng rng(8);
  const auto side = spectral_bisect(b.build(), rng);
  EXPECT_NE(side[0], side[1]);
}

TEST(Spectral, FiedlerMatchesUnfusedReference) {
  // The fused power iteration must return the one-pass-per-step loop's
  // vector bit for bit, whether it stops on tolerance or on the iteration
  // cap, on connected and disconnected graphs.
  Rng rng(55);
  for (int round = 0; round < 90; ++round) {
    SCOPED_TRACE(round);
    const auto n = static_cast<Vertex>(2 + rng.next_below(120));
    const Graph g = testref::random_instance(rng, n, round % 2 == 0,
                                             round % 3 == 0);
    FiedlerOptions opt;
    if (round % 4 == 1) {
      opt.max_iterations = 1 + static_cast<int>(rng.next_below(20));
    }
    if (round % 4 == 2) opt.tolerance = 0.0;
    if (round % 4 == 3) opt.tolerance = 1e-3;
    Rng r1(static_cast<std::uint64_t>(round) * 7 + 1), r2 = r1;
    const auto want = testref::fiedler_vector(g, r1, opt);
    const auto got = fiedler_vector(g, r2, opt);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < got.size(); ++v) {
      ASSERT_TRUE(testref::same_bits(got[v], want[v])) << "vertex " << v;
    }
    EXPECT_EQ(r1.next(), r2.next());
  }
}

}  // namespace
}  // namespace hgp
