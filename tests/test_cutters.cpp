#include <gtest/gtest.h>

#include "decomp/cutter.hpp"
#include "fm_reference.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"
#include "obs/obs.hpp"

namespace hgp {
namespace {

Graph two_cliques_bridge(Weight bridge) {
  GraphBuilder b(10);
  for (Vertex u = 0; u < 5; ++u)
    for (Vertex v = u + 1; v < 5; ++v) b.add_edge(u, v, 1.0);
  for (Vertex u = 5; u < 10; ++u)
    for (Vertex v = u + 1; v < 10; ++v) b.add_edge(u, v, 1.0);
  b.add_edge(0, 5, bridge);
  return b.build();
}

int ones(const std::vector<char>& side) {
  int n = 0;
  for (char c : side) n += c;
  return n;
}

TEST(Cutters, AllProduceProperBipartitions) {
  Rng rng(1);
  Graph g = gen::erdos_renyi(24, 0.3, rng, gen::WeightRange{1.0, 5.0});
  if (!g.is_connected()) GTEST_SKIP();
  const SpectralCutter spectral;
  const FmCutter fm;
  const RandomCutter random;
  const MinCutCutter mincut;
  for (const Cutter* c :
       std::vector<const Cutter*>{&spectral, &fm, &random, &mincut}) {
    Rng local(2);
    const auto side = c->cut(g, local);
    ASSERT_EQ(side.size(), 24u) << c->name();
    EXPECT_GT(ones(side), 0) << c->name();
    EXPECT_LT(ones(side), 24) << c->name();
  }
}

TEST(Cutters, MinCutFindsTheBridge) {
  const Graph g = two_cliques_bridge(0.5);
  Rng rng(3);
  const MinCutCutter mincut;
  const auto side = g.cut_weight(mincut.cut(g, rng));
  EXPECT_DOUBLE_EQ(side, 0.5);
}

TEST(Cutters, FmImprovesOrMatchesSpectral) {
  Rng rng(4);
  Graph g = gen::planted_partition(40, 2, 0.6, 0.08, rng);
  const SpectralCutter spectral;
  const FmCutter fm;
  Rng r1(5), r2(5);
  const Weight ws = g.cut_weight(spectral.cut(g, r1));
  const Weight wf = g.cut_weight(fm.cut(g, r2));
  EXPECT_LE(wf, ws + 1e-9);
}

TEST(Cutters, FmRefineNeverWorsens) {
  Rng rng(6);
  for (int round = 0; round < 5; ++round) {
    Graph g = gen::erdos_renyi(30, 0.25, rng, gen::WeightRange{1.0, 6.0});
    std::vector<char> side(30, 0);
    for (auto& c : side) c = rng.next_bool(0.5) ? 1 : 0;
    if (ones(side) == 0 || ones(side) == 30) continue;
    const Weight before = g.cut_weight(side);
    const Weight reported = fm_refine(g, side, 4, 0.2);
    const Weight after = g.cut_weight(side);
    EXPECT_LE(after, before + 1e-9);
    EXPECT_NEAR(reported, after, 1e-9);
  }
}

TEST(Cutters, FmRefineRespectsBalanceFloor) {
  Rng rng(7);
  Graph g = gen::erdos_renyi(24, 0.3, rng);
  gen::set_uniform_demands(g, 0.1);
  std::vector<char> side(24, 0);
  for (std::size_t i = 0; i < 12; ++i) side[i] = 1;
  fm_refine(g, side, 6, 0.25);
  double load1 = 0, total = 0;
  for (Vertex v = 0; v < 24; ++v) {
    total += g.demand(v);
    if (side[static_cast<std::size_t>(v)]) load1 += g.demand(v);
  }
  EXPECT_GE(load1, 0.25 * total - 1e-9);
  EXPECT_GE(total - load1, 0.25 * total - 1e-9);
}

TEST(Cutters, MinCutFallsBackOnEdgelessGraphs) {
  GraphBuilder b(3);
  const Graph g = b.build();
  Rng rng(8);
  const MinCutCutter mincut;
  const auto side = mincut.cut(g, rng);
  EXPECT_GT(ones(side), 0);
  EXPECT_LT(ones(side), 3);
}

TEST(Cutters, FmRefineMatchesQuadraticReference) {
  // The cached-gain kernel must make the quadratic rescan's moves exactly:
  // same side bits and same cut bits, on random and spectral seeds.
  const auto floor_stops = [] {
    return obs::MetricsRegistry::global().counter_value(
        "decomp.fm_floor_stops");
  };
  {
    // A 10-vertex instance whose passes end on the locked-cut floor: moves
    // lock cut edges heavier than the best cut, and the pass stops there
    // with the bits the full pass would leave.
    Rng rng(1);
    const Graph g = testref::random_instance(rng, 10, false, false);
    std::vector<char> side(10, 0);
    for (auto& c : side) c = rng.next_bool(0.5) ? 1 : 0;
    std::vector<char> expected = side;
    const std::uint64_t stops0 = floor_stops();
    const Weight want = testref::fm_refine(g, expected, 4, 0.25);
    const Weight got = fm_refine(g, side, 4, 0.25);
    ASSERT_EQ(side, expected);
    ASSERT_TRUE(testref::same_bits(got, want)) << got << " vs " << want;
    if (HGP_OBS_ENABLED) {
      EXPECT_GT(floor_stops(), stops0);
    }
  }
  const std::uint64_t stops0 = floor_stops();
  Rng rng(2024);
  const double floors[] = {0.0, 0.1, 0.2, 0.25, 0.3, 0.45};
  for (int round = 0; round < 240; ++round) {
    SCOPED_TRACE(round);
    const auto n = static_cast<Vertex>(2 + rng.next_below(90));
    const bool demands = round % 2 == 0;
    const bool disconnected = round % 5 == 1;
    const Graph g = testref::random_instance(rng, n, demands, disconnected);
    const double floor = round < 36 ? floors[round % 6]
                                    : rng.next_double(0.0, 0.45);
    const int passes = 1 + static_cast<int>(rng.next_below(6));
    std::vector<char> side(static_cast<std::size_t>(n), 0);
    if (round % 3 == 0 && g.edge_count() > 0) {
      Rng seed_rng(static_cast<std::uint64_t>(round));
      side = spectral_bisect(g, seed_rng);
    } else {
      for (auto& c : side) c = rng.next_bool(0.5) ? 1 : 0;
    }
    std::vector<char> expected = side;
    const Weight want = testref::fm_refine(g, expected, passes, floor);
    const Weight got = fm_refine(g, side, passes, floor);
    ASSERT_EQ(side, expected);
    ASSERT_TRUE(testref::same_bits(got, want)) << got << " vs " << want;
  }
  // Most rounds end some pass on the floor.
  if (HGP_OBS_ENABLED) {
    EXPECT_GT(floor_stops(), stops0 + 100);
  }
}

}  // namespace
}  // namespace hgp
