#include <gtest/gtest.h>

#include "baseline/greedy.hpp"
#include "baseline/local_search.hpp"
#include "baseline/multilevel.hpp"
#include "baseline/random_placement.hpp"
#include "baseline/recursive_bisection.hpp"
#include "fm_reference.hpp"
#include "graph/generators.hpp"
#include "hierarchy/cost.hpp"
#include "obs/obs.hpp"

namespace hgp {
namespace {

Graph workload(std::uint64_t seed, Vertex n = 32) {
  Rng rng(seed);
  Graph g = gen::planted_partition(n, 4, 0.7, 0.05, rng,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 4.0 / n);  // 4 clusters fit 4 leaf groups
  return g;
}

const Hierarchy& hier() {
  static const Hierarchy h({2, 2, 2}, {8.0, 3.0, 1.0, 0.0});
  return h;
}

TEST(RandomPlacement, CompleteAndMostlyFeasible) {
  const Graph g = workload(1);
  Rng rng(2);
  const Placement p = random_placement(g, hier(), rng);
  EXPECT_EQ(p.leaf_of.size(), static_cast<std::size_t>(g.vertex_count()));
  const LoadReport r = load_report(g, hier(), p);
  EXPECT_LE(r.leaf_violation(), 2.0);  // first-fit keeps loads sane
}

TEST(RandomPlacement, DeterministicInSeed) {
  const Graph g = workload(3);
  Rng a(7), b(7);
  EXPECT_EQ(random_placement(g, hier(), a).leaf_of,
            random_placement(g, hier(), b).leaf_of);
}

TEST(Greedy, BeatsRandomOnClusteredWorkloads) {
  const Graph g = workload(5);
  Rng rng(6);
  const double c_greedy = placement_cost(g, hier(), greedy_placement(g, hier()));
  double c_random = 0;
  for (int i = 0; i < 5; ++i) {
    c_random += placement_cost(g, hier(), random_placement(g, hier(), rng));
  }
  c_random /= 5;
  EXPECT_LT(c_greedy, c_random);
}

TEST(Greedy, RespectsCapacityWhenPossible) {
  const Graph g = workload(7);
  const Placement p = greedy_placement(g, hier());
  const LoadReport r = load_report(g, hier(), p);
  EXPECT_LE(r.leaf_violation(), 1.0 + 1e-9);
}

TEST(Greedy, MergesHeavyPairs) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 100.0);
  b.add_edge(2, 3, 100.0);
  b.add_edge(1, 2, 1.0);
  for (Vertex v = 0; v < 4; ++v) b.set_demand(v, 0.5);
  const Graph g = b.build();
  const Placement p = greedy_placement(g, Hierarchy::kbgp(2));
  EXPECT_EQ(p[0], p[1]);
  EXPECT_EQ(p[2], p[3]);
}

TEST(RecursiveBisection, FindsPlantedStructure) {
  const Graph g = workload(9);
  Rng rng(10);
  const Placement p = recursive_bisection_placement(g, hier(), rng);
  const double cost = placement_cost(g, hier(), p);
  Rng rng2(11);
  const double random_cost =
      placement_cost(g, hier(), random_placement(g, hier(), rng2));
  EXPECT_LT(cost, random_cost);
}

TEST(RecursiveBisection, BalancesLoadsApproximately) {
  const Graph g = workload(12);
  Rng rng(13);
  const Placement p = recursive_bisection_placement(g, hier(), rng);
  const LoadReport r = load_report(g, hier(), p);
  // Proportional splitting with 10% slack per level.
  EXPECT_LE(r.max_violation(), 1.8);
}

TEST(LocalSearch, NeverWorsensAndReportsStats) {
  const Graph g = workload(14);
  Rng rng(15);
  Placement p = random_placement(g, hier(), rng);
  const double before = placement_cost(g, hier(), p);
  const LocalSearchStats stats = local_search(g, hier(), p);
  const double after = placement_cost(g, hier(), p);
  EXPECT_LE(after, before + 1e-9);
  EXPECT_DOUBLE_EQ(stats.initial_cost, before);
  EXPECT_DOUBLE_EQ(stats.final_cost, after);
  EXPECT_GE(stats.passes, 1);
}

TEST(LocalSearch, RespectsCapacityFactor) {
  const Graph g = workload(16);
  Rng rng(17);
  Placement p = random_placement(g, hier(), rng);
  LocalSearchOptions opt;
  opt.capacity_factor = 1.0;
  local_search(g, hier(), p, opt);
  const LoadReport r = load_report(g, hier(), p);
  // Random placement was feasible (capacity 1 fits), moves keep it so.
  EXPECT_LE(r.leaf_violation(), 1.0 + 1e-9);
}

TEST(LocalSearch, FixesAnObviousMisplacement) {
  // Two tasks with a heavy edge placed on far leaves; plenty of room.
  GraphBuilder b(2);
  b.add_edge(0, 1, 50.0);
  b.set_demand(0, 0.3);
  b.set_demand(1, 0.3);
  const Graph g = b.build();
  Placement p{{0, 7}};  // opposite corners of the 8-leaf hierarchy
  local_search(g, hier(), p);
  EXPECT_EQ(placement_cost(g, hier(), p), 0.0);  // co-located
}

TEST(Multilevel, ProducesCompetitivePlacements) {
  const Graph g = workload(18, 64);
  Rng r1(19), r2(20), r3(21);
  const Placement ml = multilevel_placement(g, hier(), r1);
  const Placement rnd = random_placement(g, hier(), r2);
  EXPECT_LT(placement_cost(g, hier(), ml), placement_cost(g, hier(), rnd));
  (void)r3;
}

TEST(Multilevel, WorksWithoutCoarsening) {
  // Graph already below the coarsening target.
  const Graph g = workload(22, 16);
  Rng rng(23);
  MultilevelOptions opt;
  opt.coarsen_target = 64;
  const Placement p = multilevel_placement(g, hier(), rng, opt);
  EXPECT_EQ(p.leaf_of.size(), 16u);
}

TEST(Multilevel, CoarseningPreservesTotalDemandAndWeight) {
  const Graph g = workload(24, 48);
  Rng rng(25);
  MultilevelOptions opt;
  opt.coarsen_target = 8;
  const Placement p = multilevel_placement(g, hier(), rng, opt);
  const LoadReport r = load_report(g, hier(), p);
  // Sanity: every task assigned, loads accounted.
  double total = 0;
  for (double x : r.load[0]) total += x;
  EXPECT_NEAR(total, g.total_demand(), 1e-9);
}

TEST(Baselines, RecursiveBisectionFmMatchesReference) {
  // The baseline's FM runs on the shared kernel with its own window test;
  // it must make the quadratic rescan's moves exactly, also where a pass
  // ends on the locked-cut floor.
  const auto floor_stops = [] {
    return obs::MetricsRegistry::global().counter_value(
        "decomp.fm_floor_stops");
  };
  {
    Rng rng(1);
    const Graph g = testref::random_instance(rng, 10, false, false);
    std::vector<char> side(10, 0);
    for (auto& c : side) c = rng.next_bool(0.5) ? 1 : 0;
    std::vector<char> expected = side;
    const std::uint64_t stops0 = floor_stops();
    testref::fm_refine_target(g, expected, 0.5, 0.25, 4);
    fm_refine_target(g, side, 0.5, 0.25, 4);
    ASSERT_EQ(side, expected);
    if (HGP_OBS_ENABLED) {
      EXPECT_GT(floor_stops(), stops0);
    }
  }
  const std::uint64_t stops0 = floor_stops();
  Rng rng(77);
  const double slacks[] = {0.0, 0.02, 0.1, 0.2, 0.45};
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(round);
    const auto n = static_cast<Vertex>(2 + rng.next_below(80));
    const Graph g = testref::random_instance(rng, n, round % 2 == 0,
                                             round % 4 == 3);
    const double target = rng.next_double(0.1, 0.9);
    const double slack = slacks[round % 5];
    const int passes = 1 + static_cast<int>(rng.next_below(6));
    std::vector<char> side(static_cast<std::size_t>(n), 0);
    for (auto& c : side) c = rng.next_bool(target) ? 1 : 0;
    std::vector<char> expected = side;
    testref::fm_refine_target(g, expected, target, slack, passes);
    fm_refine_target(g, side, target, slack, passes);
    ASSERT_EQ(side, expected);
  }
  if (HGP_OBS_ENABLED) {
    EXPECT_GT(floor_stops(), stops0);
  }
}

}  // namespace
}  // namespace hgp
