// Randomized differential harness for the DP hot-path optimizations.
//
// Every seed builds a random instance (tree shape, edge weights, demands,
// hierarchy height/degree/multipliers, rounding resolution) and solves it
// under several DP configurations that must agree exactly:
//   * pruning ON vs pruning OFF (dominance pruning is provably lossless);
//   * DP vs the exhaustive brute-force oracle on instances small enough to
//     enumerate (dp_reference.hpp);
//   * the projected merge vs the pair-loop reference kernel
//     (dp_reference.hpp): the same feasible signatures at every node, with
//     pruning on and off;
//   * a pruned reuse store fed to an unpruned solve: never rehydrated.
// Any mismatch prints the seed so the instance can be replayed in
// isolation.  Both pruning modes run in the one process: pruning is a
// per-call option (TreeDpOptions::prune_dominated), not a global.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/binarize.hpp"
#include "core/rhgpt.hpp"
#include "core/tree_dp.hpp"
#include "dp_reference.hpp"
#include "graph/generators.hpp"
#include "util/prng.hpp"

namespace hgp {
namespace {

struct Instance {
  Tree tree;
  Hierarchy hierarchy;
  DemandUnits units = 2;
};

/// Deterministically derives one random instance from `seed`, sized so the
/// full 200-seed sweep stays in test-suite time (deeper hierarchies get
/// smaller trees and coarser rounding — the signature space is the cost
/// driver, not the tree).
Instance make_instance(std::uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  const int height = 1 + static_cast<int>(seed % 3);
  int max_n = 40;
  DemandUnits max_units = 8;
  if (height == 2) {
    max_n = 24;
    max_units = 5;
  } else if (height == 3) {
    max_n = 12;
    max_units = 3;
  }
  const auto n = static_cast<Vertex>(rng.next_int(6, max_n));
  const int deg = static_cast<int>(rng.next_int(2, 3));
  const Graph g =
      gen::random_tree(n, rng, gen::WeightRange{1.0, 9.0});
  Tree t = Tree::from_graph(g, 0);

  // Strictly decreasing cost multipliers ending at cm(h) = 0.
  std::vector<double> cm(static_cast<std::size_t>(height) + 1, 0.0);
  double acc = 0.0;
  for (int j = height - 1; j >= 0; --j) {
    acc += rng.next_double(0.5, 4.0);
    cm[static_cast<std::size_t>(j)] = acc;
  }
  Hierarchy h = Hierarchy::uniform(height, deg, std::move(cm));

  // Demands targeting a random fill of the root capacity, clamped to the
  // (0,1] leaf-demand domain; rescale if rounding pressure overshoots.
  const double cap0 = static_cast<double>(h.capacity(0));
  const double fill = rng.next_double(0.3, 0.85);
  const double mean = fill * cap0 / static_cast<double>(t.leaf_count());
  std::vector<double> d(static_cast<std::size_t>(t.leaf_count()));
  double total = 0.0;
  for (double& x : d) {
    x = std::clamp(mean * rng.next_double(0.4, 1.6), 0.02, 1.0);
    total += x;
  }
  if (total > fill * cap0) {
    for (double& x : d) x = std::max(0.02, x * fill * cap0 / total);
  }
  t.set_leaf_demands(d);

  Instance inst{std::move(t), std::move(h)};
  inst.units = static_cast<DemandUnits>(rng.next_int(2, max_units));
  return inst;
}

TreeDpResult run_dp(const Instance& inst, bool prune) {
  TreeDpOptions opt;
  opt.units_override = inst.units;
  opt.prune_dominated = prune;
  return solve_rhgpt(inst.tree, inst.hierarchy, opt);
}

TEST(DpDifferential, TwoHundredSeedsAgreeAcrossConfigurations) {
  int brute_checked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Instance inst = make_instance(seed);
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " leaves=" << inst.tree.leaf_count()
                 << " h=" << inst.hierarchy.height()
                 << " units=" << inst.units);

    const TreeDpResult baseline = run_dp(inst, /*prune=*/false);
    const TreeDpResult pruned = run_dp(inst, /*prune=*/true);

    // Pruning is lossless: same optimum, never more surviving states.
    ASSERT_NEAR(baseline.cost, pruned.cost, 1e-9);
    ASSERT_LE(pruned.stats.feasible_states, baseline.stats.feasible_states);

    // The reported cost is the Definition-4 cost of the reported solution.
    ASSERT_NEAR(pruned.cost,
                rhgpt_cost(inst.tree, inst.hierarchy, pruned.solution), 1e-9);

    // Exhaustive oracle on instances small enough to enumerate.
    if (inst.tree.leaf_count() <= 5 && inst.hierarchy.height() <= 2) {
      ++brute_checked;
      const double brute = testref::brute_force_rhgpt(
          inst.tree, inst.hierarchy, pruned.scaled);
      ASSERT_NEAR(pruned.cost, brute, 1e-9);
    }
  }
  // The size distribution must keep feeding the oracle; if a generator
  // change starves it, this fails loudly instead of silently weakening.
  EXPECT_GE(brute_checked, 3);
}

TEST(DpDifferential, ProjectedMergeMatchesPairLoopReference) {
  // The projected merge pairs each child's distinct masked-prefix keys
  // instead of its states.  Against the pair-loop kernel it must reach the
  // same feasible signatures at every node with the same costs (summation
  // order differs, hence the relative tolerance) and so prune the same
  // states.  Which equal-cost back-pointer it keeps may differ, so the
  // traceback is checked on its own: a valid Definition-4 solution whose
  // cost is the DP optimum.  Each seed runs pruned, then unpruned; the
  // pruned run's store then goes into an unpruned solve, where the
  // reuse-store prune key must keep pruned tables out.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Instance inst = make_instance(seed);
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " leaves=" << inst.tree.leaf_count()
                 << " h=" << inst.hierarchy.height()
                 << " units=" << inst.units);
    const BinarizedTree bin = binarize(inst.tree);
    DpReuseStore pruned_tables;
    for (const bool prune : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "prune=" << prune);
      DpReuseStore tables;
      TreeDpOptions opt;
      opt.units_override = inst.units;
      opt.prune_dominated = prune;
      opt.reuse_out = &tables;
      const TreeDpResult got = solve_rhgpt(inst.tree, inst.hierarchy, opt);

      const ScaledDemands sd = scale_demands(bin.tree, inst.hierarchy,
                                             opt.epsilon, opt.units_override);
      const testref::RefDpResult ref =
          testref::reference_pair_loop_dp(bin.tree, inst.hierarchy, sd, prune);

      const std::vector<std::uint64_t> hash = dp_subtree_hashes(bin.tree, sd);
      for (Vertex v = 0; v < bin.tree.node_count(); ++v) {
        const auto it = tables.entries.find(hash[static_cast<std::size_t>(v)]);
        ASSERT_NE(it, tables.entries.end()) << "node " << v;
        const testref::RefNodeTable& want =
            ref.nodes[static_cast<std::size_t>(v)];
        ASSERT_EQ(it->second.feasible, want.feasible) << "node " << v;
        for (std::size_t i = 0; i < want.cost.size(); ++i) {
          ASSERT_NEAR(it->second.cost[i], want.cost[i],
                      1e-9 * std::max(1.0, std::abs(want.cost[i])))
              << "node " << v << " signature " << want.feasible[i];
        }
      }
      ASSERT_EQ(got.stats.feasible_states, ref.feasible_states);
      ASSERT_EQ(got.stats.states_pruned, ref.states_pruned);
      ASSERT_LE(got.stats.merge_operations, ref.merge_operations);
      ASSERT_NEAR(got.cost, ref.cost, 1e-9 * std::max(1.0, std::abs(ref.cost)));

      ASSERT_NO_THROW(
          validate_rhgpt(inst.tree, inst.hierarchy, got.scaled, got.solution));
      ASSERT_NEAR(rhgpt_cost(inst.tree, inst.hierarchy, got.solution), got.cost,
                  1e-9 * std::max(1.0, std::abs(got.cost)));

      if (prune) {
        pruned_tables = std::move(tables);
        continue;
      }
      ASSERT_FALSE(pruned_tables.empty());
      TreeDpOptions mixed = opt;
      mixed.reuse_in = &pruned_tables;
      mixed.reuse_out = nullptr;
      const TreeDpResult fed = solve_rhgpt(inst.tree, inst.hierarchy, mixed);
      ASSERT_EQ(fed.stats.nodes_reused, 0u);
      ASSERT_EQ(fed.stats.feasible_states, got.stats.feasible_states);
    }
  }
}

}  // namespace
}  // namespace hgp
