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
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
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
        ASSERT_EQ(it->second->feasible, want.feasible) << "node " << v;
        for (std::size_t i = 0; i < want.cost.size(); ++i) {
          ASSERT_NEAR(it->second->cost[i], want.cost[i],
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

/// A fixed instance with a name, for the node-by-node index checks and the
/// pinned work counters.
struct NamedInstance {
  const char* name;
  Instance inst;
};

/// A random n-vertex tree whose leaves all have demand `demand`, on
/// Hierarchy::uniform(height, 2, …).  Equal demands make the signature
/// bounds predictable; equal edge weights make equal-cost ties common, and
/// zero weights make every candidate a tie.
Instance uniform_instance(int height, Vertex n, gen::WeightRange weights,
                          DemandUnits units, std::uint64_t seed,
                          double demand) {
  Rng rng(seed);
  Tree t = Tree::from_graph(gen::random_tree(n, rng, weights), 0);
  std::vector<double> cm(static_cast<std::size_t>(height) + 1, 0.0);
  for (int j = 0; j < height; ++j) {
    cm[static_cast<std::size_t>(j)] = 2.0 * (height - j);
  }
  t.set_leaf_demands(std::vector<double>(
      static_cast<std::size_t>(t.leaf_count()), demand));
  return Instance{std::move(t), Hierarchy::uniform(height, 2, std::move(cm)),
                  units};
}

/// Instances whose every presence class p ≤ 3 prunes on the dense
/// dominance index (h = 1, 2, 3), two that push classes onto the pairwise
/// scan (an h = 3 space whose (D², D³) table exceeds kDpDenseIndexCells,
/// and an h = 4 space, whose class 4 always scans), two with zero edge
/// weights, where every candidate of a parent entry ties, and two whose
/// level-2 bounds are wide enough (120 and 2 × 60 units) that the merge
/// tests level 2 pair by pair instead of by threshold bitsets.
std::vector<NamedInstance> index_instances() {
  std::vector<NamedInstance> out;
  for (const std::uint64_t seed : {33u, 48u, 70u, 10u, 32u}) {
    out.push_back({"random seed", make_instance(seed)});
  }
  const gen::WeightRange unit{1.0, 1.0};
  const gen::WeightRange light{1.0, 4.0};
  const gen::WeightRange heavy{1.0, 9.0};
  const gen::WeightRange zero{0.0, 0.0};
  out.push_back({"h2 tight", uniform_instance(2, 30, unit, 3, 21, 0.5)});
  out.push_back({"h3 tight", uniform_instance(3, 30, unit, 4, 21, 0.5)});
  out.push_back({"h3 tighter", uniform_instance(3, 30, light, 3, 21, 0.75)});
  out.push_back({"h3 unit weights", uniform_instance(3, 40, unit, 3, 21, 0.5)});
  out.push_back({"h3 table over limit",
                 uniform_instance(3, 18, heavy, 70, 13, 1.0 / 6.0)});
  out.push_back({"h4 scan", uniform_instance(4, 30, unit, 4, 21, 0.75)});
  out.push_back({"h2 zero weights", uniform_instance(2, 26, zero, 4, 22, 0.3)});
  out.push_back({"h3 zero weights", uniform_instance(3, 30, zero, 4, 23, 0.5)});
  out.push_back(
      {"h2 per-pair level", uniform_instance(2, 40, light, 120, 7, 0.25)});
  out.push_back({"h3 per-pair level",
                 uniform_instance(3, 30, light, 60, 7, 1.0 / 3.0)});
  return out;
}

/// Cells of presence class p's dense index: (D², D³) extents, each level
/// above p contributing one cell.
std::size_t index_cells(const SignatureSpace& space, int p) {
  std::size_t cells = 1;
  for (int j = 2; j <= std::min(p, 3); ++j) {
    cells *= static_cast<std::size_t>(space.level_bound(j)) + 1;
  }
  return cells;
}

TEST(DpDifferential, DominanceIndexMatchesQuadraticPrune) {
  // Pruning keeps, per presence class, the least D¹ over kept states in a
  // prefix-min table over (D², D³) and falls back to the pairwise scan for
  // classes above 3 or past kDpDenseIndexCells.  Either way every node
  // must keep exactly the survivors of the reference's quadratic prune,
  // and drop as many states in total.
  bool saw_dense[4] = {false, false, false, false};
  bool saw_size_fallback = false;
  bool saw_deep_fallback = false;
  for (const NamedInstance& ni : index_instances()) {
    const Instance& inst = ni.inst;
    SCOPED_TRACE(::testing::Message()
                 << ni.name << " leaves=" << inst.tree.leaf_count()
                 << " h=" << inst.hierarchy.height()
                 << " units=" << inst.units);
    const BinarizedTree bin = binarize(inst.tree);
    DpReuseStore tables;
    TreeDpOptions opt;
    opt.units_override = inst.units;
    opt.reuse_out = &tables;
    const TreeDpResult got = solve_rhgpt(inst.tree, inst.hierarchy, opt);
    const ScaledDemands sd = scale_demands(bin.tree, inst.hierarchy,
                                           opt.epsilon, opt.units_override);
    const testref::RefDpResult ref = testref::reference_pair_loop_dp(
        bin.tree, inst.hierarchy, sd, /*prune=*/true);

    const SignatureSpace space(sd, inst.hierarchy.height());
    for (int p = 1; p <= inst.hierarchy.height(); ++p) {
      if (p > 3) {
        saw_deep_fallback = true;
      } else if (index_cells(space, p) > kDpDenseIndexCells) {
        saw_size_fallback = true;
      } else {
        saw_dense[p] = true;
      }
    }

    const std::vector<std::uint64_t> hash = dp_subtree_hashes(bin.tree, sd);
    for (Vertex v = 0; v < bin.tree.node_count(); ++v) {
      const auto it = tables.entries.find(hash[static_cast<std::size_t>(v)]);
      ASSERT_NE(it, tables.entries.end()) << "node " << v;
      ASSERT_EQ(it->second->feasible,
                ref.nodes[static_cast<std::size_t>(v)].feasible)
          << "node " << v;
    }
    ASSERT_EQ(got.stats.states_pruned, ref.states_pruned);
    ASSERT_EQ(got.stats.feasible_states, ref.feasible_states);
    ASSERT_GT(got.stats.states_pruned, 0u);
  }
  EXPECT_TRUE(saw_dense[1] && saw_dense[2] && saw_dense[3]);
  EXPECT_TRUE(saw_size_fallback);
  EXPECT_TRUE(saw_deep_fallback);
}

/// FNV-1a over the traced-back level collections, so a change in which
/// equal-cost back-pointer wins shows up as a different value.
std::uint64_t solution_fingerprint(const RhgptSolution& sol) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  for (const auto& level : sol.sets) {
    mix(level.size());
    for (const auto& set : level) {
      mix(set.size());
      for (const Vertex v : set) mix(static_cast<std::uint64_t>(v));
    }
  }
  return h;
}

/// FNV-1a over every binarized node's captured table: its feasible ids,
/// their cost bits and their back-pointers.  Within one k1, equal-cost
/// candidates from keys2 that differ only in presence lead to the same
/// level collections, so only the back-pointers show the pairing order.
std::uint64_t table_fingerprint(const Instance& inst) {
  DpReuseStore tables;
  TreeDpOptions opt;
  opt.units_override = inst.units;
  opt.reuse_out = &tables;
  (void)solve_rhgpt(inst.tree, inst.hierarchy, opt);
  const BinarizedTree bin = binarize(inst.tree);
  const ScaledDemands sd = scale_demands(bin.tree, inst.hierarchy,
                                         opt.epsilon, opt.units_override);
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  for (const std::uint64_t key : dp_subtree_hashes(bin.tree, sd)) {
    const DpSubtreeEntry& e = *tables.entries.at(key);
    for (std::size_t i = 0; i < e.feasible.size(); ++i) {
      mix(e.feasible[i]);
      mix(std::bit_cast<std::uint64_t>(e.cost[i]));
      mix(e.back[i].sig1);
      mix(e.back[i].sig2);
      mix(static_cast<std::uint64_t>(e.back[i].j1 + 1));
      mix(static_cast<std::uint64_t>(e.back[i].j2 + 1));
    }
  }
  return h;
}

TEST(DpDifferential, MergeCountersArePinned) {
  // The binary merge visits only capacity-compatible key pairs and counts
  // the pv steps of the skipped ones arithmetically.  merge_operations and
  // merges_rejected must still equal the values of the kernel that
  // visited every pair, recorded here from it, and the pairs it does visit
  // must run in the same order: which equal-cost back-pointer wins is
  // pinned through every node's table and the traced-back solution.
  struct Pinned {
    std::uint64_t merge_operations;
    std::uint64_t merges_rejected;
    std::uint64_t solution;
    std::uint64_t tables;
  };
  const std::vector<NamedInstance> instances = index_instances();
  // Recorded from the all-pairs kernel, in index_instances() order:
  // merge_operations, merges_rejected, solution, tables.
  const Pinned want[] = {
      {288, 2, 0x1879c9158f6755d5ull, 0xb3dbe360c81be7e8ull},
      {220, 11, 0xff7b3f4a7f695e36ull, 0x6a9ab3458385ab23ull},
      {918, 78, 0x08078ef6fde5f23eull, 0x3be65ab286a3da79ull},
      {1008, 22, 0x8ada5e2d7ce6d6b7ull, 0xe588b9b1788cf307ull},
      {2315, 235, 0x14a9488d0d3fee87ull, 0xb80c9b503364500bull},
      {553, 20, 0x3dc5d3f97fa2dfbfull, 0xb88aa6dae22d17e5ull},
      {1723, 120, 0x42801eb6e1374adcull, 0x53e9fa60b3cae8ceull},
      {3459, 900, 0x04d890cda1fd9803ull, 0x88d91c963ccf1da0ull},
      {3475, 183, 0xf00da5377efea479ull, 0xb8e4743a6f47dbd9ull},
      {1248, 0, 0x275efa2665ddace5ull, 0xeb5d341ad6fc0efdull},
      {4446, 393, 0xbae16c62c382fd21ull, 0xb164d6942cee9d8full},
      {160, 0, 0x941f66e5f7270599ull, 0xf49f55b1c8fb4b13ull},
      {370, 0, 0xfa61ef5e57c23305ull, 0xc42d74c80bca3870ull},
      {1185, 95, 0x56b815180a889b4bull, 0x770e0f53d911c645ull},
      {3609, 222, 0x88956b782d81fd62ull, 0x1e88aeb0621012feull},
  };
  ASSERT_EQ(std::size(want), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i].inst;
    SCOPED_TRACE(::testing::Message() << "instance " << i << " ("
                                      << instances[i].name << ")");
    const TreeDpResult got = run_dp(inst, /*prune=*/true);
    EXPECT_EQ(got.stats.merge_operations, want[i].merge_operations);
    EXPECT_EQ(got.stats.merges_rejected, want[i].merges_rejected);
    EXPECT_EQ(solution_fingerprint(got.solution), want[i].solution);
    EXPECT_EQ(table_fingerprint(inst), want[i].tables);
  }
}

TEST(DpDifferential, ScratchDoesNotGrowWithDepth) {
  // A finished node keeps only its compact table, so the dense |Sig|-sized
  // scratch is one solve's, not one per pending tree depth.  Both trees
  // have 32 leaves of equal demand, hence one signature space: a balanced
  // binary tree, and a caterpillar whose spine is each node's second
  // child.  The sweep builds a node's first child's subtree first, so the
  // caterpillar leaves one finished leaf pending on every spine level.
  constexpr Vertex kLeaves = 32;
  std::vector<Vertex> balanced(2 * kLeaves - 1);
  for (std::size_t v = 0; v < balanced.size(); ++v) {
    balanced[v] = v == 0 ? kInvalidVertex : static_cast<Vertex>((v - 1) / 2);
  }
  std::vector<Vertex> caterpillar{kInvalidVertex};
  for (Vertex spine = 0, leaf = 1; leaf < kLeaves; ++leaf) {
    caterpillar.push_back(spine);  // the leaf, first child
    caterpillar.push_back(spine);  // the next spine node, or the last leaf
    spine = static_cast<Vertex>(caterpillar.size() - 1);
  }
  ASSERT_EQ(caterpillar.size(), balanced.size());

  const Hierarchy h = Hierarchy::uniform(2, 2, {4.0, 1.0, 0.0});
  TreeDpOptions opt;
  opt.units_override = 24;
  TreeDpStats stats[2];
  int depth[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    std::vector<Vertex> parents = i == 0 ? balanced : caterpillar;
    const std::size_t n = parents.size();
    Tree t = Tree::from_parents(std::move(parents),
                                std::vector<Weight>(n, 1.0));
    ASSERT_EQ(t.leaf_count(), kLeaves);
    t.set_leaf_demands(std::vector<double>(kLeaves, 0.1));
    for (Vertex v = 0; v < t.node_count(); ++v) {
      depth[i] = std::max(depth[i], t.depth(v));
    }
    stats[i] = solve_rhgpt(t, h, opt).stats;
  }
  ASSERT_EQ(depth[0], 5);
  ASSERT_EQ(depth[1], kLeaves - 1);
  ASSERT_EQ(stats[0].signature_count, stats[1].signature_count);
  EXPECT_EQ(stats[0].arena_bytes, stats[1].arena_bytes)
      << "|Sig| " << stats[0].signature_count;
}

}  // namespace
}  // namespace hgp
