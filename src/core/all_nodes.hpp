// The dummy-leaf reduction (§3, after Definition 2).
//
// HGPT partitions only the *leaves* of a tree.  When every node of the
// tree is a job — internal relay operators also consume CPU — the paper
// reduces to the leaf case: attach to each internal node a dummy leaf by
// an edge of infinite weight.  No finite-cost solution separates a node
// from its dummy, so assignments of the modified tree's leaves correspond
// exactly (and at equal cost) to assignments of all original nodes.
#pragma once

#include <vector>

#include "core/tree_solver.hpp"
#include "graph/tree.hpp"
#include "hierarchy/hierarchy.hpp"

namespace hgp {

struct AllNodesReduction {
  /// The modified tree: original topology plus one dummy leaf per original
  /// internal node, attached by an uncuttable edge.
  Tree tree;
  /// job_leaf[v] = the leaf of `tree` carrying original node v's job:
  /// v itself if v was a leaf, its dummy otherwise.
  std::vector<Vertex> job_leaf;
};

/// `t` must carry a demand for EVERY node (internal included), i.e. its
/// demand vector is all-positive.  Demands move onto the job leaves.
AllNodesReduction reduce_all_nodes(const Tree& t,
                                   const std::vector<double>& demand);

struct AllNodesSolution {
  /// leaf_of[v] = H-leaf hosting original node v (every node assigned).
  std::vector<LeafId> leaf_of;
  double cost = 0;           ///< HGPT objective on the reduced tree
  double relaxed_cost = 0;
  std::vector<double> violation;
};

/// Solves HGPT for *all* nodes of `t` (each with the given demand) via the
/// reduction.
AllNodesSolution solve_hgpt_all_nodes(const Tree& t,
                                      const std::vector<double>& demand,
                                      const Hierarchy& h,
                                      const TreeDpOptions& opt = {});

}  // namespace hgp
