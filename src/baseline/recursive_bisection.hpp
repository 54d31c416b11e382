// Dual recursive bipartitioning (Pellegrini [22] / SCOTCH [23] style).
//
// Recursively splits the hierarchy and the task graph in lockstep: at a
// level-j H-node with DEG[j] children, the current task set is divided into
// DEG[j] demand-proportional parts by repeated spectral+FM bisection, each
// part descending into one child subtree.  This is the heuristic lineage
// the paper cites as prior practice — the natural comparison point for the
// approximation algorithm.
#pragma once

#include "graph/graph.hpp"
#include "hierarchy/placement.hpp"
#include "util/prng.hpp"

namespace hgp {

struct RecursiveBisectionOptions {
  int fm_passes = 4;
  /// Parts may exceed their proportional demand share by this factor
  /// before the splitter rebalances greedily.
  double imbalance = 0.1;
};

/// FM refinement of `side` toward a `target` share of the demand on side 1
/// (unit demand when absent), keeping side 1 within `slack` of it; the
/// baseline's splitter, exposed for tests.
void fm_refine_target(const Graph& g, std::vector<char>& side, double target,
                      double slack, int passes);

Placement recursive_bisection_placement(
    const Graph& g, const Hierarchy& h, Rng& rng,
    const RecursiveBisectionOptions& opt = {});

}  // namespace hgp
