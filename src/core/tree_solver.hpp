// HGPT solver (Theorem 2): DP + conversion, for tree instances.
//
// This is the public entry point for partitioning the leaves of a tree
// against a hierarchy: it runs the RHGPT signature DP (optimal over rounded
// demands) and the Theorem-5 regrouping, returning the leaf assignment, the
// relaxed solution and its cost, and the measured per-level violations.
// The Definition-2/3 cost of the assignment is assignment_cost(t, h,
// sol.assignment), computed only by callers that read it.
#pragma once

#include "core/convert.hpp"
#include "core/tree_dp.hpp"

namespace hgp {

struct TreeHgpSolution {
  /// Final HGPT solution: T-leaf → H-leaf.
  TreeAssignment assignment;
  /// The optimal relaxed solution it was derived from.
  RhgptSolution relaxed;
  /// RHGPT optimum (≤ the HGPT optimum: fewer constraints — the natural
  /// lower bound for approximation measurements).  The assignment's own
  /// cost is ≤ relaxed_cost by Theorem 5.
  double relaxed_cost = 0;
  /// Per-level capacity violations with real demands; Theorem 2 bounds
  /// violation[j] by (1+ε)(1+j).
  std::vector<double> violation;
  ScaledDemands scaled;
  TreeDpStats stats;

  double max_violation() const {
    double worst = 0;
    for (double v : violation) worst = std::max(worst, v);
    return worst;
  }
};

/// Requires leaf demands on `t`.  `opt` goes to the DP unchanged.
TreeHgpSolution solve_hgpt(const Tree& t, const Hierarchy& h,
                           const TreeDpOptions& opt = {});

}  // namespace hgp
