// Demand rounding (§3, "Dynamic Programming" preamble).
//
// The paper scales demands by ε/n and floors:  d'(v) = ⌊d(v) · n/ε⌋, i.e.
// U = ⌈n/ε⌉ integer demand units per unit of leaf capacity.  The flooring
// under-counts each job by < 1 unit, and since at most n jobs land on one
// H-node the real load exceeds the unit-counted load by at most ε·CP —
// the (1+ε) factor of Theorem 2.
//
// One refinement over the paper's description: jobs are rounded to at least
// one unit (d' = max(1, ⌊d·U⌋)).  The signature DP cannot distinguish "no
// active set" from "an active set of zero-demand jobs", so zero-unit jobs
// would make cut accounting ambiguous; a one-unit floor keeps every job
// visible.  Rounding *up* can only tighten capacities, never loosen them,
// so the (1+ε) violation guarantee is unaffected.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/tree.hpp"
#include "hierarchy/hierarchy.hpp"

namespace hgp {

using DemandUnits = std::int64_t;

struct ScaledDemands {
  /// Units per unit of leaf capacity (U above).
  DemandUnits units_per_capacity = 0;
  /// Rounded demand per tree node (internal nodes 0), in units.
  std::vector<DemandUnits> units;
  /// Σ units — the paper's D.
  DemandUnits total = 0;
  /// Scaled capacity per hierarchy level: CPs[j] = CP[j] · U, j in [0, h].
  std::vector<DemandUnits> capacity;

  DemandUnits capacity_at(int level) const {
    return capacity[static_cast<std::size_t>(level)];
  }
};

/// Chooses U from ε (U = ⌈n/ε⌉ with n = leaf count) unless units_override
/// > 0, then rounds every leaf demand of `t`.
ScaledDemands scale_demands(const Tree& t, const Hierarchy& h, double epsilon,
                            DemandUnits units_override = 0);

/// The U and the rounded total D = Σ max(1, ⌊d·U⌋) that scale_demands
/// picks for these leaf demands, and the root capacity CP(0) · U.  It reads
/// only the demands (in any order: their sum is taken in sorted order), so
/// solve_hgp checks D against the capacity before it builds any tree.
/// Demands must lie in (0, 1].
struct RoundedTotal {
  DemandUnits units_per_capacity = 0;
  DemandUnits total = 0;
  DemandUnits capacity = 0;
};
RoundedTotal round_demands(std::span<const double> demands, const Hierarchy& h,
                           double epsilon, DemandUnits units_override = 0);

/// Why no placement of the rounded demands fits the hierarchy (the
/// rounded total exceeds the root capacity); empty when it fits.
std::string rounded_total_overflow(const RoundedTotal& rounded);

/// Throws SolveError(kInfeasible, rounded_total_overflow(rounded)) unless
/// that is empty.
void require_rounded_total_fits(const RoundedTotal& rounded);

}  // namespace hgp
