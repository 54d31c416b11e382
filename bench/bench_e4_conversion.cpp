// E4 — Theorem 5: RHGPT → HGPT conversion.
//
// Sweeps tree sizes and hierarchy heights; for each instance verifies that
// the conversion never increases the cost and that the measured level-j
// violation stays within (1+ε)(1+j).  The table reports the *observed*
// worst violation per level against the theorem's bound — the paper's
// bound is loose in practice, which is part of the story.
#include <cstdio>
#include <iostream>

#include "core/tree_solver.hpp"
#include "exp/report.hpp"
#include "exp/workloads.hpp"
#include "util/table.hpp"

namespace hgp {
namespace {

int run() {
  exp::print_header(
      "E4", "RHGPT->HGPT conversion (Theorem 5)",
      "conversion preserves cost; level-j violation <= 2(1+j) "
      "(the unit-floor rounding bound; (1+eps)(1+j) for U >= n/eps)");
  bool all_ok = true;
  Table table({"h", "n(tree)", "jobs", "relaxed", "final", "cost ok",
               "worst level viol", "at level", "bound there"});
  for (const int height : {1, 2, 3}) {
    std::vector<double> cm;
    for (int j = height; j >= 0; --j) cm.push_back(2.0 * j);
    const Hierarchy h = Hierarchy::uniform(height, 2, cm);
    for (const Vertex n : {40, 90, 180}) {
      const Tree t = exp::make_tree_workload(
          n, h, static_cast<std::uint64_t>(height) * 1000 + n, 0.6);
      TreeDpOptions opt;
      opt.units_override = exp::auto_units(t, h, 2.0);
      const TreeHgpSolution sol = solve_hgpt(t, h, opt);
      const double cost = assignment_cost(t, h, sol.assignment);
      int worst_level = 0;
      double worst_excess = -1;
      bool viol_ok = true;
      for (int j = 0; j <= height; ++j) {
        const double bound = 2.0 * (1 + j);
        const double v = sol.violation[static_cast<std::size_t>(j)];
        viol_ok &= v <= bound + 1e-9;
        if (v / bound > worst_excess) {
          worst_excess = v / bound;
          worst_level = j;
        }
      }
      const bool cost_ok = cost <= sol.relaxed_cost + 1e-9;
      table.row()
          .add(height)
          .add(n)
          .add(static_cast<std::int64_t>(t.leaf_count()))
          .add(sol.relaxed_cost)
          .add(cost)
          .add(cost_ok ? "yes" : "NO")
          .add(sol.violation[static_cast<std::size_t>(worst_level)])
          .add(worst_level)
          .add(2.0 * (1 + worst_level));
      all_ok &= cost_ok && viol_ok;
    }
  }
  table.print(std::cout);
  std::printf("\n");
  const bool ok = exp::check(
      "cost never increases; violations within 2(1+j) at every level",
      all_ok);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hgp

int main() { return hgp::run(); }
