// E1 — Theorem 2 / Theorem 4 on trees.
//
// On instances small enough for the exact branch-and-bound oracle, the tree
// solver's cost must not exceed the violation-free HGPT optimum (the DP
// solves the *relaxation* optimally, and the Theorem-5 conversion never
// increases cost), while its capacity violation stays within (1+ε)(1+h).
#include <cstdio>
#include <iostream>

#include "baseline/exact.hpp"
#include "core/tree_solver.hpp"
#include "exp/report.hpp"
#include "exp/workloads.hpp"
#include "graph/generators.hpp"
#include "util/table.hpp"

namespace hgp {
namespace {

int run() {
  exp::print_header(
      "E1", "tree solver vs exact optimum (Theorems 2 and 4)",
      "cost(DP+conversion) <= OPT_HGPT; violation <= (1+eps)(1+h)");
  const double eps = 0.5;
  bool all_ok = true;
  Table table({"h", "seed", "jobs", "exact OPT", "relaxed (DP)", "final cost",
               "cost/OPT", "violation", "bound"});
  for (const int height : {1, 2}) {
    std::vector<double> cm;
    for (int j = height; j >= 0; --j) cm.push_back(2.0 * j);
    const Hierarchy h = Hierarchy::uniform(height, 2, cm);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Tree t = exp::make_tree_workload(16, h, seed * 977, 0.8);
      const ExactTreeResult exact = solve_exact_hgpt(t, h);
      if (!exact.feasible) continue;
      TreeDpOptions opt;
      opt.epsilon = eps;
      const TreeHgpSolution sol = solve_hgpt(t, h, opt);
      const double cost = assignment_cost(t, h, sol.assignment);
      const double bound = (1 + eps) * (1 + height);
      table.row()
          .add(height)
          .add(static_cast<std::int64_t>(seed))
          .add(static_cast<std::int64_t>(t.leaf_count()))
          .add(exact.cost)
          .add(sol.relaxed_cost)
          .add(cost)
          .add(exact.cost > 0 ? cost / exact.cost : 1.0)
          .add(sol.max_violation())
          .add(bound);
      all_ok &= cost <= exact.cost + 1e-6;
      all_ok &= sol.relaxed_cost <= exact.cost + 1e-6;
      all_ok &= sol.max_violation() <= bound + 1e-9;
    }
  }
  table.print(std::cout);
  std::printf("\n");
  const bool ok = exp::check(
      "every instance: cost <= exact OPT and violation within bound", all_ok);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hgp

int main() { return hgp::run(); }
