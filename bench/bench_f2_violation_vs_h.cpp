// F2 — figure: capacity violation vs hierarchy height.
//
// Theorem 2's violation bound (1+ε)(1+h) grows linearly with h; the figure
// shows the measured worst violation sitting under that line, and how much
// slack there is in practice.
#include <cstdio>
#include <iostream>

#include "core/tree_solver.hpp"
#include "exp/report.hpp"
#include "exp/workloads.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hgp {
namespace {

int run() {
  exp::print_header("F2", "violation vs hierarchy height (figure)",
                    "max measured violation <= 2(1+h) (unit-floor bound; "
                    "(1+eps)(1+h) when U >= n/eps) at every h");
  Table table({"h", "instances", "mean violation", "max violation",
               "bound 2(1+h)", "within"});
  CsvWriter csv({"h", "mean", "max", "bound"});
  bool all_ok = true;
  for (const int height : {1, 2, 3, 4}) {
    std::vector<double> cm;
    for (int j = height; j >= 0; --j) cm.push_back(2.0 * j);
    const Hierarchy h = Hierarchy::uniform(height, 2, cm);
    Samples viol;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Tree t = exp::make_tree_workload(
          60, h, seed * 613 + static_cast<std::uint64_t>(height), 0.6);
      TreeDpOptions opt;
      opt.units_override = exp::auto_units(t, h, 2.0);
      const TreeHgpSolution sol = solve_hgpt(t, h, opt);
      viol.add(sol.max_violation());
    }
    const double bound = 2.0 * (1 + height);
    const bool within = viol.max() <= bound + 1e-9;
    table.row()
        .add(height)
        .add(static_cast<std::int64_t>(viol.count()))
        .add(viol.mean())
        .add(viol.max())
        .add(bound)
        .add(within ? "yes" : "NO");
    csv.row()
        .add(static_cast<std::int64_t>(height))
        .add(viol.mean())
        .add(viol.max())
        .add(bound);
    all_ok &= within;
  }
  table.print(std::cout);
  exp::maybe_write_csv(csv, "bench_f2_violation_vs_h");
  std::printf("\n");
  const bool ok = exp::check("violation within the 2(1+h) line for all h",
                             all_ok);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hgp

int main() { return hgp::run(); }
