// A3 (ablation) — Pareto dominance pruning of DP states.
//
// The pruning is provably lossless (same presence class, componentwise
// ≥ demand, ≥ cost ⇒ the entry can never beat its dominator in any parent
// combination).  This ablation measures the cost identity and the
// state/time reduction that makes taller hierarchies practical.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "core/tree_dp.hpp"
#include "exp/report.hpp"
#include "exp/workloads.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace hgp {
namespace {

Hierarchy hier_of(int height) {
  std::vector<double> cm;
  for (int j = height; j >= 0; --j) cm.push_back(2.0 * j);
  return Hierarchy::uniform(height, 2, cm);
}

int run() {
  exp::print_header("A3", "ablation: DP dominance pruning",
                    "identical optima; states and time shrink by orders of "
                    "magnitude on taller hierarchies");
  Table table({"h", "jobs", "states (off)", "states (on)", "ms (off)",
               "ms (on)", "speedup", "same cost"});
  bool all_equal = true;
  // One record per h for scripts/run_benches.sh (BENCH_JSON line below).
  std::string json;
  for (const int height : {1, 2, 3}) {
    const Hierarchy h = hier_of(height);
    const Tree t = exp::make_tree_workload(60, h, 7, 0.6);
    TreeDpOptions on;
    on.units_override = exp::auto_units(t, h, 2.0);
    TreeDpOptions off = on;
    off.prune_dominated = false;
    Timer ta;
    const TreeDpResult ron = solve_rhgpt(t, h, on);
    const double ms_on = ta.millis();
    Timer tb;
    const TreeDpResult roff = solve_rhgpt(t, h, off);
    const double ms_off = tb.millis();
    const bool equal = std::abs(ron.cost - roff.cost) < 1e-9;
    table.row()
        .add(height)
        .add(static_cast<std::int64_t>(t.leaf_count()))
        .add(static_cast<std::int64_t>(roff.stats.feasible_states))
        .add(static_cast<std::int64_t>(ron.stats.feasible_states))
        .add(ms_off, 1)
        .add(ms_on, 1)
        .add(ms_on > 0 ? ms_off / ms_on : 0.0, 1)
        .add(equal ? "yes" : "NO");
    all_equal &= equal;
    char rec[256];
    std::snprintf(rec, sizeof rec,
                  "%s{\"h\": %d, \"states_off\": %zu, \"states_on\": %zu, "
                  "\"ms_off\": %.1f, \"ms_on\": %.1f}",
                  json.empty() ? "" : ", ", height,
                  roff.stats.feasible_states, ron.stats.feasible_states,
                  ms_off, ms_on);
    json += rec;
  }
  table.print(std::cout);
  std::printf("\n");
  const bool ok = exp::check("pruned and unpruned optima identical", all_equal);
  std::printf("BENCH_JSON: {\"per_h\": [%s]}\n", json.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hgp

int main() { return hgp::run(); }
