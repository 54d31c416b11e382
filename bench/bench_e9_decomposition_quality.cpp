// E9 — decomposition-tree quality (Proposition 1, Theorem 6/7 empirics).
//
// Measures the cut stretch w_T(CUT_T(P)) / w(δ_G(m(P))) of sampled leaf
// subsets for every cutter × workload family, and the effect of tree
// quality on the final solution cost.  Proposition 1 predicts min ratio
// ≥ 1; better cutters should show smaller mean stretch AND cheaper final
// placements — the ablation behind the solver's default cutter choice.
#include <cstdio>

#include <functional>
#include <iostream>
#include <string>

#include "runtime/solver.hpp"
#include "decomp/builder.hpp"
#include "decomp/frt.hpp"
#include "decomp/quality.hpp"
#include "exp/report.hpp"
#include "exp/workloads.hpp"
#include "util/table.hpp"

namespace hgp {
namespace {

int run() {
  exp::print_header("E9", "decomposition-tree quality (Prop. 1, Thm. 6/7)",
                    "tree cuts dominate graph cuts (ratio >= 1); better "
                    "cutters -> smaller stretch -> cheaper final solutions");
  const Hierarchy h = exp::hierarchy_two_level(2, 4);
  const SpectralCutter spectral;
  const FmCutter fm;
  const RandomCutter random;
  const MinCutCutter mincut;
  // Cut-based recursive builders plus the FRT metric-embedding family.
  struct Builderx {
    std::string name;
    const Cutter* cutter;  // nullptr = FRT
  };
  const std::vector<Builderx> builders{{"spectral", &spectral},
                                       {"spectral+fm", &fm},
                                       {"min-cut", &mincut},
                                       {"random", &random},
                                       {"frt-metric", nullptr}};

  bool prop1_ok = true;
  bool ablation_ok = true;
  Table table({"family", "tree family", "mean stretch", "max stretch",
               "min stretch", "final cost"});
  std::string rows;  // BENCH_JSON records, one per table row
  for (const auto family :
       {exp::Family::PlantedPartition, exp::Family::StreamDag,
        exp::Family::Grid, exp::Family::Random}) {
    const Graph g = exp::make_workload(family, 72, h, 13);
    double fm_cost = -1, random_cost = -1;
    for (const auto& bx : builders) {
      Rng rng(21);
      const DecompTree dt = bx.cutter != nullptr
                                ? build_decomp_tree(g, rng, *bx.cutter)
                                : build_frt_tree(g, rng);
      const CutQuality q = measure_cut_quality(g, dt, 120, rng);
      double final_cost;
      if (bx.cutter != nullptr) {
        SolverOptions opt;
        opt.num_trees = 2;
        opt.units_override = 8;
        opt.cutter = bx.cutter;
        opt.seed = 5;
        final_cost = solve_hgp(g, h, opt).cost;
      } else {
        // FRT trees go through the tree solver directly (one sample).
        TreeDpOptions topt;
        topt.units_override = 8;
        const TreeHgpSolution sol = solve_hgpt(dt.tree(), h, topt);
        Placement p;
        p.leaf_of.assign(static_cast<std::size_t>(g.vertex_count()), 0);
        for (Vertex v = 0; v < g.vertex_count(); ++v) {
          p.leaf_of[static_cast<std::size_t>(v)] =
              sol.assignment.of(dt.leaf_of_vertex(v));
        }
        final_cost = placement_cost(g, h, p);
      }
      char record[256];
      std::snprintf(record, sizeof record,
                    "%s{\"family\": \"%s\", \"tree\": \"%s\", "
                    "\"mean_stretch\": %.4f, \"max_stretch\": %.4f, "
                    "\"min_stretch\": %.4f, \"final_cost\": %.3f}",
                    rows.empty() ? "" : ", ", exp::family_name(family),
                    bx.name.c_str(), q.mean_ratio, q.max_ratio, q.min_ratio,
                    final_cost);
      rows += record;
      table.row()
          .add(exp::family_name(family))
          .add(bx.name)
          .add(q.mean_ratio)
          .add(q.max_ratio)
          .add(q.min_ratio)
          .add(final_cost);
      prop1_ok &= q.min_ratio >= 1.0 - 1e-9;
      if (bx.cutter == &fm) fm_cost = final_cost;
      if (bx.cutter == &random) random_cost = final_cost;
    }
    // Structure-aware trees should not lose to structure-oblivious ones
    // (allow a little noise on the unstructured families).
    ablation_ok &= fm_cost <= random_cost * 1.15 + 1e-9;
  }
  table.print(std::cout);
  std::printf("\n");
  bool ok = exp::check("Proposition 1: stretch >= 1 on every sample", prop1_ok);
  ok &= exp::check("spectral+fm trees never lose to random trees (within 15%)",
                   ablation_ok);
  // For scripts/run_benches.sh.
  std::printf("BENCH_JSON: {\"machine\": %s, \"rows\": [%s]}\n",
              exp::machine_fingerprint_json().c_str(), rows.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hgp

int main() { return hgp::run(); }
