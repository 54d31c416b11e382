// E12 — incremental repartitioning under churn: placement stability vs
// cost, and the DP-work saving of the warm-started re-solve path.
//
// A stream-DAG instance is driven through seeded churn batches
// (gen::churn) by an IncrementalSolver; every committed batch is also
// re-solved from scratch on the same patched forest.  Three claims are
// measured:
//
//   1. exactness — the incremental placement and cost are bit-identical
//      to the from-scratch solve on every batch (the invariant
//      tests/test_churn_differential.cpp pins; here it gates PASS on the
//      bench-scale instance too);
//   2. work — on drift-dominant schedules touching ≤ 10% of the vertices,
//      the incremental arm performs ≥ 5x fewer DP merge relaxations than
//      from-scratch (ISSUE acceptance floor; the measured run-level ratio
//      is reported and is typically well above 10x because demand drift
//      that rounds to the same units leaves the forest content-hash
//      clean);
//   3. stability — surviving vertices mostly keep their hierarchy leaf
//      across small batches (moved fraction reported per profile).
#include <cstdio>
#include <iostream>
#include <memory>

#include "exp/report.hpp"
#include "graph/generators.hpp"
#include "runtime/incremental.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace hgp {
namespace {

struct ProfileResult {
  int batches_committed = 0;
  std::size_t touched = 0;
  std::uint64_t inc_merges = 0;
  std::uint64_t scratch_merges = 0;
  std::uint64_t nodes_built = 0;
  std::uint64_t nodes_reused = 0;
  Vertex moved = 0;
  Vertex surviving = 0;
  bool identical = true;
};

std::shared_ptr<const Graph> make_instance() {
  Rng rng(977);
  gen::StreamDagOptions sopt;
  sopt.sources = 6;
  sopt.sinks = 3;
  sopt.stages = 8;
  sopt.stage_width = 24;
  sopt.demand_lo = 0.01;
  sopt.demand_hi = 0.05;
  return std::make_shared<const Graph>(gen::stream_dag(sopt, rng));
}

ProfileResult run_profile(const Hierarchy& h, const gen::ChurnOptions& copt,
                          int batches, std::uint64_t seed) {
  ProfileResult out;
  IncrementalOptions iopt;
  iopt.num_trees = 2;
  iopt.units_override = 3;
  iopt.seed = 11;
  IncrementalSolver solver(make_instance(), h, iopt);
  for (int b = 0; b < batches; ++b) {
    const auto log = solver.begin_batch();
    Rng crng(SplitMix64(seed + static_cast<std::uint64_t>(b)).next());
    gen::churn(*log, copt, crng);
    if (log->empty()) continue;
    out.touched += log->touched().size();
    ResolveStats rs;
    const HgpResult inc = solver.resolve(*log, ResolveOptions{}, &rs);
    ForestSolveOptions fo;
    fo.epsilon = iopt.epsilon;
    fo.units_override = solver.units();
    const HgpResult scratch =
        solve_on_forest(*solver.graph(), h, solver.forest(), fo);
    out.identical &= inc.cost == scratch.cost &&
                     inc.placement.leaf_of == scratch.placement.leaf_of;
    out.inc_merges += inc.telemetry.dp_merge_operations;
    out.scratch_merges += scratch.telemetry.dp_merge_operations;
    out.nodes_built += rs.nodes_built;
    out.nodes_reused += rs.nodes_reused;
    out.moved += rs.moved_vertices;
    out.surviving += rs.surviving_vertices;
    ++out.batches_committed;
  }
  return out;
}

int run() {
  exp::print_header(
      "E12", "incremental repartitioning under churn",
      "warm-started resolves are bit-identical to from-scratch and do "
      ">= 5x fewer merges on drift schedules touching <= 10% of vertices");
  const Hierarchy h = Hierarchy::uniform(1, 24, {2.0, 0.0});
  const Vertex n = make_instance()->vertex_count();
  Timer bench_timer;

  // Drift profile: volume reweights + sub-rounding demand nudges, the
  // ISSUE's "small churn" regime (same shape the differential suite pins).
  gen::ChurnOptions drift;
  drift.ops = 2;
  drift.w_add_vertex = 0;
  drift.w_remove_vertex = 0;
  drift.w_add_edge = 0;
  drift.w_remove_edge = 0;
  drift.w_reweight_edge = 1;
  drift.w_set_demand = 6;
  drift.demand_lo = 0.01;
  drift.demand_hi = 0.05;

  // Mixed profile: the full mutation mix including structural churn.
  gen::ChurnOptions mixed;
  mixed.ops = 6;
  mixed.demand_lo = 0.01;
  mixed.demand_hi = 0.05;
  mixed.min_live = 16;

  const ProfileResult d = run_profile(h, drift, 8, 1000);
  const ProfileResult m = run_profile(h, mixed, 8, 2000);

  Table table({"profile", "batches", "touched", "inc merges", "scratch merges",
               "merge ratio", "reused/built", "moved %", "identical"});
  const auto emit = [&](const char* name, const ProfileResult& r) {
    table.row()
        .add(name)
        .add(static_cast<std::int64_t>(r.batches_committed))
        .add(static_cast<std::int64_t>(r.touched))
        .add(static_cast<std::int64_t>(r.inc_merges))
        .add(static_cast<std::int64_t>(r.scratch_merges))
        .add(static_cast<double>(r.scratch_merges) /
             static_cast<double>(r.inc_merges > 0 ? r.inc_merges : 1))
        .add(static_cast<double>(r.nodes_reused) /
             static_cast<double>(r.nodes_built > 0 ? r.nodes_built : 1))
        .add(100.0 * static_cast<double>(r.moved) /
             static_cast<double>(r.surviving > 0 ? r.surviving : 1))
        .add(r.identical ? "yes" : "NO");
  };
  emit("drift", d);
  emit("mixed", m);
  table.print(std::cout);
  std::printf("\n");

  const double drift_ratio =
      static_cast<double>(d.scratch_merges) /
      static_cast<double>(d.inc_merges > 0 ? d.inc_merges : 1);
  bool all_ok = d.identical && m.identical;
  all_ok &= d.batches_committed > 0 && m.batches_committed > 0;
  const bool small = d.touched <= static_cast<std::size_t>(n) / 10;
  all_ok &= small;
  all_ok &= d.scratch_merges > 0 && drift_ratio >= 5.0;
  const bool ok = exp::check(
      "incremental == from-scratch on every batch, and the drift run "
      "(<= 10% of vertices touched) saves >= 5x merges", all_ok);

  // scripts/run_benches.sh persists this as BENCH_e12_churn.json;
  // scripts/ab_gate.py reads solve_ms for the same-machine A/B gate.
  std::printf(
      "BENCH_JSON: {\"n\": %u, \"solve_ms\": %.1f, "
      "\"merge_operations\": %llu, \"drift_inc_merges\": %llu, "
      "\"drift_scratch_merges\": %llu, \"drift_merge_ratio\": %.2f, "
      "\"drift_touched\": %zu, \"mixed_inc_merges\": %llu, "
      "\"mixed_scratch_merges\": %llu, \"moved_pct_drift\": %.2f}\n",
      n, bench_timer.millis(),
      static_cast<unsigned long long>(d.inc_merges + m.inc_merges +
                                      d.scratch_merges + m.scratch_merges),
      static_cast<unsigned long long>(d.inc_merges),
      static_cast<unsigned long long>(d.scratch_merges), drift_ratio,
      d.touched, static_cast<unsigned long long>(m.inc_merges),
      static_cast<unsigned long long>(m.scratch_merges),
      100.0 * static_cast<double>(d.moved) /
          static_cast<double>(d.surviving > 0 ? d.surviving : 1));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hgp

int main() { return hgp::run(); }
