// E7 — §3's running-time analysis (and figure F3).
//
// The paper bounds the DP by O(n · D^(3h+2)): polynomial in the tree size
// and the demand resolution (D grows with 1/ε), exponential in the
// hierarchy height.  Three sweeps make those dependencies visible:
//   (a) n with everything else fixed — near-linear growth (each point
//       the fastest of five rounds),
//   (b) demand units U (our 1/ε dial) — polynomial growth, exponent
//       increasing with h,
//   (c) height h — the super-polynomial wall that motivates "h constant".
//   (d) dominance pruning A/B at the largest size, quantifying the
//       optimization layer on top of the asymptotics.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/tree_dp.hpp"
#include "exp/report.hpp"
#include "exp/workloads.hpp"
#include "util/csv.hpp"
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
  exp::print_header("E7", "DP running time (analysis in §3, figure F3)",
                    "time polynomial in n and demand resolution, "
                    "exponential in hierarchy height h");
  CsvWriter csv({"sweep", "x", "ms", "signatures", "merges"});
  // Totals across all sweep points, persisted by scripts/run_benches.sh
  // (BENCH_JSON line below) as this bench's perf-trajectory record.
  double solve_ms_total = 0;
  std::uint64_t sig_total = 0, feasible_total = 0, merge_total = 0;
  Vertex n_max = 0;
  // One record row per point of sweeps (a)-(c).
  std::string rows;
  auto tally = [&](const char* sweep, std::int64_t x, Vertex n, double ms,
                   const TreeDpStats& stats) {
    n_max = std::max(n_max, n);
    solve_ms_total += ms;
    sig_total += stats.signature_count;
    feasible_total += stats.feasible_states;
    merge_total += stats.merge_operations;
    char row[256];
    std::snprintf(row, sizeof row,
                  "%s{\"sweep\": \"%s\", \"x\": %lld, \"ms\": %.2f, "
                  "\"signatures\": %zu, \"feasible_states\": %zu, "
                  "\"merge_operations\": %zu}",
                  rows.empty() ? "" : ", ", sweep,
                  static_cast<long long>(x), ms, stats.signature_count,
                  stats.feasible_states, stats.merge_operations);
    rows += row;
  };

  std::printf("-- (a) n sweep (h = 2, ~2 units per job)\n");
  Table ta({"n(tree)", "jobs", "ms", "signatures", "feasible states",
            "merge ops"});
  const Hierarchy h2 = hier_of(2);
  // A point takes a few milliseconds, so a host stall, or the host
  // turning slower between two neighbouring points, would read as
  // super-polynomial growth.  Each point is the fastest of five rounds
  // over the whole sweep: a slow stretch slows every point of a round
  // alike, and one fast round per point is enough.
  constexpr std::array<Vertex, 4> kSweepN{40, 80, 160, 320};
  constexpr int kSweepRounds = 5;
  std::vector<Tree> sweep_trees;
  std::vector<TreeDpOptions> sweep_opts(kSweepN.size());
  for (std::size_t i = 0; i < kSweepN.size(); ++i) {
    sweep_trees.push_back(
        exp::make_tree_workload(kSweepN[i], h2, kSweepN[i], 0.6));
    sweep_opts[i].units_override = exp::auto_units(sweep_trees[i], h2, 2.0);
  }
  std::vector<double> sweep_ms(kSweepN.size(),
                               std::numeric_limits<double>::infinity());
  std::vector<TreeDpStats> sweep_stats(kSweepN.size());
  for (int round = 0; round < kSweepRounds; ++round) {
    for (std::size_t i = 0; i < kSweepN.size(); ++i) {
      Timer timer;
      sweep_stats[i] = solve_rhgpt(sweep_trees[i], h2, sweep_opts[i]).stats;
      sweep_ms[i] = std::min(sweep_ms[i], timer.millis());
    }
  }
  double last_ms = 0, last_n = 0;
  double worst_n_exponent = 0;
  for (std::size_t i = 0; i < kSweepN.size(); ++i) {
    const Vertex n = kSweepN[i];
    const Tree& t = sweep_trees[i];
    const TreeDpStats& stats = sweep_stats[i];
    const double ms = sweep_ms[i];
    ta.row()
        .add(n)
        .add(static_cast<std::int64_t>(t.leaf_count()))
        .add(ms, 1)
        .add(static_cast<std::int64_t>(stats.signature_count))
        .add(static_cast<std::int64_t>(stats.feasible_states))
        .add(static_cast<std::int64_t>(stats.merge_operations));
    csv.row().add(std::string("n")).add(static_cast<std::int64_t>(n)).add(ms);
    tally("n", n, n, ms, stats);
    // Sub-millisecond points are timing noise, not growth signal; the
    // arena/pruning layer pushed the small sizes under that floor.
    if (last_ms > 0.5 && ms > 0.5) {
      worst_n_exponent = std::max(
          worst_n_exponent, std::log(ms / last_ms) / std::log(n / last_n));
    }
    last_ms = ms;
    last_n = n;
  }
  ta.print(std::cout);

  std::printf("\n-- (b) demand-unit sweep (h = 2, n = 160)\n");
  Table tb({"units U", "~epsilon", "ms", "signatures", "merge ops"});
  const Tree tsweep = exp::make_tree_workload(160, h2, 77, 0.6);
  const DemandUnits base_u = exp::auto_units(tsweep, h2, 1.0);
  for (const DemandUnits u :
       {base_u, 2 * base_u, 3 * base_u, 4 * base_u, 6 * base_u}) {
    TreeDpOptions opt;
    opt.units_override = u;
    Timer timer;
    const TreeDpResult r = solve_rhgpt(tsweep, h2, opt);
    const double ms = timer.millis();
    tb.row()
        .add(static_cast<std::int64_t>(u))
        .add(static_cast<double>(tsweep.leaf_count()) / static_cast<double>(u),
             2)
        .add(ms, 1)
        .add(static_cast<std::int64_t>(r.stats.signature_count))
        .add(static_cast<std::int64_t>(r.stats.merge_operations));
    csv.row().add(std::string("U")).add(static_cast<std::int64_t>(u)).add(ms);
    tally("U", u, 160, ms, r.stats);
  }
  tb.print(std::cout);

  std::printf("\n-- (c) height sweep (n = 120, ~1.5 units per job)\n");
  Table tc({"h", "leaves(H)", "ms", "signatures", "merge ops"});
  // The h = 1 and h = 2 points solve in under a millisecond, so a check
  // between neighbouring heights can find no pair above the timing floor.
  // The growth check compares h = 3 with h = 1 instead, each the fastest
  // of kSweepRounds rounds as in the n sweep; the table and the record
  // keep the first round's time, as they always have.
  constexpr std::array<int, 3> kHeights{1, 2, 3};
  std::array<double, kHeights.size()> height_best{};
  for (std::size_t i = 0; i < kHeights.size(); ++i) {
    const int height = kHeights[i];
    const Hierarchy hh = hier_of(height);
    const Tree theight = exp::make_tree_workload(120, hh, 99, 0.6);
    TreeDpOptions opt;
    opt.units_override = exp::auto_units(theight, hh, 1.5);
    Timer timer;
    const TreeDpResult r = solve_rhgpt(theight, hh, opt);
    const double ms = timer.millis();
    height_best[i] = ms;
    for (int round = 1; round < kSweepRounds; ++round) {
      Timer again;
      (void)solve_rhgpt(theight, hh, opt);
      height_best[i] = std::min(height_best[i], again.millis());
    }
    tc.row()
        .add(height)
        .add(static_cast<std::int64_t>(hh.leaf_count()))
        .add(ms, 1)
        .add(static_cast<std::int64_t>(r.stats.signature_count))
        .add(static_cast<std::int64_t>(r.stats.merge_operations));
    csv.row().add(std::string("h")).add(static_cast<std::int64_t>(height)).add(ms);
    tally("h", height, 120, ms, r.stats);
  }
  const double growth_factor =
      height_best.back() > 0.5 ? height_best.back() / height_best.front() : 0;
  tc.print(std::cout);

  std::printf("\n-- (d) dominance pruning A/B (h = 2, largest n)\n");
  Table td({"config", "ms", "merge ops", "merges/ms"});
  const Tree tbig = exp::make_tree_workload(n_max, h2, n_max, 0.6);
  TreeDpOptions dbase;
  dbase.units_override = exp::auto_units(tbig, h2, 2.0);
  auto drow = [&](const char* name, const TreeDpOptions& opt) {
    Timer timer;
    const TreeDpResult r = solve_rhgpt(tbig, h2, opt);
    const double ms = timer.millis();
    td.row()
        .add(std::string(name))
        .add(ms, 1)
        .add(static_cast<std::int64_t>(r.stats.merge_operations))
        .add(static_cast<double>(r.stats.merge_operations) / ms, 0);
    csv.row().add(std::string(name)).add(std::int64_t{0}).add(ms);
    return ms;
  };
  const double seq_ms = drow("sequential", dbase);
  TreeDpOptions doff = dbase;
  doff.prune_dominated = false;
  drow("pruning off", doff);
  td.print(std::cout);
  exp::maybe_write_csv(csv, "bench_e7_dp_scaling");

  std::printf("\n");
  bool ok = exp::check(
      "n-sweep growth polynomial, well below the paper's D^(3h+2) "
      "(empirical exponent <= 3.2)",
      worst_n_exponent <= 3.2);
  ok &= exp::check("height sweep shows super-linear state growth",
                   growth_factor > 1.0);
  std::printf(
      "BENCH_JSON: {\"machine\": %s, \"n\": %d, \"solve_ms\": %.1f, "
      "\"signatures\": %llu, \"feasible_states\": %llu, "
      "\"merge_operations\": %llu, \"merges_per_ms\": %.0f, "
      "\"sequential_ms\": %.1f, \"rows\": [%s]}\n",
      exp::machine_fingerprint_json().c_str(), n_max, solve_ms_total,
      static_cast<unsigned long long>(sig_total),
      static_cast<unsigned long long>(feasible_total),
      static_cast<unsigned long long>(merge_total),
      static_cast<double>(merge_total) / std::max(solve_ms_total, 1e-9),
      seq_ms, rows.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hgp

int main() { return hgp::run(); }
