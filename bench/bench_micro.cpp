// Microbenchmarks (google-benchmark) for the library's hot kernels:
// cost evaluation, tree separators, decomposition building, and the
// signature DP at several resolutions.
#include <benchmark/benchmark.h>

#include "core/tree_dp.hpp"
#include "decomp/builder.hpp"
#include "exp/workloads.hpp"
#include "graph/generators.hpp"
#include "hierarchy/cost.hpp"

namespace hgp {
namespace {

Graph bench_graph(Vertex n) {
  const Hierarchy h = exp::hierarchy_socket_core_ht();
  return exp::make_workload(exp::Family::PlantedPartition, n, h, 7);
}

Placement bench_placement(const Graph& g, const Hierarchy& h) {
  Rng rng(5);
  Placement p;
  p.leaf_of.resize(static_cast<std::size_t>(g.vertex_count()));
  for (auto& leaf : p.leaf_of) {
    leaf = narrow<LeafId>(
        rng.next_below(static_cast<std::uint64_t>(h.leaf_count())));
  }
  return p;
}

void BM_PlacementCostDirect(benchmark::State& state) {
  const Hierarchy h = exp::hierarchy_socket_core_ht();
  const Graph g = bench_graph(narrow<Vertex>(state.range(0)));
  const Placement p = bench_placement(g, h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement_cost(g, h, p));
  }
  state.SetItemsProcessed(state.iterations() * g.edge_count());
}
BENCHMARK(BM_PlacementCostDirect)->Arg(64)->Arg(256)->Arg(1024);

void BM_PlacementCostMirror(benchmark::State& state) {
  const Hierarchy h = exp::hierarchy_socket_core_ht();
  const Graph g = bench_graph(narrow<Vertex>(state.range(0)));
  const Placement p = bench_placement(g, h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement_cost_mirror(g, h, p));
  }
}
BENCHMARK(BM_PlacementCostMirror)->Arg(64)->Arg(256)->Arg(1024);

void BM_LeafSeparator(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gen::random_tree(narrow<Vertex>(state.range(0)), rng,
                                   gen::WeightRange{1.0, 9.0});
  const Tree t = Tree::from_graph(g, 0);
  std::vector<char> in_set(static_cast<std::size_t>(t.node_count()), 0);
  for (Vertex leaf : t.leaves()) {
    in_set[static_cast<std::size_t>(leaf)] = rng.next_bool(0.5) ? 1 : 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.leaf_separator(in_set).weight);
  }
}
BENCHMARK(BM_LeafSeparator)->Arg(256)->Arg(2048);

void BM_DecompTreeBuild(benchmark::State& state) {
  const Graph g = bench_graph(narrow<Vertex>(state.range(0)));
  const FmCutter cutter;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    benchmark::DoNotOptimize(build_decomp_tree(g, rng, cutter));
  }
}
BENCHMARK(BM_DecompTreeBuild)->Arg(64)->Arg(256)->Arg(1024);

void BM_TreeDp(benchmark::State& state) {
  const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});
  const Tree t = exp::make_tree_workload(narrow<Vertex>(state.range(0)), h,
                                         11, 0.6);
  TreeDpOptions opt;
  opt.units_override =
      exp::auto_units(t, h, static_cast<double>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_rhgpt(t, h, opt));
  }
}
BENCHMARK(BM_TreeDp)
    ->Args({100, 2})
    ->Args({100, 4})
    ->Args({200, 2})
    ->Args({200, 4});

}  // namespace
}  // namespace hgp

BENCHMARK_MAIN();
