#include "decomp/builder.hpp"

#include <utility>

#include "obs/obs.hpp"

namespace hgp {

namespace {

/// One recursion frame: a vertex set awaiting expansion, and the id of the
/// tree node that represents it.
struct Frame {
  std::vector<Vertex> vertices;
  Vertex node;
};

}  // namespace

DecompTree build_decomp_tree(const Graph& g, Rng& rng, const Cutter& cutter,
                             const ExecContext* exec) {
  const Vertex n = g.vertex_count();
  HGP_CHECK_MSG(n >= 1, "cannot decompose the empty graph");
  HGP_TRACE_SPAN_ARG("decomp.tree_build", n);

  std::vector<Vertex> parent;
  std::vector<Weight> parent_weight;
  std::vector<Vertex> leaf_vertex;
  std::vector<char> scratch(static_cast<std::size_t>(n), 0);

  auto new_node = [&](Vertex par, Weight w) {
    parent.push_back(par);
    parent_weight.push_back(w);
    leaf_vertex.push_back(kInvalidVertex);
    return narrow<Vertex>(parent.size() - 1);
  };

  std::vector<Frame> stack;
  {
    std::vector<Vertex> all(static_cast<std::size_t>(n));
    for (Vertex v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
    stack.push_back(Frame{std::move(all), new_node(kInvalidVertex, 0)});
  }

  while (!stack.empty()) {
    if (exec != nullptr) exec->check("decomposition tree build");
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (frame.vertices.size() == 1) {
      leaf_vertex[static_cast<std::size_t>(frame.node)] = frame.vertices[0];
      continue;
    }
    const Graph sub = g.induced_subgraph(frame.vertices);
    std::vector<std::vector<Vertex>> parts;
    Vertex comp_count = 0;
    const auto comp = sub.components(&comp_count);
    if (comp_count > 1) {
      // Free split along connected components.
      HGP_COUNTER_ADD("decomp.component_splits", 1);
      parts.assign(static_cast<std::size_t>(comp_count), {});
      for (std::size_t i = 0; i < frame.vertices.size(); ++i) {
        parts[static_cast<std::size_t>(comp[i])].push_back(frame.vertices[i]);
      }
    } else {
      HGP_COUNTER_ADD("decomp.cuts_evaluated", 1);
      const std::vector<char> side = cutter.cut(sub, rng);
      HGP_CHECK_MSG(side.size() == frame.vertices.size(),
                    "cutter returned wrong-size bipartition");
      parts.assign(2, {});
      for (std::size_t i = 0; i < frame.vertices.size(); ++i) {
        parts[side[i] ? 1 : 0].push_back(frame.vertices[i]);
      }
      HGP_CHECK_MSG(!parts[0].empty() && !parts[1].empty(),
                    "cutter '" << cutter.name()
                               << "' returned an empty side");
    }
    for (auto& part : parts) {
      const Weight w = g.boundary_weight(part, scratch);
      const Vertex child = new_node(frame.node, w);
      stack.push_back(Frame{std::move(part), child});
    }
  }

  HGP_COUNTER_ADD("decomp.trees_built", 1);
  Tree tree = Tree::from_parents(std::move(parent), std::move(parent_weight));
  if (g.has_demands()) {
    std::vector<double> demand(static_cast<std::size_t>(tree.node_count()),
                               0.0);
    for (Vertex t : tree.leaves()) {
      demand[static_cast<std::size_t>(t)] =
          g.demand(leaf_vertex[static_cast<std::size_t>(t)]);
    }
    tree.set_demands(std::move(demand));
  }
  return DecompTree(std::move(tree), std::move(leaf_vertex), g);
}

std::vector<Rng> forest_tree_rngs(std::uint64_t seed, int count) {
  HGP_CHECK(count >= 0);
  Rng parent(seed);
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    rngs.push_back(parent.fork(static_cast<std::uint64_t>(i)));
  }
  return rngs;
}

std::vector<DecompTree> build_decomposition_forest(const Graph& g, int count,
                                                   std::uint64_t seed,
                                                   const Cutter& cutter) {
  HGP_CHECK(count >= 1);
  std::vector<DecompTree> forest;
  forest.reserve(static_cast<std::size_t>(count));
  for (Rng& rng : forest_tree_rngs(seed, count)) {
    forest.push_back(build_decomp_tree(g, rng, cutter));
  }
  return forest;
}

}  // namespace hgp
