#include "decomp/frt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "obs/obs.hpp"

namespace hgp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Single-source shortest paths with edge length 1/w ("communication
/// closeness": heavy channels are short).
std::vector<double> dijkstra(const Graph& g, Vertex source) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  std::vector<double> dist(n, kInf);
  using Item = std::pair<double, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  dist[static_cast<std::size_t>(source)] = 0;
  queue.emplace(0.0, source);
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    for (const HalfEdge& e : g.neighbors(v)) {
      const double len = e.weight > 0 ? 1.0 / e.weight : kInf;
      const double nd = d + len;
      if (nd < dist[static_cast<std::size_t>(e.to)]) {
        dist[static_cast<std::size_t>(e.to)] = nd;
        queue.emplace(nd, e.to);
      }
    }
  }
  return dist;
}

}  // namespace

DecompTree build_frt_tree(const Graph& g, Rng& rng) {
  const Vertex n = g.vertex_count();
  HGP_CHECK_MSG(n >= 1, "cannot decompose the empty graph");
  HGP_TRACE_SPAN_ARG("decomp.frt_build", n);

  // All-pairs distances (laptop-scale: n Dijkstras).
  std::vector<std::vector<double>> dist(static_cast<std::size_t>(n));
  double diameter = 1.0;
  for (Vertex v = 0; v < n; ++v) {
    dist[static_cast<std::size_t>(v)] = dijkstra(g, v);
    for (double d : dist[static_cast<std::size_t>(v)]) {
      if (d < kInf) diameter = std::max(diameter, d);
    }
  }

  // FRT randomness: permutation π and radius scale β ∈ [1, 2).
  std::vector<Vertex> pi(static_cast<std::size_t>(n));
  std::iota(pi.begin(), pi.end(), Vertex{0});
  rng.shuffle(pi);
  const double beta = rng.next_double(1.0, 2.0);

  // Tree assembly (same node bookkeeping as the recursive-cut builder).
  std::vector<Vertex> parent;
  std::vector<Weight> weight;
  std::vector<Vertex> leaf_vertex;
  std::vector<char> scratch(static_cast<std::size_t>(n), 0);
  auto new_node = [&](Vertex par, Weight w) {
    parent.push_back(par);
    weight.push_back(w);
    leaf_vertex.push_back(kInvalidVertex);
    return narrow<Vertex>(parent.size() - 1);
  };

  struct Frame {
    std::vector<Vertex> vertices;
    Vertex node;
    double radius;
  };
  std::vector<Frame> stack;
  {
    std::vector<Vertex> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), Vertex{0});
    stack.push_back(
        Frame{std::move(all), new_node(kInvalidVertex, 0), beta * diameter});
  }
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (frame.vertices.size() == 1) {
      leaf_vertex[static_cast<std::size_t>(frame.node)] = frame.vertices[0];
      continue;
    }
    // FRT split: each vertex joins the cluster of the first permutation
    // center within the current radius.  Unreachable vertices (infinite
    // distance to every center ahead of them) become their own cluster
    // root eventually because every vertex is its own 0-distance center.
    std::vector<std::vector<Vertex>> clusters;
    std::vector<int> assigned(static_cast<std::size_t>(n), -1);
    for (const Vertex center : pi) {
      std::vector<Vertex> cluster;
      for (const Vertex v : frame.vertices) {
        if (assigned[static_cast<std::size_t>(v)] >= 0) continue;
        if (dist[static_cast<std::size_t>(center)]
                [static_cast<std::size_t>(v)] <= frame.radius) {
          cluster.push_back(v);
        }
      }
      if (cluster.empty()) continue;
      for (const Vertex v : cluster) {
        assigned[static_cast<std::size_t>(v)] = narrow<int>(clusters.size());
      }
      clusters.push_back(std::move(cluster));
    }
    if (clusters.size() == 1) {
      // No split at this radius; shrink and retry on the same node.
      stack.push_back(Frame{std::move(clusters[0]), frame.node,
                            frame.radius / 2});
      continue;
    }
    HGP_COUNTER_ADD("decomp.frt_levels", 1);
    for (auto& cluster : clusters) {
      const Weight w = g.boundary_weight(cluster, scratch);
      const Vertex child = new_node(frame.node, w);
      stack.push_back(Frame{std::move(cluster), child, frame.radius / 2});
    }
  }

  Tree tree = Tree::from_parents(std::move(parent), std::move(weight));
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

}  // namespace hgp
