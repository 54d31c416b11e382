#include "graph/graph.hpp"

#include <algorithm>
#include <queue>

namespace hgp {

Weight Graph::cut_weight(const std::vector<char>& side) const {
  HGP_CHECK_MSG(side.size() == static_cast<std::size_t>(vertex_count()),
                "side vector size must equal vertex count");
  Weight total = 0;
  for (const Edge& e : edges_) {
    if (side[static_cast<std::size_t>(e.u)] !=
        side[static_cast<std::size_t>(e.v)]) {
      total += e.weight;
    }
  }
  return total;
}

std::vector<Vertex> Graph::components(Vertex* component_count) const {
  const Vertex n = vertex_count();
  std::vector<Vertex> comp(static_cast<std::size_t>(n), kInvalidVertex);
  Vertex next = 0;
  std::vector<Vertex> stack;
  for (Vertex s = 0; s < n; ++s) {
    if (comp[static_cast<std::size_t>(s)] != kInvalidVertex) continue;
    comp[static_cast<std::size_t>(s)] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      for (const HalfEdge& h : neighbors(v)) {
        if (comp[static_cast<std::size_t>(h.to)] == kInvalidVertex) {
          comp[static_cast<std::size_t>(h.to)] = next;
          stack.push_back(h.to);
        }
      }
    }
    ++next;
  }
  if (component_count != nullptr) *component_count = next;
  return comp;
}

bool Graph::is_connected() const {
  if (vertex_count() == 0) return true;
  Vertex k = 0;
  (void)components(&k);
  return k == 1;
}

Weight Graph::boundary_weight(std::span<const Vertex> set,
                              std::vector<char>& in_set) const {
  HGP_CHECK(in_set.size() == static_cast<std::size_t>(vertex_count()));
  for (Vertex v : set) {
    HGP_ASSERT(v >= 0 && v < vertex_count());
    in_set[static_cast<std::size_t>(v)] = 1;
  }
  std::vector<EdgeId> crossing;
  for (Vertex v : set) {
    for (const HalfEdge& h : neighbors(v)) {
      if (!in_set[static_cast<std::size_t>(h.to)]) crossing.push_back(h.edge);
    }
  }
  for (Vertex v : set) in_set[static_cast<std::size_t>(v)] = 0;
  // cut_weight's summation order, so the sum has the same bits.  A vertex
  // listed twice must not count its edges twice.
  std::sort(crossing.begin(), crossing.end());
  crossing.erase(std::unique(crossing.begin(), crossing.end()),
                 crossing.end());
  Weight total = 0;
  for (EdgeId e : crossing) total += edge(e).weight;
  return total;
}

Graph Graph::induced_subgraph(std::span<const Vertex> vertices) const {
  // New id of each vertex of `vertices`.  Every other entry stays
  // kInvalidVertex between calls, so a call costs the adjacency of
  // `vertices`, not the size of this graph.
  thread_local std::vector<Vertex> remap;
  if (remap.size() < static_cast<std::size_t>(vertex_count())) {
    remap.resize(static_cast<std::size_t>(vertex_count()), kInvalidVertex);
  }
  struct Unmap {
    std::span<const Vertex> mapped;
    ~Unmap() {
      for (Vertex v : mapped) {
        remap[static_cast<std::size_t>(v)] = kInvalidVertex;
      }
    }
  } unmap{vertices.first(0)};
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const Vertex v = vertices[i];
    HGP_CHECK(v >= 0 && v < vertex_count());
    HGP_CHECK_MSG(remap[static_cast<std::size_t>(v)] == kInvalidVertex,
                  "duplicate vertex in induced_subgraph");
    remap[static_cast<std::size_t>(v)] = narrow<Vertex>(i);
    unmap.mapped = vertices.first(i + 1);
  }
  // Each internal edge is added once, from its smaller endpoint.  The edges
  // of a Graph are distinct pairs and build() sorts them by (u, v), so the
  // result does not depend on the order they are added in.
  GraphBuilder builder(narrow<Vertex>(vertices.size()));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (const HalfEdge& h : neighbors(vertices[i])) {
      const Vertex nv = remap[static_cast<std::size_t>(h.to)];
      if (nv != kInvalidVertex && vertices[i] < h.to) {
        builder.add_edge(narrow<Vertex>(i), nv, h.weight);
      }
    }
  }
  if (has_demands()) {
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      builder.set_demand(narrow<Vertex>(i), demand(vertices[i]));
    }
  }
  return builder.build();
}

GraphBuilder::GraphBuilder(Vertex vertex_count) : vertex_count_(vertex_count) {
  HGP_CHECK(vertex_count >= 0);
}

void GraphBuilder::add_edge(Vertex u, Vertex v, Weight weight) {
  HGP_CHECK(u >= 0 && u < vertex_count_);
  HGP_CHECK(v >= 0 && v < vertex_count_);
  HGP_CHECK_MSG(weight >= 0, "edge weights must be non-negative");
  if (u == v) return;  // self-loops never cross a cut
  if (u > v) std::swap(u, v);
  pending_.push_back(Edge{u, v, weight});
}

void GraphBuilder::set_demand(Vertex v, double demand) {
  HGP_CHECK(v >= 0 && v < vertex_count_);
  HGP_CHECK_MSG(demand > 0.0 && demand <= 1.0,
                "HGP demands must lie in (0, 1], got " << demand);
  if (!has_demand_) {
    demand_.assign(static_cast<std::size_t>(vertex_count_), 0.0);
    has_demand_ = true;
  }
  demand_[static_cast<std::size_t>(v)] = demand;
}

Graph GraphBuilder::build() {
  // Merge parallel edges.
  std::sort(pending_.begin(), pending_.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  Graph g;
  g.edges_.reserve(pending_.size());
  for (const Edge& e : pending_) {
    if (!g.edges_.empty() && g.edges_.back().u == e.u &&
        g.edges_.back().v == e.v) {
      g.edges_.back().weight += e.weight;
    } else {
      g.edges_.push_back(e);
    }
  }
  pending_.clear();

  const auto n = static_cast<std::size_t>(vertex_count_);
  std::vector<std::size_t> deg(n, 0);
  for (const Edge& e : g.edges_) {
    ++deg[static_cast<std::size_t>(e.u)];
    ++deg[static_cast<std::size_t>(e.v)];
  }
  g.offsets_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) g.offsets_[v + 1] = g.offsets_[v] + deg[v];
  g.adjacency_.resize(g.offsets_[n]);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId id = 0; id < narrow<EdgeId>(g.edges_.size()); ++id) {
    const Edge& e = g.edges_[static_cast<std::size_t>(id)];
    g.adjacency_[cursor[static_cast<std::size_t>(e.u)]++] =
        HalfEdge{e.v, e.weight, id};
    g.adjacency_[cursor[static_cast<std::size_t>(e.v)]++] =
        HalfEdge{e.u, e.weight, id};
    g.total_edge_weight_ += e.weight;
  }
  if (has_demand_) {
    for (std::size_t v = 0; v < n; ++v) {
      HGP_CHECK_MSG(demand_[v] > 0.0,
                    "vertex " << v << " has no demand set; HGP requires "
                              << "d(v) ∈ (0,1] for every vertex");
    }
    g.demand_ = std::move(demand_);
  }
  has_demand_ = false;
  demand_.clear();
  return g;
}

}  // namespace hgp
