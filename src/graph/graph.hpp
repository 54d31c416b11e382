// Weighted undirected graph in compressed sparse row (CSR) form.
//
// The Graph is immutable after construction; use GraphBuilder to assemble
// edges (parallel edges are merged by summing weights, self-loops dropped —
// they never contribute to any cut).  Vertices carry optional processing
// demands d(v) ∈ (0,1] as required by the HGP problem definition.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace hgp {

using Vertex = std::int32_t;
using EdgeId = std::int32_t;
using Weight = double;

constexpr Vertex kInvalidVertex = -1;

/// One endpoint view of an undirected edge, as seen from a vertex.
struct HalfEdge {
  Vertex to;
  Weight weight;
  EdgeId edge;
};

/// A full undirected edge (u < v is guaranteed by GraphBuilder).
struct Edge {
  Vertex u;
  Vertex v;
  Weight weight;
};

class Graph {
 public:
  Graph() = default;

  Vertex vertex_count() const { return narrow<Vertex>(offsets_.size() - 1); }
  EdgeId edge_count() const { return narrow<EdgeId>(edges_.size()); }

  /// Adjacency of v as a contiguous span of half edges.
  std::span<const HalfEdge> neighbors(Vertex v) const {
    HGP_ASSERT(v >= 0 && v < vertex_count());
    return {adjacency_.data() + offsets_[static_cast<std::size_t>(v)],
            adjacency_.data() + offsets_[static_cast<std::size_t>(v) + 1]};
  }

  std::size_t degree(Vertex v) const { return neighbors(v).size(); }

  const Edge& edge(EdgeId e) const {
    HGP_ASSERT(e >= 0 && e < edge_count());
    return edges_[static_cast<std::size_t>(e)];
  }

  const std::vector<Edge>& edges() const { return edges_; }

  /// Sum of all edge weights.
  Weight total_edge_weight() const { return total_edge_weight_; }

  /// Sum of edge weights incident to v.
  Weight weighted_degree(Vertex v) const {
    Weight s = 0;
    for (const HalfEdge& h : neighbors(v)) s += h.weight;
    return s;
  }

  /// Processing demand of v; demands() is empty iff demands were never set.
  bool has_demands() const { return !demand_.empty(); }
  double demand(Vertex v) const {
    HGP_ASSERT(has_demands());
    return demand_[static_cast<std::size_t>(v)];
  }
  const std::vector<double>& demands() const { return demand_; }
  void set_demands(std::vector<double> demand) {
    HGP_CHECK_MSG(demand.size() == static_cast<std::size_t>(vertex_count()),
                  "demand vector size must equal vertex count");
    demand_ = std::move(demand);
  }
  double total_demand() const {
    double s = 0;
    for (double d : demand_) s += d;
    return s;
  }

  /// Weight of edges crossing the bipartition given by side[v] ∈ {false,true}.
  Weight cut_weight(const std::vector<char>& side) const;

  /// Weight of edges with exactly one endpoint in the vertex set
  /// (in_set[v] != 0) — the boundary δ(S) used throughout the paper as
  /// w(CUT(S)).
  Weight boundary_weight(const std::vector<char>& in_set) const {
    return cut_weight(in_set);
  }

  /// The same δ(S) for S given as a vertex list, with the same bits (the
  /// crossing edges are summed in ascending EdgeId order, as cut_weight
  /// does), in time proportional to the adjacency of S.  `in_set` is
  /// scratch of vertex_count() zeros and is left that way.
  Weight boundary_weight(std::span<const Vertex> set,
                         std::vector<char>& in_set) const;

  /// Connected components; returns component id per vertex, ids in [0,k).
  std::vector<Vertex> components(Vertex* component_count = nullptr) const;
  bool is_connected() const;

  /// Induced subgraph on `vertices` (order defines new vertex ids), in time
  /// proportional to their adjacency.  Demands are carried over when present.
  Graph induced_subgraph(std::span<const Vertex> vertices) const;

 private:
  friend class GraphBuilder;

  std::vector<std::size_t> offsets_{0};
  std::vector<HalfEdge> adjacency_;
  std::vector<Edge> edges_;
  std::vector<double> demand_;
  Weight total_edge_weight_ = 0;
};

/// Accumulates edges, then builds an immutable Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(Vertex vertex_count);

  Vertex vertex_count() const { return vertex_count_; }

  /// Adds an undirected edge; self-loops are silently ignored, parallel
  /// edges are merged (weights summed) at build time.
  void add_edge(Vertex u, Vertex v, Weight weight);

  /// Sets the demand of one vertex (default for unset vertices is 1 / n
  /// unless demands are never touched, in which case the graph has none).
  void set_demand(Vertex v, double demand);

  /// Builds the CSR graph.  The builder is left empty afterwards.
  Graph build();

 private:
  Vertex vertex_count_;
  std::vector<Edge> pending_;
  std::vector<double> demand_;
  bool has_demand_ = false;
};

}  // namespace hgp
