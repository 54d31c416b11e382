// Decomposition trees (paper §4).
//
// A decomposition tree T of a graph G is a rooted tree whose leaves are in
// bijection with V(G); every internal node represents the subset of V(G)
// under it, and the edge above a node carries weight w_T(e) = w(δ_G(S)),
// the G-boundary of that subset — exactly the paper's definition of
// decomposition-tree edge weights.  Proposition 1 (w_T(CUT_T(P)) ≥
// w(δ_G(m(P)))) then holds by cut sub-additivity.
//
// The paper samples such trees from Räcke's congestion-minimization
// distribution; this library builds them by randomized recursive
// partitioning (see builder.hpp and DESIGN.md §2 for the substitution
// rationale) — the solver only depends on this interface.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/tree.hpp"

namespace hgp {

class DecompTree {
 public:
  /// Empty tree (useful as a container element before assignment).
  DecompTree() = default;

  /// `tree`: rooted tree whose leaves carry the demands of the mapped
  /// G-vertices; `leaf_vertex[t]` = G-vertex of leaf node t (kInvalidVertex
  /// for internal nodes).  Checks the bijection and weight consistency is
  /// the builder's job; this constructor validates shape only.
  DecompTree(Tree tree, std::vector<Vertex> leaf_vertex, const Graph& g);

  const Tree& tree() const { return tree_; }

  /// G-vertex mapped to a T-leaf (m_V restricted to leaves).
  Vertex vertex_of_leaf(Vertex t_leaf) const {
    HGP_ASSERT(leaf_vertex_[static_cast<std::size_t>(t_leaf)] !=
               kInvalidVertex);
    return leaf_vertex_[static_cast<std::size_t>(t_leaf)];
  }

  /// T-leaf hosting a G-vertex (m'_V).
  Vertex leaf_of_vertex(Vertex g_vertex) const {
    return vertex_leaf_[static_cast<std::size_t>(g_vertex)];
  }

  /// Vertex count of the underlying graph.
  Vertex graph_vertex_count() const {
    return narrow<Vertex>(vertex_leaf_.size());
  }

 private:
  Tree tree_;
  std::vector<Vertex> leaf_vertex_;
  std::vector<Vertex> vertex_leaf_;
};

}  // namespace hgp
