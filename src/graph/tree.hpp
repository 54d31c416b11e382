// Rooted weighted trees.
//
// This is the input type of the HGPT tree solver (§3 of the paper): leaves
// carry job demands, edges carry communication weights, and some edges may
// be *uncuttable* (weight = ∞), which binarization and the dummy-leaf
// reduction rely on.  The infinity is an explicit flag, never a sentinel
// value, so costs cannot overflow.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace hgp {

class Tree {
 public:
  Tree() = default;

  /// Builds from a parent array: parent[root] == -1 exactly once; edge
  /// weights index by child.  `infinite[c]` marks the (parent(c), c) edge
  /// uncuttable.
  static Tree from_parents(std::vector<Vertex> parent,
                           std::vector<Weight> parent_weight,
                           std::vector<char> infinite = {});

  /// Builds from an undirected graph that must be a tree (m = n-1,
  /// connected), rooted at `root`.
  static Tree from_graph(const Graph& g, Vertex root);

  Vertex node_count() const { return narrow<Vertex>(parent_.size()); }
  Vertex root() const { return root_; }
  Vertex parent(Vertex v) const {
    return parent_[static_cast<std::size_t>(v)];
  }
  /// Weight of the edge (parent(v), v); undefined for the root.
  Weight parent_weight(Vertex v) const {
    return parent_weight_[static_cast<std::size_t>(v)];
  }
  bool parent_edge_infinite(Vertex v) const {
    return infinite_[static_cast<std::size_t>(v)] != 0;
  }
  std::span<const Vertex> children(Vertex v) const {
    return {children_.data() + child_offset_[static_cast<std::size_t>(v)],
            children_.data() + child_offset_[static_cast<std::size_t>(v) + 1]};
  }
  bool is_leaf(Vertex v) const { return children(v).empty(); }
  int depth(Vertex v) const { return depth_[static_cast<std::size_t>(v)]; }

  /// All leaves, in increasing vertex order.
  const std::vector<Vertex>& leaves() const { return leaves_; }
  Vertex leaf_count() const { return narrow<Vertex>(leaves_.size()); }

  /// Nodes in a topological order (parents before children).
  const std::vector<Vertex>& preorder() const { return preorder_; }

  /// Leaf demand accessors (used by HGPT instances).  Internal nodes have
  /// demand 0 by convention.
  bool has_demands() const { return !demand_.empty(); }
  double demand(Vertex v) const {
    HGP_ASSERT(has_demands());
    return demand_[static_cast<std::size_t>(v)];
  }
  /// Sets demands for all nodes; internal entries must be 0.
  void set_demands(std::vector<double> demand);
  /// Sets demands for leaves only, in leaves() order.
  void set_leaf_demands(std::span<const double> leaf_demand);
  double total_demand() const;

  /// Lowest common ancestor (binary lifting, O(log n) per query).
  Vertex lca(Vertex u, Vertex v) const;

  /// Minimum-weight leaf separator: the paper's CUT_T(S).
  /// `in_set[v] != 0` marks leaves of S (entries for internal nodes are
  /// ignored).  Returns the cut weight and a node labelling `s_side` where
  /// label 1 = component on S's side.  Among minimum-weight separators the
  /// labelling has the fewest S-side components, then the fewest S-side
  /// nodes (the paper's "minimum number of nodes connected to S" rule).
  /// Components come first because the S-side is the mirror region N(S)
  /// of Definition 7: when equal-weight separators split it differently,
  /// fewest-nodes alone may pick a disconnected region although a
  /// connected one is also minimum, and a disconnected N(S) has bad nodes.
  /// Returns infinity() weight if S and its complement cannot be separated
  /// (an uncuttable edge joins them).
  struct LeafSeparator {
    Weight weight = 0;
    bool feasible = true;
    std::vector<char> s_side;
  };
  LeafSeparator leaf_separator(const std::vector<char>& in_set) const;

  /// Total weight of finite edges (useful upper bound in tests).
  Weight total_finite_edge_weight() const;

 private:
  void finalize();

  Vertex root_ = kInvalidVertex;
  std::vector<Vertex> parent_;
  std::vector<Weight> parent_weight_;
  std::vector<char> infinite_;
  std::vector<std::size_t> child_offset_;
  std::vector<Vertex> children_;
  std::vector<int> depth_;
  std::vector<Vertex> leaves_;
  std::vector<Vertex> preorder_;
  std::vector<double> demand_;
  std::vector<std::vector<Vertex>> up_;  // binary lifting table
};

}  // namespace hgp
