#include "decomp/decomp_tree.hpp"

namespace hgp {

DecompTree::DecompTree(Tree tree, std::vector<Vertex> leaf_vertex,
                       const Graph& g)
    : tree_(std::move(tree)), leaf_vertex_(std::move(leaf_vertex)) {
  HGP_CHECK(leaf_vertex_.size() ==
            static_cast<std::size_t>(tree_.node_count()));
  HGP_CHECK_MSG(tree_.leaf_count() == g.vertex_count(),
                "decomposition tree must have one leaf per graph vertex");
  vertex_leaf_.assign(static_cast<std::size_t>(g.vertex_count()),
                      kInvalidVertex);
  for (Vertex t = 0; t < tree_.node_count(); ++t) {
    const Vertex v = leaf_vertex_[static_cast<std::size_t>(t)];
    if (tree_.is_leaf(t)) {
      HGP_CHECK_MSG(v >= 0 && v < g.vertex_count(),
                    "leaf " << t << " maps to invalid vertex " << v);
      HGP_CHECK_MSG(vertex_leaf_[static_cast<std::size_t>(v)] ==
                        kInvalidVertex,
                    "vertex " << v << " mapped by two leaves");
      vertex_leaf_[static_cast<std::size_t>(v)] = t;
    } else {
      HGP_CHECK_MSG(v == kInvalidVertex,
                    "internal node " << t << " must not map a vertex");
    }
  }
}

}  // namespace hgp
