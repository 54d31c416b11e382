#include "graph/tree.hpp"

#include <algorithm>
#include <array>
#include <limits>

namespace hgp {

namespace {
constexpr Weight kInf = std::numeric_limits<Weight>::infinity();
}

Tree Tree::from_parents(std::vector<Vertex> parent,
                        std::vector<Weight> parent_weight,
                        std::vector<char> infinite) {
  const std::size_t n = parent.size();
  HGP_CHECK(parent_weight.size() == n);
  if (infinite.empty()) infinite.assign(n, 0);
  HGP_CHECK(infinite.size() == n);
  Tree t;
  t.parent_ = std::move(parent);
  t.parent_weight_ = std::move(parent_weight);
  t.infinite_ = std::move(infinite);
  t.finalize();
  return t;
}

Tree Tree::from_graph(const Graph& g, Vertex root) {
  const Vertex n = g.vertex_count();
  HGP_CHECK(root >= 0 && root < n);
  HGP_CHECK_MSG(g.edge_count() == n - 1 && g.is_connected(),
                "from_graph requires a connected graph with n-1 edges");
  std::vector<Vertex> parent(static_cast<std::size_t>(n), kInvalidVertex);
  std::vector<Weight> weight(static_cast<std::size_t>(n), 0);
  std::vector<Vertex> stack{root};
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  seen[static_cast<std::size_t>(root)] = 1;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    for (const HalfEdge& h : g.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(h.to)]) {
        seen[static_cast<std::size_t>(h.to)] = 1;
        parent[static_cast<std::size_t>(h.to)] = v;
        weight[static_cast<std::size_t>(h.to)] = h.weight;
        stack.push_back(h.to);
      }
    }
  }
  Tree t = from_parents(std::move(parent), std::move(weight));
  if (g.has_demands()) {
    std::vector<double> demand(static_cast<std::size_t>(n), 0.0);
    for (Vertex leaf : t.leaves()) {
      demand[static_cast<std::size_t>(leaf)] = g.demand(leaf);
    }
    t.demand_ = std::move(demand);
  }
  return t;
}

void Tree::finalize() {
  const std::size_t n = parent_.size();
  HGP_CHECK(n >= 1);
  root_ = kInvalidVertex;
  std::vector<std::size_t> child_count(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const Vertex p = parent_[v];
    if (p == kInvalidVertex) {
      HGP_CHECK_MSG(root_ == kInvalidVertex, "multiple roots");
      root_ = narrow<Vertex>(v);
    } else {
      HGP_CHECK(p >= 0 && static_cast<std::size_t>(p) < n);
      ++child_count[static_cast<std::size_t>(p)];
    }
  }
  HGP_CHECK_MSG(root_ != kInvalidVertex, "no root (parent[v] == -1) found");

  child_offset_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    child_offset_[v + 1] = child_offset_[v] + child_count[v];
  }
  children_.resize(child_offset_[n]);
  std::vector<std::size_t> cursor(child_offset_.begin(),
                                  child_offset_.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    const Vertex p = parent_[v];
    if (p != kInvalidVertex) {
      children_[cursor[static_cast<std::size_t>(p)]++] = narrow<Vertex>(v);
    }
  }

  // Depths + preorder + acyclicity check.
  depth_.assign(n, -1);
  preorder_.clear();
  preorder_.reserve(n);
  std::vector<Vertex> stack{root_};
  depth_[static_cast<std::size_t>(root_)] = 0;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    preorder_.push_back(v);
    for (const Vertex c : children(v)) {
      depth_[static_cast<std::size_t>(c)] =
          depth_[static_cast<std::size_t>(v)] + 1;
      stack.push_back(c);
    }
  }
  HGP_CHECK_MSG(preorder_.size() == n, "parent array contains a cycle");

  leaves_.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (children(narrow<Vertex>(v)).empty()) {
      leaves_.push_back(narrow<Vertex>(v));
    }
  }

  // Binary lifting table.
  int log = 1;
  while ((std::size_t{1} << log) < n) ++log;
  up_.assign(static_cast<std::size_t>(log), std::vector<Vertex>(n));
  for (std::size_t v = 0; v < n; ++v) {
    up_[0][v] = parent_[v] == kInvalidVertex ? root_ : parent_[v];
  }
  for (std::size_t k = 1; k < up_.size(); ++k) {
    for (std::size_t v = 0; v < n; ++v) {
      up_[k][v] = up_[k - 1][static_cast<std::size_t>(up_[k - 1][v])];
    }
  }
}

void Tree::set_demands(std::vector<double> demand) {
  HGP_CHECK(demand.size() == parent_.size());
  for (Vertex v = 0; v < node_count(); ++v) {
    if (!is_leaf(v)) {
      HGP_CHECK_MSG(demand[static_cast<std::size_t>(v)] == 0.0,
                    "internal nodes must have zero demand");
    }
  }
  demand_ = std::move(demand);
}

void Tree::set_leaf_demands(std::span<const double> leaf_demand) {
  HGP_CHECK(leaf_demand.size() == leaves_.size());
  demand_.assign(parent_.size(), 0.0);
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    demand_[static_cast<std::size_t>(leaves_[i])] = leaf_demand[i];
  }
}

double Tree::total_demand() const {
  double s = 0;
  for (double d : demand_) s += d;
  return s;
}

Vertex Tree::lca(Vertex u, Vertex v) const {
  HGP_CHECK(u >= 0 && u < node_count() && v >= 0 && v < node_count());
  if (depth(u) < depth(v)) std::swap(u, v);
  int diff = depth(u) - depth(v);
  for (std::size_t k = 0; k < up_.size(); ++k) {
    if (diff & (1 << k)) u = up_[k][static_cast<std::size_t>(u)];
  }
  if (u == v) return u;
  for (std::size_t k = up_.size(); k-- > 0;) {
    if (up_[k][static_cast<std::size_t>(u)] !=
        up_[k][static_cast<std::size_t>(v)]) {
      u = up_[k][static_cast<std::size_t>(u)];
      v = up_[k][static_cast<std::size_t>(v)];
    }
  }
  return parent_[static_cast<std::size_t>(u)];
}

Tree::LeafSeparator Tree::leaf_separator(const std::vector<char>& in_set) const {
  const std::size_t n = parent_.size();
  HGP_CHECK(in_set.size() == n);
  // dp[v][side] = lexicographically least (cut weight, #side-1 components
  // closed below v, #side-1 nodes) for the subtree of v with v's component
  // labelled `side`.  A side-1 component is counted at its top node: a
  // side-1 child of a side-0 parent, or a side-1 root.  Leaves are forced
  // by membership.
  struct Cell {
    Weight w = 0;
    std::int64_t comps = 0;
    std::int64_t ones = 0;
  };
  auto better = [](const Cell& a, const Cell& b) {
    if (a.w != b.w) return a.w < b.w;
    if (a.comps != b.comps) return a.comps < b.comps;
    return a.ones < b.ones;
  };
  std::vector<std::array<Cell, 2>> dp(n);
  for (auto it = preorder_.rbegin(); it != preorder_.rend(); ++it) {
    const Vertex v = *it;
    auto& cell = dp[static_cast<std::size_t>(v)];
    if (is_leaf(v)) {
      const bool member = in_set[static_cast<std::size_t>(v)] != 0;
      cell[0] = Cell{member ? kInf : 0, 0, 0};
      cell[1] = Cell{member ? 0 : kInf, 0, 1};
      continue;
    }
    cell[0] = Cell{0, 0, 0};
    cell[1] = Cell{0, 0, 1};
    for (const Vertex c : children(v)) {
      const auto& cc = dp[static_cast<std::size_t>(c)];
      const Weight cut_w =
          parent_edge_infinite(c) ? kInf : parent_weight(c);
      for (int side = 0; side < 2; ++side) {
        Cell keep{cell[side].w + cc[side].w, cell[side].comps + cc[side].comps,
                  cell[side].ones + cc[side].ones};
        Cell cut{cell[side].w + cc[1 - side].w + cut_w,
                 cell[side].comps + cc[1 - side].comps + (side == 0 ? 1 : 0),
                 cell[side].ones + cc[1 - side].ones};
        cell[side] = better(keep, cut) ? keep : cut;
      }
    }
  }
  const auto& rc = dp[static_cast<std::size_t>(root_)];
  const Cell root1{rc[1].w, rc[1].comps + 1, rc[1].ones};
  const bool root_side0 = better(rc[0], root1);
  const Cell best = root_side0 ? rc[0] : root1;
  LeafSeparator result;
  if (best.w == kInf) {
    result.feasible = false;
    result.weight = kInf;
    return result;
  }
  result.weight = best.w;
  // Reconstruct labels top-down by replaying the child decisions.
  result.s_side.assign(n, 0);
  std::vector<char> label(n, 0);
  label[static_cast<std::size_t>(root_)] = root_side0 ? 0 : 1;
  for (const Vertex v : preorder_) {
    const int side = label[static_cast<std::size_t>(v)];
    for (const Vertex c : children(v)) {
      const auto& cc = dp[static_cast<std::size_t>(c)];
      const Weight cut_w =
          parent_edge_infinite(c) ? kInf : parent_weight(c);
      const Cell keep = cc[side];
      const Cell cut{cc[1 - side].w + cut_w,
                     cc[1 - side].comps + (side == 0 ? 1 : 0),
                     cc[1 - side].ones};
      label[static_cast<std::size_t>(c)] =
          static_cast<char>(better(keep, cut) ? side : 1 - side);
    }
  }
  result.s_side = std::move(label);
  return result;
}

Weight Tree::total_finite_edge_weight() const {
  Weight s = 0;
  for (Vertex v = 0; v < node_count(); ++v) {
    if (v != root_ && !parent_edge_infinite(v)) s += parent_weight(v);
  }
  return s;
}

}  // namespace hgp
