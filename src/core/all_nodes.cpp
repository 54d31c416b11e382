#include "core/all_nodes.hpp"

namespace hgp {

AllNodesReduction reduce_all_nodes(const Tree& t,
                                   const std::vector<double>& demand) {
  HGP_CHECK(demand.size() == static_cast<std::size_t>(t.node_count()));
  for (double d : demand) {
    HGP_CHECK_MSG(d > 0.0 && d <= 1.0,
                  "all-nodes reduction needs a demand in (0,1] per node");
  }
  const Vertex n = t.node_count();
  std::vector<Vertex> parent(static_cast<std::size_t>(n));
  std::vector<Weight> weight(static_cast<std::size_t>(n));
  std::vector<char> infinite(static_cast<std::size_t>(n), 0);
  for (Vertex v = 0; v < n; ++v) {
    parent[static_cast<std::size_t>(v)] = t.parent(v);
    weight[static_cast<std::size_t>(v)] = v == t.root() ? 0 : t.parent_weight(v);
    infinite[static_cast<std::size_t>(v)] =
        (v != t.root() && t.parent_edge_infinite(v)) ? 1 : 0;
  }
  AllNodesReduction out;
  out.job_leaf.assign(static_cast<std::size_t>(n), kInvalidVertex);
  std::vector<double> new_demand(static_cast<std::size_t>(n), 0.0);
  for (Vertex v = 0; v < n; ++v) {
    if (t.is_leaf(v)) {
      out.job_leaf[static_cast<std::size_t>(v)] = v;
      new_demand[static_cast<std::size_t>(v)] =
          demand[static_cast<std::size_t>(v)];
    } else {
      // Dummy leaf glued to v by an uncuttable edge.
      const Vertex dummy = narrow<Vertex>(parent.size());
      parent.push_back(v);
      weight.push_back(0);
      infinite.push_back(1);
      new_demand.push_back(demand[static_cast<std::size_t>(v)]);
      out.job_leaf[static_cast<std::size_t>(v)] = dummy;
    }
  }
  out.tree = Tree::from_parents(std::move(parent), std::move(weight),
                                std::move(infinite));
  out.tree.set_demands(std::move(new_demand));
  return out;
}

AllNodesSolution solve_hgpt_all_nodes(const Tree& t,
                                      const std::vector<double>& demand,
                                      const Hierarchy& h,
                                      const TreeDpOptions& opt) {
  const AllNodesReduction red = reduce_all_nodes(t, demand);
  const TreeHgpSolution sol = solve_hgpt(red.tree, h, opt);
  AllNodesSolution out;
  out.leaf_of.resize(static_cast<std::size_t>(t.node_count()));
  for (Vertex v = 0; v < t.node_count(); ++v) {
    out.leaf_of[static_cast<std::size_t>(v)] =
        sol.assignment.of(red.job_leaf[static_cast<std::size_t>(v)]);
  }
  out.cost = assignment_cost(red.tree, h, sol.assignment);
  out.relaxed_cost = sol.relaxed_cost;
  out.violation = sol.violation;
  return out;
}

}  // namespace hgp
