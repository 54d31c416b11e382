#include "baseline/recursive_bisection.hpp"

#include <algorithm>
#include <numeric>

#include "decomp/cutter.hpp"
#include "graph/spectral.hpp"

namespace hgp {

namespace {

double demand_of(const Graph& g, Vertex v) {
  return g.has_demands() ? g.demand(v) : 1.0;
}

}  // namespace

void fm_refine_target(const Graph& g, std::vector<char>& side, double target,
                      double slack, int passes) {
  double total = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) total += demand_of(g, v);
  const double lo = std::max(0.0, target - slack) * total;
  const double hi = std::min(1.0, target + slack) * total;
  fm_refine_kernel(g, side, passes, [&](double nl) {
    return nl < lo - 1e-12 || nl > hi + 1e-12;
  });
}

namespace {

/// Splits `vertices` (global ids) into side1 holding ≈ `fraction` of the
/// demand, seeded by Fiedler order and FM-refined.
std::pair<std::vector<Vertex>, std::vector<Vertex>> bisect_fraction(
    const Graph& g, const std::vector<Vertex>& vertices, double fraction,
    Rng& rng, const RecursiveBisectionOptions& opt) {
  const Graph sub = g.induced_subgraph(vertices);
  const auto n = static_cast<std::size_t>(sub.vertex_count());
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (sub.edge_count() > 0 && n >= 2) {
    const auto f = fiedler_vector(sub, rng);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return f[a] < f[b]; });
  } else {
    rng.shuffle(order);
  }
  double total = 0;
  for (Vertex v = 0; v < sub.vertex_count(); ++v) total += demand_of(sub, v);
  std::vector<char> side(n, 0);
  double acc = 0;
  for (const std::size_t i : order) {
    if (acc >= fraction * total) break;
    side[i] = 1;
    acc += demand_of(sub, narrow<Vertex>(i));
  }
  if (n >= 2) {
    fm_refine_target(sub, side, fraction, opt.imbalance, opt.fm_passes);
  }
  std::pair<std::vector<Vertex>, std::vector<Vertex>> out;
  for (std::size_t i = 0; i < n; ++i) {
    (side[i] ? out.first : out.second).push_back(vertices[i]);
  }
  return out;
}

/// Splits `vertices` into `parts` demand-balanced pieces by recursive
/// halving of the part count.
void split_into(const Graph& g, std::vector<Vertex> vertices, int parts,
                Rng& rng, const RecursiveBisectionOptions& opt,
                std::vector<std::vector<Vertex>>& out) {
  if (parts == 1 || vertices.empty()) {
    out.push_back(std::move(vertices));
    for (int i = 1; i < parts; ++i) out.emplace_back();
    return;
  }
  const int p1 = parts / 2;
  const int p2 = parts - p1;
  auto [a, b] = bisect_fraction(g, vertices,
                                static_cast<double>(p1) / parts, rng, opt);
  split_into(g, std::move(a), p1, rng, opt, out);
  split_into(g, std::move(b), p2, rng, opt, out);
}

}  // namespace

Placement recursive_bisection_placement(const Graph& g, const Hierarchy& h,
                                        Rng& rng,
                                        const RecursiveBisectionOptions& opt) {
  HGP_CHECK_MSG(g.has_demands(),
                "recursive_bisection_placement needs vertex demands");
  Placement p;
  p.leaf_of.assign(static_cast<std::size_t>(g.vertex_count()), 0);

  auto rec = [&](auto&& self, std::vector<Vertex> vertices, int level,
                 std::int64_t h_node) -> void {
    if (level == h.height()) {
      for (Vertex v : vertices) {
        p.leaf_of[static_cast<std::size_t>(v)] = h_node;
      }
      return;
    }
    const int fanout = h.deg(level);
    std::vector<std::vector<Vertex>> parts;
    split_into(g, std::move(vertices), fanout, rng, opt, parts);
    HGP_ASSERT(narrow<int>(parts.size()) == fanout);
    for (int i = 0; i < fanout; ++i) {
      self(self, std::move(parts[static_cast<std::size_t>(i)]), level + 1,
           h_node * fanout + i);
    }
  };

  std::vector<Vertex> all(static_cast<std::size_t>(g.vertex_count()));
  std::iota(all.begin(), all.end(), Vertex{0});
  rec(rec, std::move(all), 0, 0);
  return p;
}

}  // namespace hgp
