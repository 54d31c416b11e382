// Reference kernels of the recursive-cut forest build, kept as test oracles.
//
// Each function here is the whole-graph form the library used before its
// per-node kernels were made local to their part: FM refinement that rescans
// every vertex's gain for each move and copies the side vector on each
// improvement, and the induced subgraph and part boundary by a scan of every
// edge.  The library kernels must reproduce these bit for bit; the tests
// compare the two on non-integer weights, with and without demands, across
// balance floors and pass counts, on connected and disconnected graphs.
// Quadratic: keep instances to a few hundred vertices.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/prng.hpp"

namespace hgp::testref {

/// A random test instance: `n` vertices, edge weights either non-integer
/// or small integers (many equal gains, so the tie rule is exercised),
/// demands in (0, 0.2] when asked, and no edge between the two halves of
/// the vertex range when `disconnected`.
inline Graph random_instance(Rng& rng, Vertex n, bool demands,
                             bool disconnected) {
  const double p = rng.next_double(0.05, 0.35);
  const bool integer_weights = rng.next_bool(0.3);
  GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (disconnected && (u < n / 2) != (v < n / 2)) continue;
      if (!rng.next_bool(p)) continue;
      b.add_edge(u, v,
                 integer_weights
                     ? static_cast<Weight>(1 + rng.next_below(3))
                     : rng.next_double(0.05, 7.3));
    }
  }
  if (demands) {
    for (Vertex v = 0; v < n; ++v) b.set_demand(v, rng.next_double(0.005, 0.2));
  }
  return b.build();
}

/// Bitwise equality of two doubles (distinguishes -0.0 and NaN payloads).
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline double demand_or_unit(const Graph& g, Vertex v) {
  return g.has_demands() ? g.demand(v) : 1.0;
}

/// The quadratic FM loop: every step rescans all unlocked vertices and
/// recomputes each gain from its adjacency; `rejects(new_load1)` is the
/// caller's balance test.
template <typename Rejects>
Weight fm_quadratic(const Graph& g, std::vector<char>& side, int passes,
                    double load1, Rejects rejects) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  auto gain_of = [&](Vertex v) {
    Weight same = 0, other = 0;
    for (const HalfEdge& h : g.neighbors(v)) {
      if (side[static_cast<std::size_t>(h.to)] ==
          side[static_cast<std::size_t>(v)]) {
        same += h.weight;
      } else {
        other += h.weight;
      }
    }
    return other - same;
  };

  Weight cut = g.cut_weight(side);
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<char> locked(n, 0);
    std::vector<char> best_side = side;
    Weight best_cut = cut;
    Weight running = cut;
    double running_load1 = load1;
    bool improved_this_pass = false;
    for (std::size_t step = 0; step < n; ++step) {
      Vertex pick = kInvalidVertex;
      Weight pick_gain = -std::numeric_limits<Weight>::infinity();
      for (Vertex v = 0; v < g.vertex_count(); ++v) {
        if (locked[static_cast<std::size_t>(v)]) continue;
        const double d = demand_or_unit(g, v);
        const double new_load1 =
            side[static_cast<std::size_t>(v)] ? running_load1 - d
                                              : running_load1 + d;
        if (rejects(new_load1)) continue;
        const Weight gain = gain_of(v);
        if (gain > pick_gain) {
          pick_gain = gain;
          pick = v;
        }
      }
      if (pick == kInvalidVertex) break;
      const double d = demand_or_unit(g, pick);
      running_load1 += side[static_cast<std::size_t>(pick)] ? -d : d;
      side[static_cast<std::size_t>(pick)] ^= 1;
      locked[static_cast<std::size_t>(pick)] = 1;
      running -= pick_gain;
      if (running < best_cut - 1e-12) {
        best_cut = running;
        best_side = side;
        improved_this_pass = true;
      }
    }
    side = best_side;
    cut = best_cut;
    load1 = 0;
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (side[static_cast<std::size_t>(v)]) load1 += demand_or_unit(g, v);
    }
    if (!improved_this_pass) break;
  }
  return cut;
}

/// fm_refine as it was: each side keeps at least `balance_floor` of the
/// total demand.
inline Weight fm_refine(const Graph& g, std::vector<char>& side, int passes,
                        double balance_floor) {
  double total = 0;
  double load1 = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    total += demand_or_unit(g, v);
    if (side[static_cast<std::size_t>(v)]) load1 += demand_or_unit(g, v);
  }
  const double floor_load = balance_floor * total;
  return fm_quadratic(g, side, passes, load1, [&](double new_load1) {
    return new_load1 < floor_load || total - new_load1 < floor_load;
  });
}

/// The recursive-bisection baseline's FM as it was: side 1 keeps within
/// `slack` of a `target` share of the demand.
inline void fm_refine_target(const Graph& g, std::vector<char>& side,
                             double target, double slack, int passes) {
  double total = 0, load1 = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    total += demand_or_unit(g, v);
    if (side[static_cast<std::size_t>(v)]) load1 += demand_or_unit(g, v);
  }
  const double lo = std::max(0.0, target - slack) * total;
  const double hi = std::min(1.0, target + slack) * total;
  fm_quadratic(g, side, passes, load1, [&](double nl) {
    return nl < lo - 1e-12 || nl > hi + 1e-12;
  });
}

/// Induced subgraph by a scan of every edge of `g`.
inline Graph induced_subgraph(const Graph& g,
                              std::span<const Vertex> vertices) {
  std::vector<Vertex> remap(static_cast<std::size_t>(g.vertex_count()),
                            kInvalidVertex);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    remap[static_cast<std::size_t>(vertices[i])] = narrow<Vertex>(i);
  }
  GraphBuilder builder(narrow<Vertex>(vertices.size()));
  for (const Edge& e : g.edges()) {
    const Vertex nu = remap[static_cast<std::size_t>(e.u)];
    const Vertex nv = remap[static_cast<std::size_t>(e.v)];
    if (nu != kInvalidVertex && nv != kInvalidVertex) {
      builder.add_edge(nu, nv, e.weight);
    }
  }
  if (g.has_demands()) {
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      builder.set_demand(narrow<Vertex>(i), g.demand(vertices[i]));
    }
  }
  return builder.build();
}

/// δ_G(S) by a scan of every edge of `g`.
inline Weight boundary_weight(const Graph& g,
                              std::span<const Vertex> vertices) {
  std::vector<char> in_set(static_cast<std::size_t>(g.vertex_count()), 0);
  for (Vertex v : vertices) in_set[static_cast<std::size_t>(v)] = 1;
  return g.cut_weight(in_set);
}

}  // namespace hgp::testref
