#include "graph/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/obs.hpp"

namespace hgp {

namespace {

/// Removes the component along the all-ones direction and renormalizes.
bool deflate_and_normalize(std::vector<double>& x) {
  const double n = static_cast<double>(x.size());
  double mean = std::accumulate(x.begin(), x.end(), 0.0) / n;
  for (double& v : x) v -= mean;
  double norm = 0;
  for (double v : x) norm += v * v;
  norm = std::sqrt(norm);
  if (norm < 1e-14) return false;
  for (double& v : x) v /= norm;
  return true;
}

}  // namespace

std::vector<double> fiedler_vector(const Graph& g, Rng& rng,
                                   const FiedlerOptions& opt) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  HGP_CHECK(n >= 2);
  // Shift: (cI - L) has the Fiedler vector as its dominant non-constant
  // eigenvector when c ≥ λ_max(L); λ_max(L) ≤ 2 · max weighted degree.
  double max_wdeg = 0;
  std::vector<double> wdeg(n, 0);
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    wdeg[static_cast<std::size_t>(v)] = g.weighted_degree(v);
    max_wdeg = std::max(max_wdeg, wdeg[static_cast<std::size_t>(v)]);
  }
  const double c = 2.0 * max_wdeg + 1.0;

  std::vector<double> x(n), y(n);
  for (double& v : x) v = rng.next_double() - 0.5;
  if (!deflate_and_normalize(x)) x[0] = 1.0;

  // Each step is y = (cI - L) x, then deflate_and_normalize(y), fused into
  // three passes with the same expressions and summation orders as running
  // those one after the other.  Edges are sorted by (u, v) with u < v, so
  // the edges with e.u == w form the range [first[w], first[w + 1]), and
  // y[w] is final once that range is applied: the mean's sum adds it there,
  // in index order.  The diagonal term (c - wdeg(v)) x_v of the next step
  // is written by the pass that normalizes x_v.
  const std::vector<Edge>& edges = g.edges();
  std::vector<std::size_t> first(n + 1, 0);
  for (const Edge& e : edges) ++first[static_cast<std::size_t>(e.u) + 1];
  for (std::size_t v = 0; v < n; ++v) first[v + 1] += first[v];
  for (std::size_t v = 0; v < n; ++v) y[v] = (c - wdeg[v]) * x[v];
  // A call that never meets the tolerance (nor a zero step) runs to the
  // iteration cap: decomp.fiedler_capped counts those calls.
  bool capped = true;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    // y = (cI - L) x = (c - wdeg(v)) x_v + Σ_u w(u,v) x_u.
    double sum = 0;
    for (std::size_t w = 0; w < n; ++w) {
      const double xw = x[w];
      double yw = y[w];
      for (std::size_t e = first[w]; e < first[w + 1]; ++e) {
        const auto v = static_cast<std::size_t>(edges[e].v);
        yw += edges[e].weight * x[v];
        y[v] += edges[e].weight * xw;
      }
      y[w] = yw;
      sum += yw;
    }
    const double mean = sum / static_cast<double>(n);
    double norm = 0;
    for (double& v : y) {
      v -= mean;
      norm += v * v;
    }
    norm = std::sqrt(norm);
    if (norm < 1e-14) {
      capped = false;
      break;
    }
    double diff = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const double next = y[v] / norm;
      diff += std::abs(next - x[v]);
      y[v] = next;
      x[v] = (c - wdeg[v]) * next;
    }
    x.swap(y);
    if (diff < opt.tolerance) {
      capped = false;
      break;
    }
  }
  HGP_COUNTER_ADD("decomp.fiedler_calls", 1);
  HGP_COUNTER_ADD("decomp.fiedler_capped", capped ? 1 : 0);
  return x;
}

std::vector<char> spectral_bisect(const Graph& g, Rng& rng,
                                  const FiedlerOptions& opt) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  HGP_CHECK(n >= 2);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (g.edge_count() > 0) {
    const std::vector<double> f = fiedler_vector(g, rng, opt);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return f[a] < f[b]; });
  } else {
    rng.shuffle(order);
  }
  // Split at the demand-weighted median (unit demand when absent).
  double total = 0;
  auto demand_of = [&](std::size_t v) {
    return g.has_demands() ? g.demand(narrow<Vertex>(v)) : 1.0;
  };
  for (std::size_t v = 0; v < n; ++v) total += demand_of(v);
  std::vector<char> side(n, 0);
  double acc = 0;
  std::size_t placed = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t v = order[i];
    if (placed > 0 && acc + demand_of(v) / 2 > total / 2) break;
    side[v] = 1;
    acc += demand_of(v);
    ++placed;
  }
  return side;
}

}  // namespace hgp
