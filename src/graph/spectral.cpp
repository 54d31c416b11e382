#include "graph/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/obs.hpp"

namespace hgp {

namespace {

/// Vertex count every thread's workspace is sized for up front, so calls
/// on that many vertices or fewer never allocate.
constexpr std::size_t kSmallGraph = 8;
/// β below this fraction of the λ_max bound means the Krylov space closed:
/// the Ritz values are exact and the iteration stops.
constexpr double kBreakdown = 1e-12;

/// One thread's Lanczos storage.  Its vectors only grow, so a call that
/// fits what an earlier call on the thread used allocates nothing.
struct LanczosWorkspace {
  std::vector<double> wdeg, w, result;  // n each
  // q_j, one block per row: a row of ≤ 16 K vertices stays below the
  // allocator's mmap threshold, so regrowing it never raises that
  // threshold for the rest of the process (a steps × n block would).
  std::vector<std::vector<double>> basis;
  std::vector<double> alpha, beta, d, e, s, u0, u1, u2, mult;  // steps each
  std::vector<char> swapped;                                   // steps

  LanczosWorkspace() {
    const std::size_t n = kSmallGraph;
    const auto k = static_cast<std::size_t>(fiedler_steps(n));
    for (auto* v : {&wdeg, &w, &result}) v->resize(n);
    basis.resize(k);
    for (auto& row : basis) row.resize(n);
    for (auto* v : {&alpha, &beta, &d, &e, &s, &u0, &u1, &u2, &mult}) {
      v->resize(k);
    }
    swapped.resize(k);
  }
};

/// At least `size` elements of `v`.  No call reads what an earlier call
/// left in the workspace, so a vector that must grow drops its old block
/// before taking the new one (no copy, and no moment holding both).
template <class T>
T* room(std::vector<T>& v, std::size_t size) {
  if (v.size() < size) {
    std::vector<T>().swap(v);
    v.resize(size);
  }
  return v.data();
}

/// Σ a[v] · b[v] in a fixed order: four running sums over v mod 4, added
/// pairwise at the end.  Four chains instead of one keep the adder busy.
double dot(const double* a, const double* b, std::size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t v = 0;
  for (; v + 4 <= n; v += 4) {
    s0 += a[v] * b[v];
    s1 += a[v + 1] * b[v + 1];
    s2 += a[v + 2] * b[v + 2];
    s3 += a[v + 3] * b[v + 3];
  }
  for (; v < n; ++v) s0 += a[v] * b[v];
  return (s0 + s1) + (s2 + s3);
}

/// Σ a[v] in the order of dot().
double sum(const double* a, std::size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t v = 0;
  for (; v + 4 <= n; v += 4) {
    s0 += a[v];
    s1 += a[v + 1];
    s2 += a[v + 2];
    s3 += a[v + 3];
  }
  for (; v < n; ++v) s0 += a[v];
  return (s0 + s1) + (s2 + s3);
}

/// Removes the component along the all-ones direction and normalizes.
bool project_and_normalize(double* x, std::size_t n) {
  const double mean = sum(x, n) / static_cast<double>(n);
  for (std::size_t v = 0; v < n; ++v) x[v] -= mean;
  const double norm = std::sqrt(dot(x, x, n));
  if (norm < 1e-14) return false;
  for (std::size_t v = 0; v < n; ++v) x[v] /= norm;
  return true;
}

/// Overwrites d[0..k) with the eigenvalues of the symmetric tridiagonal
/// matrix of diagonal d and off-diagonal e[0..k-1), by the implicit QL
/// method with Wilkinson shifts; e (of length k) is destroyed.
void tridiagonal_eigenvalues(double* d, double* e, int k) {
  e[k - 1] = 0;
  for (int l = 0; l < k; ++l) {
    int iter = 0;
    int m = l;
    do {
      for (m = l; m < k - 1; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= std::numeric_limits<double>::epsilon() * dd) {
          break;
        }
      }
      if (m == l) break;
      if (++iter > 60) break;
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::sqrt(g * g + 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1, c = 1, p = 0;
      int i = m - 1;
      for (; i >= l; --i) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = std::sqrt(f * f + g * g);
        e[i + 1] = r;
        if (r == 0) {
          d[i + 1] -= p;
          e[m] = 0;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
      }
      if (r == 0 && i >= l) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0;
    } while (m != l);
  }
}

/// s = a unit eigenvector of the tridiagonal T (diagonal alpha,
/// off-diagonal beta) for its eigenvalue theta, by inverse iteration: two
/// solves of (T − θI) s' = s from s = (1, …, 1), with one LU factorization
/// by partial pivoting whose zero pivots are replaced by `tiny`.
void tridiagonal_eigenvector(const double* alpha, const double* beta, int k,
                             double theta, double tiny, LanczosWorkspace& ws,
                             double* s) {
  double* u0 = ws.u0.data();
  double* u1 = ws.u1.data();
  double* u2 = ws.u2.data();
  double* mult = ws.mult.data();
  char* swapped = ws.swapped.data();
  // Row i of U holds u0, u1, u2 in columns i, i+1, i+2; (c0, c1) is the
  // pending row i in columns i, i+1.
  double c0 = alpha[0] - theta;
  double c1 = k > 1 ? beta[0] : 0;
  for (int i = 0; i + 1 < k; ++i) {
    const double b = beta[i];
    const double a_next = alpha[i + 1] - theta;
    const double b_next = i + 2 < k ? beta[i + 1] : 0;
    if (std::abs(c0) >= std::abs(b)) {
      if (c0 == 0) c0 = tiny;
      u0[i] = c0;
      u1[i] = c1;
      u2[i] = 0;
      mult[i] = b / c0;
      swapped[i] = 0;
      c0 = a_next - mult[i] * c1;
      c1 = b_next;
    } else {
      u0[i] = b;
      u1[i] = a_next;
      u2[i] = b_next;
      mult[i] = c0 / b;
      swapped[i] = 1;
      c0 = c1 - mult[i] * a_next;
      c1 = -mult[i] * b_next;
    }
  }
  u0[k - 1] = std::abs(c0) < tiny ? std::copysign(tiny, c0) : c0;
  std::fill(s, s + k, 1.0);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i + 1 < k; ++i) {
      if (swapped[i]) std::swap(s[i], s[i + 1]);
      s[i + 1] -= mult[i] * s[i];
    }
    for (int i = k - 1; i >= 0; --i) {
      double x = s[i];
      if (i + 1 < k) x -= u1[i] * s[i + 1];
      if (i + 2 < k) x -= u2[i] * s[i + 2];
      s[i] = x / u0[i];
    }
    double norm = 0;
    for (int i = 0; i < k; ++i) norm += s[i] * s[i];
    norm = std::sqrt(norm);
    for (int i = 0; i < k; ++i) s[i] /= norm;
  }
}

}  // namespace

int fiedler_steps(std::size_t n) {
  HGP_CHECK(n >= 2);
  const double rule =
      std::min(40.0, std::ceil(2.0 * std::sqrt(static_cast<double>(n))));
  return static_cast<int>(std::min(static_cast<double>(n - 1), rule));
}

std::span<const double> fiedler_vector(const Graph& g, Rng& rng,
                                       const FiedlerOptions& opt) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  HGP_CHECK(n >= 2);
  const int steps = fiedler_steps(n);
  const auto k = static_cast<std::size_t>(steps);
  thread_local LanczosWorkspace ws;
  double* wdeg = room(ws.wdeg, n);
  double* w = room(ws.w, n);
  double* x = room(ws.result, n);
  if (ws.basis.size() < k) ws.basis.resize(k);
  for (std::size_t j = 0; j < k; ++j) room(ws.basis[j], n);
  const auto row = [](std::size_t j) { return ws.basis[j].data(); };
  double* q0 = row(0);
  double* alpha = room(ws.alpha, k);
  double* beta = room(ws.beta, k);
  double* d = room(ws.d, k);
  double* e = room(ws.e, k);
  double* s = room(ws.s, k);
  for (auto* v : {&ws.u0, &ws.u1, &ws.u2, &ws.mult}) room(*v, k);
  room(ws.swapped, k);

  const std::vector<Edge>& edges = g.edges();
  std::fill(wdeg, wdeg + n, 0.0);
  for (const Edge& ed : edges) {
    wdeg[static_cast<std::size_t>(ed.u)] += ed.weight;
    wdeg[static_cast<std::size_t>(ed.v)] += ed.weight;
  }
  // λ_max(L) ≤ 2 · max weighted degree: the scale of every test below.
  const double scale = 2.0 * *std::max_element(wdeg, wdeg + n);

  for (std::size_t v = 0; v < n; ++v) q0[v] = rng.next_double() - 0.5;
  if (!project_and_normalize(q0, n)) {
    std::fill(q0, q0 + n, 0.0);
    q0[0] = 1.0;
    project_and_normalize(q0, n);
  }

  // Lanczos on L restricted to 1⊥: w = L q_j − α_j q_j − β_{j-1} q_{j-1},
  // then reorthogonalized against q_0..q_j in that order and against the
  // constant vector.  The last step's w is only measured (β_{k-1} bounds
  // the Ritz residual), so it skips the reorthogonalization.
  std::size_t used = k;
  bool closed = false;
  for (std::size_t j = 0; j < k; ++j) {
    const double* q = row(j);
    for (std::size_t v = 0; v < n; ++v) w[v] = wdeg[v] * q[v];
    for (const Edge& ed : edges) {
      const auto u = static_cast<std::size_t>(ed.u);
      const auto v = static_cast<std::size_t>(ed.v);
      w[u] -= ed.weight * q[v];
      w[v] -= ed.weight * q[u];
    }
    const double a = dot(q, w, n);
    alpha[j] = a;
    if (j == 0) {
      for (std::size_t v = 0; v < n; ++v) w[v] -= a * q[v];
    } else {
      const double b = beta[j - 1];
      const double* q_prev = row(j - 1);
      for (std::size_t v = 0; v < n; ++v) w[v] -= a * q[v] + b * q_prev[v];
    }
    const bool last = j + 1 == k;
    if (!last) {
      for (std::size_t i = 0; i <= j; ++i) {
        const double* qi = row(i);
        const double h = dot(qi, w, n);
        for (std::size_t v = 0; v < n; ++v) w[v] -= h * qi[v];
      }
    }
    const double mean = sum(w, n) / static_cast<double>(n);
    for (std::size_t v = 0; v < n; ++v) w[v] -= mean;
    const double norm = std::sqrt(dot(w, w, n));
    beta[j] = norm;
    if (norm <= kBreakdown * scale) {
      used = j + 1;
      closed = true;
      break;
    }
    if (!last) {
      double* q_next = row(j + 1);
      for (std::size_t v = 0; v < n; ++v) q_next[v] = w[v] / norm;
    }
  }

  // The smallest Ritz pair of T = tridiag(β, α, β) over q_0..q_{used-1}.
  const int t = static_cast<int>(used);
  std::copy(alpha, alpha + used, d);
  std::copy(beta, beta + used, e);
  tridiagonal_eigenvalues(d, e, t);
  const double theta = *std::min_element(d, d + used);
  if (t == 1) {
    s[0] = 1.0;
  } else {
    // t > 1 means some β exceeded kBreakdown · scale, so scale > 0.
    tridiagonal_eigenvector(alpha, beta, t, theta,
                            std::numeric_limits<double>::epsilon() * scale,
                            ws, s);
  }
  std::fill(x, x + n, 0.0);
  for (std::size_t j = 0; j < used; ++j) {
    const double* qj = row(j);
    const double sj = s[j];
    for (std::size_t v = 0; v < n; ++v) x[v] += sj * qj[v];
  }
  if (!project_and_normalize(x, n)) std::copy(q0, q0 + n, x);

  // ‖L x − θ x‖ = β_{used-1} · |s_{used-1}| for the Ritz vector x.
  const double residual = closed ? 0.0 : beta[used - 1] * std::abs(s[used - 1]);
  HGP_COUNTER_ADD("decomp.fiedler_calls", 1);
  HGP_COUNTER_ADD("decomp.fiedler_capped",
                  residual > opt.tolerance * scale ? 1 : 0);
  return {x, n};
}

std::vector<char> spectral_bisect(const Graph& g, Rng& rng,
                                  const FiedlerOptions& opt) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  HGP_CHECK(n >= 2);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (g.edge_count() > 0) {
    const std::span<const double> f = fiedler_vector(g, rng, opt);
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
