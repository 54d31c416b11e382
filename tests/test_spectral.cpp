#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>
#include <numbers>
#include <span>
#include <vector>

#include "fm_reference.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"
#include "obs/obs.hpp"

// Counts this thread's heap allocations, for the no-allocation test.
namespace {
thread_local std::uint64_t heap_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hgp {
namespace {

TEST(Fiedler, OrthogonalToConstantAndUnitNorm) {
  Rng rng(1);
  const Graph g = gen::grid2d(5, 5);
  const auto f = fiedler_vector(g, rng);
  double sum = 0, norm = 0;
  for (double x : f) {
    sum += x;
    norm += x * x;
  }
  EXPECT_NEAR(sum, 0.0, 1e-6);
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(Fiedler, SeparatesTwoCliquesJoinedByABridge) {
  // Two K5s joined by a single light edge: the Fiedler vector's sign splits
  // them.
  GraphBuilder b(10);
  for (Vertex u = 0; u < 5; ++u)
    for (Vertex v = u + 1; v < 5; ++v) b.add_edge(u, v, 1.0);
  for (Vertex u = 5; u < 10; ++u)
    for (Vertex v = u + 1; v < 10; ++v) b.add_edge(u, v, 1.0);
  b.add_edge(4, 5, 0.1);
  Rng rng(2);
  const Graph g = b.build();
  const auto f = fiedler_vector(g, rng);
  for (Vertex v = 0; v < 5; ++v) {
    for (Vertex u = 5; u < 10; ++u) {
      EXPECT_LT(f[static_cast<std::size_t>(v)] * f[static_cast<std::size_t>(u)],
                0.0)
          << "vertices " << v << " and " << u << " on same side";
    }
  }
}

TEST(Fiedler, PathGraphIsMonotone) {
  GraphBuilder b(8);
  for (Vertex v = 0; v + 1 < 8; ++v) b.add_edge(v, v + 1, 1.0);
  Rng rng(3);
  const Graph g = b.build();
  const auto span = fiedler_vector(g, rng);
  std::vector<double> f(span.begin(), span.end());
  if (f.front() > f.back()) {
    for (auto& x : f) x = -x;  // eigenvectors have sign freedom
  }
  for (std::size_t i = 0; i + 1 < f.size(); ++i) {
    EXPECT_LE(f[i], f[i + 1] + 1e-5);
  }
}

TEST(Fiedler, CountsCallsAndCallsStoppedAtTheCap) {
  // decomp.fiedler_calls counts every call; decomp.fiedler_capped the ones
  // that ran all fiedler_steps(n) steps and still miss the tolerance.
  const auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t calls0 = reg.counter_value("decomp.fiedler_calls");
  const std::uint64_t capped0 = reg.counter_value("decomp.fiedler_capped");
  // Random weights: an unweighted grid's repeated eigenvalues would close
  // its Krylov space early.
  Rng rng(5);
  const Graph grid = gen::grid2d(4, 4, {1.0, 9.0}, &rng);
  ASSERT_LT(fiedler_steps(16), 15);  // the step cap binds at n = 16
  // A tolerance no residual can miss counts as converged.
  EXPECT_EQ(fiedler_vector(grid, rng, {1e9}).size(), 16u);
  // A zero tolerance is missed by every call stopped at the step cap...
  EXPECT_EQ(fiedler_vector(grid, rng, {0.0}).size(), 16u);
  // ...but not by one whose Krylov space closes: 4 vertices take n − 1
  // steps, after which the residual is zero.
  GraphBuilder b(4);
  for (Vertex v = 0; v + 1 < 4; ++v) b.add_edge(v, v + 1, 1.0 + v);
  ASSERT_EQ(fiedler_steps(4), 3);
  EXPECT_EQ(fiedler_vector(b.build(), rng, {0.0}).size(), 4u);
  if (HGP_OBS_ENABLED) {
    EXPECT_EQ(reg.counter_value("decomp.fiedler_calls"), calls0 + 3);
    EXPECT_EQ(reg.counter_value("decomp.fiedler_capped"), capped0 + 1);
  }
}

TEST(Fiedler, CallsOnAtMostEightVerticesMakeNoHeapAllocation) {
  // The Lanczos basis, the tridiagonal solve and the result live in the
  // thread's workspace, sized for 8 vertices at its first use.
  std::vector<Graph> graphs;
  Rng rng(12);
  for (Vertex n = 2; n <= 8; ++n) {
    graphs.push_back(testref::random_instance(rng, n, true, false));
    graphs.push_back(testref::random_instance(rng, n, false, true));
  }
  (void)fiedler_vector(graphs.front(), rng);
  const std::uint64_t before = heap_allocations;
  double checksum = 0;
  for (int round = 0; round < 10; ++round) {
    for (const Graph& g : graphs) checksum += fiedler_vector(g, rng)[0];
  }
  EXPECT_EQ(heap_allocations, before);
  EXPECT_TRUE(std::isfinite(checksum));
}

TEST(Fiedler, StepRule) {
  // min(n − 1, 40, ⌈2 √n⌉): the whole Krylov space up to n = 7.
  EXPECT_EQ(fiedler_steps(2), 1);
  EXPECT_EQ(fiedler_steps(7), 6);
  EXPECT_EQ(fiedler_steps(8), 6);
  EXPECT_EQ(fiedler_steps(64), 16);
  EXPECT_EQ(fiedler_steps(400), 40);
  EXPECT_EQ(fiedler_steps(100000), 40);
}

TEST(SpectralBisect, BothSidesNonEmpty) {
  Rng rng(4);
  const Graph g = gen::erdos_renyi(30, 0.2, rng);
  const auto side = spectral_bisect(g, rng);
  int ones = 0;
  for (char c : side) ones += c;
  EXPECT_GT(ones, 0);
  EXPECT_LT(ones, 30);
}

TEST(SpectralBisect, RoughDemandBalance) {
  Rng rng(5);
  Graph g = gen::grid2d(6, 6);
  gen::set_uniform_demands(g, 0.02);
  const auto side = spectral_bisect(g, rng);
  double load1 = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    if (side[static_cast<std::size_t>(v)]) load1 += g.demand(v);
  }
  const double total = g.total_demand();
  EXPECT_GT(load1, 0.3 * total);
  EXPECT_LT(load1, 0.7 * total);
}

TEST(SpectralBisect, CutQualityBeatsWorstCaseOnCliquePair) {
  GraphBuilder b(12);
  for (Vertex u = 0; u < 6; ++u)
    for (Vertex v = u + 1; v < 6; ++v) b.add_edge(u, v, 1.0);
  for (Vertex u = 6; u < 12; ++u)
    for (Vertex v = u + 1; v < 12; ++v) b.add_edge(u, v, 1.0);
  b.add_edge(0, 6, 1.0);
  const Graph g = b.build();
  Rng rng(6);
  const auto side = spectral_bisect(g, rng);
  EXPECT_DOUBLE_EQ(g.cut_weight(side), 1.0);  // finds the bridge
}

TEST(SpectralBisect, EdgelessGraphStillSplits) {
  GraphBuilder b(4);
  const Graph g = b.build();
  Rng rng(7);
  const auto side = spectral_bisect(g, rng);
  int ones = 0;
  for (char c : side) ones += c;
  EXPECT_GT(ones, 0);
  EXPECT_LT(ones, 4);
}

TEST(SpectralBisect, TwoVertexGraph) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1.0);
  Rng rng(8);
  const auto side = spectral_bisect(b.build(), rng);
  EXPECT_NE(side[0], side[1]);
}

/// The Laplacian's eigenvalues, ascending, by cyclic Jacobi rotations on
/// the dense matrix.
std::vector<double> laplacian_spectrum(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  std::vector<double> a(n * n, 0.0);
  for (const Edge& e : g.edges()) {
    const auto u = static_cast<std::size_t>(e.u);
    const auto v = static_cast<std::size_t>(e.v);
    a[u * n + v] -= e.weight;
    a[v * n + u] -= e.weight;
    a[u * n + u] += e.weight;
    a[v * n + v] += e.weight;
  }
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        off += a[p * n + q] * a[p * n + q];
      }
    }
    if (off < 1e-26) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (std::abs(apq) < 1e-300) continue;
        const double theta = (a[q * n + q] - a[p * n + p]) / (2 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1));
        const double c = 1 / std::sqrt(t * t + 1), s = t * c;
        for (std::size_t r = 0; r < n; ++r) {
          const double arp = a[r * n + p], arq = a[r * n + q];
          a[r * n + p] = c * arp - s * arq;
          a[r * n + q] = s * arp + c * arq;
        }
        for (std::size_t r = 0; r < n; ++r) {
          const double apr = a[p * n + r], aqr = a[q * n + r];
          a[p * n + r] = c * apr - s * aqr;
          a[q * n + r] = s * apr + c * aqr;
        }
      }
    }
  }
  std::vector<double> eig(n);
  for (std::size_t v = 0; v < n; ++v) eig[v] = a[v * n + v];
  std::sort(eig.begin(), eig.end());
  return eig;
}

double rayleigh_quotient(const Graph& g, std::span<const double> x) {
  double num = 0, den = 0;
  for (const Edge& e : g.edges()) {
    const double d = x[static_cast<std::size_t>(e.u)] -
                     x[static_cast<std::size_t>(e.v)];
    num += e.weight * d * d;
  }
  for (double v : x) den += v * v;
  return num / den;
}

TEST(Spectral, RayleighQuotientMatchesDenseLambda2) {
  // On random connected graphs of up to 120 vertices, the Ritz vector's
  // Rayleigh quotient ρ lies above λ2 (x ⊥ 1) by at most 2% of λ_n, the
  // spectral width; where the step rule spans the whole Krylov space it
  // equals λ2 to rounding.  λ2 and λ_n come from a dense Jacobi solve.
  Rng rng(55);
  int checked = 0;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(round);
    const auto n = static_cast<Vertex>(2 + rng.next_below(119));
    const Graph g = testref::random_instance(rng, n, false, false);
    if (!g.is_connected()) continue;
    ++checked;
    const std::vector<double> eig = laplacian_spectrum(g);
    Rng r(static_cast<std::uint64_t>(round) + 1);
    const double rho = rayleigh_quotient(g, fiedler_vector(g, r));
    const double gap = (rho - eig[1]) / eig.back();
    const bool exact = fiedler_steps(static_cast<std::size_t>(n)) == n - 1;
    EXPECT_GE(gap, -1e-9);
    EXPECT_LE(gap, exact ? 1e-9 : 0.02) << "n " << n;
  }
  EXPECT_GT(checked, 40);
}

TEST(Spectral, PathGraphsMatchTheCosineVector) {
  // The path P_n's Fiedler vector is cos(π(i + ½)/n) up to sign and norm,
  // with λ2 = 2 − 2 cos(π/n).  Where the step rule spans the Krylov space
  // (n ≤ 7) the vector matches it to rounding.  Longer paths are the
  // hard case for a truncated Krylov space: their low eigenvalues crowd
  // together (λ3 − λ2 ≈ 3π²/n²), and up to n = 64 ρ stays within 4% of
  // λ_n above λ2 (2.6% measured at worst).
  for (Vertex n = 2; n <= 64; ++n) {
    SCOPED_TRACE(n);
    GraphBuilder b(n);
    for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1, 1.0);
    const Graph g = b.build();
    Rng rng(static_cast<std::uint64_t>(n));
    const auto f = fiedler_vector(g, rng);
    const double nd = static_cast<double>(n);
    if (fiedler_steps(static_cast<std::size_t>(n)) == n - 1) {
      std::vector<double> want(static_cast<std::size_t>(n));
      double norm = 0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        want[i] = std::cos(std::numbers::pi * (static_cast<double>(i) + 0.5) /
                           nd);
        norm += want[i] * want[i];
      }
      const double sign = f[0] * want[0] >= 0 ? 1.0 : -1.0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_NEAR(sign * f[i], want[i] / std::sqrt(norm), 1e-12) << i;
      }
    } else {
      const double lambda2 = 2 - 2 * std::cos(std::numbers::pi / nd);
      const double lambda_n =
          2 - 2 * std::cos(std::numbers::pi * (nd - 1) / nd);
      const double rho = rayleigh_quotient(g, f);
      EXPECT_GE(rho, lambda2 - 1e-12);
      EXPECT_LE(rho - lambda2, 0.04 * lambda_n);
    }
  }
}

TEST(Spectral, SameRngSameBitsAndExactlyNDraws) {
  // The start vector takes exactly n draws, so the tree build's rng stream
  // does not depend on the step count; the same rng state gives the same
  // bits; a disconnected graph still gets a unit vector orthogonal to the
  // constant vector.
  Rng rng(77);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    const auto n = static_cast<Vertex>(2 + rng.next_below(120));
    const Graph g = testref::random_instance(rng, n, round % 2 == 0,
                                             round % 3 == 0);
    Rng r1(static_cast<std::uint64_t>(round) * 7 + 1), r2 = r1, r3 = r1;
    const auto a = fiedler_vector(g, r1);
    const std::vector<double> first(a.begin(), a.end());
    const auto b = fiedler_vector(g, r2);
    ASSERT_EQ(b.size(), first.size());
    double sum = 0, norm = 0;
    for (std::size_t v = 0; v < b.size(); ++v) {
      ASSERT_TRUE(testref::same_bits(b[v], first[v])) << "vertex " << v;
      ASSERT_TRUE(std::isfinite(b[v]));
      sum += b[v];
      norm += b[v] * b[v];
    }
    EXPECT_NEAR(sum, 0.0, 1e-9);
    EXPECT_NEAR(norm, 1.0, 1e-9);
    for (Vertex v = 0; v < n; ++v) r3.next_double();
    EXPECT_EQ(r1.next(), r3.next());
  }
}

}  // namespace
}  // namespace hgp
