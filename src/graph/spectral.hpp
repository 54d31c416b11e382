// Spectral graph tools: Fiedler vector by Lanczos iteration.
//
// The decomposition-tree builder uses the Fiedler vector of the weighted
// Laplacian as its default cut heuristic (spectral bisection), the classical
// practical stand-in for the sparse-cut subroutines of Räcke-style
// decompositions.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/prng.hpp"

namespace hgp {

struct FiedlerOptions {
  /// A call counts as converged when its Ritz residual ‖Lx − θx‖ is at
  /// most this fraction of 2 · max weighted degree (a bound on λ_max(L));
  /// decomp.fiedler_capped counts the calls that end above it.
  double tolerance = 1e-7;
};

/// Lanczos steps of a Fiedler call on an n-vertex graph (n ≥ 2):
/// min(n − 1, 40, ⌈2 √n⌉).  Up to n = 7 that is the whole Krylov space of
/// 1⊥, so the vector is exact there (docs/PERFORMANCE.md §7 has the
/// measurements behind the rule).
int fiedler_steps(std::size_t n);

/// Approximates the Fiedler vector (eigenvector of the second-smallest
/// Laplacian eigenvalue) by fiedler_steps(n) Lanczos steps on L restricted
/// to 1⊥, fully reorthogonalized in a fixed order, from a start vector of
/// n draws of `rng`; returns the smallest Ritz vector, orthogonal to the
/// constant vector and of unit norm.  Deterministic in `rng`.  Requires
/// n ≥ 2.  The vector lives in this thread's workspace: it stays valid
/// until the thread's next call.  After a thread's first call, calls on
/// at most 8 vertices make no heap allocation.
std::span<const double> fiedler_vector(const Graph& g, Rng& rng,
                                       const FiedlerOptions& opt = {});

/// Spectral bisection balanced by demand: orders vertices by Fiedler value
/// and splits at the demand-weighted median.  Falls back to random balanced
/// split for edgeless graphs.  Returns side flags (0/1), both sides
/// non-empty for n ≥ 2.
std::vector<char> spectral_bisect(const Graph& g, Rng& rng,
                                  const FiedlerOptions& opt = {});

}  // namespace hgp
