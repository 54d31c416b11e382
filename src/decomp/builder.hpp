// Recursive-cut decomposition-tree builder.
//
// build_decomp_tree() recursively bipartitions V(G) with a Cutter; each
// recursion node becomes a tree node whose parent-edge weight is the exact
// G-boundary of its vertex set (the paper's w_T definition).  Disconnected
// regions split along component lines first (their mutual cut is free).
//
// A forest of independent randomized trees is the practical stand-in for
// Räcke's tree distribution (Theorem 6); the end-to-end solver solves HGP
// on each and keeps the best mapped-back solution (Theorem 7's arg-min).
#pragma once

#include <cstdint>
#include <vector>

#include "decomp/cutter.hpp"
#include "decomp/decomp_tree.hpp"
#include "util/deadline.hpp"

namespace hgp {

/// Builds one decomposition tree of g.  Requires ≥ 1 vertex.  A non-null
/// `exec` is polled once per recursion frame; expiry/cancellation unwinds
/// with SolveError{kDeadlineExceeded|kCancelled}.
DecompTree build_decomp_tree(const Graph& g, Rng& rng, const Cutter& cutter,
                             const ExecContext* exec = nullptr);

/// The random streams trees 0..count-1 of a forest sampled with `seed` are
/// built from: the successive forks of Rng(seed).  Stream i does not depend
/// on `count`, so tree i of build_decomposition_forest(g, count, seed,
/// cutter) is build_decomp_tree(g, forest_tree_rngs(seed, i + 1)[i],
/// cutter), and a shard worker builds the one tree it leases alone.
std::vector<Rng> forest_tree_rngs(std::uint64_t seed, int count);

/// Builds `count` trees in sequence, tree i from forest_tree_rngs(seed,
/// count)[i].  The solver's tree attempts each build their own tree.
std::vector<DecompTree> build_decomposition_forest(const Graph& g, int count,
                                                   std::uint64_t seed,
                                                   const Cutter& cutter);

}  // namespace hgp
