// The RHGPT dynamic program (§3: Definition 8, Claim 1, Theorem 4).
//
// Solves the relaxed hierarchical partitioning problem on a tree exactly
// (over rounded demands): for every tree node v and every signature
// (D_v^(1) ≥ … ≥ D_v^(h)) it computes the cheapest partial solution whose
// (v,j)-active sets have exactly those demands; parents combine children
// through the (j1,j2)-consistent merge of Definition 9, paying
// w(edge) · (cm(k-1)-cm(k))/2 for every level k at which a non-empty child
// active set is closed.  Theorem 3 guarantees an optimal *nice* solution
// has this shape, so the DP optimum equals the RHGPT optimum.
//
// Implementation notes (beyond the paper):
//  * one schedule: a single sequential children-before-parents sweep over
//    one workspace.  Parallelism lives one level up, across the forest's
//    independent trees (Theorem 7's arg-min, runtime/solver.cpp);
//  * the input tree is binarized first (uncuttable dummy edges), so the
//    merge never sees more than two children;
//  * signatures are interned to dense ids; the merge derives the parent id
//    arithmetically instead of enumerating parent signatures;
//  * projected merge: Definition 9 reads a child state s cut at level j
//    only through its masked prefix (D^(1..j), j), and the cost splits as
//    g1 + g2 + surviving(j1, j2, pv) with g = cost[s] + w·(PS[p] − PS[j]).
//    Each child table is first projected onto its distinct keys
//    k = space.lift(s, j, j) (j = present(k); only j = p on a dummy edge),
//    keeping the minimum g per key; the merge then pairs keys, not states,
//    so a node costs O(|keys1| · |keys2| · h) instead of
//    O(|feasible1| · |feasible2| · h³), with the same feasible tables;
//  * compatible pairs only: a key pair is merged iff its demands fit every
//    level bound, which does not depend on pv, so the binary merge walks
//    for each k1 only the k2 that fit (a D¹ prefix of keys2, AND-ed with
//    per-level threshold bitsets; a level needing more than 64 thresholds
//    is tested pair by pair) and counts the skipped pairs' pv steps
//    arithmetically into merge_operations / merges_rejected;
//  * pruning keeps the least D¹ per presence class in a dense prefix-min
//    table over (D², D³), so a dominance query is one read;
//  * a finished node keeps only its compact table (sorted feasible ids,
//    their costs and back-pointers: a DpSubtreeEntry), read by position.
//    The only |Sig|-sized arrays are one solve's scratch: the cost
//    (∞ at rest) and back arrays of the node being built, and the
//    projection's per-key minimum, so memory does not grow with the
//    tree's depth;
//  * tie rule: within a key the smallest child signature attaining the
//    minimum g wins (states walked in ascending id, strict <); keys are
//    paired in ascending id order (pv ascending innermost) and a parent
//    entry keeps the first candidate reaching its minimum (strict <).
//    Which of several equal-cost back-pointers survives is therefore a
//    fixed function of the tables, so a from-scratch, incremental or
//    sharded solve traces back the same solution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/binarize.hpp"
#include "core/demand.hpp"
#include "core/rhgpt.hpp"
#include "core/signature.hpp"
#include "graph/tree.hpp"
#include "hierarchy/hierarchy.hpp"
#include "util/deadline.hpp"

namespace hgp {

/// One DP back-pointer (children's signature ids + cut levels), exposed so
/// clean-subtree tables can be carried across solves via DpReuseStore.
constexpr std::uint32_t kDpNoSig = 0xffffffffu;
struct DpBack {
  std::uint32_t sig1 = kDpNoSig;
  std::uint32_t sig2 = kDpNoSig;
  std::int8_t j1 = -1;
  std::int8_t j2 = -1;
};

/// Compacted DP table of one (binarized) subtree root: feasible signature
/// ids (sorted), their costs, and their back-pointers, all in the space of
/// the solve that captured them.  The DP keeps every finished node in this
/// form, immutable once built and shared by pointer: a clean subtree's
/// table passes from one solve's store to the next without a copy.
struct DpSubtreeEntry {
  std::vector<std::uint32_t> feasible;
  std::vector<double> cost;
  std::vector<DpBack> back;
};

/// Cross-solve cache of per-subtree DP tables, keyed by a content hash of
/// the binarized subtree (rounded leaf demands, edge weights, uncuttable
/// flags, shape).  A node's table is a pure function of that content given
/// the signature-space parameters, so a later solve over a mutated tree
/// can take the table of every untouched ("clean") subtree instead of
/// re-merging it — the structural locality the incremental re-solve path
/// (src/runtime/incremental.hpp) is built on.  A clean node takes the
/// store's pointer, so consecutive stores share every clean table.
///
/// The capturing solve's space parameters are recorded so a consuming
/// solve can check compatibility: height, pruning flag and
/// units_per_capacity must match exactly (otherwise the store is ignored;
/// production always prunes, but a direct solve_rhgpt caller may mix
/// modes, and pruned tables must never reach an unpruned solve);
/// a different demand *total* can only shift the per-level signature
/// bounds min(capacity_j, total).  When it does, solve_rhgpt translates
/// stored ids into the new space (one new table per stored entry, shared
/// by every node that hashes to it) — clean-subtree signatures always
/// survive translation because their demands are bounded by the
/// (unchanged) subtree demand sum; when the bounds agree the spaces are
/// identical and the stored tables are used as they are.
struct DpReuseStore {
  int height = 0;
  bool prune = false;
  DemandUnits units_per_capacity = 0;
  DemandUnits total = 0;
  std::vector<DemandUnits> capacity;
  std::unordered_map<std::uint64_t, std::shared_ptr<const DpSubtreeEntry>>
      entries;

  bool empty() const { return entries.empty(); }
};

/// The DpReuseStore key of every subtree of the BINARIZED tree `bt`
/// (indexed by its node ids), given the demand rounding `sd` solve_rhgpt
/// derives for it.  Exposed so tests can line up per-node tables captured
/// through TreeDpOptions::reuse_out with the nodes that produced them.
std::vector<std::uint64_t> dp_subtree_hashes(const Tree& bt,
                                             const ScaledDemands& sd);

/// Largest dense dominance index (see docs/PERFORMANCE.md §2) that pruning
/// keeps for one presence class p ≤ 3: the cells of its prefix-min table
/// over (D², D³), a level above p contributing one.  A larger class, or one
/// with p ≥ 4, is pruned by the pairwise scan.
inline constexpr std::size_t kDpDenseIndexCells = 4096;

struct TreeDpOptions {
  /// Demand rounding accuracy; U = ⌈n/ε⌉ units per leaf capacity.
  double epsilon = 0.25;
  /// Overrides U directly when > 0 (used by scaling experiments; coarser
  /// units = faster + larger rounding violation).
  DemandUnits units_override = 0;
  /// Pareto dominance pruning of DP states (same presence, componentwise
  /// ≥ demand, ≥ cost ⇒ dropped).  Provably lossless, so every production
  /// path prunes; this API-only switch exists for the pruning ablation
  /// benchmarks (A3, e7) and the unpruned test oracles.
  bool prune_dominated = true;
  /// Cooperative deadline/cancellation; checked every few thousand merge
  /// relaxations.  nullptr = unconstrained.  Must outlive the call.
  const ExecContext* exec = nullptr;
  /// Clean-subtree tables from a previous solve.  Subtrees whose content
  /// hash (and every descendant's) is found here share the stored table
  /// instead of rebuilding it; results are bit-identical to a from-scratch
  /// solve either way.  Ignored when incompatible (see DpReuseStore).  Must
  /// outlive the call.
  const DpReuseStore* reuse_in = nullptr;
  /// When non-null, receives this solve's per-subtree tables (parameters +
  /// entries are overwritten) for the *next* incremental solve to consume.
  /// The entries are shared pointers: clean tables are the very objects
  /// reuse_in holds.
  DpReuseStore* reuse_out = nullptr;
};

// Per-solve DP work counters.  Collected as plain local increments inside
// the merge loop (never atomics — the loop is the library's hottest path)
// and published into the obs metrics registry once per solve, so the
// registry's `dp.*` counters aggregate the same quantities across solves.
struct TreeDpStats {
  std::size_t signature_count = 0;   ///< |Sig| for this instance
  std::size_t feasible_states = 0;   ///< Σ_v |feasible signatures at v|
  std::size_t merge_operations = 0;  ///< projected (key pair, pv) steps
  /// Of those, steps whose key pair overflows a level bound; counted, not
  /// executed (the merge visits only capacity-compatible pairs).
  std::size_t merges_rejected = 0;
  std::size_t states_pruned = 0;     ///< dominance-pruned DP entries
  std::size_t arena_bytes = 0;       ///< workspace arena high-water, bytes
  std::size_t nodes_built = 0;       ///< node tables computed by merging
  std::size_t nodes_reused = 0;      ///< node tables taken from reuse_in
};

struct TreeDpResult {
  /// Optimal RHGPT solution over rounded demands, on the ORIGINAL tree's
  /// leaf ids.
  RhgptSolution solution;
  /// DP optimum (equals rhgpt_cost(solution) up to fp rounding).
  double cost = 0;
  /// The demand rounding used (indexed by original tree nodes).
  ScaledDemands scaled;
  TreeDpStats stats;
};

/// Solves RHGPT on tree `t` against hierarchy `h`.
/// Requires leaf demands on `t`; throws SolveError(kInfeasible) if the
/// instance cannot fit (total rounded demand exceeds total hierarchy
/// capacity), SolveError{kDeadlineExceeded|kCancelled} when opt.exec says
/// the budget is gone.
TreeDpResult solve_rhgpt(const Tree& t, const Hierarchy& h,
                         const TreeDpOptions& opt = {});

}  // namespace hgp
