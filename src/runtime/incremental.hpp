// Incremental re-solve under churn: warm-started solves on a patched
// decomposition forest.
//
// A production stream of mutations (vertices joining and leaving, demand
// drift, channels appearing or changing volume) is recorded against the
// current graph as a MutationLog (graph/mutation_log.hpp).  resolve()
// turns the log into a new placement without redoing work the mutation
// did not invalidate:
//
//   1. the existing decomposition forest is *patched* deterministically
//      (decomp/patch.hpp): boundary weights are adjusted along the
//      affected leaf→LCA paths, dead leaves are removed, added vertices
//      are grafted next to their heaviest surviving neighbor — subtrees
//      the mutation never touches keep their exact shape, weights and
//      node order;
//   2. the DP re-solves every tree with the previous solve's clean-subtree
//      tables (DpReuseStore, core/tree_dp.hpp): untouched subtrees are
//      rehydrated instead of re-merged, so DP work scales with the dirty
//      region, not the graph;
//   3. the result is committed atomically — graph snapshot, forest, reuse
//      stores and last placement advance together, and only on success.
//
// Correctness invariant (pinned by tests/test_churn_differential.cpp):
// the incremental path is bit-identical — same cost, same placement, same
// per-signature DP tables — to a from-scratch solve_on_forest
// (runtime/solver.hpp) of the SAME patched forest on the mutated graph.
// Both arms run solve_on_forest, and so the forest executor solve_hgp
// runs too; they differ only in the reuse stores handed to it.  Reuse
// changes how tables are obtained, never their content; patching (not
// resampling) is what makes the incremental arm and the scratch arm
// comparable at all.
//
// The service front end (SolverService::open_incremental / submit_resolve,
// runtime/service.hpp) wraps an IncrementalSolver in a session with its
// own lock and runs resolves through the normal admission/retry/watchdog
// machinery.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "decomp/patch.hpp"
#include "graph/mutation_log.hpp"
#include "runtime/solver.hpp"

namespace hgp {

/// Construction-time knobs of an IncrementalSolver.  All of them are
/// pinned for the solver's lifetime: resolves must keep the checkpoint /
/// reuse identity of the instance stable under churn.
struct IncrementalOptions {
  int num_trees = 4;
  double epsilon = 0.25;
  /// Demand units.  0 derives U = ⌈n_base/ε⌉ ONCE from the base graph and
  /// pins it for every later resolve — deriving per-solve would re-round
  /// every demand whenever the vertex count drifts, invalidating every
  /// clean subtree for no accuracy gain.
  DemandUnits units_override = 0;
  std::uint64_t seed = 1;
  /// Cut heuristic for the base forest; nullptr = spectral + FM.  The
  /// base forest comes from (and goes into) the forest cache under the
  /// same key solve_hgp uses.
  const Cutter* cutter = nullptr;
  /// Pool for tree/DP parallelism (base solve and every resolve).
  ThreadPool* pool = nullptr;
  /// Budget/cancel for the base solve only.
  double timeout_ms = 0;
  const CancelToken* cancel = nullptr;
};

/// Per-resolve execution knobs (everything structural is fixed by
/// IncrementalOptions).
struct ResolveOptions {
  double timeout_ms = 0;
  const CancelToken* cancel = nullptr;
  /// Carries completed trees across retries of one resolve request.
  SolveCheckpoint* checkpoint = nullptr;
};

/// Diagnostics of one resolve.
struct ResolveStats {
  /// Forest-patch summary (dirty vertices, leaf edits, weight edits).
  PatchStats patch;
  /// DP node tables re-merged vs rehydrated, summed over succeeded trees.
  std::uint64_t nodes_built = 0;
  std::uint64_t nodes_reused = 0;
  /// Placement stability: surviving vertices (alive before and after the
  /// log) and how many of them changed hierarchy leaf.
  Vertex surviving_vertices = 0;
  Vertex moved_vertices = 0;
};

/// Stateful incremental solver for one logical instance under churn.
///
/// Holds the current committed state — graph snapshot, decomposition
/// forest, per-tree clean-subtree stores, last result — and advances it
/// through resolve(log) calls.  Constructing performs the base solve
/// (throws its SolveError on failure).  NOT thread-safe: callers serialize
/// resolves (the service session wraps this class in a mutex).
class IncrementalSolver {
 public:
  /// `base` is shared into the solver (mutation logs alias it); `h` must
  /// outlive the solver.  Runs the base forest build + solve.
  IncrementalSolver(std::shared_ptr<const Graph> base, const Hierarchy& h,
                    IncrementalOptions opt = {});

  /// The current committed graph snapshot.  Mutation logs for the next
  /// resolve must be recorded against exactly this object.
  const std::shared_ptr<const Graph>& graph() const { return graph_; }
  const Hierarchy& hierarchy() const { return *hierarchy_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  const std::vector<DecompTree>& forest() const { return *forest_; }
  /// Last committed result (base solve, then each successful resolve).
  const HgpResult& last() const { return last_; }
  /// The pinned demand-unit count every solve of this instance uses.
  DemandUnits units() const { return units_; }

  /// A fresh MutationLog over graph() that CO-OWNS the snapshot: the log
  /// keeps its base graph alive even after a later resolve swaps the
  /// solver's snapshot, so a stale log fails the rebase check instead of
  /// dangling.
  std::shared_ptr<MutationLog> begin_batch() const;

  /// Applies `log` (recorded against graph()) and re-solves.  On success
  /// the state is committed atomically and the new result returned; on
  /// failure the committed state is untouched (the same log may be retried
  /// or rebased).  Throws SolveError:
  ///   kInvalidInput      — log's base is not the current snapshot (stale;
  ///                        the caller must rebase via begin_batch()),
  ///   anything solve_on_forest throws otherwise.
  HgpResult resolve(const MutationLog& log, const ResolveOptions& ro = {},
                    ResolveStats* stats = nullptr);

 private:
  const Hierarchy* hierarchy_;
  IncrementalOptions opt_;
  DemandUnits units_ = 0;
  std::shared_ptr<const Graph> graph_;
  std::uint64_t fingerprint_ = 0;
  /// Shared with the forest cache until the first resolve patches it.
  std::shared_ptr<const std::vector<DecompTree>> forest_;
  /// Clean-subtree tables of the last committed solve, per tree.
  std::vector<DpReuseStore> stores_;
  HgpResult last_;
};

}  // namespace hgp
