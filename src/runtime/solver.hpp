// End-to-end HGP solver for general graphs (Theorem 1).
//
// Pipeline: sample a forest of decomposition trees (§4 stand-in for the
// Räcke distribution), solve HGPT on every tree with the signature DP +
// Theorem-5 conversion, map each tree solution back to G through the
// leaf↔vertex bijection, evaluate the true Eq.-1 cost on G, and keep the
// best (Theorem 7's arg-min over the tree family).
//
// Every runtime entry point runs that arg-min through ONE forest executor
// (solver.cpp).  Tree i's isolated attempt takes the first source that
// applies: a fitting checkpoint entry, tree i of a forest it was given (a
// forest-cache hit, or solve_on_forest's argument), or a build of tree i
// on its own stream (decomp/builder.hpp).  A solve whose checkpoint holds
// k of n trees builds n - k, so the shard coordinator's final solve_hgp
// builds only the trees its shards did not deliver.  The executor also
// owns the checkpoint record, the DP reuse hooks, the solve_finalize fault
// site, the arg-min and the telemetry sums.
//
// Resilience semantics: the arg-min only needs ONE surviving tree, so each
// per-tree solve is fault-isolated — a throw, an injected fault, or a
// deadline expiry inside tree k is recorded in HgpResult::attempts[k] and
// the remaining trees still compete.  The solve degrades (rather than
// fails) through the fallback chain hgp → multilevel → greedy when the
// deadline expires before any tree finishes or every tree fails; only
// cancellation, invalid input, or a fully exhausted chain throw, always as
// a typed SolveError.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/tree_solver.hpp"
#include "decomp/builder.hpp"
#include "hierarchy/cost.hpp"
#include "hierarchy/placement.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/checkpoint.hpp"
#include "util/deadline.hpp"
#include "util/status.hpp"

namespace hgp {

/// What solve_hgp may do when the primary pipeline cannot produce a
/// placement (deadline expired with no surviving tree, or all trees
/// failed).
enum class FallbackPolicy {
  /// Throw the classified SolveError instead of degrading.
  kNone,
  /// Degrade through multilevel, then greedy; HgpResult::status carries
  /// the reason for the downgrade.
  kChain,
};

/// Which algorithm produced HgpResult::placement.
enum class SolveMethod { kHgp, kMultilevel, kGreedy };

const char* solve_method_name(SolveMethod method);

struct SolverOptions {
  /// Number of decomposition trees sampled (more trees = better expected
  /// embedding, linearly more work).
  int num_trees = 4;
  /// Demand rounding accuracy (Theorem 2's ε).
  double epsilon = 0.25;
  /// Direct demand-unit override (0 = derive from ε).
  DemandUnits units_override = 0;
  std::uint64_t seed = 1;
  /// Cut heuristic for tree building; nullptr = spectral + FM refinement.
  const Cutter* cutter = nullptr;
  /// Pool for solving trees concurrently; nullptr = sequential.
  ThreadPool* pool = nullptr;
  /// Wall-clock budget in milliseconds; 0 = unbounded.  When it expires
  /// the solve returns the best result obtainable so far (surviving trees,
  /// else the fallback chain) instead of running to completion.
  double timeout_ms = 0;
  /// Cooperative cancellation; nullptr = not cancellable.  Cancellation
  /// always throws SolveError(kCancelled) — a cancelling caller wants the
  /// work stopped, not a degraded answer.
  const CancelToken* cancel = nullptr;
  FallbackPolicy fallback = FallbackPolicy::kChain;
  /// Checkpoint store shared across the retries of one logical request
  /// (see runtime/checkpoint.hpp): completed tree results are recorded
  /// into it and served from it, so a killed attempt resumes instead of
  /// restarting.  solve_hgp (re)binds it to this solve's parameters;
  /// nullptr = no checkpointing.  Must outlive the call.
  SolveCheckpoint* checkpoint = nullptr;
};

/// Outcome of one tree's isolated solve attempt.
struct TreeAttempt {
  StatusCode status = StatusCode::kInternal;
  /// Mapped-back Eq.-1 cost on G; +inf unless status == kOk.
  double cost = std::numeric_limits<double>::infinity();
  double elapsed_ms = 0;
  /// Error message when status != kOk.
  std::string error;
  /// This tree was served from SolverOptions::checkpoint (a previous
  /// attempt of the same request completed it) — no DP was run.
  bool from_checkpoint = false;
  /// Time this attempt spent building its tree (0 when the tree came from
  /// the checkpoint or a given forest; included in elapsed_ms).
  double build_ms = 0;

  bool ok() const { return status == StatusCode::kOk; }
};

struct HgpResult {
  /// Task → H-leaf assignment for G.
  Placement placement;
  /// Eq.-1 cost of `placement` on G (under the original cost multipliers).
  double cost = 0;
  /// Load / violation report at every hierarchy level.
  LoadReport loads;
  /// Which sampled tree produced the winner (-1 when a fallback did), and
  /// each tree's mapped cost (+inf for failed attempts).
  int best_tree = -1;
  std::vector<double> tree_costs;
  /// DP diagnostics of the winning tree (zeroed for fallback results).
  TreeDpStats stats;
  /// Per-tree fault-isolation report, parallel to the sampled forest.
  std::vector<TreeAttempt> attempts;
  /// kOk when the primary pipeline won; otherwise the reason the solve
  /// degraded to `method` (e.g. kDeadlineExceeded, kInfeasible, kInternal).
  Status status;
  /// Which algorithm produced `placement`.
  SolveMethod method = SolveMethod::kHgp;
  /// Retries the service layer spent before this result (0 for a direct
  /// solve_hgp call; filled by solve_with_retry / SolverService).
  int retries_used = 0;
  /// Wall-clock breakdown and aggregate DP work for this solve.  Filled
  /// even when HGP_OBS is compiled out (plain Timer reads, no registry).
  SolveTelemetry telemetry;

  /// True when the primary hgp pipeline produced the placement.
  bool degraded() const { return method != SolveMethod::kHgp; }
};

/// Requires vertex demands on `g`.  Returns a placement whenever any tree
/// survives or the fallback chain produces one; throws SolveError
/// (kInvalidInput / kCancelled / kInfeasible / kDeadlineExceeded /
/// kInternal) otherwise.  Builds only the trees that neither
/// opt.checkpoint nor the forest cache holds, and caches the forest when it
/// built every tree; SolveTelemetry::forest_cache_hit means it built none.
HgpResult solve_hgp(const Graph& g, const Hierarchy& h,
                    const SolverOptions& opt = {});

/// IncrementalSolver's base solve: solve_hgp without the fallback chain (a
/// failure throws the classified SolveError) and without opt.checkpoint,
/// that also hands back the forest it solved (*forest: the cached one, or
/// the one it built and cached) and, through reuse_out, every tree's DP
/// tables.  Throws the failed tree's status when a tree could not be built.
HgpResult solve_hgp_keep_forest(
    const Graph& g, const Hierarchy& h, const SolverOptions& opt,
    std::vector<DpReuseStore>* reuse_out,
    std::shared_ptr<const std::vector<DecompTree>>* forest);

/// Options for solve_on_forest(): SolverOptions minus the forest-sampling
/// knobs (the caller supplies the forest), plus the per-tree reuse hooks.
struct ForestSolveOptions {
  double epsilon = 0.25;
  /// Demand-unit override (0 = derive ⌈n/ε⌉ from the solved graph).  The
  /// incremental path always pins this (see IncrementalOptions) so demand
  /// rounding does not drift as vertices churn.
  DemandUnits units_override = 0;
  /// Checkpoint-identity seed.  The forest is supplied rather than
  /// sampled, so the seed only distinguishes checkpoint bindings of
  /// otherwise-identical solves.
  std::uint64_t seed = 1;
  /// Pool for solving trees concurrently; nullptr = sequential.
  ThreadPool* pool = nullptr;
  /// Wall-clock budget in ms (0 = unbounded) and cooperative cancel.
  double timeout_ms = 0;
  const CancelToken* cancel = nullptr;
  /// Completed-tree store shared across retries of one logical request
  /// (same validation + bind semantics as solve_hgp).  Must outlive the
  /// call.
  SolveCheckpoint* checkpoint = nullptr;
  /// Clean-subtree stores, parallel to the forest (reuse_in->size() ==
  /// forest.size() when non-null).  reuse_out is resized to the forest and
  /// receives the tables of every tree whose DP actually ran; trees served
  /// from the checkpoint leave their slot empty (they carry no tables, so
  /// the next resolve rebuilds them in full).  Must outlive the call.
  const std::vector<DpReuseStore>* reuse_in = nullptr;
  std::vector<DpReuseStore>* reuse_out = nullptr;
};

/// Solves HGP on a FIXED forest through the same executor as solve_hgp
/// (fault isolation, checkpoint lookup/record, map-back, Theorem-7
/// arg-min).  No fallback chain and no resampling — this is the primitive
/// both arms of the churn differential share, so a total failure throws
/// the classified SolveError instead of degrading.  Requires vertex
/// demands on `g` and a non-empty forest over `g`.
HgpResult solve_on_forest(const Graph& g, const Hierarchy& h,
                          const std::vector<DecompTree>& forest,
                          const ForestSolveOptions& opt = {});

/// One tree of the forest, solved exactly as the forest executor solves
/// it: HGPT DP on the tree, mapped back to G through the leaf↔vertex
/// bijection, judged by the true Eq.-1 cost.  Deterministic in (graph,
/// hierarchy, tree, tree_opt) — the sharded worker runs THIS function so
/// distributed per-tree results are bit-identical to the in-process path
/// (src/runtime/shard_server.hpp).
struct ForestTreeResult {
  Placement placement;
  double cost = std::numeric_limits<double>::infinity();
  TreeDpStats stats;
};
ForestTreeResult solve_forest_tree(const Graph& g, const Hierarchy& h,
                                   const DecompTree& dt,
                                   const TreeDpOptions& tree_opt);

// The request checks and result validation every forest-solve entry point
// shares (solve_hgp, solve_on_forest, IncrementalSolver, ShardCoordinator).

/// Throws SolveError(kInvalidInput) unless `g` carries demands,
/// num_trees >= 1, timeout_ms >= 0 and epsilon > 0.
void validate_solve_args(const Graph& g, int num_trees, double timeout_ms,
                         double epsilon);

/// Why no placement of `g`'s rounded demands fits `h` (round_demands,
/// src/core/demand.hpp: the rounded total exceeds the root capacity), or
/// empty when it fits or a demand lies outside (0, 1] (the trees' DP
/// reports that).  It reads only the demands, so solve_hgp runs it before
/// it builds any tree and the sharded coordinator before it spawns a
/// worker.
std::string rounded_demand_overflow(const Graph& g, const Hierarchy& h,
                                    double epsilon,
                                    DemandUnits units_override);

/// True when a tree result that arrived from outside this solve (a
/// recovered checkpoint spill, a shard's reply) fits the instance: one
/// leaf per vertex of `g`, every leaf in [0, h.leaf_count()), and a
/// finite cost.  Untrusted results are checked with this before use.
bool tree_result_fits(const Graph& g, const Hierarchy& h,
                      const CheckpointedTree& tree);

}  // namespace hgp
