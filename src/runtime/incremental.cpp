#include "runtime/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/fingerprint.hpp"
#include "obs/event_journal.hpp"  // journal kinds under HGP_OBS=OFF
#include "obs/obs.hpp"

namespace hgp {

IncrementalSolver::IncrementalSolver(std::shared_ptr<const Graph> base,
                                     const Hierarchy& h,
                                     IncrementalOptions opt)
    : hierarchy_(&h), opt_(opt), graph_(std::move(base)) {
  if (graph_ == nullptr) {
    throw SolveError(StatusCode::kInvalidInput,
                     "incremental solver requires a base graph");
  }
  validate_solve_args(*graph_, opt_.num_trees, opt_.timeout_ms,
                      opt_.epsilon);
  // Pin the demand-unit count to the base instance (same formula as
  // scale_demands for n = base vertex count), so later resolves keep the
  // rounding — and with it every clean subtree's signatures — stable as
  // the vertex count drifts.
  units_ = opt_.units_override > 0
               ? opt_.units_override
               : static_cast<DemandUnits>(std::ceil(
                     std::max(1.0,
                              static_cast<double>(graph_->vertex_count())) /
                     opt_.epsilon));
  fingerprint_ = graph_fingerprint(*graph_);

  // One budget for the whole base solve: the tree builds run inside the
  // tree attempts, under the same deadline as their DP.
  const SolverOptions so{.num_trees = opt_.num_trees,
                         .epsilon = opt_.epsilon,
                         .units_override = units_,
                         .seed = opt_.seed,
                         .cutter = opt_.cutter,
                         .pool = opt_.pool,
                         .timeout_ms = opt_.timeout_ms,
                         .cancel = opt_.cancel};
  last_ = solve_hgp_keep_forest(*graph_, h, so, &stores_, &forest_);
  HGP_COUNTER_ADD("incremental.sessions", 1);
}

std::shared_ptr<MutationLog> IncrementalSolver::begin_batch() const {
  // The deleter captures the snapshot, so the log co-owns its base graph:
  // a log recorded before a concurrent commit stays valid (and fails the
  // rebase check) instead of dangling.
  std::shared_ptr<const Graph> snap = graph_;
  return std::shared_ptr<MutationLog>(new MutationLog(*snap),
                                      [snap](MutationLog* log) mutable {
                                        delete log;
                                        snap.reset();
                                      });
}

HgpResult IncrementalSolver::resolve(const MutationLog& log,
                                     const ResolveOptions& ro,
                                     ResolveStats* stats) {
  if (&log.base() != graph_.get()) {
    HGP_COUNTER_ADD("incremental.stale_logs", 1);
    throw SolveError(StatusCode::kInvalidInput,
                     "stale mutation log: the instance advanced past the "
                     "log's base graph; rebase onto graph()");
  }
  HGP_JOURNAL_SCOPED(kResolveStart, log.size(), 0);
  HGP_COUNTER_ADD("incremental.resolves", 1);
  HGP_COUNTER_ADD("incremental.mutations", log.size());

  // Patch, don't resample: clean subtrees must keep their exact shape for
  // the DP reuse stores to hit (and for the churn differential to compare
  // like against like).
  MutationLog::Materialized mat = log.materialize();
  ForestPatch patch = patch_forest(*forest_, log, mat);
  const std::shared_ptr<const Graph> next =
      std::make_shared<const Graph>(std::move(mat.graph));

  std::vector<DpReuseStore> fresh;
  ForestSolveOptions fo;
  fo.epsilon = opt_.epsilon;
  fo.units_override = units_;
  fo.seed = opt_.seed;
  fo.pool = opt_.pool;
  fo.timeout_ms = ro.timeout_ms;
  fo.cancel = ro.cancel;
  fo.checkpoint = ro.checkpoint;
  fo.reuse_in = &stores_;
  fo.reuse_out = &fresh;

  HgpResult r;
  try {
    r = solve_on_forest(*next, *hierarchy_, patch.forest, fo);
  } catch (...) {
    // Committed state untouched: the caller may retry the same log.
    HGP_JOURNAL_SCOPED(kResolveEnd, 0, status_from_current_exception().code);
    throw;
  }

  HGP_COUNTER_ADD("incremental.dirty_vertices", patch.stats.dirty_vertices);
  HGP_COUNTER_ADD("incremental.nodes_built", r.telemetry.dp_nodes_built);
  HGP_COUNTER_ADD("incremental.nodes_reused", r.telemetry.dp_nodes_reused);

  if (stats != nullptr) {
    stats->patch = patch.stats;
    stats->nodes_built = r.telemetry.dp_nodes_built;
    stats->nodes_reused = r.telemetry.dp_nodes_reused;
    stats->surviving_vertices = 0;
    stats->moved_vertices = 0;
    // Survivors are the compact ids whose stable id predates the log's
    // adds; their stable id IS their compact id in the old graph.
    const Vertex old_n = graph_->vertex_count();
    for (Vertex c = 0; c < next->vertex_count(); ++c) {
      const Vertex s = mat.stable_of[static_cast<std::size_t>(c)];
      if (s >= old_n) continue;
      ++stats->surviving_vertices;
      if (last_.placement.leaf_of[static_cast<std::size_t>(s)] !=
          r.placement.leaf_of[static_cast<std::size_t>(c)]) {
        ++stats->moved_vertices;
      }
    }
  }

  // Atomic commit: snapshot, forest, reuse stores and last result advance
  // together, only on success.
  graph_ = next;
  fingerprint_ = graph_fingerprint(*graph_);
  forest_ = std::make_shared<const std::vector<DecompTree>>(
      std::move(patch.forest));
  stores_ = std::move(fresh);
  last_ = r;
  HGP_JOURNAL_SCOPED(kResolveEnd,
                     static_cast<std::int64_t>(r.telemetry.dp_nodes_reused),
                     r.status.code);
  return r;
}

}  // namespace hgp
