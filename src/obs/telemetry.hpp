// Per-solve telemetry summary surfaced on HgpResult.
//
// Phase wall-times and aggregate DP work for one solve_hgp call, filled by
// the runtime regardless of whether tracing is enabled (the measurements
// are a handful of Timer reads at phase boundaries, not per-event
// recording).  The trace buffer answers "what happened when, on which
// thread"; SolveTelemetry answers "where did this solve's time go" without
// any export step.
#pragma once

#include <cstdint>

namespace hgp {

struct SolveTelemetry {
  /// Wall time of the whole solve_hgp call.
  double total_ms = 0;
  /// Tree builds, summed over the attempts (TreeAttempt::build_ms).  They
  /// run inside the attempt stage, so under a pool the sum can exceed
  /// tree_solve_ms.
  double forest_build_ms = 0;
  /// The solve built no tree: the forest cache or the checkpoint held them.
  bool forest_cache_hit = false;
  /// The per-tree attempt stage, builds included (wall time, not summed
  /// attempts — attempts overlap under a thread pool; per-attempt times
  /// live in HgpResult::attempts).
  double tree_solve_ms = 0;
  /// The fallback chain (0 when the primary pipeline won).
  double fallback_ms = 0;

  int trees_attempted = 0;
  int trees_succeeded = 0;
  /// Trees served from a SolveCheckpoint (a previous attempt of the same
  /// request completed them; this attempt skipped their DP entirely).
  int checkpoint_trees = 0;

  /// DP work summed over the attempts that completed (failed attempts
  /// lose their stats to the fault isolation boundary).
  std::uint64_t dp_signatures = 0;
  std::uint64_t dp_feasible_states = 0;
  std::uint64_t dp_merge_operations = 0;
  std::uint64_t dp_merges_rejected = 0;
  std::uint64_t dp_states_pruned = 0;
  /// DP node tables computed by merging vs rehydrated from a clean-subtree
  /// reuse store (runtime/incremental.hpp).  reused ≫ built is the
  /// incremental-resolve win; a from-scratch solve has dp_nodes_reused == 0.
  std::uint64_t dp_nodes_built = 0;
  std::uint64_t dp_nodes_reused = 0;
};

}  // namespace hgp
