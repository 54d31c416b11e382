// ShardCoordinator: fans the trees of the decomposition forest out to
// shard worker processes under time-bounded leases, and survives their
// crashes, hangs and partitions without losing a request.
//
// The coordinator builds no forest.  Tree i is a pure function of (graph,
// seed, i) under the default cutter (decomp/builder.hpp's
// forest_tree_rngs), so the Job ships only the graph, the hierarchy and the
// solve parameters, and each shard builds the tree it leases.  A custom
// SolverOptions::cutter is rejected (kInvalidInput) before any worker is
// spawned.
//
// The forest arg-min is embarrassingly shardable (trees are independent
// until the final comparison), so the coordinator's only hard job is
// failure handling.  It runs as one loop on the calling thread, with no
// thread or lock of its own: each pass polls every shard socket, reads one
// whole frame from each that is ready, and only then judges handshakes
// and leases, assigns trees and sends the Assigns.
//
//   * every Assign leases exactly one tree, and the tree index is the
//     lease id — a shard whose socket polls empty with nothing heard from
//     it for CoordinatorOptions::lease_ms is declared dead and its leased
//     tree is reassigned to a survivor;
//   * every lease carries an epoch, bumped on reassignment — a zombie
//     shard (declared dead but still running) delivers results under a
//     stale epoch and they are fenced and discarded, so each tree is
//     accounted exactly once;
//   * a shard whose socket resets is dead immediately (crash detection is
//     faster than lease expiry), and so is one that sends a torn or
//     malformed frame, stalls mid-frame for lease_ms, or misses its
//     handshake_timeout_ms, and a spawn-local worker that exits before it
//     connects; spawn-local shards are respawned within a
//     budget, spaced by the retry loop's backoff-with-jitter policy;
//   * when every shard is lost and the respawn budget is spent, the
//     remaining trees are solved in-process — the PR-1 fallback-chain
//     idiom one rung higher, so shard loss degrades throughput, never
//     correctness.
//
// Correctness bar (enforced by tests/test_shard_differential.cpp): the
// coordinated result is bit-identical to single-process solve_hgp on the
// same instance under ANY seeded kill/partition schedule.  The mechanism
// is shared code, not matched re-implementation: accepted shard results
// are recorded into a SolveCheckpoint (each built by build_decomp_tree on
// the forest's per-index stream and solved by solve_forest_tree, the
// exact per-tree path solve_hgp runs), and the final aggregation IS
// solve_hgp consuming that checkpoint — arg-min tie-breaking, degradation
// classification and fallback chain included.  Trees the shards never
// delivered, or that failed remotely, are absent from the checkpoint, and
// solve_hgp builds and solves only those in-process, reproducing and
// classifying any failure as a single-process solve would; when every
// tree arrived, it builds nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "runtime/service.hpp"
#include "runtime/solver.hpp"

namespace hgp {

struct CoordinatorOptions {
  /// Shard worker processes to spawn (requires shardd_path; 0 with
  /// adopted channels runs a purely in-process shard pool).
  int num_shards = 0;
  /// The tools/hgp_shardd binary for spawn-local mode.
  std::string shardd_path;
  /// Extra argv for spawned workers (the chaos storm passes seeded
  /// --fault schedules through here).
  std::vector<std::string> shard_args;
  /// Directory for the coordinator's unix listening socket (spawn-local);
  /// empty uses TMPDIR (or /tmp).
  std::string socket_dir;
  /// A leased tree whose shard sends no heartbeat for this long is
  /// reassigned and the shard declared dead.
  double lease_ms = 2000;
  /// Heartbeat cadence requested from shards (carried in the Job).
  double heartbeat_ms = 25;
  /// Budget for one shard's handshake + job load, and for the spawned
  /// workers to connect (counted from the end of the Job encode).
  double handshake_timeout_ms = 10000;
  /// Total replacement spawns allowed across the solve (spawn-local).
  int respawn_limit = 1;
  /// Backoff-with-jitter schedule between respawns (the service layer's
  /// policy, see backoff_for_retry).
  RetryOptions reconnect;
};

/// Shard-level accounting for one coordinated solve (the chaos storm's
/// assertions read these).  A "batch" is one leased tree.
struct CoordinatorReport {
  int shards_up = 0;          ///< handshake + job load completed
  int shards_lost = 0;        ///< socket death or lease expiry
  int lease_expiries = 0;     ///< leases that ran out
  int batches_assigned = 0;   ///< Assign frames sent (reassigns included)
  int batches_completed = 0;  ///< accepted exactly-once results
  int batches_reassigned = 0; ///< re-queued under a bumped epoch
  int zombies_fenced = 0;     ///< stale-epoch results discarded
  int respawns = 0;           ///< replacement workers spawned
  int trees_from_shards = 0;  ///< tree results accepted off the wire
  /// Distribution was attempted, and some trees missed their shard window
  /// and were solved in-process by the final aggregation (true whenever
  /// every shard was lost).  False when nothing was distributed.
  bool degraded_inprocess = false;
  /// The rounded demand total exceeds the root capacity, so every tree's
  /// DP would reject the instance: nothing was distributed, no worker was
  /// spawned, and the in-process solve_hgp answered.
  bool rounded_demand_overflow = false;
  /// The phase timeline.  The four sum to at most the solve's wall time;
  /// the final in-process aggregation is the rest.
  double job_ms = 0;       ///< Job encode (graph + hierarchy snapshot)
  double connect_ms = 0;   ///< worker spawn (before the encode) + accept
  double trees_ms = 0;     ///< leasing trees out until they are delivered
  double teardown_ms = 0;  ///< Shutdown, socket close, worker reaping
};

/// One coordinated solve.  Construct, optionally adopt pre-connected
/// shard channels (tests, in-process harnesses), then solve() once.
class ShardCoordinator {
 public:
  ShardCoordinator(const Graph& g, const Hierarchy& h, SolverOptions opt,
                   CoordinatorOptions copt);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Adopts a connected socket whose peer runs run_shard_server (the
  /// coordinator performs its half of the handshake inside solve()).
  /// Must be called before solve().
  void adopt_shard(net::Socket socket);

  /// Ships the instance, leases its trees, supervises, aggregates.
  /// Returns exactly what solve_hgp would (throws SolveError the same way:
  /// kInvalidInput, kCancelled, or a fully exhausted fallback chain).
  /// A non-null opt.cutter is kInvalidInput.
  HgpResult solve();

  /// Valid after solve() returns or throws.
  const CoordinatorReport& report() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience wrapper: spawn-local coordinated solve (hgp_solve
/// --shards N).  `report`, when non-null, receives the shard accounting.
HgpResult solve_hgp_sharded(const Graph& g, const Hierarchy& h,
                            const SolverOptions& opt,
                            const CoordinatorOptions& copt,
                            CoordinatorReport* report = nullptr);

}  // namespace hgp
