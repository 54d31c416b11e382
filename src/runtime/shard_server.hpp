// The shard worker's serve loop: one coordinator, one connection, solve
// what you're told, heartbeat while you do it.
//
// Library code (not the process shell — tools/hgp_shardd.cpp is the thin
// main() around this) so tests and the chaos harness can run *real* shard
// logic on in-process threads over a socketpair: the differential suite
// proves bit-identity against solve_hgp with the exact code a remote
// worker runs, and TSan sees the whole conversation.
//
// Protocol (src/net/protocol.hpp): after the version handshake the server
// expects a Job (graph + hierarchy snapshot blob + solve params), acks it,
// then loops on Assign → build the one leased tree → solve it with
// solve_forest_tree → TreeResult.  The build is build_decomp_tree with the
// default cutter on forest_tree_rngs(seed, ...)[i], the build solve_hgp's
// own attempt at tree i runs, and the solve is the SAME per-tree path
// solve_hgp uses: bit-identity is by shared code, not by
// re-implementation.  A heartbeat thread sends empty liveness pings at the
// coordinator's requested cadence the whole time.  A Shutdown in place of
// Hello, of the Job or of an Assign ends the loop cleanly (kOk).
//
// FaultInjector sites (the distributed chaos storm arms these in the
// worker process; tools/hgp_shardd --fault):
//   shardd.tree      [i] on_site before tree i's solve (throw/stall), and
//                    polled for kKillProcess (SIGKILL mid-solve) in
//                    hgp_shardd's wrapper.
//   shardd.heartbeat [0] polled each beat; kStall delays the beat past
//                    the lease — a hung-but-alive shard.
#pragma once

#include <functional>

#include "net/channel.hpp"
#include "util/status.hpp"

namespace hgp {

struct ShardServerOptions {
  /// Overrides the coordinator-requested heartbeat cadence when > 0.
  double heartbeat_ms = 0;
  /// Deadline for each blocking protocol read (0 = no limit); the worker
  /// exits kUnavailable when the coordinator goes silent past this.
  double idle_timeout_ms = 0;
  /// Called before each tree solve with the tree index (hgp_shardd polls
  /// the kill-process fault here; tests count solved trees).
  std::function<void(int)> on_tree_start;
};

/// Serves one coordinator on `ch` until Shutdown, peer close, or a fatal
/// channel error.  Performs the server half of the handshake first.
/// Never throws: returns why the loop ended (kOk = clean Shutdown from the
/// coordinator, in any state).
Status run_shard_server(net::FrameChannel& ch,
                        const ShardServerOptions& opt = {});

}  // namespace hgp
