#include "runtime/shard_server.hpp"

#include <thread>
#include <utility>
#include <vector>

#include "decomp/builder.hpp"
#include "graph/fingerprint.hpp"
#include "io/snapshot.hpp"
#include "net/protocol.hpp"
#include "obs/obs.hpp"
#include "runtime/solver.hpp"
#include "util/fault_injector.hpp"
#include "util/sync.hpp"

namespace hgp {

namespace {

/// Wakes and stops the heartbeat thread.
struct HeartbeatState {
  Mutex mu;
  CondVar cv;
  bool stop HGP_GUARDED_BY(mu) = false;
};

Deadline idle_deadline(const ShardServerOptions& opt) {
  return opt.idle_timeout_ms > 0 ? Deadline::after_ms(opt.idle_timeout_ms)
                                 : Deadline::never();
}

/// True when the coordinator's next frame, already queued, is Shutdown.
bool shutdown_queued(net::FrameChannel& ch) {
  try {
    const std::optional<net::Frame> next = ch.recv(Deadline::after_ms(50));
    return next.has_value() && next->type == net::kMsgShutdown;
  } catch (...) {
    return false;
  }
}

}  // namespace

Status run_shard_server(net::FrameChannel& ch, const ShardServerOptions& opt) {
  Status exit_status;
  HeartbeatState hb_state;
  /// Serializes channel sends: the heartbeat thread and the tree-result
  /// path share one stream and frames must never interleave.
  Mutex send_mu;
  // Long-lived beat thread, not a pool task: it must keep beating while
  // every worker thread is busy inside a tree solve.
  // hgp-lint: allow(naked-thread)
  std::thread beater;

  try {
    // Shutdown is a clean end wherever the worker waits for the
    // coordinator: teardown can reach a worker before its Hello or Job.
    std::optional<net::Frame> hello = ch.recv(idle_deadline(opt));
    if (!hello.has_value()) {
      return Status(StatusCode::kUnavailable,
                    "coordinator closed before the handshake");
    }
    if (hello->type == net::kMsgShutdown) return Status();
    if (net::handshake_server(ch, *hello, idle_deadline(opt)) !=
        net::kRoleCoordinator) {
      return Status(StatusCode::kDataLoss, "peer is not a coordinator");
    }

    std::optional<net::Frame> job_frame = ch.recv(idle_deadline(opt));
    if (!job_frame.has_value()) {
      return Status(StatusCode::kUnavailable,
                    "coordinator closed before sending a job");
    }
    if (job_frame->type == net::kMsgShutdown) return Status();
    if (job_frame->type != net::kMsgJob) {
      return Status(StatusCode::kDataLoss,
                    "expected Job, got frame type " +
                        std::to_string(job_frame->type));
    }
    net::JobMsg job = net::decode_job(job_frame->payload);

    // The instance rides in as a PR-6 snapshot container; the full
    // validation stack (CRCs, fingerprint, semantic invariants) runs
    // before any of it is trusted.
    io::SnapshotReader reader(std::move(job.snapshot_blob));
    io::SectionCursor cursor;
    const Graph g = io::read_graph_sections(reader, cursor);
    const Hierarchy h = io::read_hierarchy_sections(reader, cursor);
    if (cursor.index != reader.section_count()) {
      return Status(StatusCode::kDataLoss,
                    "job snapshot carries sections past the hierarchy");
    }

    net::JobAckMsg ack;
    ack.graph_fingerprint = graph_fingerprint(g);
    ack.num_trees = job.num_trees;
    {
      const MutexLock lock(send_mu);
      ch.send(net::kMsgJobAck, net::encode_job_ack(ack),
              Deadline::after_ms(10000));
    }
    HGP_COUNTER_ADD("shard.jobs_loaded", 1);

    TreeDpOptions tree_opt;
    tree_opt.epsilon = job.epsilon;
    tree_opt.units_override = job.units_override;

    const double beat_ms = opt.heartbeat_ms > 0  ? opt.heartbeat_ms
                           : job.heartbeat_ms > 0 ? job.heartbeat_ms
                                                  : 50;
    // The beater must keep beating while a tree solve hogs the pool — a
    // dedicated thread is the point (liveness independent of solve work).
    // hgp-lint: allow(naked-thread)
    beater = std::thread([&ch, &hb_state, &send_mu, beat_ms] {
      for (;;) {
        {
          const MutexLock lock(hb_state.mu);
          hb_state.cv.wait_for_ms(hb_state.mu, beat_ms);
          if (hb_state.stop) break;
        }
        // The distributed chaos storm stalls THIS site to fake a hung
        // shard: the solve continues, the beats stop, the lease expires.
        FaultInjector::instance().poll_io("shardd.heartbeat", 0);
        try {
          const MutexLock lock(send_mu);
          ch.send(net::kMsgHeartbeat, {}, Deadline::after_ms(10000));
        } catch (...) {
          break;  // coordinator gone; the main loop will see it too
        }
      }
    });

    for (;;) {
      std::optional<net::Frame> frame = ch.recv(idle_deadline(opt));
      if (!frame.has_value()) {
        exit_status = Status(StatusCode::kUnavailable, "coordinator closed");
        break;
      }
      if (frame->type == net::kMsgShutdown) break;
      if (frame->type != net::kMsgAssign) {
        exit_status = Status(StatusCode::kDataLoss,
                             "expected Assign/Shutdown, got frame type " +
                                 std::to_string(frame->type));
        break;
      }
      const net::AssignMsg assign = net::decode_assign(frame->payload);
      const std::int32_t ti = assign.tree_index;
      net::TreeResultMsg result;
      result.epoch = assign.epoch;
      result.tree_index = ti;
      try {
        if (ti < 0 || ti >= job.num_trees) {
          throw SolveError(StatusCode::kInvalidInput,
                           "assigned tree index " + std::to_string(ti) +
                               " outside the forest");
        }
        if (opt.on_tree_start) opt.on_tree_start(ti);
        FaultInjector::instance().on_site("shardd.tree", ti);
        // Tree ti exactly as the coordinator's forest would hold it: the
        // default cutter on the forest's own per-index stream.
        Rng rng = forest_tree_rngs(job.seed, ti + 1).back();
        const DecompTree tree = build_decomp_tree(g, rng, FmCutter());
        ForestTreeResult r = solve_forest_tree(g, h, tree, tree_opt);
        result.status = static_cast<std::uint8_t>(StatusCode::kOk);
        result.cost = r.cost;
        result.stats = r.stats;
        result.leaf_of = std::move(r.placement.leaf_of);
        HGP_COUNTER_ADD("shard.trees_solved", 1);
      } catch (...) {
        // Same per-tree isolation as solve_hgp: one tree's failure is a
        // typed record in the result, never the worker's death.
        const Status s = status_from_current_exception();
        result.status = static_cast<std::uint8_t>(s.code);
        result.error = s.message;
        HGP_COUNTER_ADD("shard.tree_failures", 1);
      }
      const MutexLock lock(send_mu);
      ch.send(net::kMsgTreeResult, net::encode_tree_result(result),
              Deadline::after_ms(30000));
    }
  } catch (...) {
    exit_status = status_from_current_exception();
    // A send that failed because the coordinator said Shutdown and hung
    // up while this worker was replying is still a clean end.
    if (exit_status.code == StatusCode::kUnavailable && shutdown_queued(ch)) {
      exit_status = Status();
    }
  }

  if (beater.joinable()) {
    {
      const MutexLock lock(hb_state.mu);
      hb_state.stop = true;
    }
    hb_state.cv.notify_all();
    beater.join();
  }
  return exit_status;
}

}  // namespace hgp
