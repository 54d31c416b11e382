#include "runtime/shard_server.hpp"

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "io/snapshot.hpp"
#include "net/protocol.hpp"
#include "obs/obs.hpp"
#include "runtime/solver.hpp"
#include "util/fault_injector.hpp"
#include "util/sync.hpp"

namespace hgp {

namespace {

/// Shared coordinates of the in-flight batch, read by the heartbeat
/// thread while the main loop solves.
struct HeartbeatState {
  Mutex mu;
  CondVar cv;
  bool stop HGP_GUARDED_BY(mu) = false;
  std::uint64_t epoch HGP_GUARDED_BY(mu) = 0;
  std::uint32_t batch_id HGP_GUARDED_BY(mu) = 0;
  std::uint64_t trees_done HGP_GUARDED_BY(mu) = 0;
  bool idle HGP_GUARDED_BY(mu) = true;
};

Deadline idle_deadline(const ShardServerOptions& opt) {
  return opt.idle_timeout_ms > 0 ? Deadline::after_ms(opt.idle_timeout_ms)
                                 : Deadline::never();
}

}  // namespace

ShardServerReport run_shard_server(net::FrameChannel& ch,
                                   const ShardServerOptions& opt) {
  ShardServerReport report;
  HeartbeatState hb_state;
  /// Serializes channel sends: the heartbeat thread and the batch-result
  /// path share one stream and frames must never interleave.
  Mutex send_mu;
  std::atomic<std::uint64_t> heartbeats{0};
  // Long-lived beat thread, not a pool task: it must keep beating while
  // every worker thread is busy inside a tree solve.
  // hgp-lint: allow(naked-thread)
  std::thread beater;

  try {
    net::handshake_server(ch, idle_deadline(opt));

    std::optional<net::Frame> job_frame = ch.recv(idle_deadline(opt));
    if (!job_frame.has_value()) {
      report.exit_status = Status(StatusCode::kUnavailable,
                                  "coordinator closed before sending a job");
      return report;
    }
    if (job_frame->type != net::kMsgJob) {
      report.exit_status =
          Status(StatusCode::kDataLoss,
                 "expected Job, got frame type " +
                     std::to_string(job_frame->type));
      return report;
    }
    net::JobMsg job = net::decode_job(job_frame->payload);

    // The instance rides in as a PR-6 snapshot container; the full
    // validation stack (CRCs, fingerprint, semantic invariants) runs
    // before any of it is trusted.
    io::SnapshotReader reader(std::move(job.snapshot_blob));
    io::SectionCursor cursor;
    const Graph g = io::read_graph_sections(reader, cursor);
    const Hierarchy h = io::read_hierarchy_sections(reader, cursor);
    io::ForestSnapshotMeta meta;
    const std::vector<DecompTree> forest =
        io::read_forest_sections(reader, cursor, g, &meta);

    net::JobAckMsg ack;
    ack.graph_fingerprint = meta.graph_fingerprint;
    ack.num_trees = static_cast<std::int32_t>(forest.size());
    {
      const MutexLock lock(send_mu);
      ch.send(net::kMsgJobAck, net::encode_job_ack(ack),
              Deadline::after_ms(10000));
    }
    HGP_COUNTER_ADD("shard.jobs_loaded", 1);

    TreeSolverOptions tree_opt;
    tree_opt.epsilon = job.epsilon;
    tree_opt.units_override = job.units_override;

    const double beat_ms = opt.heartbeat_ms > 0  ? opt.heartbeat_ms
                           : job.heartbeat_ms > 0 ? job.heartbeat_ms
                                                  : 50;
    // The beater must keep beating while a tree solve hogs the pool — a
    // dedicated thread is the point (liveness independent of solve work).
    // hgp-lint: allow(naked-thread)
    beater = std::thread([&ch, &hb_state, &send_mu, &heartbeats, beat_ms] {
      for (;;) {
        net::HeartbeatMsg msg;
        bool stop = false;
        {
          const MutexLock lock(hb_state.mu);
          hb_state.cv.wait_for_ms(hb_state.mu, beat_ms);
          stop = hb_state.stop;
          msg.epoch = hb_state.epoch;
          msg.batch_id = hb_state.batch_id;
          msg.trees_done = hb_state.trees_done;
          msg.idle = hb_state.idle ? 1 : 0;
        }
        if (stop) break;
        // The distributed chaos storm stalls THIS site to fake a hung
        // shard: the solve continues, the beats stop, the lease expires.
        FaultInjector::instance().poll_io("shardd.heartbeat", 0);
        try {
          const MutexLock lock(send_mu);
          ch.send(net::kMsgHeartbeat, net::encode_heartbeat(msg),
                  Deadline::after_ms(10000));
          heartbeats.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          break;  // coordinator gone; the main loop will see it too
        }
      }
    });

    for (;;) {
      std::optional<net::Frame> frame = ch.recv(idle_deadline(opt));
      if (!frame.has_value()) {
        report.exit_status =
            Status(StatusCode::kUnavailable, "coordinator closed");
        break;
      }
      if (frame->type == net::kMsgShutdown) {
        report.exit_status = Status();
        break;
      }
      if (frame->type != net::kMsgAssign) {
        report.exit_status =
            Status(StatusCode::kDataLoss,
                   "expected Assign/Shutdown, got frame type " +
                       std::to_string(frame->type));
        break;
      }
      const net::AssignMsg assign = net::decode_assign(frame->payload);
      {
        const MutexLock lock(hb_state.mu);
        hb_state.epoch = assign.epoch;
        hb_state.batch_id = assign.batch_id;
        hb_state.trees_done = 0;
        hb_state.idle = false;
      }

      net::BatchResultMsg result;
      result.epoch = assign.epoch;
      result.batch_id = assign.batch_id;
      result.trees.reserve(assign.tree_indices.size());
      for (const std::int32_t ti : assign.tree_indices) {
        net::TreeResultWire tree;
        tree.tree_index = ti;
        try {
          if (ti < 0 || static_cast<std::size_t>(ti) >= forest.size()) {
            throw SolveError(StatusCode::kInvalidInput,
                             "assigned tree index " + std::to_string(ti) +
                                 " outside the forest");
          }
          if (opt.on_tree_start) opt.on_tree_start(ti);
          FaultInjector::instance().on_site("shardd.tree", ti);
          ForestTreeResult r =
              solve_forest_tree(g, h, forest[static_cast<std::size_t>(ti)],
                                tree_opt);
          tree.status = static_cast<std::uint8_t>(StatusCode::kOk);
          tree.cost = r.cost;
          tree.stats = r.stats;
          tree.leaf_of = std::move(r.placement.leaf_of);
          ++report.trees_solved;
          HGP_COUNTER_ADD("shard.trees_solved", 1);
        } catch (...) {
          // Same per-tree isolation as solve_hgp: one tree's failure is a
          // typed record in the result, never the worker's death.
          const Status s = status_from_current_exception();
          tree.status = static_cast<std::uint8_t>(s.code);
          tree.error = s.message;
          ++report.trees_failed;
          HGP_COUNTER_ADD("shard.tree_failures", 1);
        }
        result.trees.push_back(std::move(tree));
        const MutexLock lock(hb_state.mu);
        ++hb_state.trees_done;
      }
      {
        const MutexLock lock(send_mu);
        ch.send(net::kMsgBatchResult, net::encode_batch_result(result),
                Deadline::after_ms(30000));
      }
      ++report.batches_assigned;
      const MutexLock lock(hb_state.mu);
      hb_state.idle = true;
    }
  } catch (...) {
    report.exit_status = status_from_current_exception();
  }

  if (beater.joinable()) {
    {
      const MutexLock lock(hb_state.mu);
      hb_state.stop = true;
    }
    hb_state.cv.notify_all();
    beater.join();
  }
  report.heartbeats_sent = heartbeats.load(std::memory_order_relaxed);
  return report;
}

}  // namespace hgp
