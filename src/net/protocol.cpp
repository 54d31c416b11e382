#include "net/protocol.hpp"

namespace hgp::net {

namespace {

void write_stats(WireWriter& w, const TreeDpStats& s) {
  w.u64(s.signature_count);
  w.u64(s.feasible_states);
  w.u64(s.merge_operations);
  w.u64(s.merges_rejected);
  w.u64(s.states_pruned);
  w.u64(s.arena_bytes);
  w.u64(s.nodes_built);
  w.u64(s.nodes_reused);
}

TreeDpStats read_stats(WireReader& r) {
  TreeDpStats s;
  s.signature_count = r.u64();
  s.feasible_states = r.u64();
  s.merge_operations = r.u64();
  s.merges_rejected = r.u64();
  s.states_pruned = r.u64();
  s.arena_bytes = r.u64();
  s.nodes_built = r.u64();
  s.nodes_reused = r.u64();
  return s;
}

}  // namespace

std::vector<std::byte> encode_job(const JobMsg& msg) {
  WireWriter w;
  w.f64(msg.epsilon);
  w.i64(msg.units_override);
  w.u64(msg.seed);
  w.i32(msg.num_trees);
  w.f64(msg.heartbeat_ms);
  w.blob(msg.snapshot_blob);
  return w.take();
}

JobMsg decode_job(std::span<const std::byte> payload) {
  WireReader r(payload, "Job");
  JobMsg msg;
  msg.epsilon = r.f64();
  msg.units_override = r.i64();
  msg.seed = r.u64();
  msg.num_trees = r.i32();
  msg.heartbeat_ms = r.f64();
  msg.snapshot_blob = r.blob();
  r.expect_exhausted();
  if (!(msg.epsilon > 0) || msg.num_trees < 1) {
    r.fail("implausible solve parameters");
  }
  return msg;
}

std::vector<std::byte> encode_job_ack(const JobAckMsg& msg) {
  WireWriter w;
  w.u64(msg.graph_fingerprint);
  w.i32(msg.num_trees);
  return w.take();
}

JobAckMsg decode_job_ack(std::span<const std::byte> payload) {
  WireReader r(payload, "JobAck");
  JobAckMsg msg;
  msg.graph_fingerprint = r.u64();
  msg.num_trees = r.i32();
  r.expect_exhausted();
  return msg;
}

std::vector<std::byte> encode_assign(const AssignMsg& msg) {
  WireWriter w;
  w.u64(msg.epoch);
  w.u32(msg.batch_id);
  w.i32_span(msg.tree_indices);
  return w.take();
}

AssignMsg decode_assign(std::span<const std::byte> payload) {
  WireReader r(payload, "Assign");
  AssignMsg msg;
  msg.epoch = r.u64();
  msg.batch_id = r.u32();
  msg.tree_indices = r.i32_span();
  r.expect_exhausted();
  if (msg.epoch == 0 || msg.tree_indices.empty()) {
    r.fail("empty assignment");
  }
  return msg;
}

std::vector<std::byte> encode_heartbeat(const HeartbeatMsg& msg) {
  WireWriter w;
  w.u64(msg.epoch);
  w.u32(msg.batch_id);
  w.u64(msg.trees_done);
  w.u8(msg.idle);
  return w.take();
}

HeartbeatMsg decode_heartbeat(std::span<const std::byte> payload) {
  WireReader r(payload, "Heartbeat");
  HeartbeatMsg msg;
  msg.epoch = r.u64();
  msg.batch_id = r.u32();
  msg.trees_done = r.u64();
  msg.idle = r.u8();
  r.expect_exhausted();
  return msg;
}

std::vector<std::byte> encode_batch_result(const BatchResultMsg& msg) {
  WireWriter w;
  w.u64(msg.epoch);
  w.u32(msg.batch_id);
  w.u32(static_cast<std::uint32_t>(msg.trees.size()));
  for (const TreeResultWire& t : msg.trees) {
    w.i32(t.tree_index);
    w.u8(t.status);
    w.str(t.error);
    w.f64(t.cost);
    write_stats(w, t.stats);
    w.i64_span(t.leaf_of);
  }
  return w.take();
}

BatchResultMsg decode_batch_result(std::span<const std::byte> payload) {
  WireReader r(payload, "BatchResult");
  BatchResultMsg msg;
  msg.epoch = r.u64();
  msg.batch_id = r.u32();
  const std::uint32_t count = r.u32();
  // Each tree result occupies ≥ the fixed scalar footprint, so a hostile
  // count is bounded by the remaining payload before anything is reserved.
  constexpr std::size_t kMinTreeBytes = 4 + 1 + 4 + 8 + 9 * 8 + 4;
  if (count > r.remaining() / kMinTreeBytes) {
    r.fail("tree-result count exceeds the remaining payload");
  }
  msg.trees.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TreeResultWire t;
    t.tree_index = r.i32();
    t.status = r.u8();
    t.error = r.str();
    t.cost = r.f64();
    t.stats = read_stats(r);
    t.leaf_of = r.i64_span();
    msg.trees.push_back(std::move(t));
  }
  r.expect_exhausted();
  return msg;
}

}  // namespace hgp::net
