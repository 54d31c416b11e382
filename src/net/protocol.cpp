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
  w.i32(msg.tree_index);
  return w.take();
}

AssignMsg decode_assign(std::span<const std::byte> payload) {
  WireReader r(payload, "Assign");
  AssignMsg msg;
  msg.epoch = r.u64();
  msg.tree_index = r.i32();
  r.expect_exhausted();
  if (msg.epoch == 0) r.fail("zero epoch");
  return msg;
}

std::vector<std::byte> encode_tree_result(const TreeResultMsg& msg) {
  WireWriter w;
  w.u64(msg.epoch);
  w.i32(msg.tree_index);
  w.u8(msg.status);
  w.str(msg.error);
  w.f64(msg.cost);
  write_stats(w, msg.stats);
  w.i64_span(msg.leaf_of);
  return w.take();
}

TreeResultMsg decode_tree_result(std::span<const std::byte> payload) {
  WireReader r(payload, "TreeResult");
  TreeResultMsg msg;
  msg.epoch = r.u64();
  msg.tree_index = r.i32();
  msg.status = r.u8();
  msg.error = r.str();
  msg.cost = r.f64();
  msg.stats = read_stats(r);
  msg.leaf_of = r.i64_span();
  r.expect_exhausted();
  return msg;
}

}  // namespace hgp::net
