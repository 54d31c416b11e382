#include "net/protocol.hpp"

#include "io/snapshot.hpp"

namespace hgp::net {

// TreeDpStats crosses the wire as one record of eight u64 counters, in
// declaration order; the assert locks that layout like every snapshot
// record's.
static_assert(sizeof(TreeDpStats) == 64 && io::is_snapshot_pod_v<TreeDpStats>);

std::vector<std::byte> encode_job(const JobMsg& msg) {
  io::PayloadBuilder w;
  w.append_pod(msg.epsilon);
  w.append_pod(msg.units_override);
  w.append_pod(msg.seed);
  w.append_pod(msg.num_trees);
  w.append_pod(msg.heartbeat_ms);
  w.append_counted<std::byte>(msg.snapshot_blob);
  return w.take();
}

JobMsg decode_job(std::span<const std::byte> payload) {
  io::SectionView r("Job", payload);
  JobMsg msg;
  msg.epsilon = r.read_pod<double>();
  msg.units_override = r.read_pod<std::int64_t>();
  msg.seed = r.read_pod<std::uint64_t>();
  msg.num_trees = r.read_pod<std::int32_t>();
  msg.heartbeat_ms = r.read_pod<double>();
  msg.snapshot_blob = r.read_counted<std::byte>();
  r.expect_exhausted();
  if (!(msg.epsilon > 0) || msg.num_trees < 1) {
    r.fail("implausible solve parameters");
  }
  return msg;
}

std::vector<std::byte> encode_job_ack(const JobAckMsg& msg) {
  io::PayloadBuilder w;
  w.append_pod(msg.graph_fingerprint);
  w.append_pod(msg.num_trees);
  return w.take();
}

JobAckMsg decode_job_ack(std::span<const std::byte> payload) {
  io::SectionView r("JobAck", payload);
  JobAckMsg msg;
  msg.graph_fingerprint = r.read_pod<std::uint64_t>();
  msg.num_trees = r.read_pod<std::int32_t>();
  r.expect_exhausted();
  return msg;
}

std::vector<std::byte> encode_assign(const AssignMsg& msg) {
  io::PayloadBuilder w;
  w.append_pod(msg.epoch);
  w.append_pod(msg.tree_index);
  return w.take();
}

AssignMsg decode_assign(std::span<const std::byte> payload) {
  io::SectionView r("Assign", payload);
  AssignMsg msg;
  msg.epoch = r.read_pod<std::uint64_t>();
  msg.tree_index = r.read_pod<std::int32_t>();
  r.expect_exhausted();
  if (msg.epoch == 0) r.fail("zero epoch");
  return msg;
}

std::vector<std::byte> encode_tree_result(const TreeResultMsg& msg) {
  io::PayloadBuilder w;
  w.append_pod(msg.epoch);
  w.append_pod(msg.tree_index);
  w.append_pod(msg.status);
  w.append_counted<char>(msg.error);
  w.append_pod(msg.cost);
  w.append_pod(msg.stats);
  w.append_counted<std::int64_t>(msg.leaf_of);
  return w.take();
}

TreeResultMsg decode_tree_result(std::span<const std::byte> payload) {
  io::SectionView r("TreeResult", payload);
  TreeResultMsg msg;
  msg.epoch = r.read_pod<std::uint64_t>();
  msg.tree_index = r.read_pod<std::int32_t>();
  msg.status = r.read_pod<std::uint8_t>();
  const std::vector<char> error = r.read_counted<char>();
  msg.error.assign(error.begin(), error.end());
  msg.cost = r.read_pod<double>();
  msg.stats = r.read_pod<TreeDpStats>();
  msg.leaf_of = r.read_counted<std::int64_t>();
  r.expect_exhausted();
  return msg;
}

}  // namespace hgp::net
