// The coordinator↔shard message vocabulary (rides on channel.hpp frames).
//
// Conversation, in order:
//
//   coord → shard   Hello{version, role}          (channel.hpp handshake)
//   shard → coord   HelloAck{version}
//   coord → shard   Job{solve params, snapshot blob}
//   shard → coord   JobAck{graph fingerprint, num trees}
//   coord → shard   Assign{epoch, tree index}              (one per lease)
//   shard → coord   Heartbeat{}                            (streamed, empty)
//   shard → coord   TreeResult{epoch, tree index, result}
//   coord → shard   Shutdown{}
//
// A lease is one tree: the tree index is the lease id, so the result has
// no second index that could disagree with the lease it answers.  The
// heartbeat is a bare liveness ping; a non-empty one is malformed.
//
// The Job's instance payload is a PR-6 snapshot container blob (graph +
// hierarchy sections, src/io/snapshot.hpp) embedded whole: the shard
// re-runs the full snapshot validation stack — CRCs, fingerprint,
// semantic invariants — before trusting a single byte of the instance.
// No forest travels (protocol v5): tree i is a function of (graph, seed,
// i) under the default cutter, so the shard builds the tree each Assign
// leases (decomp/builder.hpp's forest_tree_rngs).  Shutdown is a clean end
// at any point the shard waits for the coordinator, Hello and Job
// included.
// Epochs implement zombie fencing: every Assign carries the lease's
// current epoch, every result echoes it, and the coordinator discards any
// result whose epoch is stale (the tree was reassigned after this shard
// was declared dead).
//
// Payloads are encoded with io::PayloadBuilder and decoded with
// io::SectionView, the snapshot sections' codec (layouts in
// docs/FORMATS.md).  Decode functions throw SolveError{kDataLoss} on any
// malformed payload; counts are validated before they size an allocation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tree_dp.hpp"
#include "net/frame.hpp"
#include "util/status.hpp"

namespace hgp::net {

// Message types (channel.hpp owns 1-2 for the handshake).
constexpr std::uint16_t kMsgJob = 3;
constexpr std::uint16_t kMsgJobAck = 4;
constexpr std::uint16_t kMsgAssign = 5;
constexpr std::uint16_t kMsgHeartbeat = 6;
constexpr std::uint16_t kMsgTreeResult = 7;
constexpr std::uint16_t kMsgShutdown = 8;

/// Everything a shard needs to build and solve assigned trees
/// bit-identically to the coordinator's in-process path: the solve
/// parameters (the seed and num_trees fix the forest) plus the instance
/// snapshot blob (graph + hierarchy container).
struct JobMsg {
  double epsilon = 0;
  std::int64_t units_override = 0;
  std::uint64_t seed = 0;
  std::int32_t num_trees = 0;
  /// Heartbeat cadence the coordinator expects, in ms.
  double heartbeat_ms = 0;
  /// Snapshot container: graph sections, then hierarchy sections
  /// (src/io/snapshot.hpp codecs), and nothing else.
  std::vector<std::byte> snapshot_blob;
};

struct JobAckMsg {
  std::uint64_t graph_fingerprint = 0;
  std::int32_t num_trees = 0;
};

struct AssignMsg {
  std::uint64_t epoch = 0;
  std::int32_t tree_index = 0;
};

/// One leased tree's result, echoing the lease's epoch.  `leaf_of` is
/// present only when status == kOk; the stats travel so resumed telemetry
/// stays honest (checkpoint.hpp).
struct TreeResultMsg {
  std::uint64_t epoch = 0;
  std::int32_t tree_index = 0;
  std::uint8_t status = 0;  ///< StatusCode
  std::string error;
  double cost = 0;
  TreeDpStats stats;
  std::vector<std::int64_t> leaf_of;
};

std::vector<std::byte> encode_job(const JobMsg& msg);
JobMsg decode_job(std::span<const std::byte> payload);

std::vector<std::byte> encode_job_ack(const JobAckMsg& msg);
JobAckMsg decode_job_ack(std::span<const std::byte> payload);

std::vector<std::byte> encode_assign(const AssignMsg& msg);
AssignMsg decode_assign(std::span<const std::byte> payload);

std::vector<std::byte> encode_tree_result(const TreeResultMsg& msg);
TreeResultMsg decode_tree_result(std::span<const std::byte> payload);

}  // namespace hgp::net
