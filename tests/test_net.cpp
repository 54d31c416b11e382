// Wire-layer property suite: frame codec (round-trip, every-truncation and
// every-bit-flip rejection, hostile lengths), the message decoders'
// allocation-bomb discipline and pinned encodings, FrameChannel deadlines
// and faults, and the protocol-version handshake (src/net/,
// docs/FORMATS.md "shard wire format").
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.hpp"
#include "net/channel.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "runtime/shard_server.hpp"
#include "util/fault_injector.hpp"

namespace hgp::net {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

StatusCode thrown_code(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const SolveError& e) {
    return e.code();
  } catch (...) {
    return StatusCode::kInternal;
  }
  return StatusCode::kOk;
}

// ---------------------------------------------------------------- frames

TEST(Frame, RoundTripsPayloads) {
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                           std::size_t{64}, std::size_t{4096}}) {
    std::vector<std::byte> payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
    }
    const std::vector<std::byte> wire = encode_frame(42, payload);
    ASSERT_EQ(wire.size(), kFrameHeaderSize + size);
    const Frame frame = decode_frame(wire);
    EXPECT_EQ(frame.type, 42);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(Frame, EveryTruncationRejected) {
  const std::vector<std::byte> payload = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  const std::vector<std::byte> wire = encode_frame(7, payload);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::span<const std::byte> prefix(wire.data(), len);
    EXPECT_EQ(thrown_code([&] { decode_frame(prefix); }),
              StatusCode::kDataLoss)
        << "prefix of " << len << " bytes must not decode";
  }
}

TEST(Frame, EveryBitFlipRejected) {
  const std::vector<std::byte> payload = bytes_of({10, 20, 30, 40, 50});
  const std::vector<std::byte> wire = encode_frame(3, payload);
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::byte> flipped = wire;
      flipped[byte] ^= static_cast<std::byte>(1 << bit);
      EXPECT_EQ(thrown_code([&] { decode_frame(flipped); }),
                StatusCode::kDataLoss)
          << "bit " << bit << " of byte " << byte << " must not survive";
    }
  }
}

TEST(Frame, TrailingGarbageRejected) {
  std::vector<std::byte> wire = encode_frame(5, bytes_of({1, 2, 3}));
  wire.push_back(std::byte{0});
  EXPECT_EQ(thrown_code([&] { decode_frame(wire); }), StatusCode::kDataLoss);
}

/// Builds 20 header bytes with a VALID header CRC around otherwise hostile
/// fields, so the test reaches the check after the CRC.
std::vector<std::byte> forged_header(std::uint32_t magic,
                                     std::uint16_t version, std::uint16_t type,
                                     std::uint32_t payload_size,
                                     std::uint32_t payload_crc) {
  std::vector<std::byte> bytes(kFrameHeaderSize);
  std::memcpy(bytes.data() + 0, &magic, 4);
  std::memcpy(bytes.data() + 4, &version, 2);
  std::memcpy(bytes.data() + 6, &type, 2);
  std::memcpy(bytes.data() + 8, &payload_size, 4);
  std::memcpy(bytes.data() + 12, &payload_crc, 4);
  const std::uint32_t header_crc = io::crc32(bytes.data(), 16);
  std::memcpy(bytes.data() + 16, &header_crc, 4);
  return bytes;
}

TEST(Frame, HostileLengthRejectedBeforeAllocation) {
  // payload_size far beyond the cap, CRC-valid header: the cap check must
  // fire (kDataLoss) without any attempt to read or allocate 4 GiB.
  const std::vector<std::byte> header = forged_header(
      kFrameMagic, kProtocolVersion, 1, 0xfffffff0u, 0);
  EXPECT_EQ(thrown_code([&] { decode_frame_header(header); }),
            StatusCode::kDataLoss);
}

TEST(Frame, VersionSkewRejected) {
  const std::vector<std::byte> header = forged_header(
      kFrameMagic, kProtocolVersion + 1, 1, 0, 0);
  EXPECT_EQ(thrown_code([&] { decode_frame_header(header); }),
            StatusCode::kDataLoss);
}

TEST(Frame, WrongMagicRejected) {
  const std::vector<std::byte> header =
      forged_header(0x12345678u, kProtocolVersion, 1, 0, 0);
  EXPECT_EQ(thrown_code([&] { decode_frame_header(header); }),
            StatusCode::kDataLoss);
}

// --------------------------------------------------------------- protocol

TEST(Protocol, HostileCountRejectedBeforeAllocation) {
  // A count prefix claiming ~4 billion elements inside a short payload
  // must die on the count-vs-remaining check, not in the allocator.
  TreeResultMsg result;
  result.epoch = 1;
  result.leaf_of = {0, 1};
  std::vector<std::byte> payload = encode_tree_result(result);
  const std::uint32_t hostile = 0xffffffffu;
  // leaf_of's count sits right before its two i64 elements.
  std::memcpy(payload.data() + payload.size() - 16 - 4, &hostile, 4);
  EXPECT_EQ(thrown_code([&] { (void)decode_tree_result(payload); }),
            StatusCode::kDataLoss);

  JobMsg job;
  job.epsilon = 0.5;
  job.num_trees = 1;
  job.snapshot_blob = bytes_of({1, 2, 3});
  std::vector<std::byte> job_payload = encode_job(job);
  // The blob's count sits right before its three bytes.
  std::memcpy(job_payload.data() + job_payload.size() - 3 - 4, &hostile, 4);
  EXPECT_EQ(thrown_code([&] { (void)decode_job(job_payload); }),
            StatusCode::kDataLoss);
}

TEST(Protocol, OverReadRejected) {
  AssignMsg assign;
  assign.epoch = 5;
  assign.tree_index = 1;
  const std::vector<std::byte> payload = encode_assign(assign);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_EQ(thrown_code([&] {
                (void)decode_assign(std::span(payload.data(), len));
              }),
              StatusCode::kDataLoss)
        << "Assign prefix of " << len << " bytes must not decode";
  }
}

TEST(Protocol, TrailingBytesRejected) {
  JobAckMsg ack;
  ack.graph_fingerprint = 42;
  ack.num_trees = 3;
  std::vector<std::byte> payload = encode_job_ack(ack);
  EXPECT_EQ(decode_job_ack(payload).num_trees, 3);
  payload.push_back(std::byte{0});
  EXPECT_EQ(thrown_code([&] { (void)decode_job_ack(payload); }),
            StatusCode::kDataLoss);
}

TEST(Protocol, AssignRoundTripsAndRejectsZeroEpoch) {
  AssignMsg ok;
  ok.epoch = 3;
  ok.tree_index = 2;
  const AssignMsg round = decode_assign(encode_assign(ok));
  EXPECT_EQ(round.epoch, 3u);
  EXPECT_EQ(round.tree_index, 2);

  AssignMsg zero_epoch = ok;
  zero_epoch.epoch = 0;
  EXPECT_EQ(thrown_code([&] { decode_assign(encode_assign(zero_epoch)); }),
            StatusCode::kDataLoss);
}

TEST(Protocol, TreeResultRoundTripsOkTree) {
  TreeResultMsg msg;
  msg.epoch = 9;
  msg.tree_index = 2;
  msg.status = static_cast<std::uint8_t>(StatusCode::kOk);
  msg.cost = 12.5;
  msg.stats.signature_count = 11;
  msg.stats.nodes_reused = 4;
  msg.leaf_of = {0, 1, 2, 1};

  const TreeResultMsg round = decode_tree_result(encode_tree_result(msg));
  EXPECT_EQ(round.epoch, 9u);
  EXPECT_EQ(round.tree_index, 2);
  EXPECT_EQ(round.status, msg.status);
  EXPECT_TRUE(round.error.empty());
  EXPECT_EQ(round.cost, 12.5);
  EXPECT_EQ(round.stats.signature_count, 11u);
  EXPECT_EQ(round.stats.nodes_reused, 4u);
  EXPECT_EQ(round.leaf_of, msg.leaf_of);
}

TEST(Protocol, TreeResultRoundTripsFailedTree) {
  TreeResultMsg msg;
  msg.epoch = 7;
  msg.tree_index = 3;
  msg.status = static_cast<std::uint8_t>(StatusCode::kInfeasible);
  msg.error = "tree cannot fit";

  const TreeResultMsg round = decode_tree_result(encode_tree_result(msg));
  EXPECT_EQ(round.epoch, 7u);
  EXPECT_EQ(round.tree_index, 3);
  EXPECT_EQ(round.status, msg.status);
  EXPECT_EQ(round.error, "tree cannot fit");
  EXPECT_TRUE(round.leaf_of.empty());
}

std::string hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte b : bytes) {
    out += kDigits[std::to_integer<unsigned>(b) >> 4];
    out += kDigits[std::to_integer<unsigned>(b) & 0xf];
  }
  return out;
}

std::vector<std::byte> unhex(const std::string& text) {
  std::vector<std::byte> out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
    out.push_back(
        static_cast<std::byte>(std::stoi(text.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(Protocol, EncodingsAreByteStable) {
  // One fixed instance of every message, against the bytes protocol v6
  // puts on the wire (docs/FORMATS.md).  A codec change that
  // moves a single byte fails here before it can strand a deployed
  // hgp_shardd; a deliberate layout change bumps kProtocolVersion and
  // regenerates these literals.
  ASSERT_EQ(kProtocolVersion, 6);
  const std::string kHello = "0600000001000000";
  const std::string kHelloAck = "06000000";
  const std::string kJob =
      "000000000000d03fe80300000000000007000000000000000800000000000000"
      "0000494005000000010203fffe";
  const std::string kJobAck = "efcdab896745230108000000";
  const std::string kAssign = "030000000000000002000000";
  const std::string kTreeResultOk =
      "0900000000000000020000000000000000000000000000294001000000000000"
      "0002000000000000000300000000000000040000000000000005000000000000"
      "0006000000000000000700000000000000080000000000000004000000000000"
      "0000000000010000000000000002000000000000000100000000000000";
  const std::string kTreeResultFailed =
      "070000000000000003000000020f000000747265652063616e6e6f7420666974"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "000000000000000000000000";

  JobMsg job;
  job.epsilon = 0.25;
  job.units_override = 1000;
  job.seed = 7;
  job.num_trees = 8;
  job.heartbeat_ms = 50;
  job.snapshot_blob = bytes_of({0x01, 0x02, 0x03, 0xff, 0xfe});
  EXPECT_EQ(hex(encode_job(job)), kJob);
  EXPECT_EQ(hex(encode_job(decode_job(unhex(kJob)))), kJob);

  JobAckMsg ack;
  ack.graph_fingerprint = 0x0123456789abcdefull;
  ack.num_trees = 8;
  EXPECT_EQ(hex(encode_job_ack(ack)), kJobAck);
  EXPECT_EQ(hex(encode_job_ack(decode_job_ack(unhex(kJobAck)))), kJobAck);

  AssignMsg assign;
  assign.epoch = 3;
  assign.tree_index = 2;
  EXPECT_EQ(hex(encode_assign(assign)), kAssign);
  EXPECT_EQ(hex(encode_assign(decode_assign(unhex(kAssign)))), kAssign);

  TreeResultMsg ok;
  ok.epoch = 9;
  ok.tree_index = 2;
  ok.status = static_cast<std::uint8_t>(StatusCode::kOk);
  ok.cost = 12.5;
  ok.stats.signature_count = 1;
  ok.stats.feasible_states = 2;
  ok.stats.merge_operations = 3;
  ok.stats.merges_rejected = 4;
  ok.stats.states_pruned = 5;
  ok.stats.arena_bytes = 6;
  ok.stats.nodes_built = 7;
  ok.stats.nodes_reused = 8;
  ok.leaf_of = {0, 1, 2, 1};
  EXPECT_EQ(hex(encode_tree_result(ok)), kTreeResultOk);
  EXPECT_EQ(hex(encode_tree_result(decode_tree_result(unhex(kTreeResultOk)))),
            kTreeResultOk);

  TreeResultMsg failed;
  failed.epoch = 7;
  failed.tree_index = 3;
  failed.status = static_cast<std::uint8_t>(StatusCode::kInfeasible);
  failed.error = "tree cannot fit";
  EXPECT_EQ(hex(encode_tree_result(failed)), kTreeResultFailed);
  EXPECT_EQ(
      hex(encode_tree_result(decode_tree_result(unhex(kTreeResultFailed)))),
      kTreeResultFailed);

  // The handshake encodes inside channel.cpp, so its bytes are read off a
  // socket pair: the client's Hello, then the server's HelloAck.
  {
    auto [a, b] = socket_pair();
    FrameChannel client{std::move(a)}, server{std::move(b)};
    StatusCode client_code = StatusCode::kInternal;
    std::thread t([&] {
      client_code = thrown_code([&] {
        handshake_client(client, kRoleShard, Deadline::after_ms(5000));
      });
    });
    const std::optional<Frame> hello = server.recv(Deadline::after_ms(5000));
    server.send(kMsgHelloAck, unhex(kHelloAck), Deadline::after_ms(5000));
    t.join();
    EXPECT_EQ(client_code, StatusCode::kOk);
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->type, kMsgHello);
    EXPECT_EQ(hex(hello->payload), kHello);
  }
  {
    auto [a, b] = socket_pair();
    FrameChannel client{std::move(a)}, server{std::move(b)};
    std::uint32_t role = 0xff;
    StatusCode server_code = StatusCode::kInternal;
    std::thread t([&] {
      server_code = thrown_code(
          [&] { role = handshake_server(server, Deadline::after_ms(5000)); });
    });
    client.send(kMsgHello, unhex(kHello), Deadline::after_ms(5000));
    const std::optional<Frame> hello_ack =
        client.recv(Deadline::after_ms(5000));
    t.join();
    EXPECT_EQ(server_code, StatusCode::kOk);
    EXPECT_EQ(role, kRoleShard);
    ASSERT_TRUE(hello_ack.has_value());
    EXPECT_EQ(hello_ack->type, kMsgHelloAck);
    EXPECT_EQ(hex(hello_ack->payload), kHelloAck);
  }
}

// ---------------------------------------------------------------- channel

TEST(Channel, RoundTripsOverSocketPair) {
  auto [a, b] = socket_pair();
  FrameChannel left{std::move(a)}, right{std::move(b)};
  const Deadline d = Deadline::after_ms(5000);
  left.send(100, bytes_of({1, 2, 3}), d);
  left.send(101, {}, d);
  auto f1 = right.recv(d);
  auto f2 = right.recv(d);
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f1->type, 100);
  EXPECT_EQ(f1->payload, bytes_of({1, 2, 3}));
  EXPECT_EQ(f2->type, 101);
  EXPECT_TRUE(f2->payload.empty());
}

TEST(Channel, RecvDeadlineExpires) {
  auto [a, b] = socket_pair();
  FrameChannel left{std::move(a)};
  (void)b;
  EXPECT_EQ(thrown_code([&] { left.recv(Deadline::after_ms(30)); }),
            StatusCode::kDeadlineExceeded);
}

TEST(Channel, RecvReadsAnArrivedFramePastItsDeadline) {
  // The deadline bounds waiting, not the reading of bytes already there.
  auto [a, b] = socket_pair();
  FrameChannel left{std::move(a)}, right{std::move(b)};
  right.send(100, bytes_of({7}), Deadline::after_ms(5000));
  auto frame = left.recv(Deadline::after_ms(0));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 100);
  EXPECT_EQ(frame->payload, bytes_of({7}));
}

TEST(Socket, PollReadableFlagsOnlyReadySockets) {
  auto [a, b] = socket_pair();
  auto [c, d] = socket_pair();
  FrameChannel writer{std::move(d)};
  const std::vector<const Socket*> set = {&a, nullptr, &c};
  EXPECT_EQ(poll_readable(set, 0), (std::vector<bool>{false, false, false}));
  writer.send(100, {}, Deadline::after_ms(5000));
  EXPECT_EQ(poll_readable(set, 5000), (std::vector<bool>{false, false, true}));
  b.close();  // EOF is readable too: the next recv reports it
  EXPECT_EQ(poll_readable(set, 5000), (std::vector<bool>{true, false, true}));
}

TEST(Channel, CleanCloseBetweenFramesIsNullopt) {
  auto [a, b] = socket_pair();
  FrameChannel left{std::move(a)}, right{std::move(b)};
  right.send(100, {}, Deadline::after_ms(5000));
  right.close();
  auto frame = left.recv(Deadline::after_ms(5000));
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(left.recv(Deadline::after_ms(5000)).has_value());
}

TEST(Channel, CloseMidFrameIsDataLoss) {
  auto [a, b] = socket_pair();
  FrameChannel left{std::move(a)};
  Socket raw = std::move(b);
  // Hand-feed half a frame, then vanish: the reader is mid-frame, so this
  // is a torn stream (kDataLoss), not a clean departure.
  const std::vector<std::byte> wire = encode_frame(100, bytes_of({1, 2}));
  raw.send_all(std::span(wire.data(), wire.size() / 2),
               Deadline::after_ms(5000));
  raw.close();
  EXPECT_EQ(thrown_code([&] { left.recv(Deadline::after_ms(5000)); }),
            StatusCode::kDataLoss);
}

TEST(Channel, TornFrameFaultCaughtByReceiverCrc) {
  auto [a, b] = socket_pair();
  FrameChannel left{std::move(a)}, right{std::move(b)};
  FaultScope torn("net.frame", FaultInjector::kEveryIndex,
                  {FaultInjector::Action::kNetTornFrame});
  left.send(100, bytes_of({1, 2, 3, 4}), Deadline::after_ms(5000));
  EXPECT_EQ(thrown_code([&] { right.recv(Deadline::after_ms(5000)); }),
            StatusCode::kDataLoss);
}

TEST(Channel, ShortWriteFaultTearsTheStream) {
  auto [a, b] = socket_pair();
  FrameChannel left{std::move(a)}, right{std::move(b)};
  StatusCode sender = StatusCode::kOk;
  {
    FaultScope short_write("net.send", FaultInjector::kEveryIndex,
                           {FaultInjector::Action::kIoShortWrite});
    sender = thrown_code([&] {
      left.send(100, bytes_of({1, 2, 3, 4, 5, 6, 7, 8}),
                Deadline::after_ms(5000));
    });
  }
  EXPECT_EQ(sender, StatusCode::kUnavailable);
  // The receiver got a prefix then EOF: torn stream.
  EXPECT_EQ(thrown_code([&] { right.recv(Deadline::after_ms(5000)); }),
            StatusCode::kDataLoss);
}

TEST(Channel, ConnectRefusedFault) {
  FaultScope refuse("net.connect", FaultInjector::kEveryIndex,
                    {FaultInjector::Action::kNetConnectRefused});
  EXPECT_EQ(thrown_code([&] {
              (void)connect_unix("/nonexistent/hgp-refused.sock",
                                 Deadline::after_ms(1000));
            }),
            StatusCode::kUnavailable);
}

// --------------------------------------------------------------- handshake

TEST(Handshake, CompletesAndReportsRole) {
  auto [a, b] = socket_pair();
  FrameChannel client{std::move(a)}, server{std::move(b)};
  std::uint32_t role = 0xff;
  std::thread t([&] { role = handshake_server(server, Deadline::after_ms(5000)); });
  handshake_client(client, kRoleCoordinator, Deadline::after_ms(5000));
  t.join();
  EXPECT_EQ(role, kRoleCoordinator);
}

TEST(Handshake, VersionMismatchRejected) {
  // A stale worker from the previous protocol (v5 against v6) and one from
  // a future protocol.  The frame itself is valid (frame versions match),
  // the handshake payload is what skews.
  const std::uint32_t ours = kProtocolVersion;
  for (const std::uint32_t peer_version : {ours - 1, ours + 7}) {
    SCOPED_TRACE(peer_version);
    auto [a, b] = socket_pair();
    FrameChannel client{std::move(a)}, server{std::move(b)};
    StatusCode server_code = StatusCode::kOk;
    std::thread t([&] {
      server_code = thrown_code(
          [&] { (void)handshake_server(server, Deadline::after_ms(5000)); });
    });
    io::PayloadBuilder hello;
    hello.append_pod(peer_version);
    hello.append_pod(kRoleCoordinator);
    client.send(kMsgHello, hello.bytes(), Deadline::after_ms(5000));
    t.join();
    EXPECT_EQ(server_code, StatusCode::kDataLoss);
  }
}

TEST(Handshake, UnknownRoleRejected) {
  for (const std::uint32_t role : {2u, 0xffffffffu}) {
    SCOPED_TRACE(role);
    auto [a, b] = socket_pair();
    FrameChannel client{std::move(a)}, server{std::move(b)};
    StatusCode server_code = StatusCode::kOk;
    std::thread t([&] {
      server_code = thrown_code(
          [&] { (void)handshake_server(server, Deadline::after_ms(5000)); });
    });
    io::PayloadBuilder hello;
    hello.append_pod(std::uint32_t{kProtocolVersion});
    hello.append_pod(role);
    client.send(kMsgHello, hello.bytes(), Deadline::after_ms(5000));
    t.join();
    EXPECT_EQ(server_code, StatusCode::kDataLoss);
  }
}

TEST(Handshake, ShardServerRefusesNonCoordinatorPeer) {
  auto [a, b] = socket_pair();
  FrameChannel client{std::move(a)}, server{std::move(b)};
  Status served;
  std::thread t([&] {
    ShardServerOptions opt;
    opt.idle_timeout_ms = 5000;
    served = run_shard_server(server, opt);
  });
  handshake_client(client, kRoleShard, Deadline::after_ms(5000));
  t.join();
  EXPECT_EQ(served.code, StatusCode::kDataLoss);
}

// A coordinator that tears down early sends Shutdown to a worker still
// waiting for Hello or for the Job: the worker ends cleanly, not with a
// protocol error.
TEST(Handshake, ShardServerTakesShutdownInPlaceOfHello) {
  auto [a, b] = socket_pair();
  FrameChannel client{std::move(a)}, server{std::move(b)};
  Status served(StatusCode::kInternal, "not run");
  std::thread t([&] {
    ShardServerOptions opt;
    opt.idle_timeout_ms = 5000;
    served = run_shard_server(server, opt);
  });
  client.send(kMsgShutdown, {}, Deadline::after_ms(5000));
  t.join();
  EXPECT_TRUE(served.ok()) << served.to_string();
}

TEST(Handshake, ShardServerTakesShutdownInPlaceOfJob) {
  auto [a, b] = socket_pair();
  FrameChannel client{std::move(a)}, server{std::move(b)};
  Status served(StatusCode::kInternal, "not run");
  std::thread t([&] {
    ShardServerOptions opt;
    opt.idle_timeout_ms = 5000;
    served = run_shard_server(server, opt);
  });
  handshake_client(client, kRoleCoordinator, Deadline::after_ms(5000));
  client.send(kMsgShutdown, {}, Deadline::after_ms(5000));
  t.join();
  EXPECT_TRUE(served.ok()) << served.to_string();
}

TEST(Handshake, ShardServerEndsCleanlyWhenCoordinatorHungUpAfterShutdown) {
  // Hello, then Shutdown, then the coordinator is gone: the worker's
  // HelloAck hits a closed socket, and the queued Shutdown makes that a
  // clean end rather than a broken pipe.
  auto [a, b] = socket_pair();
  FrameChannel client{std::move(a)}, server{std::move(b)};
  io::PayloadBuilder hello;
  hello.append_pod(std::uint32_t{kProtocolVersion});
  hello.append_pod(kRoleCoordinator);
  client.send(kMsgHello, hello.bytes(), Deadline::after_ms(5000));
  client.send(kMsgShutdown, {}, Deadline::after_ms(5000));
  client.close();
  ShardServerOptions opt;
  opt.idle_timeout_ms = 5000;
  const Status served = run_shard_server(server, opt);
  EXPECT_TRUE(served.ok()) << served.to_string();
}

TEST(Handshake, NonHelloFirstFrameRejected) {
  auto [a, b] = socket_pair();
  FrameChannel client{std::move(a)}, server{std::move(b)};
  StatusCode server_code = StatusCode::kOk;
  std::thread t([&] {
    server_code = thrown_code(
        [&] { (void)handshake_server(server, Deadline::after_ms(5000)); });
  });
  client.send(kMsgHeartbeat, {}, Deadline::after_ms(5000));
  t.join();
  EXPECT_EQ(server_code, StatusCode::kDataLoss);
}

}  // namespace
}  // namespace hgp::net
