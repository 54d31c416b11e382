// Wire-layer property suite: frame codec (round-trip, every-truncation and
// every-bit-flip rejection, hostile lengths), WireReader allocation-bomb
// discipline, FrameChannel deadlines and faults, and the protocol-version
// handshake (src/net/, docs/FORMATS.md "shard wire format").
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "io/snapshot.hpp"
#include "net/channel.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
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

// ------------------------------------------------------------ wire codec

TEST(WireReader, HostileCountRejectedBeforeAllocation) {
  // A count prefix claiming ~4 billion elements inside a 4-byte payload
  // must die on the count-vs-remaining check, not in the allocator.
  WireWriter w;
  w.u32(0xffffffffu);
  const std::vector<std::byte> payload = w.take();
  WireReader r(payload, "test");
  EXPECT_EQ(thrown_code([&] { (void)r.i64_span(); }), StatusCode::kDataLoss);

  WireReader r2(payload, "test");
  EXPECT_EQ(thrown_code([&] { (void)r2.blob(); }), StatusCode::kDataLoss);
}

TEST(WireReader, OverReadRejected) {
  WireWriter w;
  w.u16(7);
  const std::vector<std::byte> payload = w.take();
  WireReader r(payload, "test");
  EXPECT_EQ(r.u16(), 7);
  EXPECT_EQ(thrown_code([&] { (void)r.u32(); }), StatusCode::kDataLoss);
}

TEST(WireReader, TrailingBytesRejected) {
  WireWriter w;
  w.u32(1);
  w.u8(0);
  const std::vector<std::byte> payload = w.take();
  WireReader r(payload, "test");
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(thrown_code([&] { r.expect_exhausted(); }),
            StatusCode::kDataLoss);
}

// --------------------------------------------------------------- protocol

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
              (void)connect_tcp_loopback(1, Deadline::after_ms(1000));
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
  // A stale worker from the previous protocol (v3 against v4) and one from
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
    WireWriter hello;
    hello.u32(peer_version);
    hello.u32(kRoleCoordinator);
    client.send(kMsgHello, hello.bytes(), Deadline::after_ms(5000));
    t.join();
    EXPECT_EQ(server_code, StatusCode::kDataLoss);
  }
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
