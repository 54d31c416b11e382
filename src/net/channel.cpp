#include "net/channel.hpp"

#include "io/snapshot.hpp"
#include "util/fault_injector.hpp"

namespace hgp::net {

void FrameChannel::send(std::uint16_t type, std::span<const std::byte> payload,
                        const Deadline& deadline) {
  std::vector<std::byte> wire = encode_frame(type, payload);
  if (FaultInjector::instance().poll_io("net.frame", 0) ==
      FaultInjector::Action::kNetTornFrame) {
    // Corrupt one mid-frame byte before transmission: the receiver's CRC
    // check must reject the frame (kDataLoss), exactly as bit rot on a
    // real wire would be caught.
    wire[wire.size() / 2] ^= std::byte{0x40};
  }
  socket_.send_all(wire, deadline);
}

std::optional<Frame> FrameChannel::recv(const Deadline& deadline) {
  std::byte header_bytes[kFrameHeaderSize];
  if (!socket_.recv_exact(header_bytes, kFrameHeaderSize, deadline)) {
    return std::nullopt;  // clean close between frames
  }
  const FrameHeader header =
      decode_frame_header(std::span<const std::byte>(header_bytes));
  Frame frame;
  frame.type = header.type;
  frame.payload.resize(header.payload_size);  // capped by the header check
  if (header.payload_size > 0 &&
      !socket_.recv_exact(frame.payload.data(), frame.payload.size(),
                          deadline)) {
    throw SolveError(StatusCode::kDataLoss,
                     "peer closed between a frame header and its payload");
  }
  check_frame_payload(header, frame.payload);
  return frame;
}

namespace {

/// The Hello payload carries the protocol version redundantly with the
/// frame header: a header-level mismatch already fails frame decode, but
/// the explicit exchange gives the *peer* a chance to report skew in a
/// frame the old version still understands.
std::vector<std::byte> hello_payload(std::uint32_t version,
                                     std::uint32_t role) {
  io::PayloadBuilder w;
  w.append_pod(version);
  w.append_pod(role);
  return w.take();
}

}  // namespace

void send_hello(FrameChannel& ch, std::uint32_t role,
                const Deadline& deadline) {
  ch.send(kMsgHello, hello_payload(kProtocolVersion, role), deadline);
}

void check_hello_ack(const Frame& ack) {
  if (ack.type != kMsgHelloAck) {
    throw SolveError(StatusCode::kDataLoss,
                     "handshake expected HelloAck, got frame type " +
                         std::to_string(ack.type));
  }
  io::SectionView r("HelloAck", ack.payload);
  const auto peer_version = r.read_pod<std::uint32_t>();
  r.expect_exhausted();
  if (peer_version != kProtocolVersion) {
    throw SolveError(StatusCode::kDataLoss,
                     "protocol version mismatch (peer v" +
                         std::to_string(peer_version) +
                         ", this build speaks v" +
                         std::to_string(kProtocolVersion) + ")");
  }
}

void handshake_client(FrameChannel& ch, std::uint32_t role,
                      const Deadline& deadline) {
  send_hello(ch, role, deadline);
  std::optional<Frame> ack = ch.recv(deadline);
  if (!ack.has_value()) {
    throw SolveError(StatusCode::kUnavailable,
                     "peer closed during the version handshake");
  }
  check_hello_ack(*ack);
}

std::uint32_t handshake_server(FrameChannel& ch, const Deadline& deadline) {
  std::optional<Frame> hello = ch.recv(deadline);
  if (!hello.has_value()) {
    throw SolveError(StatusCode::kUnavailable,
                     "peer closed during the version handshake");
  }
  return handshake_server(ch, *hello, deadline);
}

std::uint32_t handshake_server(FrameChannel& ch, const Frame& hello,
                               const Deadline& deadline) {
  if (hello.type != kMsgHello) {
    throw SolveError(StatusCode::kDataLoss,
                     "handshake expected Hello, got frame type " +
                         std::to_string(hello.type));
  }
  io::SectionView r("Hello", hello.payload);
  const auto peer_version = r.read_pod<std::uint32_t>();
  const auto role = r.read_pod<std::uint32_t>();
  r.expect_exhausted();
  if (peer_version != kProtocolVersion) {
    throw SolveError(StatusCode::kDataLoss,
                     "protocol version mismatch (peer v" +
                         std::to_string(peer_version) +
                         ", this build speaks v" +
                         std::to_string(kProtocolVersion) + ")");
  }
  if (role != kRoleCoordinator && role != kRoleShard) {
    throw SolveError(StatusCode::kDataLoss,
                     "handshake carries unknown role " + std::to_string(role));
  }
  io::PayloadBuilder ack;
  ack.append_pod(std::uint32_t{kProtocolVersion});
  ch.send(kMsgHelloAck, ack.bytes(), deadline);
  return role;
}

}  // namespace hgp::net
