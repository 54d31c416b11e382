// FrameChannel: framed, CRC-checked messages over one stream socket, plus
// the protocol-version handshake.
//
// Error taxonomy (the part callers dispatch on):
//   kDataLoss          the bytes are wrong — corrupt header/payload CRC,
//                      version skew, torn stream mid-frame.
//   kUnavailable       the peer is gone — clean close between frames,
//                      reset, refused connect.
//   kDeadlineExceeded  the peer is too slow — a cooperative deadline
//                      expired while waiting.
//
// One channel supports one concurrent sender and one concurrent receiver
// (the shard worker sends heartbeats from a second thread; it serializes
// its sends with its own mutex; the coordinator does all its I/O from one
// loop).  send() polls the net.frame fault site:
// kNetTornFrame corrupts one encoded byte before transmission, so the
// receiving side's CRC discipline — not good luck — is what keeps a torn
// frame out of the solve.
#pragma once

#include <optional>
#include <span>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace hgp::net {

class FrameChannel {
 public:
  FrameChannel() = default;
  explicit FrameChannel(Socket socket) : socket_(std::move(socket)) {}

  bool valid() const { return socket_.valid(); }
  Socket& socket() { return socket_; }

  /// Encodes and writes one frame before `deadline`.
  void send(std::uint16_t type, std::span<const std::byte> payload,
            const Deadline& deadline);

  /// Reads one whole frame.  Returns std::nullopt on a clean close between
  /// frames (peer departed); throws kDataLoss / kUnavailable /
  /// kDeadlineExceeded per the taxonomy above.
  std::optional<Frame> recv(const Deadline& deadline);

  void close() { socket_.close(); }

 private:
  Socket socket_;
};

/// Client half of the handshake: send_hello, then check_hello_ack on the
/// next frame.  Throws kDataLoss naming both versions on skew.
void handshake_client(FrameChannel& ch, std::uint32_t role,
                      const Deadline& deadline);
/// The client half's first step: sends Hello{version, role}.
void send_hello(FrameChannel& ch, std::uint32_t role,
                const Deadline& deadline);
/// The client half's second step: checks that `ack` is HelloAck{version}
/// for this build's version.  Throws kDataLoss otherwise.
void check_hello_ack(const Frame& ack);

/// Server half: expects Hello, validates the version and the role,
/// replies HelloAck.  Returns the peer's role (kRoleCoordinator or
/// kRoleShard).  Throws kDataLoss on skew, an unknown role or a non-Hello
/// first frame.
std::uint32_t handshake_server(FrameChannel& ch, const Deadline& deadline);
/// The same, for a server that has already read the peer's first frame
/// (the shard worker, which also accepts Shutdown in its place).
std::uint32_t handshake_server(FrameChannel& ch, const Frame& hello,
                               const Deadline& deadline);

/// Message types 1..15 are reserved for the handshake + shard protocol
/// (protocol.hpp); tests use >= 100.
constexpr std::uint16_t kMsgHello = 1;
constexpr std::uint16_t kMsgHelloAck = 2;

/// Hello roles.
constexpr std::uint32_t kRoleCoordinator = 0;
constexpr std::uint32_t kRoleShard = 1;

}  // namespace hgp::net
