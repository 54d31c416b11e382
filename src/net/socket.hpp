// Unix-domain stream sockets with cooperative deadlines — the transport
// under the framed shard protocol.
//
// Every blocking operation takes a Deadline and polls toward it, so a
// stalled peer can never wedge a caller past its budget: expiry throws
// SolveError{kDeadlineExceeded} (the deadline bounds waiting; bytes that
// have already arrived are still read), peer departure (refused connect,
// reset, clean close mid-read) throws SolveError{kUnavailable}, and a
// stream that dies *inside* a frame is the channel layer's kDataLoss.
//
// This is the only file in the tree allowed to make naked socket(2)/
// send/recv syscalls outside src/obs/introspect.cpp (enforced by the
// raw-socket lint rule, tools/hgp_lint.py): every other layer goes
// through Socket/Listener so deadlines, typed errors and FaultInjector
// sites are never bypassed.
//
// FaultInjector sites (polled; see util/fault_injector.hpp):
//   net.connect [0]  kNetConnectRefused → connect fails kUnavailable;
//                    kStall → delayed connect.
//   net.send    [0]  kIoShortWrite → a prefix of the bytes is written,
//                    then the connection is dropped (the peer observes a
//                    torn frame); kStall → stalled writer.
//   net.recv    [0]  kStall → stalled reader (the peer's heartbeats
//                    arrive late past their lease).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/deadline.hpp"
#include "util/status.hpp"

namespace hgp::net {

/// An owned stream-socket fd.  Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Writes all of `data` before `deadline`.  Throws kUnavailable when the
  /// peer is gone (EPIPE/ECONNRESET or the socket was closed locally),
  /// kDeadlineExceeded past the deadline.
  void send_all(std::span<const std::byte> data, const Deadline& deadline);

  /// Reads exactly `size` bytes before `deadline`.  Returns false on a
  /// clean close at offset 0 (the peer finished between frames); throws
  /// kDataLoss on EOF mid-buffer (torn stream), kUnavailable on a reset,
  /// kDeadlineExceeded past the deadline.
  bool recv_exact(std::byte* out, std::size_t size, const Deadline& deadline);

  /// Shuts down both directions without closing the fd — wakes a peer (or
  /// another thread) blocked in recv.  Safe on an invalid socket.
  void shutdown_both();

 private:
  int fd_ = -1;
};

/// Waits up to `timeout_ms` for any of `sockets` to become readable (input,
/// EOF or an error, which the next recv reports).  Returns one flag per
/// entry; null and invalid entries are skipped and never ready.  Returns at
/// once when no entry is valid.
std::vector<bool> poll_readable(std::span<const Socket* const> sockets,
                                double timeout_ms);

/// Connected AF_UNIX stream pair (tests and in-process shard harnesses).
std::pair<Socket, Socket> socket_pair();

/// Connects to a unix-domain socket at `path`.  Throws kUnavailable when
/// nobody listens (or the net.connect fault fires), kDeadlineExceeded
/// past the deadline.
Socket connect_unix(const std::string& path, const Deadline& deadline);

/// A listening socket accepting shard connections.
class Listener {
 public:
  Listener() = default;
  Listener(Listener&&) = default;
  Listener& operator=(Listener&&) = default;

  /// Binds + listens on a unix-domain socket, unlinking a stale `path`
  /// first.  Throws SolveError{kInternal} on failure.
  static Listener listen_unix(const std::string& path);

  bool valid() const { return socket_.valid(); }
  const std::string& path() const { return path_; }

  /// Accepts one connection before `deadline`; kDeadlineExceeded past it.
  Socket accept_connection(const Deadline& deadline);

  /// Closes the listening fd and unlinks a unix socket path.
  void close();
  ~Listener() { close(); }

 private:
  Socket socket_;
  std::string path_;
};

}  // namespace hgp::net
