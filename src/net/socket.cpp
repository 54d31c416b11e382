#include "net/socket.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/fault_injector.hpp"

namespace hgp::net {

namespace {

[[noreturn]] void throw_unavailable(const std::string& what, int err) {
  throw SolveError(StatusCode::kUnavailable,
                   what + ": " + std::strerror(err));
}

/// Bounded poll interval: short enough that deadline expiry and local
/// close are noticed promptly, long enough to stay off the scheduler.
int poll_interval_ms(const Deadline& deadline) {
  const double remaining = deadline.remaining_ms();
  return static_cast<int>(std::min(50.0, std::max(1.0, remaining)));
}

/// Waits until `fd` is ready for `events` or the deadline expires.  An fd
/// already ready wins over an expired deadline: the deadline bounds the
/// wait, not the reading of bytes that have arrived.
void wait_ready(int fd, short events, const Deadline& deadline,
                const char* what) {
  for (;;) {
    const bool expired = deadline.expired();
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, expired ? 0 : poll_interval_ms(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_unavailable(what, errno);
    }
    if (rc > 0) return;  // ready, error or hangup — the syscall reports it
    if (expired) {
      throw SolveError(StatusCode::kDeadlineExceeded,
                       std::string(what) + " passed its deadline");
    }
  }
}

void set_cloexec_nonblock(int fd) {
  // Non-blocking + poll is the deadline mechanism; CLOEXEC keeps shard
  // worker spawns from inheriting coordinator sockets.
  (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
  (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw SolveError(StatusCode::kInvalidInput,
                     "unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

Socket finish_connect(int fd, const Deadline& deadline, const char* what) {
  Socket sock(fd);
  wait_ready(fd, POLLOUT, deadline, what);
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) err = errno;
  if (err != 0) throw_unavailable(what, err);
  return sock;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void Socket::send_all(std::span<const std::byte> data,
                      const Deadline& deadline) {
  if (fd_ < 0) {
    throw SolveError(StatusCode::kUnavailable, "send on a closed socket");
  }
  std::size_t limit = data.size();
  const auto action = FaultInjector::instance().poll_io("net.send", 0);
  if (action == FaultInjector::Action::kIoShortWrite) {
    // Write a prefix, then drop the connection: the peer observes a torn
    // frame (EOF mid-frame → kDataLoss on its side), this side reports
    // the peer unavailable.
    limit = data.size() / 2;
  }
  std::size_t off = 0;
  while (off < limit) {
    wait_ready(fd_, POLLOUT, deadline, "net send");
    const ssize_t sent =
        ::send(fd_, data.data() + off, limit - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw_unavailable("net send", errno);
    }
    off += static_cast<std::size_t>(sent);
  }
  if (action == FaultInjector::Action::kIoShortWrite) {
    shutdown_both();
    throw SolveError(StatusCode::kUnavailable,
                     "injected short write tore the connection");
  }
}

bool Socket::recv_exact(std::byte* out, std::size_t size,
                        const Deadline& deadline) {
  if (fd_ < 0) {
    throw SolveError(StatusCode::kUnavailable, "recv on a closed socket");
  }
  FaultInjector::instance().poll_io("net.recv", 0);  // kStall sleeps here
  std::size_t off = 0;
  while (off < size) {
    wait_ready(fd_, POLLIN, deadline, "net recv");
    const ssize_t got = ::recv(fd_, out + off, size - off, 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw_unavailable("net recv", errno);
    }
    if (got == 0) {
      if (off == 0) return false;  // clean close between frames
      throw SolveError(StatusCode::kDataLoss,
                       "peer closed mid-read (torn stream: " +
                           std::to_string(off) + " of " +
                           std::to_string(size) + " bytes)");
    }
    off += static_cast<std::size_t>(got);
  }
  return true;
}

std::vector<bool> poll_readable(std::span<const Socket* const> sockets,
                                double timeout_ms) {
  std::vector<bool> ready(sockets.size(), false);
  std::vector<struct pollfd> pfds;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < sockets.size(); ++i) {
    if (sockets[i] == nullptr || !sockets[i]->valid()) continue;
    pfds.push_back({sockets[i]->fd(), POLLIN, 0});
    index.push_back(i);
  }
  if (pfds.empty()) return ready;
  const int rc = ::poll(pfds.data(), pfds.size(),
                        static_cast<int>(std::max(0.0, timeout_ms)));
  if (rc < 0 && errno != EINTR) throw_unavailable("net poll", errno);
  for (std::size_t k = 0; rc > 0 && k < pfds.size(); ++k) {
    ready[index[k]] = pfds[k].revents != 0;
  }
  return ready;
}

std::pair<Socket, Socket> socket_pair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw SolveError(StatusCode::kInternal,
                     std::string("socketpair: ") + std::strerror(errno));
  }
  set_cloexec_nonblock(fds[0]);
  set_cloexec_nonblock(fds[1]);
  return {Socket(fds[0]), Socket(fds[1])};
}

Socket connect_unix(const std::string& path, const Deadline& deadline) {
  const auto action = FaultInjector::instance().poll_io("net.connect", 0);
  if (action == FaultInjector::Action::kNetConnectRefused) {
    throw SolveError(StatusCode::kUnavailable,
                     "injected connect refusal to " + path);
  }
  const sockaddr_un addr = unix_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_unavailable("net connect (socket)", errno);
  set_cloexec_nonblock(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
          0 ||
      errno == EINPROGRESS || errno == EAGAIN) {
    return finish_connect(fd, deadline, "net connect");
  }
  const int err = errno;
  ::close(fd);
  throw_unavailable("net connect to " + path, err);
}

Listener Listener::listen_unix(const std::string& path) {
  const sockaddr_un addr = unix_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw SolveError(StatusCode::kInternal,
                     std::string("net listen (socket): ") +
                         std::strerror(errno));
  }
  set_cloexec_nonblock(fd);
  (void)::unlink(path.c_str());  // a stale socket file refuses the bind
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    throw SolveError(StatusCode::kInternal,
                     "net listen on " + path + ": " + std::strerror(err));
  }
  Listener out;
  out.socket_ = Socket(fd);
  out.path_ = path;
  return out;
}

Socket Listener::accept_connection(const Deadline& deadline) {
  if (!socket_.valid()) {
    throw SolveError(StatusCode::kUnavailable, "accept on a closed listener");
  }
  for (;;) {
    wait_ready(socket_.fd(), POLLIN, deadline, "net accept");
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_cloexec_nonblock(fd);
      return Socket(fd);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    throw_unavailable("net accept", errno);
  }
}

void Listener::close() {
  socket_.close();
  if (!path_.empty()) {
    (void)::unlink(path_.c_str());
    path_.clear();
  }
}

}  // namespace hgp::net
