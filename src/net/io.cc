#include "src/net/io.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/util/fault.h"

namespace bagalg::net {

namespace {

Status Errno(std::string_view what) {
  return Status::Unavailable("io: " + std::string(what) + ": " +
                             std::strerror(errno));
}

}  // namespace

void Fd::Reset() {
  if (fd_ >= 0) {
    if (::close(fd_) < 0 && errno == EINTR) ::close(fd_);
    fd_ = -1;
  }
}

Result<Fd> ListenOn(const std::string& host, uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("io: bad listen address: " + host);
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) < 0) return Errno("listen");
  return fd;
}

Result<uint16_t> LocalPort(int listen_fd) {
  sockaddr_in addr = {};
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Status WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    size_t chunk = data.size() - off;
    switch (fault::InjectIoFault()) {
      case fault::IoFaultKind::kShort:
        chunk = 1;
        break;
      case fault::IoFaultKind::kError:
        return Status::Unavailable("io: injected broken pipe (send)");
      case fault::IoFaultKind::kNone:
        break;
    }
    const ssize_t n = ::send(fd, data.data() + off, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::Ok();
}

Result<size_t> ReadNonBlocking(int fd, char* buf, size_t len,
                               bool* would_block) {
  *would_block = false;
  if (len == 0) return static_cast<size_t>(0);
  switch (fault::InjectIoFault()) {
    case fault::IoFaultKind::kShort:
      len = 1;
      break;
    case fault::IoFaultKind::kError:
      return Status::Unavailable("io: injected disconnect (recv)");
    case fault::IoFaultKind::kNone:
      break;
  }
  while (true) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *would_block = true;
      return static_cast<size_t>(0);
    }
    return Errno("recv");
  }
}

Result<size_t> WriteNonBlocking(int fd, std::string_view data,
                                bool* would_block) {
  *would_block = false;
  if (data.empty()) return static_cast<size_t>(0);
  size_t chunk = data.size();
  switch (fault::InjectIoFault()) {
    case fault::IoFaultKind::kShort:
      chunk = 1;
      break;
    case fault::IoFaultKind::kError:
      return Status::Unavailable("io: injected broken pipe (send)");
    case fault::IoFaultKind::kNone:
      break;
  }
  while (true) {
    const ssize_t n = ::send(fd, data.data(), chunk, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *would_block = true;
      return static_cast<size_t>(0);
    }
    return Errno("send");
  }
}

Result<Fd> AcceptNonBlocking(int listen_fd, bool* would_block) {
  *would_block = false;
  if (fault::InjectIoFault() != fault::IoFaultKind::kNone) {
    return Status::Unavailable("io: injected accept failure");
  }
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) return Fd(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *would_block = true;
      return Fd();
    }
    if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE ||
        errno == ENOBUFS || errno == ENOMEM || errno == EPERM ||
        errno == EPROTO) {
      return Errno("accept");
    }
    return Status::Cancelled("io: listener closed: " +
                             std::string(std::strerror(errno)));
  }
}

Result<WakeupFd> WakeupFd::Create() {
  const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd < 0) return Errno("eventfd");
  WakeupFd wake;
  wake.fd_ = Fd(fd);
  return wake;
}

void WakeupFd::Signal() const {
  // Async-signal-safe: one write(2). EAGAIN means the counter is already
  // huge — the loop is guaranteed to wake, so dropping the increment is
  // fine. EINTR on an eventfd write cannot leave it half-done.
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(fd_.get(), &one, sizeof(one));
}

void WakeupFd::Drain() const {
  uint64_t count = 0;
  while (::read(fd_.get(), &count, sizeof(count)) > 0) {
  }
}

}  // namespace bagalg::net
