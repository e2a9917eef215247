#ifndef DAR_SERVE_SOCKET_IO_H_
#define DAR_SERVE_SOCKET_IO_H_

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dar::serve {

/// Blocking socket reads and writes, internal to dar_serve (the server and
/// the client): retried on EINTR, IOError on a closed connection or a
/// socket error.

/// Reads exactly `n` bytes into `buf`.
inline Status ReadFull(int fd, char* buf, size_t n) {
  while (n > 0) {
    const ssize_t r = ::recv(fd, buf, n, 0);
    if (r == 0) return Status::IOError("peer closed the connection");
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    buf += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

/// Writes all of `bytes`; never raises SIGPIPE.
inline Status WriteFull(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t r = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<size_t>(r));
  }
  return Status::OK();
}

}  // namespace dar::serve

#endif  // DAR_SERVE_SOCKET_IO_H_
