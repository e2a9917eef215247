#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/str_util.h"
#include "persist/wire.h"
#include "serve/http_adapter.h"
#include "serve/protocol.h"
#include "serve/socket_io.h"

namespace dar::serve {
namespace {

// Largest HTTP head (request line + headers) we accept; bigger is hostile.
constexpr size_t kMaxHttpHeadBytes = 64 * 1024;
constexpr size_t kMaxHttpBodyBytes = 1 << 20;

// Waits until the connection's first 4 bytes are peekable (left in the
// socket) and reports whether they spell an HTTP method. Both dialects
// open with >= 4 bytes: a binary frame starts with its u32 length, an
// HTTP request line with "GET "/"POST"/...
bool SniffHttp(int fd, bool& is_http) {
  char head[4];
  for (;;) {
    const ssize_t r = ::recv(fd, head, sizeof(head), MSG_PEEK);
    if (r == 0) return false;
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r >= 4) break;
    // Partial first packet: block until more arrives.
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 1000) < 0 && errno != EINTR) return false;
  }
  const std::string_view first(head, 4);
  is_http = first == "GET " || first == "POST" || first == "PUT " ||
            first == "HEAD" || first == "DELE" || first == "OPTI" ||
            first == "PATC";
  return true;
}

}  // namespace

RuleServer::RuleServer(const QueryService& service, ServerConfig config,
                       telemetry::MetricsRegistry* registry)
    : service_(service),
      config_(std::move(config)),
      admission_(config_.admission, registry) {
  if (registry == nullptr) return;
  connections_metric_ = registry->GetCounter("serve.connections");
  connections_shed_metric_ = registry->GetCounter("serve.connections_shed");
  binary_requests_ = registry->GetCounter("serve.binary_requests");
  http_requests_ = registry->GetCounter("serve.http_requests");
  protocol_errors_ = registry->GetCounter("serve.protocol_errors");
}

RuleServer::~RuleServer() { Stop(); }

Status RuleServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server is already running on port " +
                                 std::to_string(port_));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("cannot parse IPv4 host \"" +
                                   config_.host + "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = Status::IOError(
        "bind " + config_.host + ":" + std::to_string(config_.port) + ": " +
        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = config_.port;
  }

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&RuleServer::AcceptLoop, this);
  return Status::OK();
}

void RuleServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    const MutexLock lock(conn_mu_);
    for (const auto& session : sessions_) {
      ::shutdown(session.first, SHUT_RDWR);
    }
    while (!sessions_.empty()) conn_cv_.Wait(conn_mu_);
  }
  // Every session has parked its handle by now; join them for real.
  ReapFinished();
}

void RuleServer::AcceptLoop() {
  for (;;) {
    // Join sessions that finished since the last pass, so handle storage
    // stays bounded by the churn of one accept interval.
    ReapFinished();
    if (stopping_.load(std::memory_order_acquire)) return;
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;  // listener is gone; nothing to accept on
    }
    if (ready == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (connections_metric_) connections_metric_->Increment();

    bool admitted = false;
    {
      const MutexLock lock(conn_mu_);
      if (!stopping_.load(std::memory_order_acquire) &&
          sessions_.size() < config_.max_sessions) {
        // Spawn under the lock: the session's own FinishConnection needs
        // this map entry and blocks on conn_mu_ until it exists.
        sessions_.emplace(fd,
                          std::thread(&RuleServer::ServeConnection, this, fd));
        admitted = true;
      }
    }
    if (!admitted) {
      // Session-level shed: close before speaking any protocol, so the
      // client sees a clean connection reset instead of a hang.
      connections_shed_.fetch_add(1, std::memory_order_relaxed);
      if (connections_shed_metric_) connections_shed_metric_->Increment();
      ::close(fd);
      continue;
    }
  }
}

void RuleServer::FinishConnection(int fd) {
  const MutexLock lock(conn_mu_);
  const auto it = sessions_.find(fd);
  if (it != sessions_.end()) {
    // The session is removing itself and a thread cannot join itself:
    // park the handle for ReapFinished (accept loop or Stop) to join.
    finished_.push_back(std::move(it->second));
    sessions_.erase(it);
  }
  ::close(fd);
  // Notify under the lock: Stop may destroy the cv the moment the map is
  // observed empty, so the notify must happen-before its wait returns.
  conn_cv_.NotifyAll();
}

void RuleServer::ReapFinished() {
  std::vector<std::thread> done;
  {
    const MutexLock lock(conn_mu_);
    done.swap(finished_);
  }
  // Join outside the lock: a parked handle's thread is past its critical
  // section, but its last instructions may still be in flight.
  for (std::thread& t : done) t.join();
}

void RuleServer::ServeConnection(int fd) {
  bool is_http = false;
  if (SniffHttp(fd, is_http)) {
    if (is_http) {
      ServeHttp(fd);
    } else {
      ServeBinary(fd);
    }
  }
  FinishConnection(fd);
}

void RuleServer::ServeBinary(int fd) {
  // Per-session reusable buffers: after the first few requests a session
  // serves point queries without allocating.
  std::string tenant;
  persist::WireWriter payload;
  persist::WireWriter frame;
  std::string inbuf;
  std::vector<double> tuple_scratch;
  Dispatcher dispatch(service_);

  for (;;) {
    char lenbuf[4];
    if (!ReadFull(fd, lenbuf, sizeof(lenbuf)).ok()) return;
    const Result<uint32_t> length =
        DecodeFrameLength(std::string_view(lenbuf, sizeof(lenbuf)));
    if (!length.ok()) {
      // A hostile or corrupt length prefix: no way to resynchronize.
      if (protocol_errors_) protocol_errors_->Increment();
      return;
    }
    inbuf.resize(*length);
    if (!ReadFull(fd, inbuf.data(), inbuf.size()).ok()) return;
    if (binary_requests_) binary_requests_->Increment();

    bool keep_session = true;
    const Result<Request> decoded = DecodeRequest(inbuf, tuple_scratch);
    if (!decoded.ok()) {
      // The frame boundary held, but the payload is out of contract.
      if (protocol_errors_) protocol_errors_->Increment();
      keep_session = Dispatcher::Refuse(inbuf, decoded.status(), payload);
    } else {
      const Request& request = *decoded;
      Status status;
      if (request.header.method == Method::kHello) {
        tenant.assign(request.tenant);  // opens the session, not admitted
        status = dispatch.Answer(request, payload);
      } else {
        const Result<AdmissionController::Ticket> ticket =
            admission_.Admit(tenant);
        status = ticket.ok() ? dispatch.Answer(request, payload)
                             : ticket.status();
      }
      if (!status.ok()) {
        EncodeErrorResponse(request.header, ServeCodeFromStatus(status),
                            status.message(), payload);
      }
    }
    frame.Clear();
    AppendFrame(payload.bytes(), frame);
    if (!WriteFull(fd, frame.bytes()).ok() || !keep_session) return;
  }
}

void RuleServer::ServeHttp(int fd) {
  if (http_requests_) http_requests_->Increment();
  std::string buf;
  buf.reserve(4096);
  // Appends what the socket has; false on EOF or a socket error.
  const auto read_more = [fd, &buf] {
    char chunk[4096];
    for (;;) {
      const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      buf.append(chunk, static_cast<size_t>(r));
      return true;
    }
  };
  size_t head_end;
  while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
    if (buf.size() > kMaxHttpHeadBytes || !read_more()) return;
  }
  const size_t body_start = head_end + 4;
  Result<HttpRequest> parsed =
      ParseHttpRequest(std::string_view(buf).substr(0, body_start));
  if (!parsed.ok()) {
    if (protocol_errors_) protocol_errors_->Increment();
    (void)WriteFull(fd, MakeHttpErrorResponse(ServeCode::kInvalidRequest,
                                              parsed.status().message()));
    return;
  }

  // Then the declared body; no Content-Length means none.
  const std::string_view declared = parsed->Header("content-length");
  const Result<int64_t> length =
      declared.empty() ? Result<int64_t>(0) : ParseInt(declared);
  if (!length.ok() || *length < 0) {
    if (protocol_errors_) protocol_errors_->Increment();
    (void)WriteFull(fd, MakeHttpErrorResponse(
                            ServeCode::kInvalidRequest,
                            "Content-Length \"" + std::string(declared) +
                                "\" is not a non-negative integer"));
    return;
  }
  if (*length > static_cast<int64_t>(kMaxHttpBodyBytes)) {
    (void)WriteFull(fd, MakeHttpErrorResponse(ServeCode::kInvalidRequest,
                                              "request body too large"));
    return;
  }
  const auto content_length = static_cast<size_t>(*length);
  while (buf.size() < body_start + content_length) {
    if (!read_more()) return;
  }
  parsed->body = buf.substr(body_start, content_length);
  (void)WriteFull(fd, HandleHttpRequest(service_, *parsed, &admission_));
}

}  // namespace dar::serve
