#ifndef DAR_SERVE_SERVER_H_
#define DAR_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "serve/admission.h"
#include "serve/query_service.h"
#include "telemetry/metrics.h"

namespace dar::serve {

struct ServerConfig {
  /// IPv4 address to bind ("127.0.0.1" keeps the server loopback-only,
  /// "0.0.0.0" exposes it).
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port, reported by port() after Start.
  uint16_t port = 0;
  /// Concurrent connections (sessions); further accepts are closed
  /// immediately (connection-level shed).
  uint32_t max_sessions = 64;
  /// Per-request admission quotas (see admission.h).
  AdmissionConfig admission;
};

/// The rule-serving front end: a TCP listener answering both the framed
/// binary protocol (serve/protocol.h) and plain HTTP/JSON
/// (serve/http_adapter.h) on ONE port — the first bytes of a connection
/// pick the dialect (HTTP method names vs. a frame length prefix).
///
/// Session model: one thread per accepted connection, bounded by
/// max_sessions. A binary session runs request/response in order on its
/// connection (pipelining is legal; responses echo request ids); an HTTP
/// session answers one request and closes. Each session's tenant (Hello
/// frame / X-Tenant header) scopes per-tenant admission quotas; every
/// request that decodes (binary) or routes (HTTP) passes
/// AdmissionController before touching the QueryService, so overload
/// sheds kOverloaded/429 instead of queueing unboundedly, and a refused
/// request spends no quota on either face.
///
/// Every session thread is joined: a finishing session parks its own
/// thread handle (a thread cannot join itself) and the accept loop or
/// Stop() reaps it, so no thread ever outlives the server object. The
/// locking discipline is compile-checked (common/mutex.h).
///
/// The server NEVER blocks rule publication: queries read whatever
/// snapshot the QueryService's source currently publishes, so a
/// background re-mine or a RestoreCheckpoint re-bind hot-swaps what is
/// served between one response and the next, while each individual
/// response stays single-generation consistent.
///
/// `service` must outlive the server. Stop() (also run by the destructor)
/// closes the listener and every live connection and joins all session
/// threads before returning.
class RuleServer {
 public:
  RuleServer(const QueryService& service, ServerConfig config,
             telemetry::MetricsRegistry* registry = nullptr);
  ~RuleServer();

  RuleServer(const RuleServer&) = delete;
  RuleServer& operator=(const RuleServer&) = delete;

  /// Binds, listens and starts accepting. Fails with IOError (socket
  /// errors, port in use) or InvalidArgument (bad host); AlreadyExists
  /// when started twice.
  [[nodiscard]] Status Start();

  /// Idempotent; safe to call while requests are in flight (they are cut
  /// off at the socket).
  void Stop();

  /// The bound port (the ephemeral one when config.port was 0); 0 before
  /// Start.
  [[nodiscard]] uint16_t port() const { return port_; }

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Connections accepted over the server's lifetime.
  [[nodiscard]] uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Connections closed at accept because max_sessions was reached.
  [[nodiscard]] uint64_t connections_shed() const {
    return connections_shed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }

 private:
  void AcceptLoop();
  // Runs one connection to completion; owns fd (registered in live_fds_).
  void ServeConnection(int fd);
  void ServeBinary(int fd);
  void ServeHttp(int fd);

  // Removes fd from sessions_ (parking the session's thread handle in
  // finished_), closes it and wakes Stop.
  void FinishConnection(int fd);

  // Joins the parked handles of sessions that already finished.
  void ReapFinished() DAR_EXCLUDES(conn_mu_);

  const QueryService& service_;
  const ServerConfig config_;
  AdmissionController admission_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  Mutex conn_mu_;
  CondVar conn_cv_;
  // Live sessions: connection fd -> the thread serving it. A session
  // removes itself in FinishConnection, moving its handle to finished_.
  std::map<int, std::thread> sessions_ DAR_GUARDED_BY(conn_mu_);
  // Handles of finished sessions awaiting join (see ReapFinished).
  std::vector<std::thread> finished_ DAR_GUARDED_BY(conn_mu_);

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_shed_{0};

  // Null when telemetry is disabled.
  telemetry::Counter* connections_metric_ = nullptr;
  telemetry::Counter* connections_shed_metric_ = nullptr;
  telemetry::Counter* binary_requests_ = nullptr;
  telemetry::Counter* http_requests_ = nullptr;
  telemetry::Counter* protocol_errors_ = nullptr;
};

}  // namespace dar::serve

#endif  // DAR_SERVE_SERVER_H_
