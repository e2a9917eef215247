#ifndef DAR_SERVE_CLIENT_H_
#define DAR_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "persist/wire.h"
#include "serve/query_api.h"

namespace dar::serve {

/// Blocking client for the framed binary protocol: one TCP connection,
/// synchronous request/response. Server-side errors come back as the
/// Status the server produced (ResourceExhausted for kOverloaded sheds,
/// Unavailable before the first snapshot, ...), so a caller's handling is
/// identical for in-process QueryService use and remote use — the point
/// of the shared query API.
///
/// Reuses its encode/decode buffers across calls: a steady-state point
/// query allocates nothing on the client either.
///
/// Not thread-safe: one RuleClient per thread (connections are cheap).
/// Movable; a moved-from client is disconnected.
class RuleClient {
 public:
  /// Connects to host:port and, when `tenant` is non-empty, opens the
  /// session with a Hello carrying it (the server scopes per-tenant
  /// quotas by that name). Fails with IOError when the TCP connect fails.
  static Result<RuleClient> Connect(const std::string& host, uint16_t port,
                                    const std::string& tenant = "");

  RuleClient(RuleClient&& other) noexcept { *this = std::move(other); }
  RuleClient& operator=(RuleClient&& other) noexcept;
  RuleClient(const RuleClient&) = delete;
  RuleClient& operator=(const RuleClient&) = delete;
  ~RuleClient() { Close(); }

  [[nodiscard]] Status PointQuery(const PointQueryRequest& request,
                                  PointQueryResponse& response);
  [[nodiscard]] Status ListRules(const RuleListRequest& request,
                                 RuleListResponse& response);
  [[nodiscard]] Status SnapshotInfo(SnapshotInfoResponse& response);
  [[nodiscard]] Status ListRulesScored(const ScoredRuleListRequest& request,
                                       ScoredRuleListResponse& response);
  [[nodiscard]] Status Diff(const RuleDiffRequest& request,
                            RuleDiffResponse& response);

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Closes the connection; further calls fail. Idempotent.
  void Close();

 private:
  RuleClient() = default;

  // Frames and sends the payload in `payload_`, then reads the matching
  // response frame into `inbuf_` and returns a reader positioned at the
  // response body, with the header validated (a request id echo other
  // than `request_id` is a protocol desync; error codes are mapped back
  // to Status).
  Result<persist::WireReader> RoundTrip(uint64_t request_id);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  persist::WireWriter payload_;
  persist::WireWriter frame_;
  std::string inbuf_;
};

}  // namespace dar::serve

#endif  // DAR_SERVE_CLIENT_H_
