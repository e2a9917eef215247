#ifndef DAR_SERVE_HTTP_ADAPTER_H_
#define DAR_SERVE_HTTP_ADAPTER_H_

#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "serve/admission.h"
#include "serve/query_api.h"
#include "serve/query_service.h"

namespace dar::serve {

/// The HTTP/JSON face of the rule server: a thin, dependency-free
/// translation onto the binary protocol (serve/protocol.h). A router turns
/// each request into the same serve::Request that DecodeRequest fills,
/// the same Dispatcher answers it, and the JSON body is the response's
/// field list: the wire's fields, in wire order, under their list names
/// (a diff entry's kind is its wire number, 1 drifted, 2 born, 3 died;
/// every listing and diff entry carries text, "" unless text=1). One
/// request per connection (Connection: close); compact JSON from the
/// deterministic telemetry JsonWriter.
///
/// Endpoints (all under api version 1):
///   GET  /v1/info                                  -> SnapshotInfo
///   GET  /v1/rules?offset=&limit=&text=1           -> ListRules
///   GET  /v1/rules?measure=&min=&max=&pruned=1&... -> ListRulesScored
///   GET  /v1/query?tuple=1,2,3&max_rules=N         -> PointQuery
///   POST /v1/query   (body "1,2,3" or "[1,2,3]")
///   GET  /v1/diff?limit=&text=1                    -> Diff
/// Numbers parse as the CSV reader's do (common/str_util.h); a page size
/// outside u32 or a bound past the largest double is a 400. The tenant
/// for admission is the X-Tenant header ("" when absent). Errors map
/// ServeCode -> HTTP status: invalid_request 400, not_found 404,
/// unavailable 503, overloaded 429, internal 500; the body is
/// {"error":"<code name>","message":"..."}.

/// One parsed HTTP/1.x request head plus body.
struct HttpRequest {
  std::string method;  // uppercase, e.g. "GET"
  std::string path;    // without the query string
  std::string query;   // after '?', may be empty
  /// Header names lowercased; last occurrence wins.
  std::map<std::string, std::string> headers;
  std::string body;

  /// Header value by lowercase name, or "" when absent.
  [[nodiscard]] std::string_view Header(std::string_view name) const;
};

/// Parses `text` (complete head + body, as read off the socket). Fails
/// with InvalidArgument on malformed request lines or headers.
Result<HttpRequest> ParseHttpRequest(std::string_view text);

/// HTTP status code for a serve outcome (200/400/404/503/429/500).
int HttpStatusForServeCode(ServeCode code);

/// Routes `request`, admits it for its tenant through `admission` (null
/// admits every request; a shed is a 429), answers it from `service`, and
/// returns the complete HTTP/1.1 response bytes (status line, headers,
/// JSON body). A request that routes nowhere (404) or carries a bad
/// parameter (400) is answered before admission and spends no quota, as
/// a binary payload the decoder refuses spends none.
std::string HandleHttpRequest(const QueryService& service,
                              const HttpRequest& request,
                              AdmissionController* admission = nullptr);

/// Complete HTTP/1.1 error response for `code` (e.g. an admission shed or
/// a parse failure).
std::string MakeHttpErrorResponse(ServeCode code, std::string_view message);

}  // namespace dar::serve

#endif  // DAR_SERVE_HTTP_ADAPTER_H_
