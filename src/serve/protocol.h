#ifndef DAR_SERVE_PROTOCOL_H_
#define DAR_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "persist/wire.h"
#include "serve/query_api.h"

namespace dar {
class QueryService;  // serve/query_service.h
}  // namespace dar

namespace dar::telemetry {
class JsonWriter;  // telemetry/json.h
}  // namespace dar::telemetry

namespace dar::serve {

/// The framed binary protocol the rule server speaks, and the Dispatcher
/// that answers its requests for both faces of the server: the HTTP
/// adapter routes each HTTP request into the same Request and gets its
/// JSON body from the same field lists.
///
/// Framing: every message is `u32 length (little-endian) | payload`, with
/// `length == payload size <= kMaxFrameBytes`. The payload reuses the
/// dar::persist wire primitives (WireWriter/WireReader), so every integer
/// is little-endian and every double is its IEEE-754 bit pattern —
/// byte-identical across machines.
///
/// Request payload:  u32 api_version | u8 method | u64 request_id | body.
/// Response payload: u32 api_version | u8 method | u64 request_id |
///                   u8 serve_code | [error message Str when code != ok |
///                   body when code == ok].
/// The response echoes the request's method and request_id, so a client
/// pipelining requests can match responses by id.
///
/// The body layouts below are the spec. The code is one field list per
/// body in protocol.cc (persist/wire.h), walked by its encoder, its
/// decoder and the JSON face: a boolean byte other than 0 or 1 is
/// InvalidArgument, a diff entry's kind outside 1-3 is InvalidArgument,
/// and a listing's entry count is refused past kMaxRuleListLimit
/// (InvalidArgument) or past the bytes left at each entry's byte floor
/// (OutOfRange) before any entry is reserved.
///
/// Versioning: api_version is kQueryApiVersion. A server receiving a
/// frame with an unknown version answers kInvalidRequest naming both
/// versions instead of misparsing the body (fields within one version are
/// append-only; see query_api.h).
enum class Method : uint8_t {
  /// Opens a session: body = tenant name Str (may be empty). The server
  /// uses the tenant for per-tenant admission quotas. Response body is
  /// empty. Optional — a connection that skips Hello runs as tenant "".
  kHello = 1,
  /// Body: u32 max_rules | u32 tuple count | count * f64.
  /// Response body: u64 generation | i64 rows_ingested |
  ///   u32 total_rule_matches | u32 #clusters | #clusters * u32 |
  ///   u32 #rules | #rules * u32.
  kPointQuery = 2,
  /// Body: u32 offset | u32 limit | u8 include_text.
  /// Response body: u64 generation | i64 rows_ingested | u32 total_rules |
  ///   u32 offset | u32 #entries | per entry: u32 id | f64 degree |
  ///   i64 support_count | u32 antecedent_size | u32 consequent_size |
  ///   Str text.
  kListRules = 3,
  /// Empty body. Response body: u32 api_version | u64 generation |
  ///   i64 rows_ingested | u64 num_clusters | u64 num_rules | u8 has_index.
  kSnapshotInfo = 4,
  /// Measure-filtered listing. Body: u32 offset | u32 limit |
  ///   u8 include_text | Str measure | u8 has_min | f64 min_score |
  ///   u8 has_max | f64 max_score | u8 include_pruned.
  /// Response body: u64 generation | i64 rows_ingested |
  ///   u32 total_matching | u32 offset | Str measure | u32 #entries |
  ///   per entry: u32 id | f64 degree | i64 support_count | f64 score |
  ///   u8 representative | u32 antecedent_size | u32 consequent_size |
  ///   Str text.
  kListRulesScored = 5,
  /// Drift report. Body: u32 limit | u8 include_text.
  /// Response body: u64 old_generation | u64 new_generation |
  ///   i64 rows_ingested | u32 born | u32 died | u32 drifted |
  ///   u32 unchanged | u32 total_changed | u32 #entries | per entry:
  ///   u8 kind | u32 rule_id | f64 degree | f64 interval_shift | Str text.
  kDiff = 6,
};

/// Hard cap on one frame's payload; a length prefix above it is treated as
/// a corrupt or hostile stream and the connection is dropped.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// Hard cap on a point-query tuple's value count (well above any real
/// schema width; bounds the decode allocation).
inline constexpr uint32_t kMaxTupleValues = 4096;

/// Decoded request header, echoed verbatim into the response.
struct RequestHeader {
  uint32_t api_version = kQueryApiVersion;
  Method method = Method::kHello;
  uint64_t request_id = 0;
};

/// One decoded request. Which member is meaningful depends on
/// header.method. `tenant` views the payload buffer and `point.tuple`
/// views the caller's scratch vector: both stay valid only until the next
/// DecodeRequest call on the same buffers.
struct Request {
  RequestHeader header;
  std::string_view tenant;      // kHello
  PointQueryRequest point;      // kPointQuery
  RuleListRequest list;         // kListRules
  ScoredRuleListRequest scored; // kListRulesScored
  RuleDiffRequest diff;         // kDiff
};

/// Appends `u32 length | payload` to `out`.
void AppendFrame(std::string_view payload, persist::WireWriter& out);

/// Reads one frame length prefix out of `bytes` (which must hold >= 4
/// bytes) and validates it against kMaxFrameBytes.
Result<uint32_t> DecodeFrameLength(std::string_view bytes);

// --- Request encoding (client side) -----------------------------------
// Each encoder writes the request PAYLOAD into `out` (cleared first);
// callers frame it with AppendFrame. Reusing the same two writers across
// messages keeps the encode path allocation-free in steady state.

void EncodeHelloRequest(uint64_t request_id, std::string_view tenant,
                        persist::WireWriter& out);
void EncodePointQueryRequest(uint64_t request_id,
                             const PointQueryRequest& request,
                             persist::WireWriter& out);
void EncodeRuleListRequest(uint64_t request_id,
                           const RuleListRequest& request,
                           persist::WireWriter& out);
void EncodeSnapshotInfoRequest(uint64_t request_id,
                               persist::WireWriter& out);
void EncodeScoredRuleListRequest(uint64_t request_id,
                                 const ScoredRuleListRequest& request,
                                 persist::WireWriter& out);
void EncodeRuleDiffRequest(uint64_t request_id,
                           const RuleDiffRequest& request,
                           persist::WireWriter& out);

// --- Request decoding (server side) -----------------------------------

/// Decodes one request payload. Point-query tuple values are decoded into
/// `tuple_scratch` (cleared first) and viewed by the result. Fails with
/// InvalidArgument on version skew, unknown method, out-of-contract sizes
/// or trailing bytes; OutOfRange on truncation.
Result<Request> DecodeRequest(std::string_view payload,
                              std::vector<double>& tuple_scratch);

// --- Response encoding (server side) ----------------------------------

/// Error response: header echo + code + message, no body. `code` must not
/// be kOk.
void EncodeErrorResponse(const RequestHeader& header, ServeCode code,
                         std::string_view message, persist::WireWriter& out);
void EncodePointQueryResponse(const RequestHeader& header,
                              const PointQueryResponse& response,
                              persist::WireWriter& out);
void EncodeRuleListResponse(const RequestHeader& header,
                            const RuleListResponse& response,
                            persist::WireWriter& out);
void EncodeSnapshotInfoResponse(const RequestHeader& header,
                                const SnapshotInfoResponse& response,
                                persist::WireWriter& out);
void EncodeScoredRuleListResponse(const RequestHeader& header,
                                  const ScoredRuleListResponse& response,
                                  persist::WireWriter& out);
void EncodeRuleDiffResponse(const RequestHeader& header,
                            const RuleDiffResponse& response,
                            persist::WireWriter& out);

// --- Response decoding (client side) ----------------------------------

/// Header + outcome of one response payload. When `code != kOk`, `message`
/// carries the server's error text and no body follows.
struct ResponseHeader {
  RequestHeader header;
  ServeCode code = ServeCode::kOk;
  std::string message;
};

/// Decodes the response header (and error message, when present), leaving
/// `reader` positioned at the body.
Result<ResponseHeader> DecodeResponseHeader(persist::WireReader& reader);

/// Body decoders; call after DecodeResponseHeader returned code == kOk.
/// Each validates that the body is fully consumed.
Status DecodePointQueryBody(persist::WireReader& reader,
                            PointQueryResponse& out);
Status DecodeRuleListBody(persist::WireReader& reader, RuleListResponse& out);
Status DecodeSnapshotInfoBody(persist::WireReader& reader,
                              SnapshotInfoResponse& out);
Status DecodeScoredRuleListBody(persist::WireReader& reader,
                                ScoredRuleListResponse& out);
Status DecodeRuleDiffBody(persist::WireReader& reader, RuleDiffResponse& out);

// --- The answer path (server side, both faces) ------------------------

/// The one answer path of the rule server: a single switch over the
/// request's method that calls the QueryService and writes the answer
/// through its body's field list. The binary face gets a response payload
/// (header, then body: the bytes Encode*Response writes); the JSON face
/// gets one object whose members are the list's fields, under their list
/// names and in wire order. A failing call writes nothing and returns the
/// service's Status, which the caller answers (EncodeErrorResponse,
/// MakeHttpErrorResponse). The response objects are reused across calls,
/// so a session that keeps one Dispatcher answers without allocating in
/// steady state.
class Dispatcher {
 public:
  /// `service` must outlive the dispatcher.
  explicit Dispatcher(const QueryService& service) : service_(service) {}

  /// Binary face: the response payload into `out` (cleared first).
  Status Answer(const Request& request, persist::WireWriter& out);
  /// JSON face: one object appended to `out`.
  Status Answer(const Request& request, telemetry::JsonWriter& out);

  /// Answers a payload that DecodeRequest refused with `refusal`: an
  /// invalid_request response into `out`, under the payload's own header
  /// when that header decodes, so the session goes on. Returns false when
  /// it does not (version skew, unknown method, fewer than 13 bytes): the
  /// answer then carries request id 0 and the session should drop.
  static bool Refuse(std::string_view payload, const Status& refusal,
                     persist::WireWriter& out);

 private:
  template <class Out>
  Status AnswerTo(const Request& request, Out& out);

  const QueryService& service_;
  PointQueryResponse point_;
  RuleListResponse list_;
  SnapshotInfoResponse info_;
  ScoredRuleListResponse scored_;
  RuleDiffResponse diff_;
};

}  // namespace dar::serve

#endif  // DAR_SERVE_PROTOCOL_H_
