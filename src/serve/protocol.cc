#include "serve/protocol.h"

#include <string>
#include <type_traits>
#include <utility>

#include "serve/query_service.h"
#include "telemetry/json.h"

namespace dar::serve {
namespace {

void EncodeRequestHeader(Method method, uint64_t request_id,
                         persist::WireWriter& out) {
  out.Clear();
  out.U32(kQueryApiVersion);
  out.U8(static_cast<uint8_t>(method));
  out.U64(request_id);
}

void EncodeResponseHeader(const RequestHeader& header, ServeCode code,
                          persist::WireWriter& out) {
  EncodeRequestHeader(header.method, header.request_id, out);
  out.U8(static_cast<uint8_t>(code));
}

// Reads the header a request and a response both open with. `side` is
// "request" or "response", `reader_role` "server" or "client".
Result<RequestHeader> ReadHeader(persist::WireReader& reader,
                                 const char* side, const char* reader_role) {
  RequestHeader header;
  DAR_ASSIGN_OR_RETURN(header.api_version, reader.U32());
  if (header.api_version != kQueryApiVersion) {
    return Status::InvalidArgument(
        std::string(side) + " api version " +
        std::to_string(header.api_version) + " does not match " +
        reader_role + " version " + std::to_string(kQueryApiVersion));
  }
  DAR_ASSIGN_OR_RETURN(const uint8_t method_byte, reader.U8());
  if (method_byte < static_cast<uint8_t>(Method::kHello) ||
      method_byte > static_cast<uint8_t>(Method::kDiff)) {
    return Status::InvalidArgument("unknown " + std::string(side) +
                                   " method " + std::to_string(method_byte));
  }
  header.method = static_cast<Method>(method_byte);
  DAR_ASSIGN_OR_RETURN(header.request_id, reader.U64());
  return header;
}

// ---------------------------------------------------------------------------
// Field lists (persist/wire.h) of the request and response bodies. The
// layout comments in protocol.h are the spec; these lists are the code.
// The JSON face names each field as its list does, a listing's entries by
// the name its Records call gives them.

using persist::FieldReader;
using persist::FieldWriter;

// A listing carries at most one page of entries, each at least its
// fixed-width fields plus its text's u32 length.
template <size_t kMinEntryBytes>
constexpr persist::CountBound kPage{.min_bytes_each = kMinEntryBytes,
                                    .cap = kMaxRuleListLimit};

template <class V, class R>
void RuleListRequestFields(V&& v, R& r) {
  v("offset", r.offset);
  v("limit", r.limit);
  v("include_text", r.include_text);
}

template <class V, class R>
void ScoredRuleListRequestFields(V&& v, R& r) {
  v("offset", r.offset);
  v("limit", r.limit);
  v("include_text", r.include_text);
  v("measure", r.measure);
  v("has_min", r.has_min);
  v("min_score", r.min_score);
  v("has_max", r.has_max);
  v("max_score", r.max_score);
  v("include_pruned", r.include_pruned);
}

template <class V, class R>
void RuleDiffRequestFields(V&& v, R& r) {
  v("limit", r.limit);
  v("include_text", r.include_text);
}

template <class V, class R>
void PointQueryBodyFields(V&& v, R& r) {
  v("generation", r.generation);
  v("rows_ingested", r.rows_ingested);
  v("total_rule_matches", r.total_rule_matches);
  v("clusters", r.clusters);
  v("rules", r.rules);
}

template <class V, class R>
void RuleListBodyFields(V&& v, R& r) {
  v("generation", r.generation);
  v("rows_ingested", r.rows_ingested);
  v("total_rules", r.total_rules);
  v("offset", r.offset);
  v.Records("rules", kPage<32>, r.rules, [&v](auto& e) {
    v("id", e.id);
    v("degree", e.degree);
    v("support_count", e.support_count);
    v("antecedent_size", e.antecedent_size);
    v("consequent_size", e.consequent_size);
    v("text", e.text);
  });
}

template <class V, class R>
void SnapshotInfoBodyFields(V&& v, R& r) {
  v("api_version", r.api_version);
  v("generation", r.generation);
  v("rows_ingested", r.rows_ingested);
  v("num_clusters", r.num_clusters);
  v("num_rules", r.num_rules);
  v("has_index", r.has_index);
}

template <class V, class R>
void ScoredRuleListBodyFields(V&& v, R& r) {
  v("generation", r.generation);
  v("rows_ingested", r.rows_ingested);
  v("total_matching", r.total_matching);
  v("offset", r.offset);
  v("measure", r.measure);
  v.Records("rules", kPage<41>, r.rules, [&v](auto& e) {
    v("id", e.id);
    v("degree", e.degree);
    v("support_count", e.support_count);
    v("score", e.score);
    v("representative", e.representative);
    v("antecedent_size", e.antecedent_size);
    v("consequent_size", e.consequent_size);
    v("text", e.text);
  });
}

template <class V, class R>
void RuleDiffBodyFields(V&& v, R& r) {
  v("old_generation", r.old_generation);
  v("new_generation", r.new_generation);
  v("rows_ingested", r.rows_ingested);
  v("born", r.born);
  v("died", r.died);
  v("drifted", r.drifted);
  v("unchanged", r.unchanged);
  v("total_changed", r.total_changed);
  v.Records("entries", kPage<25>, r.entries, [&v](auto& e) {
    v("kind", e.kind);
    v("rule_id", e.rule_id);
    v("degree", e.degree);
    v("interval_shift", e.interval_shift);
    v("text", e.text);
  });
}

// Writes a record as JSON members, each field under its list name and by
// its C++ type; a vector is an array, and Records an array of objects.
class JsonFieldWriter {
 public:
  explicit JsonFieldWriter(telemetry::JsonWriter& json) : json_(json) {}

  template <class T>
  void operator()(const char* name, const T& field) {
    json_.Key(name);
    Value(field);
  }
  template <class Seq, class Each>
  void Records(const char* name, persist::CountBound /*bound*/,
               const Seq& records, Each&& each) {
    json_.Key(name);
    json_.BeginArray();
    for (const auto& record : records) {
      json_.BeginObject();
      each(record);
      json_.EndObject();
    }
    json_.EndArray();
  }

 private:
  template <class T>
  void Value(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      json_.Bool(v);
    } else if constexpr (std::is_same_v<T, double>) {
      json_.Double(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      json_.String(v);
    } else if constexpr (std::is_integral_v<T>) {
      json_.Int(static_cast<int64_t>(v));
    } else {
      json_.BeginArray();
      for (const auto& element : v) Value(element);
      json_.EndArray();
    }
  }

  telemetry::JsonWriter& json_;
};

// One answer body per face: `fields` walks the answer's field list with
// the face's visitor.
template <class Fields>
void WriteBody(const RequestHeader& header, persist::WireWriter& out,
               Fields&& fields) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  fields(FieldWriter(out));
}

template <class Fields>
void WriteBody(const RequestHeader& /*header*/, telemetry::JsonWriter& out,
               Fields&& fields) {
  out.BeginObject();
  fields(JsonFieldWriter(out));
  out.EndObject();
}

}  // namespace

void AppendFrame(std::string_view payload, persist::WireWriter& out) {
  out.U32(static_cast<uint32_t>(payload.size()));
  out.Raw(payload);
}

Result<uint32_t> DecodeFrameLength(std::string_view bytes) {
  persist::WireReader reader(bytes);
  DAR_ASSIGN_OR_RETURN(const uint32_t length, reader.U32());
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "frame length " + std::to_string(length) + " exceeds the " +
        std::to_string(kMaxFrameBytes) + "-byte cap; dropping connection");
  }
  return length;
}

void EncodeHelloRequest(uint64_t request_id, std::string_view tenant,
                        persist::WireWriter& out) {
  EncodeRequestHeader(Method::kHello, request_id, out);
  out.Str(tenant);
}

void EncodePointQueryRequest(uint64_t request_id,
                             const PointQueryRequest& request,
                             persist::WireWriter& out) {
  EncodeRequestHeader(Method::kPointQuery, request_id, out);
  out.U32(request.max_rules);
  out.U32(static_cast<uint32_t>(request.tuple.size()));
  for (double v : request.tuple) out.F64(v);
}

void EncodeRuleListRequest(uint64_t request_id,
                           const RuleListRequest& request,
                           persist::WireWriter& out) {
  EncodeRequestHeader(Method::kListRules, request_id, out);
  RuleListRequestFields(FieldWriter(out), request);
}

void EncodeSnapshotInfoRequest(uint64_t request_id,
                               persist::WireWriter& out) {
  EncodeRequestHeader(Method::kSnapshotInfo, request_id, out);
}

void EncodeScoredRuleListRequest(uint64_t request_id,
                                 const ScoredRuleListRequest& request,
                                 persist::WireWriter& out) {
  EncodeRequestHeader(Method::kListRulesScored, request_id, out);
  ScoredRuleListRequestFields(FieldWriter(out), request);
}

void EncodeRuleDiffRequest(uint64_t request_id,
                           const RuleDiffRequest& request,
                           persist::WireWriter& out) {
  EncodeRequestHeader(Method::kDiff, request_id, out);
  RuleDiffRequestFields(FieldWriter(out), request);
}

Result<Request> DecodeRequest(std::string_view payload,
                              std::vector<double>& tuple_scratch) {
  persist::WireReader reader(payload);
  Request request;
  DAR_ASSIGN_OR_RETURN(request.header, ReadHeader(reader, "request", "server"));

  FieldReader read(reader);
  switch (request.header.method) {
    case Method::kHello: {
      DAR_ASSIGN_OR_RETURN(const uint32_t len, reader.U32());
      const size_t start = payload.size() - reader.remaining();
      DAR_ASSIGN_OR_RETURN(persist::WireReader name, reader.Slice(len));
      (void)name;  // bounds-checked skip
      // Tenant views the payload buffer: no copy on the accept path.
      request.tenant = payload.substr(start, len);
      break;
    }
    case Method::kPointQuery: {
      DAR_ASSIGN_OR_RETURN(request.point.max_rules, reader.U32());
      DAR_ASSIGN_OR_RETURN(const uint32_t count, reader.U32());
      if (count > kMaxTupleValues) {
        return Status::InvalidArgument(
            "point-query tuple has " + std::to_string(count) +
            " values; the protocol caps tuples at " +
            std::to_string(kMaxTupleValues));
      }
      tuple_scratch.clear();
      tuple_scratch.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        DAR_ASSIGN_OR_RETURN(const double v, reader.F64());
        tuple_scratch.push_back(v);
      }
      request.point.tuple = std::span<const double>(tuple_scratch);
      break;
    }
    case Method::kListRules:
      RuleListRequestFields(read, request.list);
      break;
    case Method::kSnapshotInfo:
      break;
    case Method::kListRulesScored:
      ScoredRuleListRequestFields(read, request.scored);
      break;
    case Method::kDiff:
      RuleDiffRequestFields(read, request.diff);
      break;
  }
  DAR_RETURN_IF_ERROR(read.End("request payload"));
  return request;
}

void EncodeErrorResponse(const RequestHeader& header, ServeCode code,
                         std::string_view message,
                         persist::WireWriter& out) {
  EncodeResponseHeader(header, code, out);
  out.Str(message);
}

void EncodePointQueryResponse(const RequestHeader& header,
                              const PointQueryResponse& response,
                              persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  PointQueryBodyFields(FieldWriter(out), response);
}

void EncodeRuleListResponse(const RequestHeader& header,
                            const RuleListResponse& response,
                            persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  RuleListBodyFields(FieldWriter(out), response);
}

void EncodeSnapshotInfoResponse(const RequestHeader& header,
                                const SnapshotInfoResponse& response,
                                persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  SnapshotInfoBodyFields(FieldWriter(out), response);
}

void EncodeScoredRuleListResponse(const RequestHeader& header,
                                  const ScoredRuleListResponse& response,
                                  persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  ScoredRuleListBodyFields(FieldWriter(out), response);
}

void EncodeRuleDiffResponse(const RequestHeader& header,
                            const RuleDiffResponse& response,
                            persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  RuleDiffBodyFields(FieldWriter(out), response);
}

Result<ResponseHeader> DecodeResponseHeader(persist::WireReader& reader) {
  ResponseHeader out;
  DAR_ASSIGN_OR_RETURN(out.header, ReadHeader(reader, "response", "client"));
  DAR_ASSIGN_OR_RETURN(const uint8_t code_byte, reader.U8());
  if (code_byte > static_cast<uint8_t>(ServeCode::kInternal)) {
    return Status::InvalidArgument("unknown serve code " +
                                   std::to_string(code_byte));
  }
  out.code = static_cast<ServeCode>(code_byte);
  if (out.code != ServeCode::kOk) {
    DAR_ASSIGN_OR_RETURN(out.message, reader.Str());
    DAR_RETURN_IF_ERROR(reader.ExpectEnd("error response payload"));
  }
  return out;
}

Status DecodePointQueryBody(persist::WireReader& reader,
                            PointQueryResponse& out) {
  FieldReader read(reader);
  PointQueryBodyFields(read, out);
  return read.End("point-query response payload");
}

Status DecodeRuleListBody(persist::WireReader& reader,
                          RuleListResponse& out) {
  FieldReader read(reader);
  RuleListBodyFields(read, out);
  return read.End("rule-list response payload");
}

Status DecodeSnapshotInfoBody(persist::WireReader& reader,
                              SnapshotInfoResponse& out) {
  FieldReader read(reader);
  SnapshotInfoBodyFields(read, out);
  return read.End("snapshot-info response payload");
}

Status DecodeScoredRuleListBody(persist::WireReader& reader,
                                ScoredRuleListResponse& out) {
  FieldReader read(reader);
  ScoredRuleListBodyFields(read, out);
  return read.End("scored rule-list response payload");
}

Status DecodeRuleDiffBody(persist::WireReader& reader,
                          RuleDiffResponse& out) {
  FieldReader read(reader);
  RuleDiffBodyFields(read, out);
  DAR_RETURN_IF_ERROR(read.End("diff response payload"));
  for (size_t i = 0; i < out.entries.size(); ++i) {
    const uint8_t kind = out.entries[i].kind;
    if (kind < 1 || kind > 3) {
      return Status::InvalidArgument("diff entry " + std::to_string(i) +
                                     ": kind " + std::to_string(kind) +
                                     " is not 1, 2 or 3");
    }
  }
  return Status::OK();
}

Status Dispatcher::Answer(const Request& request, persist::WireWriter& out) {
  return AnswerTo(request, out);
}

Status Dispatcher::Answer(const Request& request, telemetry::JsonWriter& out) {
  return AnswerTo(request, out);
}

template <class Out>
Status Dispatcher::AnswerTo(const Request& request, Out& out) {
  const RequestHeader& header = request.header;
  switch (header.method) {
    case Method::kHello:
      WriteBody(header, out, [](auto&& /*v*/) {});
      break;
    case Method::kPointQuery:
      DAR_RETURN_IF_ERROR(service_.PointQuery(request.point, point_));
      WriteBody(header, out,
                [this](auto&& v) { PointQueryBodyFields(v, point_); });
      break;
    case Method::kListRules:
      DAR_RETURN_IF_ERROR(service_.ListRules(request.list, list_));
      WriteBody(header, out,
                [this](auto&& v) { RuleListBodyFields(v, list_); });
      break;
    case Method::kSnapshotInfo:
      DAR_RETURN_IF_ERROR(service_.SnapshotInfo(info_));
      WriteBody(header, out,
                [this](auto&& v) { SnapshotInfoBodyFields(v, info_); });
      break;
    case Method::kListRulesScored:
      DAR_RETURN_IF_ERROR(service_.ListRulesScored(request.scored, scored_));
      WriteBody(header, out,
                [this](auto&& v) { ScoredRuleListBodyFields(v, scored_); });
      break;
    case Method::kDiff:
      DAR_RETURN_IF_ERROR(service_.Diff(request.diff, diff_));
      WriteBody(header, out,
                [this](auto&& v) { RuleDiffBodyFields(v, diff_); });
      break;
  }
  return Status::OK();
}

bool Dispatcher::Refuse(std::string_view payload, const Status& refusal,
                        persist::WireWriter& out) {
  persist::WireReader reader(payload);
  const Result<RequestHeader> header = ReadHeader(reader, "request", "server");
  EncodeErrorResponse(header.ok() ? *header : RequestHeader{},
                      ServeCode::kInvalidRequest, refusal.message(), out);
  return header.ok();
}

}  // namespace dar::serve
