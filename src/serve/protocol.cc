#include "serve/protocol.h"

#include <string>
#include <utility>

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
  out.Clear();
  out.U32(kQueryApiVersion);
  out.U8(static_cast<uint8_t>(header.method));
  out.U64(header.request_id);
  out.U8(static_cast<uint8_t>(code));
}

// A listing response's entry count, refused past the protocol's page cap
// before anything is reserved.
Result<uint32_t> ReadPageCount(persist::WireReader& reader, const char* what) {
  DAR_ASSIGN_OR_RETURN(const uint32_t count, reader.U32());
  if (count > kMaxRuleListLimit) {
    return Status::InvalidArgument(
        std::string(what) + " response carries " + std::to_string(count) +
        " entries; the protocol caps pages at " +
        std::to_string(kMaxRuleListLimit));
  }
  return count;
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
  out.U32(request.offset);
  out.U32(request.limit);
  out.U8(request.include_text ? 1 : 0);
}

void EncodeSnapshotInfoRequest(uint64_t request_id,
                               persist::WireWriter& out) {
  EncodeRequestHeader(Method::kSnapshotInfo, request_id, out);
}

void EncodeScoredRuleListRequest(uint64_t request_id,
                                 const ScoredRuleListRequest& request,
                                 persist::WireWriter& out) {
  EncodeRequestHeader(Method::kListRulesScored, request_id, out);
  out.U32(request.offset);
  out.U32(request.limit);
  out.U8(request.include_text ? 1 : 0);
  out.Str(request.measure);
  out.U8(request.has_min ? 1 : 0);
  out.F64(request.min_score);
  out.U8(request.has_max ? 1 : 0);
  out.F64(request.max_score);
  out.U8(request.include_pruned ? 1 : 0);
}

void EncodeRuleDiffRequest(uint64_t request_id,
                           const RuleDiffRequest& request,
                           persist::WireWriter& out) {
  EncodeRequestHeader(Method::kDiff, request_id, out);
  out.U32(request.limit);
  out.U8(request.include_text ? 1 : 0);
}

Result<Request> DecodeRequest(std::string_view payload,
                              std::vector<double>& tuple_scratch) {
  persist::WireReader reader(payload);
  Request request;
  DAR_ASSIGN_OR_RETURN(request.header.api_version, reader.U32());
  if (request.header.api_version != kQueryApiVersion) {
    return Status::InvalidArgument(
        "request api version " + std::to_string(request.header.api_version) +
        " does not match server version " +
        std::to_string(kQueryApiVersion));
  }
  DAR_ASSIGN_OR_RETURN(const uint8_t method_byte, reader.U8());
  if (method_byte < static_cast<uint8_t>(Method::kHello) ||
      method_byte > static_cast<uint8_t>(Method::kDiff)) {
    return Status::InvalidArgument("unknown request method " +
                                   std::to_string(method_byte));
  }
  request.header.method = static_cast<Method>(method_byte);
  DAR_ASSIGN_OR_RETURN(request.header.request_id, reader.U64());

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
    case Method::kListRules: {
      DAR_ASSIGN_OR_RETURN(request.list.offset, reader.U32());
      DAR_ASSIGN_OR_RETURN(request.list.limit, reader.U32());
      DAR_ASSIGN_OR_RETURN(const uint8_t text, reader.U8());
      request.list.include_text = text != 0;
      break;
    }
    case Method::kSnapshotInfo:
      break;
    case Method::kListRulesScored: {
      DAR_ASSIGN_OR_RETURN(request.scored.offset, reader.U32());
      DAR_ASSIGN_OR_RETURN(request.scored.limit, reader.U32());
      DAR_ASSIGN_OR_RETURN(const uint8_t text, reader.U8());
      request.scored.include_text = text != 0;
      DAR_ASSIGN_OR_RETURN(request.scored.measure, reader.Str());
      DAR_ASSIGN_OR_RETURN(const uint8_t has_min, reader.U8());
      request.scored.has_min = has_min != 0;
      DAR_ASSIGN_OR_RETURN(request.scored.min_score, reader.F64());
      DAR_ASSIGN_OR_RETURN(const uint8_t has_max, reader.U8());
      request.scored.has_max = has_max != 0;
      DAR_ASSIGN_OR_RETURN(request.scored.max_score, reader.F64());
      DAR_ASSIGN_OR_RETURN(const uint8_t pruned, reader.U8());
      request.scored.include_pruned = pruned != 0;
      break;
    }
    case Method::kDiff: {
      DAR_ASSIGN_OR_RETURN(request.diff.limit, reader.U32());
      DAR_ASSIGN_OR_RETURN(const uint8_t text, reader.U8());
      request.diff.include_text = text != 0;
      break;
    }
  }
  DAR_RETURN_IF_ERROR(reader.ExpectEnd("request payload"));
  return request;
}

void EncodeErrorResponse(const RequestHeader& header, ServeCode code,
                         std::string_view message,
                         persist::WireWriter& out) {
  EncodeResponseHeader(header, code, out);
  out.Str(message);
}

void EncodeHelloResponse(const RequestHeader& header,
                         persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
}

void EncodePointQueryResponse(const RequestHeader& header,
                              const PointQueryResponse& response,
                              persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  out.U64(response.generation);
  out.I64(response.rows_ingested);
  out.U32(response.total_rule_matches);
  out.U32(static_cast<uint32_t>(response.clusters.size()));
  for (uint32_t id : response.clusters) out.U32(id);
  out.U32(static_cast<uint32_t>(response.rules.size()));
  for (uint32_t id : response.rules) out.U32(id);
}

void EncodeRuleListResponse(const RequestHeader& header,
                            const RuleListResponse& response,
                            persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  out.U64(response.generation);
  out.I64(response.rows_ingested);
  out.U32(response.total_rules);
  out.U32(response.offset);
  out.U32(static_cast<uint32_t>(response.rules.size()));
  for (const RuleListEntry& entry : response.rules) {
    out.U32(entry.id);
    out.F64(entry.degree);
    out.I64(entry.support_count);
    out.U32(entry.antecedent_size);
    out.U32(entry.consequent_size);
    out.Str(entry.text);
  }
}

void EncodeSnapshotInfoResponse(const RequestHeader& header,
                                const SnapshotInfoResponse& response,
                                persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  out.U32(response.api_version);
  out.U64(response.generation);
  out.I64(response.rows_ingested);
  out.U64(response.num_clusters);
  out.U64(response.num_rules);
  out.U8(response.has_index ? 1 : 0);
}

void EncodeScoredRuleListResponse(const RequestHeader& header,
                                  const ScoredRuleListResponse& response,
                                  persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  out.U64(response.generation);
  out.I64(response.rows_ingested);
  out.U32(response.total_matching);
  out.U32(response.offset);
  out.Str(response.measure);
  out.U32(static_cast<uint32_t>(response.rules.size()));
  for (const ScoredRuleListEntry& entry : response.rules) {
    out.U32(entry.id);
    out.F64(entry.degree);
    out.I64(entry.support_count);
    out.F64(entry.score);
    out.U8(entry.representative ? 1 : 0);
    out.U32(entry.antecedent_size);
    out.U32(entry.consequent_size);
    out.Str(entry.text);
  }
}

void EncodeRuleDiffResponse(const RequestHeader& header,
                            const RuleDiffResponse& response,
                            persist::WireWriter& out) {
  EncodeResponseHeader(header, ServeCode::kOk, out);
  out.U64(response.old_generation);
  out.U64(response.new_generation);
  out.I64(response.rows_ingested);
  out.U32(response.born);
  out.U32(response.died);
  out.U32(response.drifted);
  out.U32(response.unchanged);
  out.U32(response.total_changed);
  out.U32(static_cast<uint32_t>(response.entries.size()));
  for (const RuleDiffEntry& entry : response.entries) {
    out.U8(entry.kind);
    out.U32(entry.rule_id);
    out.F64(entry.degree);
    out.F64(entry.interval_shift);
    out.Str(entry.text);
  }
}

Result<ResponseHeader> DecodeResponseHeader(persist::WireReader& reader) {
  ResponseHeader out;
  DAR_ASSIGN_OR_RETURN(out.header.api_version, reader.U32());
  if (out.header.api_version != kQueryApiVersion) {
    return Status::InvalidArgument(
        "response api version " + std::to_string(out.header.api_version) +
        " does not match client version " +
        std::to_string(kQueryApiVersion));
  }
  DAR_ASSIGN_OR_RETURN(const uint8_t method_byte, reader.U8());
  if (method_byte < static_cast<uint8_t>(Method::kHello) ||
      method_byte > static_cast<uint8_t>(Method::kDiff)) {
    return Status::InvalidArgument("unknown response method " +
                                   std::to_string(method_byte));
  }
  out.header.method = static_cast<Method>(method_byte);
  DAR_ASSIGN_OR_RETURN(out.header.request_id, reader.U64());
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
  DAR_ASSIGN_OR_RETURN(out.generation, reader.U64());
  DAR_ASSIGN_OR_RETURN(out.rows_ingested, reader.I64());
  DAR_ASSIGN_OR_RETURN(out.total_rule_matches, reader.U32());
  DAR_ASSIGN_OR_RETURN(const size_t num_clusters,
                       reader.Count(4, "point-query cluster id"));
  out.clusters.clear();
  out.clusters.reserve(num_clusters);
  for (size_t i = 0; i < num_clusters; ++i) {
    DAR_ASSIGN_OR_RETURN(const uint32_t id, reader.U32());
    out.clusters.push_back(id);
  }
  DAR_ASSIGN_OR_RETURN(const size_t num_rules,
                       reader.Count(4, "point-query rule id"));
  out.rules.clear();
  out.rules.reserve(num_rules);
  for (size_t i = 0; i < num_rules; ++i) {
    DAR_ASSIGN_OR_RETURN(const uint32_t id, reader.U32());
    out.rules.push_back(id);
  }
  return reader.ExpectEnd("point-query response payload");
}

Status DecodeRuleListBody(persist::WireReader& reader,
                          RuleListResponse& out) {
  DAR_ASSIGN_OR_RETURN(out.generation, reader.U64());
  DAR_ASSIGN_OR_RETURN(out.rows_ingested, reader.I64());
  DAR_ASSIGN_OR_RETURN(out.total_rules, reader.U32());
  DAR_ASSIGN_OR_RETURN(out.offset, reader.U32());
  DAR_ASSIGN_OR_RETURN(const uint32_t num_entries,
                       ReadPageCount(reader, "rule-list"));
  out.rules.clear();
  out.rules.reserve(num_entries);
  for (uint32_t i = 0; i < num_entries; ++i) {
    RuleListEntry& entry = out.rules.emplace_back();
    DAR_ASSIGN_OR_RETURN(entry.id, reader.U32());
    DAR_ASSIGN_OR_RETURN(entry.degree, reader.F64());
    DAR_ASSIGN_OR_RETURN(entry.support_count, reader.I64());
    DAR_ASSIGN_OR_RETURN(entry.antecedent_size, reader.U32());
    DAR_ASSIGN_OR_RETURN(entry.consequent_size, reader.U32());
    DAR_ASSIGN_OR_RETURN(entry.text, reader.Str());
  }
  return reader.ExpectEnd("rule-list response payload");
}

Status DecodeSnapshotInfoBody(persist::WireReader& reader,
                              SnapshotInfoResponse& out) {
  DAR_ASSIGN_OR_RETURN(out.api_version, reader.U32());
  DAR_ASSIGN_OR_RETURN(out.generation, reader.U64());
  DAR_ASSIGN_OR_RETURN(out.rows_ingested, reader.I64());
  DAR_ASSIGN_OR_RETURN(out.num_clusters, reader.U64());
  DAR_ASSIGN_OR_RETURN(out.num_rules, reader.U64());
  DAR_ASSIGN_OR_RETURN(const uint8_t has_index, reader.U8());
  out.has_index = has_index != 0;
  return reader.ExpectEnd("snapshot-info response payload");
}

Status DecodeScoredRuleListBody(persist::WireReader& reader,
                                ScoredRuleListResponse& out) {
  DAR_ASSIGN_OR_RETURN(out.generation, reader.U64());
  DAR_ASSIGN_OR_RETURN(out.rows_ingested, reader.I64());
  DAR_ASSIGN_OR_RETURN(out.total_matching, reader.U32());
  DAR_ASSIGN_OR_RETURN(out.offset, reader.U32());
  DAR_ASSIGN_OR_RETURN(out.measure, reader.Str());
  DAR_ASSIGN_OR_RETURN(const uint32_t num_entries,
                       ReadPageCount(reader, "scored rule-list"));
  out.rules.clear();
  out.rules.reserve(num_entries);
  for (uint32_t i = 0; i < num_entries; ++i) {
    ScoredRuleListEntry& entry = out.rules.emplace_back();
    DAR_ASSIGN_OR_RETURN(entry.id, reader.U32());
    DAR_ASSIGN_OR_RETURN(entry.degree, reader.F64());
    DAR_ASSIGN_OR_RETURN(entry.support_count, reader.I64());
    DAR_ASSIGN_OR_RETURN(entry.score, reader.F64());
    DAR_ASSIGN_OR_RETURN(const uint8_t representative, reader.U8());
    entry.representative = representative != 0;
    DAR_ASSIGN_OR_RETURN(entry.antecedent_size, reader.U32());
    DAR_ASSIGN_OR_RETURN(entry.consequent_size, reader.U32());
    DAR_ASSIGN_OR_RETURN(entry.text, reader.Str());
  }
  return reader.ExpectEnd("scored rule-list response payload");
}

Status DecodeRuleDiffBody(persist::WireReader& reader,
                          RuleDiffResponse& out) {
  DAR_ASSIGN_OR_RETURN(out.old_generation, reader.U64());
  DAR_ASSIGN_OR_RETURN(out.new_generation, reader.U64());
  DAR_ASSIGN_OR_RETURN(out.rows_ingested, reader.I64());
  DAR_ASSIGN_OR_RETURN(out.born, reader.U32());
  DAR_ASSIGN_OR_RETURN(out.died, reader.U32());
  DAR_ASSIGN_OR_RETURN(out.drifted, reader.U32());
  DAR_ASSIGN_OR_RETURN(out.unchanged, reader.U32());
  DAR_ASSIGN_OR_RETURN(out.total_changed, reader.U32());
  DAR_ASSIGN_OR_RETURN(const uint32_t num_entries,
                       ReadPageCount(reader, "diff"));
  out.entries.clear();
  out.entries.reserve(num_entries);
  for (uint32_t i = 0; i < num_entries; ++i) {
    RuleDiffEntry& entry = out.entries.emplace_back();
    DAR_ASSIGN_OR_RETURN(entry.kind, reader.U8());
    DAR_ASSIGN_OR_RETURN(entry.rule_id, reader.U32());
    DAR_ASSIGN_OR_RETURN(entry.degree, reader.F64());
    DAR_ASSIGN_OR_RETURN(entry.interval_shift, reader.F64());
    DAR_ASSIGN_OR_RETURN(entry.text, reader.Str());
  }
  return reader.ExpectEnd("diff response payload");
}

}  // namespace dar::serve
