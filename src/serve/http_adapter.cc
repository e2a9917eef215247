#include "serve/http_adapter.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "serve/protocol.h"
#include "telemetry/json.h"

namespace dar::serve {
namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

// The query parameters of one request ("a=1&b=2", the last of a repeated
// name wins). No %-decoding: values here are numbers, flags and measure
// names, which never need it.
class Params {
 public:
  explicit Params(std::string_view query) {
    size_t pos = 0;
    while (pos < query.size()) {
      size_t amp = query.find('&', pos);
      if (amp == std::string_view::npos) amp = query.size();
      const std::string_view pair = query.substr(pos, amp - pos);
      const size_t eq = pair.find('=');
      if (!pair.empty()) {
        values_[std::string(pair.substr(0, eq))] =
            eq == std::string_view::npos ? "" : pair.substr(eq + 1);
      }
      pos = amp + 1;
    }
  }

  // Null when absent.
  [[nodiscard]] const std::string* Find(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] bool Flag(const std::string& name) const {
    const std::string* value = Find(name);
    return value != nullptr && *value == "1";
  }
  // An absent or empty parameter leaves `out` as it is.
  Status U32(const std::string& name, uint32_t& out) const {
    const std::string* value = Find(name);
    if (value == nullptr || value->empty()) return Status::OK();
    const Result<int64_t> v = ParseInt(*value);
    if (!v.ok() || *v < 0 || *v > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("parameter " + name + "=\"" + *value +
                                     "\" is not a u32");
    }
    out = static_cast<uint32_t>(*v);
    return Status::OK();
  }
  // Sets `has` and `out` when the parameter is given.
  Status F64(const std::string& name, bool& has, double& out) const {
    const std::string* value = Find(name);
    if (value == nullptr || value->empty()) return Status::OK();
    const Result<double> v = ParseDouble(*value);
    if (!v.ok()) {
      return Status::InvalidArgument("parameter " + name + "=\"" + *value +
                                     "\" is not a number");
    }
    has = true;
    out = *v;
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
};

// Parses "1,2,3" or "[1, 2, 3]" into `values`.
Status ParseTupleList(std::string_view text, std::vector<double>& values) {
  std::string trimmed(text);
  std::erase_if(trimmed, [](unsigned char c) {
    return std::isspace(c) || c == '[' || c == ']';
  });
  values.clear();
  size_t pos = 0;
  while (pos < trimmed.size()) {
    size_t comma = trimmed.find(',', pos);
    if (comma == std::string::npos) comma = trimmed.size();
    const std::string token = trimmed.substr(pos, comma - pos);
    const Result<double> v = ParseDouble(token);
    if (!v.ok()) {
      return Status::InvalidArgument("cannot parse tuple value \"" + token +
                                     "\"");
    }
    values.push_back(*v);
    pos = comma + 1;
  }
  if (values.empty()) {
    return Status::InvalidArgument(
        "empty tuple; pass ?tuple=v1,v2,... or a body like [v1,v2,...]");
  }
  return Status::OK();
}

// Turns an HTTP request into the binary protocol's request: the only code
// that knows the endpoints and their parameters. A point query's tuple
// lands in `tuple`, which the result views.
Result<Request> Route(const HttpRequest& http, std::vector<double>& tuple) {
  const Params params(http.query);
  const bool get = http.method == "GET";
  const std::string* measure = params.Find("measure");
  Request request;
  if (http.path == "/v1/info" && get) {
    request.header.method = Method::kSnapshotInfo;
  } else if (http.path == "/v1/rules" && get && measure != nullptr &&
             !measure->empty()) {
    // A measure switches to the scored listing: the quality layer's
    // ranking and filtering on top.
    request.header.method = Method::kListRulesScored;
    ScoredRuleListRequest& scored = request.scored;
    scored.measure = *measure;
    DAR_RETURN_IF_ERROR(params.U32("offset", scored.offset));
    DAR_RETURN_IF_ERROR(params.U32("limit", scored.limit));
    DAR_RETURN_IF_ERROR(params.F64("min", scored.has_min, scored.min_score));
    DAR_RETURN_IF_ERROR(params.F64("max", scored.has_max, scored.max_score));
    scored.include_text = params.Flag("text");
    scored.include_pruned = params.Flag("pruned");
  } else if (http.path == "/v1/rules" && get) {
    request.header.method = Method::kListRules;
    DAR_RETURN_IF_ERROR(params.U32("offset", request.list.offset));
    DAR_RETURN_IF_ERROR(params.U32("limit", request.list.limit));
    request.list.include_text = params.Flag("text");
  } else if (http.path == "/v1/query" && (get || http.method == "POST")) {
    request.header.method = Method::kPointQuery;
    const std::string* text = params.Find("tuple");
    if (text == nullptr && http.body.empty()) {
      return Status::InvalidArgument(
          "missing tuple: pass ?tuple=v1,v2,... or a request body");
    }
    DAR_RETURN_IF_ERROR(
        ParseTupleList(text != nullptr ? *text : http.body, tuple));
    request.point.tuple = tuple;
    DAR_RETURN_IF_ERROR(params.U32("max_rules", request.point.max_rules));
  } else if (http.path == "/v1/diff" && get) {
    request.header.method = Method::kDiff;
    DAR_RETURN_IF_ERROR(params.U32("limit", request.diff.limit));
    request.diff.include_text = params.Flag("text");
  } else {
    return Status::NotFound(
        "no endpoint " + http.method + " " + http.path +
        "; serving /v1/info, /v1/rules, /v1/query, /v1/diff");
  }
  return request;
}

struct HttpStatus {
  int code;
  const char* reason;
};

// The HTTP status of `code`; a code past kInternal reads as kInternal.
const HttpStatus& HttpStatusOf(ServeCode code) {
  static constexpr HttpStatus kByServeCode[] = {
      {200, "OK"},
      {400, "Bad Request"},
      {404, "Not Found"},
      {503, "Service Unavailable"},
      {429, "Too Many Requests"},
      {500, "Internal Server Error"},
  };
  return kByServeCode[std::min(static_cast<size_t>(code),
                               std::size(kByServeCode) - 1)];
}

// The complete HTTP/1.1 response around a JSON body.
std::string MakeResponse(ServeCode code, const std::string& json_body) {
  const HttpStatus& status = HttpStatusOf(code);
  std::string out = "HTTP/1.1 " + std::to_string(status.code) + " " +
                    status.reason + "\r\n";
  out += "Content-Type: application/json\r\n";
  out += "Content-Length: " + std::to_string(json_body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += json_body;
  return out;
}

}  // namespace

std::string_view HttpRequest::Header(std::string_view name) const {
  auto it = headers.find(ToLower(name));
  if (it == headers.end()) return {};
  return it->second;
}

Result<HttpRequest> ParseHttpRequest(std::string_view text) {
  HttpRequest request;
  const size_t head_end = text.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return Status::InvalidArgument("HTTP request head is not terminated");
  }
  std::string_view head = text.substr(0, head_end);
  request.body = std::string(text.substr(head_end + 4));

  const size_t line_end = head.find("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return Status::InvalidArgument("malformed HTTP request line");
  }
  request.method = std::string(request_line.substr(0, sp1));
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t qmark = target.find('?');
  if (qmark == std::string_view::npos) {
    request.path = std::string(target);
  } else {
    request.path = std::string(target.substr(0, qmark));
    request.query = std::string(target.substr(qmark + 1));
  }

  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view line = head.substr(pos, eol - pos);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("malformed HTTP header line \"" +
                                     std::string(line) + "\"");
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    request.headers[ToLower(line.substr(0, colon))] = std::string(value);
    pos = eol + 2;
  }
  return request;
}

int HttpStatusForServeCode(ServeCode code) { return HttpStatusOf(code).code; }

std::string MakeHttpErrorResponse(ServeCode code, std::string_view message) {
  telemetry::JsonWriter json;
  json.BeginObject();
  json.Key("error");
  json.String(ServeCodeName(code));
  json.Key("message");
  json.String(std::string(message));
  json.EndObject();
  return MakeResponse(code, json.str());
}

std::string HandleHttpRequest(const QueryService& service,
                              const HttpRequest& request,
                              AdmissionController* admission) {
  std::vector<double> tuple;
  const Result<Request> routed = Route(request, tuple);
  Status status = routed.status();
  // Only a routed request is admitted, and answered under its ticket.
  Result<AdmissionController::Ticket> ticket = AdmissionController::Ticket();
  if (status.ok() && admission != nullptr) {
    ticket = admission->Admit(request.Header("x-tenant"));
    status = ticket.status();
  }
  telemetry::JsonWriter json;
  if (status.ok()) status = Dispatcher(service).Answer(*routed, json);
  if (!status.ok()) {
    return MakeHttpErrorResponse(ServeCodeFromStatus(status), status.message());
  }
  return MakeResponse(ServeCode::kOk, json.str());
}

}  // namespace dar::serve
