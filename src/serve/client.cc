#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

#include "serve/protocol.h"
#include "serve/socket_io.h"

namespace dar::serve {

Result<RuleClient> RuleClient::Connect(const std::string& host,
                                       uint16_t port,
                                       const std::string& tenant) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse IPv4 host \"" + host +
                                   "\"");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status = Status::IOError(
        "connect " + host + ":" + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  RuleClient client;
  client.fd_ = fd;
  if (!tenant.empty()) {
    const uint64_t id = client.next_request_id_++;
    EncodeHelloRequest(id, tenant, client.payload_);
    DAR_ASSIGN_OR_RETURN(persist::WireReader reader, client.RoundTrip(id));
    DAR_RETURN_IF_ERROR(reader.ExpectEnd("hello response payload"));
  }
  return client;
}

RuleClient& RuleClient::operator=(RuleClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    next_request_id_ = other.next_request_id_;
    payload_ = std::move(other.payload_);
    frame_ = std::move(other.frame_);
    inbuf_ = std::move(other.inbuf_);
    other.fd_ = -1;
  }
  return *this;
}

void RuleClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<persist::WireReader> RuleClient::RoundTrip(uint64_t request_id) {
  if (fd_ < 0) {
    return Status::IOError("client is not connected");
  }
  frame_.Clear();
  AppendFrame(payload_.bytes(), frame_);
  DAR_RETURN_IF_ERROR(WriteFull(fd_, frame_.bytes()));

  char lenbuf[4];
  DAR_RETURN_IF_ERROR(ReadFull(fd_, lenbuf, sizeof(lenbuf)));
  DAR_ASSIGN_OR_RETURN(
      const uint32_t length,
      DecodeFrameLength(std::string_view(lenbuf, sizeof(lenbuf))));
  inbuf_.resize(length);
  DAR_RETURN_IF_ERROR(ReadFull(fd_, inbuf_.data(), inbuf_.size()));

  persist::WireReader reader{std::string_view(inbuf_)};
  DAR_ASSIGN_OR_RETURN(const ResponseHeader header,
                       DecodeResponseHeader(reader));
  if (header.header.request_id != request_id) {
    return Status::Internal(
        "response id " + std::to_string(header.header.request_id) +
        " does not match request id " + std::to_string(request_id) +
        " (protocol desync)");
  }
  if (header.code != ServeCode::kOk) {
    return StatusFromServeCode(header.code, header.message);
  }
  return reader;
}

Status RuleClient::PointQuery(const PointQueryRequest& request,
                              PointQueryResponse& response) {
  const uint64_t id = next_request_id_++;
  EncodePointQueryRequest(id, request, payload_);
  DAR_ASSIGN_OR_RETURN(persist::WireReader reader, RoundTrip(id));
  return DecodePointQueryBody(reader, response);
}

Status RuleClient::ListRules(const RuleListRequest& request,
                             RuleListResponse& response) {
  const uint64_t id = next_request_id_++;
  EncodeRuleListRequest(id, request, payload_);
  DAR_ASSIGN_OR_RETURN(persist::WireReader reader, RoundTrip(id));
  return DecodeRuleListBody(reader, response);
}

Status RuleClient::SnapshotInfo(SnapshotInfoResponse& response) {
  const uint64_t id = next_request_id_++;
  EncodeSnapshotInfoRequest(id, payload_);
  DAR_ASSIGN_OR_RETURN(persist::WireReader reader, RoundTrip(id));
  return DecodeSnapshotInfoBody(reader, response);
}

Status RuleClient::ListRulesScored(const ScoredRuleListRequest& request,
                                   ScoredRuleListResponse& response) {
  const uint64_t id = next_request_id_++;
  EncodeScoredRuleListRequest(id, request, payload_);
  DAR_ASSIGN_OR_RETURN(persist::WireReader reader, RoundTrip(id));
  return DecodeScoredRuleListBody(reader, response);
}

Status RuleClient::Diff(const RuleDiffRequest& request,
                        RuleDiffResponse& response) {
  const uint64_t id = next_request_id_++;
  EncodeRuleDiffRequest(id, request, payload_);
  DAR_ASSIGN_OR_RETURN(persist::WireReader reader, RoundTrip(id));
  return DecodeRuleDiffBody(reader, response);
}

}  // namespace dar::serve
