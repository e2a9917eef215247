// dar::serve: the versioned QueryService facade (point queries, listings,
// snapshot metadata — all single-generation consistent), the framed binary
// protocol's encode/decode round trips and corruption handling, admission
// quotas, the TCP server end-to-end in both dialects, and snapshot
// hot-swap under concurrent load including a RestoreCheckpoint warm-start
// swap (run under -DDAR_SANITIZE=thread via `ctest -L tsan`).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/session.h"
#include "datagen/planted.h"
#include "persist/wire.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/http_adapter.h"
#include "serve/protocol.h"
#include "serve/query_api.h"
#include "serve/query_service.h"
#include "serve/server.h"
#include "stream/rule_index.h"
#include "stream/rule_snapshot.h"
#include "stream/streaming_miner.h"
#include "stream_test_peer.h"
#include "test_util.h"

namespace dar {
namespace {

PlantedDataset TestData(size_t rows = 3000) {
  PlantedDataSpec spec = WbcdLikeSpec(/*num_attrs=*/4, /*clusters_per_attr=*/3,
                                      /*outlier_fraction=*/0.05, /*seed=*/31);
  auto data = GeneratePlanted(spec, rows, 32);
  EXPECT_TRUE(data.ok()) << data.status();
  return *std::move(data);
}

DarConfig TestConfig() {
  DarConfig config;
  config.frequency_fraction = 0.05;
  config.initial_diameters.assign(4, 80.0);
  config.degree_threshold = 150.0;
  config.count_rule_support = false;
  return config;
}

Result<Session> TestSession(int threads = 1) {
  return Session::Builder()
      .WithConfig(TestConfig())
      .WithThreads(threads)
      .Build();
}

// A stream fed `rows` tuples with one published snapshot, plus the
// service bound to it.
struct ServedStream {
  Session session;
  PlantedDataset data;
  std::unique_ptr<StreamingMiner> stream;
};

// Explicit-Remine-only cadence: tests publish generations themselves so
// snapshot contents are fully deterministic.
StreamConfig ManualCadence() {
  StreamConfig config;
  config.remine_every_rows = 0;
  return config;
}

ServedStream MakeServedStream(size_t rows = 3000) {
  auto session = TestSession();
  EXPECT_TRUE(session.ok()) << session.status();
  auto data = TestData(rows);
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    ManualCadence());
  EXPECT_TRUE(stream.ok()) << stream.status();
  EXPECT_TRUE((*stream)->Ingest(data.relation).ok());
  auto snap = (*stream)->Remine();
  EXPECT_TRUE(snap.ok()) << snap.status();
  return ServedStream{*std::move(session), std::move(data),
                      std::move(*stream)};
}

// ---------------------------------------------------------------------
// ServeCode mapping

TEST(ServeCodeTest, StatusRoundTrip) {
  EXPECT_EQ(ServeCodeFromStatus(Status::OK()), ServeCode::kOk);
  EXPECT_EQ(ServeCodeFromStatus(Status::InvalidArgument("x")),
            ServeCode::kInvalidRequest);
  EXPECT_EQ(ServeCodeFromStatus(Status::OutOfRange("x")),
            ServeCode::kInvalidRequest);
  EXPECT_EQ(ServeCodeFromStatus(Status::NotFound("x")), ServeCode::kNotFound);
  EXPECT_EQ(ServeCodeFromStatus(Status::Unavailable("x")),
            ServeCode::kUnavailable);
  EXPECT_EQ(ServeCodeFromStatus(Status::ResourceExhausted("x")),
            ServeCode::kOverloaded);
  EXPECT_EQ(ServeCodeFromStatus(Status::Internal("x")), ServeCode::kInternal);
  EXPECT_EQ(ServeCodeFromStatus(Status::IOError("x")), ServeCode::kInternal);

  for (ServeCode code :
       {ServeCode::kInvalidRequest, ServeCode::kNotFound,
        ServeCode::kUnavailable, ServeCode::kOverloaded,
        ServeCode::kInternal}) {
    const Status status = StatusFromServeCode(code, "m");
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(ServeCodeFromStatus(status), code);
    EXPECT_EQ(status.message(), "m");
  }
  EXPECT_TRUE(StatusFromServeCode(ServeCode::kOk, "").ok());
  EXPECT_STREQ(ServeCodeName(ServeCode::kOverloaded), "overloaded");
}

// ---------------------------------------------------------------------
// Protocol round trips

TEST(ProtocolTest, PointQueryRequestRoundTrip) {
  const std::vector<double> tuple = {1.5, -2.0, 3.25};
  PointQueryRequest request;
  request.tuple = tuple;
  request.max_rules = 7;
  persist::WireWriter payload;
  serve::EncodePointQueryRequest(42, request, payload);

  std::vector<double> scratch;
  auto decoded = serve::DecodeRequest(payload.bytes(), scratch);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.method, serve::Method::kPointQuery);
  EXPECT_EQ(decoded->header.request_id, 42u);
  EXPECT_EQ(decoded->point.max_rules, 7u);
  ASSERT_EQ(decoded->point.tuple.size(), tuple.size());
  for (size_t i = 0; i < tuple.size(); ++i) {
    EXPECT_EQ(decoded->point.tuple[i], tuple[i]);
  }
}

TEST(ProtocolTest, HelloAndListAndInfoRoundTrip) {
  persist::WireWriter payload;
  std::vector<double> scratch;

  serve::EncodeHelloRequest(1, "tenant-a", payload);
  auto hello = serve::DecodeRequest(payload.bytes(), scratch);
  ASSERT_TRUE(hello.ok()) << hello.status();
  EXPECT_EQ(hello->header.method, serve::Method::kHello);
  EXPECT_EQ(hello->tenant, "tenant-a");

  RuleListRequest list;
  list.offset = 10;
  list.limit = 5;
  list.include_text = true;
  serve::EncodeRuleListRequest(2, list, payload);
  auto decoded_list = serve::DecodeRequest(payload.bytes(), scratch);
  ASSERT_TRUE(decoded_list.ok()) << decoded_list.status();
  EXPECT_EQ(decoded_list->list.offset, 10u);
  EXPECT_EQ(decoded_list->list.limit, 5u);
  EXPECT_TRUE(decoded_list->list.include_text);

  serve::EncodeSnapshotInfoRequest(3, payload);
  auto info = serve::DecodeRequest(payload.bytes(), scratch);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->header.method, serve::Method::kSnapshotInfo);
}

TEST(ProtocolTest, ResponseRoundTrips) {
  serve::RequestHeader header;
  header.method = serve::Method::kPointQuery;
  header.request_id = 99;

  PointQueryResponse point;
  point.generation = 5;
  point.rows_ingested = 1234;
  point.clusters = {1, 4, 9};
  point.rules = {0, 2};
  point.total_rule_matches = 6;
  persist::WireWriter payload;
  serve::EncodePointQueryResponse(header, point, payload);
  {
    persist::WireReader reader{std::string_view(payload.bytes())};
    auto decoded_header = serve::DecodeResponseHeader(reader);
    ASSERT_TRUE(decoded_header.ok()) << decoded_header.status();
    EXPECT_EQ(decoded_header->code, ServeCode::kOk);
    EXPECT_EQ(decoded_header->header.request_id, 99u);
    PointQueryResponse out;
    ASSERT_TRUE(serve::DecodePointQueryBody(reader, out).ok());
    EXPECT_EQ(out.generation, 5u);
    EXPECT_EQ(out.rows_ingested, 1234);
    EXPECT_EQ(out.clusters, point.clusters);
    EXPECT_EQ(out.rules, point.rules);
    EXPECT_EQ(out.total_rule_matches, 6u);
  }

  RuleListResponse list;
  list.generation = 5;
  list.rows_ingested = 1234;
  list.total_rules = 40;
  list.offset = 2;
  RuleListEntry entry;
  entry.id = 2;
  entry.degree = 0.5;
  entry.support_count = -1;
  entry.antecedent_size = 1;
  entry.consequent_size = 2;
  entry.text = "[A] => [B C]";
  list.rules.push_back(entry);
  header.method = serve::Method::kListRules;
  serve::EncodeRuleListResponse(header, list, payload);
  {
    persist::WireReader reader{std::string_view(payload.bytes())};
    auto decoded_header = serve::DecodeResponseHeader(reader);
    ASSERT_TRUE(decoded_header.ok()) << decoded_header.status();
    RuleListResponse out;
    ASSERT_TRUE(serve::DecodeRuleListBody(reader, out).ok());
    EXPECT_EQ(out.total_rules, 40u);
    ASSERT_EQ(out.rules.size(), 1u);
    EXPECT_EQ(out.rules[0].text, entry.text);
    EXPECT_EQ(out.rules[0].degree, entry.degree);
  }

  SnapshotInfoResponse info;
  info.generation = 9;
  info.rows_ingested = 777;
  info.num_clusters = 12;
  info.num_rules = 34;
  info.has_index = true;
  header.method = serve::Method::kSnapshotInfo;
  serve::EncodeSnapshotInfoResponse(header, info, payload);
  {
    persist::WireReader reader{std::string_view(payload.bytes())};
    auto decoded_header = serve::DecodeResponseHeader(reader);
    ASSERT_TRUE(decoded_header.ok()) << decoded_header.status();
    SnapshotInfoResponse out;
    ASSERT_TRUE(serve::DecodeSnapshotInfoBody(reader, out).ok());
    EXPECT_EQ(out.api_version, kQueryApiVersion);
    EXPECT_EQ(out.generation, 9u);
    EXPECT_TRUE(out.has_index);
  }
}

TEST(ProtocolTest, ErrorResponseRoundTrip) {
  serve::RequestHeader header;
  header.method = serve::Method::kPointQuery;
  header.request_id = 7;
  persist::WireWriter payload;
  serve::EncodeErrorResponse(header, ServeCode::kOverloaded, "busy", payload);
  persist::WireReader reader{std::string_view(payload.bytes())};
  auto decoded = serve::DecodeResponseHeader(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->code, ServeCode::kOverloaded);
  EXPECT_EQ(decoded->message, "busy");
  EXPECT_EQ(reader.remaining(), 0u);
}

// ---------------------------------------------------------------------
// Pinned bytes: fixed requests and responses, every field off its default
// and every listing with two entries, encode to the payloads below, and
// decoding and re-encoding gives them back. The constants are the wire
// layout: a codec change that moves, resizes or drops a byte fails here.

TEST(ProtocolTest, PinnedRequestBytes) {
  persist::WireWriter payload;
  persist::WireWriter again;
  std::vector<double> scratch;

  RuleListRequest list;
  list.offset = 10;
  list.limit = 5;
  list.include_text = true;
  serve::EncodeRuleListRequest(2, list, payload);
  EXPECT_EQ(testutil::Hex(payload.bytes()),
            "010000000302000000000000000a0000000500000001");
  auto decoded = serve::DecodeRequest(payload.bytes(), scratch);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  serve::EncodeRuleListRequest(2, decoded->list, again);
  EXPECT_EQ(again.bytes(), payload.bytes());

  ScoredRuleListRequest scored;
  scored.offset = 4;
  scored.limit = 9;
  scored.include_text = true;
  scored.measure = "lift";
  scored.has_min = true;
  scored.min_score = 1.5;
  scored.has_max = true;
  scored.max_score = 3.0;
  scored.include_pruned = true;
  serve::EncodeScoredRuleListRequest(11, scored, payload);
  EXPECT_EQ(testutil::Hex(payload.bytes()),
            "01000000050b00000000000000040000000900000001040000006c6966740100"
            "0000000000f83f01000000000000084001");
  decoded = serve::DecodeRequest(payload.bytes(), scratch);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  serve::EncodeScoredRuleListRequest(11, decoded->scored, again);
  EXPECT_EQ(again.bytes(), payload.bytes());

  RuleDiffRequest diff;
  diff.limit = 17;
  diff.include_text = true;
  serve::EncodeRuleDiffRequest(12, diff, payload);
  EXPECT_EQ(testutil::Hex(payload.bytes()),
            "01000000060c000000000000001100000001");
  decoded = serve::DecodeRequest(payload.bytes(), scratch);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  serve::EncodeRuleDiffRequest(12, decoded->diff, again);
  EXPECT_EQ(again.bytes(), payload.bytes());
}

// Decodes `payload`'s response header, then its body through `decode`.
template <class Response, class Decode>
Response DecodeResponse(const std::string& payload, Decode decode) {
  persist::WireReader reader{std::string_view(payload)};
  auto header = serve::DecodeResponseHeader(reader);
  EXPECT_TRUE(header.ok()) << header.status();
  Response out;
  const Status status = decode(reader, out);
  EXPECT_TRUE(status.ok()) << status;
  return out;
}

TEST(ProtocolTest, PinnedResponseBytes) {
  serve::RequestHeader header;
  header.request_id = 99;
  persist::WireWriter payload;
  persist::WireWriter again;

  PointQueryResponse point;
  point.generation = 5;
  point.rows_ingested = 1234;
  point.clusters = {1, 4, 9};
  point.rules = {0, 2};
  point.total_rule_matches = 6;
  header.method = serve::Method::kPointQuery;
  serve::EncodePointQueryResponse(header, point, payload);
  EXPECT_EQ(testutil::Hex(payload.bytes()),
            "01000000026300000000000000000500000000000000d2040000000000000600"
            "000003000000010000000400000009000000020000000000000002000000");
  serve::EncodePointQueryResponse(
      header,
      DecodeResponse<PointQueryResponse>(payload.bytes(),
                                         serve::DecodePointQueryBody),
      again);
  EXPECT_EQ(again.bytes(), payload.bytes());

  RuleListResponse list;
  list.generation = 5;
  list.rows_ingested = 1234;
  list.total_rules = 40;
  list.offset = 2;
  list.rules.resize(2);
  list.rules[0] = {2, 0.5, -1, 1, 2, "[A] => [B C]"};
  list.rules[1] = {3, 0.75, 17, 2, 1, "[A B] => [C]"};
  header.method = serve::Method::kListRules;
  serve::EncodeRuleListResponse(header, list, payload);
  EXPECT_EQ(testutil::Hex(payload.bytes()),
            "01000000036300000000000000000500000000000000d2040000000000002800"
            "0000020000000200000002000000000000000000e03fffffffffffffffff0100"
            "0000020000000c0000005b415d203d3e205b4220435d03000000000000000000"
            "e83f110000000000000002000000010000000c0000005b4120425d203d3e205b"
            "435d");
  serve::EncodeRuleListResponse(
      header,
      DecodeResponse<RuleListResponse>(payload.bytes(),
                                       serve::DecodeRuleListBody),
      again);
  EXPECT_EQ(again.bytes(), payload.bytes());

  SnapshotInfoResponse info;
  info.generation = 9;
  info.rows_ingested = 777;
  info.num_clusters = 12;
  info.num_rules = 34;
  info.has_index = true;
  header.method = serve::Method::kSnapshotInfo;
  serve::EncodeSnapshotInfoResponse(header, info, payload);
  EXPECT_EQ(testutil::Hex(payload.bytes()),
            "0100000004630000000000000000010000000900000000000000090300000000"
            "00000c00000000000000220000000000000001");
  serve::EncodeSnapshotInfoResponse(
      header,
      DecodeResponse<SnapshotInfoResponse>(payload.bytes(),
                                           serve::DecodeSnapshotInfoBody),
      again);
  EXPECT_EQ(again.bytes(), payload.bytes());

  ScoredRuleListResponse scored;
  scored.generation = 3;
  scored.rows_ingested = 64;
  scored.total_matching = 2;
  scored.offset = 1;
  scored.measure = "conviction";
  scored.rules.resize(2);
  scored.rules[0] = {7, 0.25, 12, 4.5, false, 2, 1, "[A B] => [C]"};
  scored.rules[1] = {8, 0.125, 30, 1.5, true, 1, 1, "[A] => [C]"};
  header.method = serve::Method::kListRulesScored;
  serve::EncodeScoredRuleListResponse(header, scored, payload);
  EXPECT_EQ(testutil::Hex(payload.bytes()),
            "0100000005630000000000000000030000000000000040000000000000000200"
            "0000010000000a000000636f6e76696374696f6e020000000700000000000000"
            "0000d03f0c0000000000000000000000000012400002000000010000000c0000"
            "005b4120425d203d3e205b435d08000000000000000000c03f1e000000000000"
            "00000000000000f83f0101000000010000000a0000005b415d203d3e205b435d");
  serve::EncodeScoredRuleListResponse(
      header,
      DecodeResponse<ScoredRuleListResponse>(payload.bytes(),
                                             serve::DecodeScoredRuleListBody),
      again);
  EXPECT_EQ(again.bytes(), payload.bytes());

  RuleDiffResponse diff;
  diff.old_generation = 2;
  diff.new_generation = 3;
  diff.rows_ingested = 64;
  diff.born = 1;
  diff.died = 1;
  diff.drifted = 1;
  diff.unchanged = 5;
  diff.total_changed = 3;
  diff.entries = {{2, 4, 0.5, 0.0, "[A] => [B]"},
                  {1, 2, 0.25, 0.75, "[B] => [C]"},
                  {3, 9, 1.0, 0.0, ""}};
  header.method = serve::Method::kDiff;
  serve::EncodeRuleDiffResponse(header, diff, payload);
  EXPECT_EQ(testutil::Hex(payload.bytes()),
            "0100000006630000000000000000020000000000000003000000000000004000"
            "0000000000000100000001000000010000000500000003000000030000000204"
            "000000000000000000e03f00000000000000000a0000005b415d203d3e205b42"
            "5d0102000000000000000000d03f000000000000e83f0a0000005b425d203d3e"
            "205b435d0309000000000000000000f03f000000000000000000000000");
  serve::EncodeRuleDiffResponse(
      header,
      DecodeResponse<RuleDiffResponse>(payload.bytes(),
                                       serve::DecodeRuleDiffBody),
      again);
  EXPECT_EQ(again.bytes(), payload.bytes());
}

TEST(ProtocolTest, BooleanBytesOtherThanZeroOrOneAreRefused) {
  // A boolean travels as one byte, 0 or 1; any other value is a corrupt
  // or hostile payload, in a request and in a response alike.
  persist::WireWriter payload;
  RuleListRequest list;
  list.include_text = true;
  serve::EncodeRuleListRequest(1, list, payload);
  std::string request(payload.bytes());
  ASSERT_EQ(request.back(), 1);  // include_text is the last byte
  request.back() = 2;
  std::vector<double> scratch;
  auto decoded = serve::DecodeRequest(request, scratch);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();

  serve::RequestHeader header;
  header.method = serve::Method::kSnapshotInfo;
  SnapshotInfoResponse info;
  info.has_index = true;
  serve::EncodeSnapshotInfoResponse(header, info, payload);
  std::string response(payload.bytes());
  ASSERT_EQ(response.back(), 1);  // has_index is the last byte
  response.back() = 2;
  persist::WireReader reader{std::string_view(response)};
  ASSERT_TRUE(serve::DecodeResponseHeader(reader).ok());
  SnapshotInfoResponse out;
  const Status status = serve::DecodeSnapshotInfoBody(reader, out);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
}

TEST(ProtocolTest, PointQueryIdCountsAreBoundedByTheFrame) {
  // A response body that claims 2^24 cluster (then rule) ids and carries
  // none must fail before the decoder reserves more ids than a frame
  // could hold, at 4 bytes each.
  for (const bool claim_rules : {false, true}) {
    persist::WireWriter body;
    body.U64(1);   // generation
    body.I64(10);  // rows_ingested
    body.U32(0);   // total_rule_matches
    body.U32(claim_rules ? 0 : uint32_t{1} << 24);  // cluster ids
    if (claim_rules) body.U32(uint32_t{1} << 24);   // rule ids
    persist::WireReader reader{std::string_view(body.bytes())};
    PointQueryResponse out;
    EXPECT_FALSE(serve::DecodePointQueryBody(reader, out).ok());
    EXPECT_LE(out.clusters.capacity(), serve::kMaxFrameBytes / 4);
    EXPECT_LE(out.rules.capacity(), serve::kMaxFrameBytes / 4);
  }
}

// Checks one listing's entry-count bounds; `entries` is its entry list and
// `entry` a valid entry with empty text.
template <class Response, class Entries>
void CheckListingCountBounds(
    serve::Method method, Entries Response::*entries,
    void (*encode)(const serve::RequestHeader&, const Response&,
                   persist::WireWriter&),
    Status (*decode)(persist::WireReader&, Response&),
    const typename Entries::value_type& entry = {}) {
  serve::RequestHeader header;
  header.method = method;
  persist::WireWriter payload;
  // Entries with empty text sit exactly at the per-entry byte floor.
  Response at_floor;
  (at_floor.*entries).resize(2, entry);
  encode(header, at_floor, payload);
  EXPECT_EQ((DecodeResponse<Response>(payload.bytes(), decode).*entries).size(),
            2u);
  // With no entries the count is the body's last field; claim more. Past
  // the page cap is InvalidArgument, within it the missing bytes are
  // OutOfRange, and neither reserves an entry.
  encode(header, Response{}, payload);
  for (const uint32_t claimed : {std::numeric_limits<uint32_t>::max(),
                                 kMaxRuleListLimit + 1, kMaxRuleListLimit}) {
    std::string bytes = payload.bytes();
    for (size_t i = 0; i < 4; ++i) {
      bytes[bytes.size() - 4 + i] = static_cast<char>(claimed >> (8 * i));
    }
    persist::WireReader reader{std::string_view(bytes)};
    ASSERT_TRUE(serve::DecodeResponseHeader(reader).ok());
    Response out;
    const Status status = decode(reader, out);
    EXPECT_EQ(status.code(), claimed > kMaxRuleListLimit
                                 ? StatusCode::kInvalidArgument
                                 : StatusCode::kOutOfRange)
        << claimed << ": " << status;
    EXPECT_EQ((out.*entries).capacity(), 0u) << claimed;
  }
}

TEST(ProtocolTest, ListingCountsAreBoundedBeforeReserving) {
  CheckListingCountBounds(serve::Method::kListRules, &RuleListResponse::rules,
                          serve::EncodeRuleListResponse,
                          serve::DecodeRuleListBody);
  CheckListingCountBounds(serve::Method::kListRulesScored,
                          &ScoredRuleListResponse::rules,
                          serve::EncodeScoredRuleListResponse,
                          serve::DecodeScoredRuleListBody);
  RuleDiffEntry drifted;
  drifted.kind = 1;
  CheckListingCountBounds(serve::Method::kDiff, &RuleDiffResponse::entries,
                          serve::EncodeRuleDiffResponse,
                          serve::DecodeRuleDiffBody, drifted);
}

TEST(ProtocolTest, CorruptionIsRejectedCleanly) {
  std::vector<double> scratch;
  // Truncated payload.
  {
    persist::WireWriter payload;
    PointQueryRequest request;
    const std::vector<double> tuple = {1, 2, 3};
    request.tuple = tuple;
    serve::EncodePointQueryRequest(1, request, payload);
    const std::string whole = payload.bytes();
    for (size_t cut : {size_t{0}, size_t{4}, size_t{12}, whole.size() - 1}) {
      auto decoded =
          serve::DecodeRequest(std::string_view(whole).substr(0, cut),
                               scratch);
      EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    }
    // Trailing garbage after a well-formed request.
    auto decoded = serve::DecodeRequest(whole + "x", scratch);
    EXPECT_FALSE(decoded.ok());
  }
  // Version skew.
  {
    persist::WireWriter payload;
    payload.U32(kQueryApiVersion + 1);
    payload.U8(2);
    payload.U64(1);
    auto decoded = serve::DecodeRequest(payload.bytes(), scratch);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsInvalidArgument());
  }
  // Unknown method.
  {
    persist::WireWriter payload;
    payload.U32(kQueryApiVersion);
    payload.U8(200);
    payload.U64(1);
    auto decoded = serve::DecodeRequest(payload.bytes(), scratch);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsInvalidArgument());
  }
  // Oversized frame length prefix.
  {
    persist::WireWriter frame;
    frame.U32(serve::kMaxFrameBytes + 1);
    auto length = serve::DecodeFrameLength(frame.bytes());
    ASSERT_FALSE(length.ok());
    EXPECT_TRUE(length.status().IsInvalidArgument());
  }
  // Tuple count above the cap.
  {
    persist::WireWriter payload;
    payload.U32(kQueryApiVersion);
    payload.U8(2);
    payload.U64(1);
    payload.U32(0);  // max_rules
    payload.U32(serve::kMaxTupleValues + 1);
    auto decoded = serve::DecodeRequest(payload.bytes(), scratch);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsInvalidArgument());
  }
}

// ---------------------------------------------------------------------
// Admission control

TEST(AdmissionTest, GlobalConcurrencyLimit) {
  serve::AdmissionConfig config;
  config.max_concurrent = 2;
  config.max_per_tenant = 0;
  serve::AdmissionController admission(config);

  auto t1 = admission.Admit("a");
  auto t2 = admission.Admit("b");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(admission.in_flight(), 2u);
  auto t3 = admission.Admit("c");
  ASSERT_FALSE(t3.ok());
  EXPECT_TRUE(t3.status().IsResourceExhausted());
  EXPECT_EQ(admission.shed_count(), 1u);

  // Releasing a ticket restores capacity.
  *t1 = serve::AdmissionController::Ticket();
  auto t4 = admission.Admit("c");
  EXPECT_TRUE(t4.ok());
  EXPECT_EQ(admission.in_flight(), 2u);
}

TEST(AdmissionTest, PerTenantLimitIsIndependent) {
  serve::AdmissionConfig config;
  config.max_concurrent = 0;
  config.max_per_tenant = 1;
  serve::AdmissionController admission(config);

  auto a1 = admission.Admit("a");
  ASSERT_TRUE(a1.ok());
  auto a2 = admission.Admit("a");
  EXPECT_FALSE(a2.ok());
  // Another tenant is unaffected.
  auto b1 = admission.Admit("b");
  EXPECT_TRUE(b1.ok());
  // The anonymous tenant "" has its own quota too.
  auto anon = admission.Admit("");
  EXPECT_TRUE(anon.ok());
}

TEST(AdmissionTest, LifetimeQuota) {
  serve::AdmissionConfig config;
  config.max_concurrent = 0;
  config.max_per_tenant = 0;
  config.max_tenant_requests = 2;
  serve::AdmissionController admission(config);

  for (int i = 0; i < 2; ++i) {
    auto ticket = admission.Admit("a");
    EXPECT_TRUE(ticket.ok()) << i;
  }
  // Quota is lifetime: released tickets do not refill it.
  auto third = admission.Admit("a");
  EXPECT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsResourceExhausted());
  // Other tenants unaffected.
  EXPECT_TRUE(admission.Admit("b").ok());
}

TEST(AdmissionTest, PerTenantQuotaExactlyAtLimit) {
  serve::AdmissionConfig config;
  config.max_concurrent = 0;
  config.max_per_tenant = 3;
  serve::AdmissionController admission(config);

  // Fill the tenant's budget to exactly the limit — all must be admitted.
  std::vector<serve::AdmissionController::Ticket> held;
  for (int i = 0; i < 3; ++i) {
    auto ticket = admission.Admit("a");
    ASSERT_TRUE(ticket.ok()) << "ticket " << i << " at the limit boundary";
    held.push_back(std::move(*ticket));
  }
  EXPECT_EQ(admission.in_flight(), 3u);

  // One past the limit sheds; the shed must not disturb held tickets.
  auto over = admission.Admit("a");
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsResourceExhausted());
  EXPECT_EQ(admission.in_flight(), 3u);
  EXPECT_EQ(admission.shed_count(), 1u);

  // A different tenant still has its full budget.
  EXPECT_TRUE(admission.Admit("b").ok());

  // Releasing exactly one slot re-opens exactly one admission.
  held.pop_back();
  auto reopened = admission.Admit("a");
  EXPECT_TRUE(reopened.ok());
  EXPECT_FALSE(admission.Admit("a").ok());
}

TEST(AdmissionTest, LifetimeQuotaExhaustionMidBurst) {
  serve::AdmissionConfig config;
  config.max_concurrent = 0;
  config.max_per_tenant = 2;
  config.max_tenant_requests = 3;
  serve::AdmissionController admission(config);

  // Burst past the per-tenant in-flight cap while the lifetime quota is
  // still open: the shed is a per-tenant shed and must NOT consume the
  // lifetime budget.
  auto t1 = admission.Admit("a");
  auto t2 = admission.Admit("a");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_FALSE(admission.Admit("a").ok());  // in-flight shed, not lifetime

  // Release the burst; one unit of lifetime quota must remain.
  *t1 = serve::AdmissionController::Ticket();
  *t2 = serve::AdmissionController::Ticket();
  EXPECT_EQ(admission.in_flight(), 0u);
  EXPECT_TRUE(admission.Admit("a").ok());

  // Lifetime quota is now exhausted and stays exhausted with zero
  // in-flight requests.
  EXPECT_EQ(admission.in_flight(), 0u);
  auto exhausted = admission.Admit("a");
  ASSERT_FALSE(exhausted.ok());
  EXPECT_TRUE(exhausted.status().IsResourceExhausted());

  // Other tenants have independent lifetime budgets.
  EXPECT_TRUE(admission.Admit("b").ok());
}

TEST(AdmissionTest, TicketReleasesOnExceptionPath) {
  serve::AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_per_tenant = 0;
  serve::AdmissionController admission(config);

  // A handler that throws after admission must still release its slot:
  // the Ticket is RAII, so stack unwinding runs its destructor.
  try {
    auto ticket = admission.Admit("a");
    ASSERT_TRUE(ticket.ok());
    EXPECT_EQ(admission.in_flight(), 1u);
    throw std::runtime_error("handler failure");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(admission.in_flight(), 0u);

  // The freed slot is immediately admittable again.
  auto after = admission.Admit("a");
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(admission.in_flight(), 1u);
}

// ---------------------------------------------------------------------
// QueryService

TEST(QueryServiceTest, UnboundAndPrePublicationStates) {
  QueryService service;
  EXPECT_FALSE(service.bound());
  PointQueryResponse hits;
  PointQueryRequest query;
  const std::vector<double> tuple = {0, 0, 0, 0};
  query.tuple = tuple;
  Status status = service.PointQuery(query, hits);
  EXPECT_TRUE(status.IsUnavailable()) << status;
  SnapshotInfoResponse info;
  EXPECT_TRUE(service.SnapshotInfo(info).IsUnavailable());

  // Bound to a stream that has not published: point queries stay
  // unavailable, but SnapshotInfo becomes the readiness probe.
  auto session = TestSession();
  ASSERT_TRUE(session.ok()) << session.status();
  auto data = TestData(500);
  auto stream = session->OpenStream(data.relation.schema(), data.partition);
  ASSERT_TRUE(stream.ok()) << stream.status();
  service.AttachStream(**stream);
  EXPECT_TRUE(service.bound());
  status = service.PointQuery(query, hits);
  EXPECT_TRUE(status.IsUnavailable()) << status;
  ASSERT_TRUE(service.SnapshotInfo(info).ok());
  EXPECT_EQ(info.generation, 0u);
  EXPECT_FALSE(info.has_index);
}

TEST(QueryServiceTest, PointQueryMatchesDirectIndexQuery) {
  ServedStream served = MakeServedStream();
  QueryService service;
  service.AttachStream(*served.stream);

  PointQueryResponse response;
  for (size_t r = 0; r < served.data.relation.num_rows(); r += 97) {
    // Row() returns an owning vector; the request views it (tuple is a
    // span), so it must outlive the query.
    const std::vector<double> row = served.data.relation.Row(r);
    PointQueryRequest query;
    query.tuple = row;
    ASSERT_TRUE(service.PointQuery(query, response).ok());
    // Querying the published snapshot's index directly is the reference.
    auto reference = StreamTestPeer::Query(*served.stream, row);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_EQ(response.clusters.size(), reference->clusters.size());
    for (size_t i = 0; i < response.clusters.size(); ++i) {
      EXPECT_EQ(response.clusters[i], reference->clusters[i]);
    }
    ASSERT_EQ(response.rules.size(), reference->rules.size());
    for (size_t i = 0; i < response.rules.size(); ++i) {
      EXPECT_EQ(response.rules[i], reference->rules[i]);
    }
    EXPECT_EQ(response.total_rule_matches, reference->rules.size());
    EXPECT_EQ(response.generation, served.stream->generation());
    EXPECT_EQ(response.rows_ingested, served.stream->rows_ingested());
  }
}

TEST(QueryServiceTest, MaxRulesTruncatesButCountsAll) {
  ServedStream served = MakeServedStream();
  QueryService service;
  service.AttachStream(*served.stream);

  // Find a tuple firing at least 2 rules.
  PointQueryResponse all;
  size_t row = 0;
  std::vector<double> tuple;
  for (; row < served.data.relation.num_rows(); ++row) {
    tuple = served.data.relation.Row(row);
    PointQueryRequest query;
    query.tuple = tuple;
    ASSERT_TRUE(service.PointQuery(query, all).ok());
    if (all.total_rule_matches >= 2) break;
  }
  ASSERT_GE(all.total_rule_matches, 2u) << "no tuple fires 2 rules";

  PointQueryRequest query;
  query.tuple = tuple;
  query.max_rules = 1;
  PointQueryResponse truncated;
  ASSERT_TRUE(service.PointQuery(query, truncated).ok());
  EXPECT_EQ(truncated.rules.size(), 1u);
  EXPECT_EQ(truncated.rules[0], all.rules[0]);
  EXPECT_EQ(truncated.total_rule_matches, all.total_rule_matches);
}

TEST(QueryServiceTest, ListRulesPaginates) {
  ServedStream served = MakeServedStream();
  QueryService service;
  service.AttachStream(*served.stream);

  SnapshotInfoResponse info;
  ASSERT_TRUE(service.SnapshotInfo(info).ok());
  ASSERT_GT(info.num_rules, 1u) << "test needs a multi-rule snapshot";

  // Page through with limit 1 and reassemble the full listing.
  RuleListResponse page;
  std::vector<uint32_t> ids;
  for (uint32_t offset = 0; offset < info.num_rules; ++offset) {
    RuleListRequest request;
    request.offset = offset;
    request.limit = 1;
    ASSERT_TRUE(service.ListRules(request, page).ok());
    EXPECT_EQ(page.total_rules, info.num_rules);
    EXPECT_EQ(page.offset, offset);
    ASSERT_EQ(page.rules.size(), 1u);
    EXPECT_TRUE(page.rules[0].text.empty());  // no text unless asked
    ids.push_back(page.rules[0].id);
  }
  for (uint32_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);

  // Degrees ascend (Phase II sorts strongest first).
  RuleListRequest all_request;
  all_request.limit = kMaxRuleListLimit;
  all_request.include_text = true;
  ASSERT_TRUE(service.ListRules(all_request, page).ok());
  ASSERT_EQ(page.rules.size(), info.num_rules);
  for (size_t i = 1; i < page.rules.size(); ++i) {
    EXPECT_LE(page.rules[i - 1].degree, page.rules[i].degree);
  }
  EXPECT_FALSE(page.rules[0].text.empty());

  // Past-the-end offset: an empty page, not an error.
  RuleListRequest past;
  past.offset = static_cast<uint32_t>(info.num_rules) + 10;
  ASSERT_TRUE(service.ListRules(past, page).ok());
  EXPECT_TRUE(page.rules.empty());
  EXPECT_EQ(page.total_rules, info.num_rules);
}

TEST(QueryServiceTest, ServesBatchResultsViaMakeSnapshot) {
  auto session = TestSession();
  ASSERT_TRUE(session.ok()) << session.status();
  auto data = TestData();
  auto report = session->Mine(data.relation, data.partition);
  ASSERT_TRUE(report.ok()) << report.status();

  QueryService service;
  service.AttachSnapshot(
      QueryService::MakeSnapshot(std::move(report->result), data.partition),
      data.relation.schema(), data.partition);

  SnapshotInfoResponse info;
  ASSERT_TRUE(service.SnapshotInfo(info).ok());
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.rows_ingested,
            static_cast<int64_t>(data.relation.num_rows()));
  EXPECT_TRUE(info.has_index);
  EXPECT_GT(info.num_rules, 0u);

  const std::vector<double> row = data.relation.Row(0);
  PointQueryRequest query;
  query.tuple = row;
  PointQueryResponse hits;
  ASSERT_TRUE(service.PointQuery(query, hits).ok());
  EXPECT_EQ(hits.generation, 1u);
}

TEST(QueryServiceTest, TooShortTupleIsInvalid) {
  ServedStream served = MakeServedStream();
  QueryService service;
  service.AttachStream(*served.stream);
  const std::vector<double> short_tuple = {1.0};
  PointQueryRequest query;
  query.tuple = short_tuple;
  PointQueryResponse hits;
  Status status = service.PointQuery(query, hits);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST(QueryServiceTest, NonFiniteTupleIsInvalid) {
  ServedStream served = MakeServedStream();
  QueryService service;
  service.AttachStream(*served.stream);
  std::vector<double> tuple = served.data.relation.Row(0);
  tuple[2] = std::numeric_limits<double>::quiet_NaN();
  PointQueryRequest query;
  query.tuple = tuple;
  PointQueryResponse hits;
  Status status = service.PointQuery(query, hits);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("column 2"), std::string::npos) << status;
}

// ---------------------------------------------------------------------
// RuleIndex scratch API

TEST(RuleIndexViewTest, ScratchReuseYieldsIdenticalHits) {
  ServedStream served = MakeServedStream();
  auto snapshot = StreamTestPeer::Snapshot(*served.stream);
  ASSERT_NE(snapshot, nullptr);
  const RuleIndex* index = snapshot->index();
  ASSERT_NE(index, nullptr);

  // One scratch reused across every query (the serving hot path) must
  // answer exactly like a cold scratch per query: reuse never leaks state
  // from the previous tuple into the next answer.
  RuleIndex::QueryScratch reused;
  for (size_t r = 0; r < served.data.relation.num_rows(); r += 131) {
    auto hits = index->Query(served.data.relation.Row(r), reused);
    ASSERT_TRUE(hits.ok()) << hits.status();
    RuleIndex::QueryScratch cold;
    auto reference = index->Query(served.data.relation.Row(r), cold);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_TRUE(std::equal(hits->clusters.begin(), hits->clusters.end(),
                           reference->clusters.begin(),
                           reference->clusters.end()));
    EXPECT_TRUE(std::equal(hits->rules.begin(), hits->rules.end(),
                           reference->rules.begin(), reference->rules.end()));
  }
}

// A serving thread's scratch outlives every generation it serves, so one
// scratch must move between indexes of different sizes, through rejected
// queries, and still answer exactly like a cold scratch.
TEST(RuleIndexViewTest, ScratchSurvivesHotSwappedIndexes) {
  ServedStream big = MakeServedStream();
  auto big_snapshot = StreamTestPeer::Snapshot(*big.stream);
  ASSERT_NE(big_snapshot, nullptr);
  // A smaller generation: fewer attributes and clusters, so fewer rules.
  auto small_data =
      GeneratePlanted(WbcdLikeSpec(3, 2, 0.05, /*seed=*/31), 1500, 32);
  ASSERT_TRUE(small_data.ok()) << small_data.status();
  DarConfig config = TestConfig();
  config.initial_diameters.assign(3, 80.0);
  auto session = Session::Builder().WithConfig(config).Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Mine(small_data->relation, small_data->partition);
  ASSERT_TRUE(report.ok()) << report.status();
  auto small_snapshot = QueryService::MakeSnapshot(std::move(report->result),
                                                   small_data->partition);
  const RuleIndex* big_index = big_snapshot->index();
  const RuleIndex* small_index = small_snapshot->index();
  ASSERT_NE(big_index, nullptr);
  ASSERT_NE(small_index, nullptr);
  ASSERT_GT(big_index->num_clusters(), small_index->num_clusters());
  ASSERT_GT(big_index->num_rules(), small_index->num_rules());

  RuleIndex::QueryScratch reused;
  size_t firing = 0;
  auto expect_cold_answer = [&](const RuleIndex& index,
                                const std::vector<double>& row) {
    auto hits = index.Query(row, reused);
    ASSERT_TRUE(hits.ok()) << hits.status();
    RuleIndex::QueryScratch cold;
    auto reference = index.Query(row, cold);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_TRUE(std::equal(hits->clusters.begin(), hits->clusters.end(),
                           reference->clusters.begin(),
                           reference->clusters.end()));
    EXPECT_TRUE(std::equal(hits->rules.begin(), hits->rules.end(),
                           reference->rules.begin(), reference->rules.end()));
    firing += hits->rules.size();
  };
  const Relation& big_rows = big.data.relation;
  const Relation& small_rows = small_data->relation;
  for (size_t r = 0; r < small_rows.num_rows(); r += 37) {
    SCOPED_TRACE("row " + std::to_string(r));
    expect_cold_answer(*big_index, big_rows.Row(r));
    expect_cold_answer(*small_index, small_rows.Row(r));
    std::vector<double> rejected = big_rows.Row(r);
    rejected[r % 3] = std::numeric_limits<double>::quiet_NaN();
    const RuleIndex& either = r % 2 == 0 ? *big_index : *small_index;
    EXPECT_TRUE(either.Query(rejected, reused).status().IsInvalidArgument());
    expect_cold_answer(*big_index, big_rows.Row(r));
  }
  EXPECT_GT(firing, 0u) << "no rule fired: the check is vacuous";
}

// ---------------------------------------------------------------------
// Server end-to-end (binary + HTTP on one port)

TEST(RuleServerTest, BinaryEndToEnd) {
  ServedStream served = MakeServedStream();
  QueryService service;
  service.AttachStream(*served.stream);
  serve::RuleServer server(service, serve::ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client =
      serve::RuleClient::Connect("127.0.0.1", server.port(), "tenant-a");
  ASSERT_TRUE(client.ok()) << client.status();

  SnapshotInfoResponse info;
  ASSERT_TRUE(client->SnapshotInfo(info).ok());
  EXPECT_EQ(info.generation, served.stream->generation());
  EXPECT_TRUE(info.has_index);

  // Remote point queries agree with in-process service answers.
  PointQueryResponse remote;
  PointQueryResponse local;
  for (size_t r = 0; r < served.data.relation.num_rows(); r += 199) {
    const std::vector<double> row = served.data.relation.Row(r);
    PointQueryRequest query;
    query.tuple = row;
    ASSERT_TRUE(client->PointQuery(query, remote).ok());
    ASSERT_TRUE(service.PointQuery(query, local).ok());
    EXPECT_EQ(remote.generation, local.generation);
    EXPECT_EQ(remote.clusters, local.clusters);
    EXPECT_EQ(remote.rules, local.rules);
  }

  RuleListRequest list;
  list.limit = 3;
  list.include_text = true;
  RuleListResponse rules;
  ASSERT_TRUE(client->ListRules(list, rules).ok());
  EXPECT_EQ(rules.generation, info.generation);
  EXPECT_LE(rules.rules.size(), 3u);
  if (!rules.rules.empty()) {
    EXPECT_FALSE(rules.rules[0].text.empty());
  }

  // A too-short tuple surfaces as InvalidArgument THROUGH the wire.
  const std::vector<double> short_tuple = {1.0};
  PointQueryRequest bad;
  bad.tuple = short_tuple;
  Status status = client->PointQuery(bad, remote);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
  // So does a tuple past the protocol's cap, which the decoder refuses: the
  // answer carries the request's own id and the session stays open.
  const std::vector<double> oversized(serve::kMaxTupleValues + 1, 1.0);
  bad.tuple = oversized;
  status = client->PointQuery(bad, remote);
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find(std::to_string(serve::kMaxTupleValues)),
            std::string::npos)
      << status;
  const std::vector<double> row = served.data.relation.Row(0);
  PointQueryRequest good;
  good.tuple = row;
  EXPECT_TRUE(client->PointQuery(good, remote).ok());

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(RuleServerTest, LifetimeQuotaShedsOverTheWire) {
  ServedStream served = MakeServedStream(1000);
  QueryService service;
  service.AttachStream(*served.stream);
  serve::ServerConfig config;
  config.admission.max_tenant_requests = 2;
  serve::RuleServer server(service, config);
  ASSERT_TRUE(server.Start().ok());

  auto client =
      serve::RuleClient::Connect("127.0.0.1", server.port(), "greedy");
  ASSERT_TRUE(client.ok()) << client.status();
  SnapshotInfoResponse info;
  EXPECT_TRUE(client->SnapshotInfo(info).ok());
  EXPECT_TRUE(client->SnapshotInfo(info).ok());
  Status status = client->SnapshotInfo(info);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsResourceExhausted()) << status;
  EXPECT_GE(server.admission().shed_count(), 1u);
  // The shed response did not kill the session, and other tenants are
  // unaffected.
  auto other = serve::RuleClient::Connect("127.0.0.1", server.port(), "calm");
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_TRUE(other->SnapshotInfo(info).ok());
}

TEST(RuleServerTest, HttpEndpoints) {
  ServedStream served = MakeServedStream();
  QueryService service;
  service.AttachStream(*served.stream);
  serve::RuleServer server(service, serve::ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  // Raw HTTP through the adapter, as the server's HTTP path would.
  auto parsed = serve::ParseHttpRequest(
      "GET /v1/rules?limit=2&text=1 HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->path, "/v1/rules");
  EXPECT_EQ(parsed->query, "limit=2&text=1");
  std::string response = serve::HandleHttpRequest(service, *parsed);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"total_rules\":"), std::string::npos);

  auto info_req =
      serve::ParseHttpRequest("GET /v1/info HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(info_req.ok());
  response = serve::HandleHttpRequest(service, *info_req);
  EXPECT_NE(response.find("\"generation\":"), std::string::npos);

  auto bad = serve::ParseHttpRequest(
      "GET /v1/query?tuple=abc HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(bad.ok());
  response = serve::HandleHttpRequest(service, *bad);
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);

  auto missing = serve::ParseHttpRequest("GET /nope HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(missing.ok());
  response = serve::HandleHttpRequest(service, *missing);
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);

  server.Stop();
}

TEST(RuleServerTest, NonFiniteTupleIsAnInvalidRequest) {
  ServedStream served = MakeServedStream(1000);
  QueryService service;
  service.AttachStream(*served.stream);
  serve::RuleServer server(service, serve::ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  // The binary codec carries the NaN; the index rejects it as
  // invalid_request, and the session stays usable.
  auto client =
      serve::RuleClient::Connect("127.0.0.1", server.port(), "tenant-a");
  ASSERT_TRUE(client.ok()) << client.status();
  std::vector<double> tuple = served.data.relation.Row(0);
  tuple[1] = std::numeric_limits<double>::quiet_NaN();
  PointQueryRequest query;
  query.tuple = tuple;
  PointQueryResponse response;
  Status status = client->PointQuery(query, response);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(ServeCodeFromStatus(status), ServeCode::kInvalidRequest) << status;
  EXPECT_NE(status.message().find("column 1"), std::string::npos) << status;
  const std::vector<double> finite = served.data.relation.Row(0);
  query.tuple = finite;
  EXPECT_TRUE(client->PointQuery(query, response).ok());

  // strtod parses "nan" and "inf"; the HTTP answer is a 400.
  for (const char* bad : {"nan", "inf"}) {
    auto parsed = serve::ParseHttpRequest(
        std::string("GET /v1/query?tuple=1,") + bad +
        ",1,1 HTTP/1.1\r\n\r\n");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const std::string http = serve::HandleHttpRequest(service, *parsed);
    EXPECT_NE(http.find("HTTP/1.1 400"), std::string::npos) << http;
    EXPECT_NE(http.find("column 1"), std::string::npos) << http;
  }

  server.Stop();
}

TEST(RuleServerTest, StartFailsOnBadHost) {
  QueryService service;
  serve::ServerConfig config;
  config.host = "not-an-ip";
  serve::RuleServer server(service, config);
  Status status = server.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Hot swap under load (the TSan centerpiece)

// One re-miner thread publishes generations (including a warm-start swap
// restored from a checkpoint) while reader threads query through the
// service. Every response must be internally consistent: its
// (generation, rows_ingested) pair must be one the writer actually
// published — a torn response mixing two generations would pair them
// wrongly.
TEST(RuleServerTest, HotSwapUnderLoadStaysConsistent) {
  const std::string ckpt = "serve_test_hotswap.darckpt";
  auto session = TestSession();
  ASSERT_TRUE(session.ok()) << session.status();
  auto data = TestData(4000);
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    ManualCadence());
  ASSERT_TRUE(stream.ok()) << stream.status();

  QueryService service;
  service.AttachStream(**stream);

  // Publish generation 1 from the first chunk so readers have something
  // from the start.
  const size_t kChunk = 1000;
  for (size_t r = 0; r < kChunk; ++r) {
    ASSERT_TRUE((*stream)->IngestRow(data.relation.Row(r)).ok());
  }
  ASSERT_TRUE((*stream)->Remine().ok());

  // (generation, rows) pairs the writer has published, pre-sized map-free:
  // generation g is published with pairs[g] rows. Readers validate against
  // it after the fact (no locking on the hot path).
  std::vector<std::pair<uint64_t, int64_t>> published;
  published.push_back({(*stream)->generation(), (*stream)->rows_ingested()});

  std::atomic<bool> done{false};
  constexpr int kReaders = 4;
  struct Observed {
    std::vector<std::pair<uint64_t, int64_t>> pairs;  // deduped locally
    int64_t queries = 0;
    int64_t unavailable = 0;
  };
  std::vector<Observed> observed(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Observed& mine = observed[t];
      PointQueryResponse hits;
      SnapshotInfoResponse info;
      size_t row = static_cast<size_t>(t) * 37;
      std::vector<double> tuple;
      while (!done.load(std::memory_order_acquire)) {
        tuple = data.relation.Row(row % data.relation.num_rows());
        PointQueryRequest query;
        query.tuple = tuple;
        row += 61;
        Status status = service.PointQuery(query, hits);
        if (status.IsUnavailable()) {
          ++mine.unavailable;
          continue;
        }
        ASSERT_TRUE(status.ok()) << status;
        ++mine.queries;
        const auto pair = std::make_pair(hits.generation, hits.rows_ingested);
        if (std::find(mine.pairs.begin(), mine.pairs.end(), pair) ==
            mine.pairs.end()) {
          mine.pairs.push_back(pair);
        }
        // SnapshotInfo must be single-generation consistent too.
        ASSERT_TRUE(service.SnapshotInfo(info).ok());
        const auto info_pair =
            std::make_pair(info.generation, info.rows_ingested);
        if (info.generation != 0 &&
            std::find(mine.pairs.begin(), mine.pairs.end(), info_pair) ==
                mine.pairs.end()) {
          mine.pairs.push_back(info_pair);
        }
      }
    });
  }

  // Writer: two more live publications, then a checkpoint/restore
  // warm-start swap, then one publication on the restored stream.
  size_t next_row = kChunk;
  for (int swap = 0; swap < 2; ++swap) {
    const size_t end = next_row + kChunk;
    for (; next_row < end; ++next_row) {
      ASSERT_TRUE((*stream)->IngestRow(data.relation.Row(next_row)).ok());
    }
    ASSERT_TRUE((*stream)->Remine().ok());
    published.push_back({(*stream)->generation(), (*stream)->rows_ingested()});
  }

  ASSERT_TRUE(session->SaveCheckpoint(**stream, ckpt).ok());
  auto restored = session->RestoreCheckpoint(ckpt);
  ASSERT_TRUE(restored.ok()) << restored.status();
  // The restored stream republishes the checkpointed snapshot, so its
  // (generation, rows) is already in `published`. Swap the service onto
  // it while readers run — the warm-start hot swap.
  service.AttachStream(*restored->stream);
  for (size_t end = next_row + kChunk; next_row < end; ++next_row) {
    ASSERT_TRUE(
        restored->stream->IngestRow(data.relation.Row(next_row)).ok());
  }
  ASSERT_TRUE(restored->stream->Remine().ok());
  published.push_back(
      {restored->stream->generation(), restored->stream->rows_ingested()});

  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  // >= 3 swaps happened (gen 1..4); every observed pair must be one the
  // writer published.
  ASSERT_GE(published.size(), 4u);
  int64_t total_queries = 0;
  for (const Observed& mine : observed) {
    total_queries += mine.queries;
    EXPECT_EQ(mine.unavailable, 0);  // generation 1 was live before start
    for (const auto& pair : mine.pairs) {
      EXPECT_NE(std::find(published.begin(), published.end(), pair),
                published.end())
          << "torn response: generation " << pair.first << " with rows "
          << pair.second << " was never published";
    }
  }
  EXPECT_GT(total_queries, 0);
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------
// Quality layer over the wire: scored listings and drift diffs

DarConfig QualityConfig() {
  DarConfig config = TestConfig();
  // Measures are ratios over the §6.2 contingency scan, so the stream
  // must retain tuples and count rule support.
  config.count_rule_support = true;
  return config;
}

StreamConfig QualityCadence() {
  StreamConfig config = ManualCadence();
  config.score_measures = {"support", "confidence", "lift", "conviction",
                           "chi2"};
  config.prune_redundant = true;
  config.diff_snapshots = true;
  return config;
}

// Two published generations (first half, then all rows) so the current
// snapshot carries both scores and a generation-over-generation diff.
ServedStream MakeQualityServedStream(size_t rows = 3000) {
  auto session = Session::Builder()
                     .WithConfig(QualityConfig())
                     .WithThreads(1)
                     .Build();
  EXPECT_TRUE(session.ok()) << session.status();
  auto data = TestData(rows);
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    QualityCadence());
  EXPECT_TRUE(stream.ok()) << stream.status();
  for (size_t r = 0; r < rows / 2; ++r) {
    EXPECT_TRUE((*stream)->IngestRow(data.relation.Row(r)).ok());
  }
  EXPECT_TRUE((*stream)->Remine().ok());
  for (size_t r = rows / 2; r < rows; ++r) {
    EXPECT_TRUE((*stream)->IngestRow(data.relation.Row(r)).ok());
  }
  EXPECT_TRUE((*stream)->Remine().ok());
  return ServedStream{*std::move(session), std::move(data),
                      std::move(*stream)};
}

TEST(ProtocolTest, ScoredAndDiffRequestRoundTrip) {
  persist::WireWriter payload;
  std::vector<double> scratch;

  ScoredRuleListRequest scored;
  scored.offset = 4;
  scored.limit = 9;
  scored.include_text = true;
  scored.measure = "lift";
  scored.has_min = true;
  scored.min_score = 1.5;
  scored.has_max = true;
  scored.max_score = 3.0;
  scored.include_pruned = true;
  serve::EncodeScoredRuleListRequest(11, scored, payload);
  auto decoded = serve::DecodeRequest(payload.bytes(), scratch);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.method, serve::Method::kListRulesScored);
  EXPECT_EQ(decoded->header.request_id, 11u);
  EXPECT_EQ(decoded->scored.measure, "lift");
  EXPECT_EQ(decoded->scored.offset, 4u);
  EXPECT_EQ(decoded->scored.limit, 9u);
  EXPECT_TRUE(decoded->scored.include_text);
  ASSERT_TRUE(decoded->scored.has_min);
  EXPECT_EQ(decoded->scored.min_score, 1.5);
  ASSERT_TRUE(decoded->scored.has_max);
  EXPECT_EQ(decoded->scored.max_score, 3.0);
  EXPECT_TRUE(decoded->scored.include_pruned);

  RuleDiffRequest diff;
  diff.limit = 17;
  diff.include_text = true;
  serve::EncodeRuleDiffRequest(12, diff, payload);
  auto decoded_diff = serve::DecodeRequest(payload.bytes(), scratch);
  ASSERT_TRUE(decoded_diff.ok()) << decoded_diff.status();
  EXPECT_EQ(decoded_diff->header.method, serve::Method::kDiff);
  EXPECT_EQ(decoded_diff->diff.limit, 17u);
  EXPECT_TRUE(decoded_diff->diff.include_text);
}

TEST(ProtocolTest, ScoredAndDiffResponseRoundTrip) {
  serve::RequestHeader header;
  header.method = serve::Method::kListRulesScored;
  header.request_id = 21;
  persist::WireWriter payload;

  ScoredRuleListResponse scored;
  scored.generation = 3;
  scored.rows_ingested = 64;
  scored.total_matching = 2;
  scored.offset = 1;
  scored.measure = "conviction";
  ScoredRuleListEntry entry;
  entry.id = 7;
  entry.degree = 0.25;
  entry.support_count = 12;
  entry.score = 4.5;
  entry.representative = false;
  entry.antecedent_size = 2;
  entry.consequent_size = 1;
  entry.text = "[A B] => [C]";
  scored.rules.push_back(entry);
  serve::EncodeScoredRuleListResponse(header, scored, payload);
  {
    persist::WireReader reader{std::string_view(payload.bytes())};
    auto decoded_header = serve::DecodeResponseHeader(reader);
    ASSERT_TRUE(decoded_header.ok()) << decoded_header.status();
    EXPECT_EQ(decoded_header->code, ServeCode::kOk);
    ScoredRuleListResponse out;
    ASSERT_TRUE(serve::DecodeScoredRuleListBody(reader, out).ok());
    EXPECT_EQ(out.generation, 3u);
    EXPECT_EQ(out.rows_ingested, 64);
    EXPECT_EQ(out.total_matching, 2u);
    EXPECT_EQ(out.offset, 1u);
    EXPECT_EQ(out.measure, "conviction");
    ASSERT_EQ(out.rules.size(), 1u);
    EXPECT_EQ(out.rules[0].id, 7u);
    EXPECT_EQ(out.rules[0].degree, 0.25);
    EXPECT_EQ(out.rules[0].support_count, 12);
    EXPECT_EQ(out.rules[0].score, 4.5);
    EXPECT_FALSE(out.rules[0].representative);
    EXPECT_EQ(out.rules[0].text, entry.text);
  }

  RuleDiffResponse diff;
  diff.old_generation = 2;
  diff.new_generation = 3;
  diff.rows_ingested = 64;
  diff.born = 1;
  diff.died = 1;
  diff.drifted = 1;
  diff.unchanged = 5;
  diff.total_changed = 3;
  RuleDiffEntry born;
  born.kind = 2;
  born.rule_id = 4;
  born.degree = 0.5;
  born.text = "[A] => [B]";
  diff.entries.push_back(born);
  RuleDiffEntry drifted;
  drifted.kind = 1;
  drifted.rule_id = 2;
  drifted.interval_shift = 0.75;
  diff.entries.push_back(drifted);
  RuleDiffEntry died;
  died.kind = 3;
  died.rule_id = 9;
  diff.entries.push_back(died);
  header.method = serve::Method::kDiff;
  serve::EncodeRuleDiffResponse(header, diff, payload);
  {
    persist::WireReader reader{std::string_view(payload.bytes())};
    auto decoded_header = serve::DecodeResponseHeader(reader);
    ASSERT_TRUE(decoded_header.ok()) << decoded_header.status();
    RuleDiffResponse out;
    ASSERT_TRUE(serve::DecodeRuleDiffBody(reader, out).ok());
    EXPECT_EQ(out.old_generation, 2u);
    EXPECT_EQ(out.new_generation, 3u);
    EXPECT_EQ(out.born, 1u);
    EXPECT_EQ(out.died, 1u);
    EXPECT_EQ(out.drifted, 1u);
    EXPECT_EQ(out.unchanged, 5u);
    EXPECT_EQ(out.total_changed, 3u);
    ASSERT_EQ(out.entries.size(), 3u);
    EXPECT_EQ(out.entries[0].kind, 2);
    EXPECT_EQ(out.entries[0].rule_id, 4u);
    EXPECT_EQ(out.entries[0].text, born.text);
    EXPECT_EQ(out.entries[1].kind, 1);
    EXPECT_EQ(out.entries[1].interval_shift, 0.75);
    EXPECT_EQ(out.entries[2].kind, 3);
    EXPECT_EQ(out.entries[2].rule_id, 9u);
    EXPECT_TRUE(out.entries[2].text.empty());
  }
  // A kind outside 1-3 is refused, naming the entry.
  for (const uint8_t kind : {0, 4, 200}) {
    diff.entries[1].kind = kind;
    serve::EncodeRuleDiffResponse(header, diff, payload);
    persist::WireReader reader{std::string_view(payload.bytes())};
    ASSERT_TRUE(serve::DecodeResponseHeader(reader).ok());
    RuleDiffResponse out;
    const Status status = serve::DecodeRuleDiffBody(reader, out);
    EXPECT_TRUE(status.IsInvalidArgument()) << int{kind} << ": " << status;
    EXPECT_NE(status.message().find("diff entry 1"), std::string::npos)
        << status;
  }
}

TEST(QueryServiceTest, ScoredListingRanksFiltersAndPaginates) {
  ServedStream served = MakeQualityServedStream();
  QueryService service;
  service.AttachStream(*served.stream);

  ScoredRuleListRequest request;
  request.measure = "lift";
  request.include_text = true;
  request.limit = kMaxRuleListLimit;
  ScoredRuleListResponse all;
  ASSERT_TRUE(service.ListRulesScored(request, all).ok());
  EXPECT_EQ(all.measure, "lift");
  EXPECT_EQ(all.generation, served.stream->generation());
  ASSERT_GT(all.rules.size(), 1u) << "test needs a multi-rule snapshot";
  EXPECT_EQ(all.rules.size(), all.total_matching);
  for (size_t i = 0; i < all.rules.size(); ++i) {
    EXPECT_TRUE(all.rules[i].representative);  // pruned excluded by default
    EXPECT_GE(all.rules[i].support_count, 0);  // quality streams rescan
    EXPECT_FALSE(all.rules[i].text.empty());
    if (i == 0) continue;
    // Descending score; ties break to ascending rule id, so the ranking
    // (and every page cut from it) is deterministic.
    const ScoredRuleListEntry& prev = all.rules[i - 1];
    EXPECT_TRUE(prev.score > all.rules[i].score ||
                (prev.score == all.rules[i].score &&
                 prev.id < all.rules[i].id))
        << "rank " << i << ": " << prev.score << " then "
        << all.rules[i].score;
  }

  // Score band: [min, max] keeps exactly the in-band entries.
  const double cut = all.rules[all.rules.size() / 2].score;
  request.has_min = true;
  request.min_score = cut;
  request.has_max = true;
  request.max_score = all.rules[0].score;
  request.include_text = false;
  ScoredRuleListResponse banded;
  ASSERT_TRUE(service.ListRulesScored(request, banded).ok());
  EXPECT_GT(banded.total_matching, 0u);
  EXPECT_LE(banded.total_matching, all.total_matching);
  for (const ScoredRuleListEntry& in_band : banded.rules) {
    EXPECT_GE(in_band.score, cut);
    EXPECT_LE(in_band.score, all.rules[0].score);
    EXPECT_TRUE(in_band.text.empty());
  }

  // Pagination walks the same ranking.
  request.has_min = false;
  request.has_max = false;
  request.limit = 1;
  request.offset = 1;
  ScoredRuleListResponse page;
  ASSERT_TRUE(service.ListRulesScored(request, page).ok());
  ASSERT_EQ(page.rules.size(), 1u);
  EXPECT_EQ(page.rules[0].id, all.rules[1].id);
  EXPECT_EQ(page.total_matching, all.total_matching);
  EXPECT_EQ(page.offset, 1u);

  // include_pruned can only widen the listing, never reorder the
  // representatives' relative ranks.
  request.offset = 0;
  request.limit = kMaxRuleListLimit;
  request.include_pruned = true;
  ScoredRuleListResponse widened;
  ASSERT_TRUE(service.ListRulesScored(request, widened).ok());
  EXPECT_GE(widened.total_matching, all.total_matching);
}

TEST(QueryServiceTest, ScoredListingAndDiffErrorContracts) {
  // A plain stream (no quality config): the scored listing is an invalid
  // request and the diff is unavailable — both say what to enable.
  ServedStream plain = MakeServedStream(1000);
  QueryService plain_service;
  plain_service.AttachStream(*plain.stream);
  ScoredRuleListRequest scored;
  scored.measure = "lift";
  ScoredRuleListResponse scored_out;
  Status no_scores = plain_service.ListRulesScored(scored, scored_out);
  ASSERT_FALSE(no_scores.ok());
  EXPECT_TRUE(no_scores.IsInvalidArgument()) << no_scores;
  EXPECT_NE(no_scores.message().find("score_measures"), std::string::npos);
  RuleDiffRequest diff;
  RuleDiffResponse diff_out;
  Status no_diff = plain_service.Diff(diff, diff_out);
  ASSERT_FALSE(no_diff.ok());
  EXPECT_TRUE(no_diff.IsUnavailable()) << no_diff;
  EXPECT_NE(no_diff.message().find("diff_snapshots"), std::string::npos);

  // A quality stream rejects unknown measures by name and lists the
  // measures it does have.
  ServedStream served = MakeQualityServedStream(1000);
  QueryService service;
  service.AttachStream(*served.stream);
  scored.measure = "novelty";
  Status unknown = service.ListRulesScored(scored, scored_out);
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.IsNotFound()) << unknown;
  EXPECT_NE(unknown.message().find("novelty"), std::string::npos);
  EXPECT_NE(unknown.message().find("lift"), std::string::npos);
}

TEST(QueryServiceTest, DiffCountsMatchSnapshotAndDiedEntriesHaveNoText) {
  ServedStream served = MakeQualityServedStream();
  QueryService service;
  service.AttachStream(*served.stream);

  SnapshotInfoResponse info;
  ASSERT_TRUE(service.SnapshotInfo(info).ok());

  RuleDiffRequest request;
  request.include_text = true;
  request.limit = kMaxRuleListLimit;
  RuleDiffResponse response;
  ASSERT_TRUE(service.Diff(request, response).ok());
  EXPECT_EQ(response.old_generation, 1u);
  EXPECT_EQ(response.new_generation, 2u);
  EXPECT_EQ(response.rows_ingested, info.rows_ingested);
  EXPECT_EQ(response.total_changed,
            response.born + response.died + response.drifted);
  // Every current rule is accounted for exactly once on the new side.
  EXPECT_EQ(response.unchanged + response.drifted + response.born,
            info.num_rules);
  ASSERT_EQ(response.entries.size(), response.total_changed);

  uint32_t born = 0;
  uint32_t died = 0;
  uint32_t drifted = 0;
  for (const RuleDiffEntry& entry : response.entries) {
    switch (entry.kind) {
      case 1:
        ++drifted;
        EXPECT_LT(entry.rule_id, info.num_rules);
        EXPECT_FALSE(entry.text.empty());
        break;
      case 2:
        ++born;
        EXPECT_LT(entry.rule_id, info.num_rules);
        EXPECT_FALSE(entry.text.empty());
        break;
      case 3:
        ++died;
        // Died rules index the PREVIOUS generation; its naming context is
        // gone, so no text even when asked.
        EXPECT_TRUE(entry.text.empty());
        EXPECT_EQ(entry.degree, 0.0);
        EXPECT_EQ(entry.interval_shift, 0.0);
        break;
      default:
        ADD_FAILURE() << "unexpected diff kind "
                      << static_cast<int>(entry.kind);
    }
  }
  EXPECT_EQ(born, response.born);
  EXPECT_EQ(died, response.died);
  EXPECT_EQ(drifted, response.drifted);

  // Truncation keeps the counts: limit 1 still reports the same totals.
  request.limit = 1;
  RuleDiffResponse truncated;
  ASSERT_TRUE(service.Diff(request, truncated).ok());
  EXPECT_EQ(truncated.total_changed, response.total_changed);
  EXPECT_EQ(truncated.unchanged, response.unchanged);
  if (truncated.total_changed > 0) {
    ASSERT_EQ(truncated.entries.size(), 1u);
    EXPECT_EQ(truncated.entries[0].kind, response.entries[0].kind);
    EXPECT_EQ(truncated.entries[0].rule_id, response.entries[0].rule_id);
  }
}

TEST(RuleServerTest, ScoredAndDiffBinaryEndToEnd) {
  ServedStream served = MakeQualityServedStream();
  QueryService service;
  service.AttachStream(*served.stream);
  serve::RuleServer server(service, serve::ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  auto client =
      serve::RuleClient::Connect("127.0.0.1", server.port(), "tenant-q");
  ASSERT_TRUE(client.ok()) << client.status();

  // Remote scored listings agree byte-for-byte with in-process answers.
  ScoredRuleListRequest scored;
  scored.measure = "confidence";
  scored.include_text = true;
  scored.limit = 5;
  ScoredRuleListResponse local;
  ScoredRuleListResponse remote;
  ASSERT_TRUE(service.ListRulesScored(scored, local).ok());
  ASSERT_TRUE(client->ListRulesScored(scored, remote).ok());
  EXPECT_EQ(remote.generation, local.generation);
  EXPECT_EQ(remote.total_matching, local.total_matching);
  EXPECT_EQ(remote.measure, local.measure);
  ASSERT_EQ(remote.rules.size(), local.rules.size());
  for (size_t i = 0; i < local.rules.size(); ++i) {
    EXPECT_EQ(remote.rules[i].id, local.rules[i].id);
    EXPECT_EQ(remote.rules[i].score, local.rules[i].score);
    EXPECT_EQ(remote.rules[i].degree, local.rules[i].degree);
    EXPECT_EQ(remote.rules[i].support_count, local.rules[i].support_count);
    EXPECT_EQ(remote.rules[i].representative, local.rules[i].representative);
    EXPECT_EQ(remote.rules[i].text, local.rules[i].text);
  }

  RuleDiffRequest diff;
  diff.include_text = true;
  RuleDiffResponse local_diff;
  RuleDiffResponse remote_diff;
  ASSERT_TRUE(service.Diff(diff, local_diff).ok());
  ASSERT_TRUE(client->Diff(diff, remote_diff).ok());
  EXPECT_EQ(remote_diff.old_generation, local_diff.old_generation);
  EXPECT_EQ(remote_diff.new_generation, local_diff.new_generation);
  EXPECT_EQ(remote_diff.born, local_diff.born);
  EXPECT_EQ(remote_diff.died, local_diff.died);
  EXPECT_EQ(remote_diff.drifted, local_diff.drifted);
  EXPECT_EQ(remote_diff.unchanged, local_diff.unchanged);
  ASSERT_EQ(remote_diff.entries.size(), local_diff.entries.size());
  for (size_t i = 0; i < local_diff.entries.size(); ++i) {
    EXPECT_EQ(remote_diff.entries[i].kind, local_diff.entries[i].kind);
    EXPECT_EQ(remote_diff.entries[i].rule_id, local_diff.entries[i].rule_id);
    EXPECT_EQ(remote_diff.entries[i].interval_shift,
              local_diff.entries[i].interval_shift);
    EXPECT_EQ(remote_diff.entries[i].text, local_diff.entries[i].text);
  }

  // An unknown measure crosses the wire as NotFound, message intact.
  scored.measure = "novelty";
  Status unknown = client->ListRulesScored(scored, remote);
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.IsNotFound()) << unknown;
  EXPECT_NE(unknown.message().find("novelty"), std::string::npos);

  server.Stop();
}

TEST(RuleServerTest, HttpScoredAndDiffEndpoints) {
  ServedStream served = MakeQualityServedStream();
  QueryService service;
  service.AttachStream(*served.stream);

  // The measure-filtered listing rides the same /v1/rules path, selected
  // by the presence of ?measure=.
  auto scored = serve::ParseHttpRequest(
      "GET /v1/rules?measure=lift&min=0&text=1 HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(scored.ok()) << scored.status();
  std::string response = serve::HandleHttpRequest(service, *scored);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"measure\":\"lift\""), std::string::npos);
  EXPECT_NE(response.find("\"total_matching\":"), std::string::npos);
  EXPECT_NE(response.find("\"score\":"), std::string::npos);
  EXPECT_NE(response.find("\"representative\":"), std::string::npos);
  EXPECT_NE(response.find("\"text\":"), std::string::npos);

  auto diff =
      serve::ParseHttpRequest("GET /v1/diff?text=1 HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(diff.ok()) << diff.status();
  response = serve::HandleHttpRequest(service, *diff);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"old_generation\":1"), std::string::npos);
  EXPECT_NE(response.find("\"new_generation\":2"), std::string::npos);
  EXPECT_NE(response.find("\"born\":"), std::string::npos);
  EXPECT_NE(response.find("\"unchanged\":"), std::string::npos);

  // Unknown measure maps to HTTP 404 like any NotFound.
  auto unknown = serve::ParseHttpRequest(
      "GET /v1/rules?measure=novelty HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(unknown.ok());
  response = serve::HandleHttpRequest(service, *unknown);
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(response.find("novelty"), std::string::npos);

  // A bad score bound or page size is the caller's error, not a server
  // fault; a bound past the largest double is no bound.
  for (const char* param : {"min=abc", "min=1e999", "limit=4294967296"}) {
    auto bad = serve::ParseHttpRequest(
        std::string("GET /v1/rules?measure=lift&") + param +
        " HTTP/1.1\r\n\r\n");
    ASSERT_TRUE(bad.ok());
    response = serve::HandleHttpRequest(service, *bad);
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << param;
  }

  // The catch-all 404 advertises the diff endpoint.
  auto missing = serve::ParseHttpRequest("GET /v1/nope HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(serve::HandleHttpRequest(service, *missing).find("/v1/diff"),
            std::string::npos);
}

// One HTTP exchange with a live server on loopback: sends `request` and
// reads until the server closes the connection (it answers one request).
std::string HttpExchange(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const auto* target = reinterpret_cast<const sockaddr*>(&addr);
  EXPECT_EQ(::connect(fd, target, sizeof(addr)), 0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  for (ssize_t r; (r = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
    response.append(chunk, static_cast<size_t>(r));
  }
  ::close(fd);
  return response;
}

TEST(RuleServerTest, HttpRequestsThatDoNotRouteSpendNoQuota) {
  // An HTTP request is admitted once it routes, as a binary one is once it
  // decodes: a 404 and a 400 leave the tenant's one-request quota intact.
  ServedStream served = MakeServedStream(1000);
  QueryService service;
  service.AttachStream(*served.stream);
  serve::ServerConfig config;
  config.admission.max_tenant_requests = 1;
  serve::RuleServer server(service, config);
  ASSERT_TRUE(server.Start().ok());
  const auto status_line = [&server](const std::string& target) {
    const std::string response = HttpExchange(
        server.port(), "GET " + target + " HTTP/1.1\r\nX-Tenant: t\r\n\r\n");
    return response.substr(0, response.find("\r\n"));
  };
  EXPECT_EQ(status_line("/v1/nope"), "HTTP/1.1 404 Not Found");
  EXPECT_EQ(status_line("/v1/rules?limit=-1"), "HTTP/1.1 400 Bad Request");
  EXPECT_EQ(status_line("/v1/info"), "HTTP/1.1 200 OK");
  EXPECT_EQ(status_line("/v1/info"), "HTTP/1.1 429 Too Many Requests");
  EXPECT_EQ(server.admission().shed_count(), 1u);
  server.Stop();
}

TEST(RuleServerTest, HttpContentLengthMustBeANonNegativeInteger) {
  ServedStream served = MakeServedStream(1000);
  QueryService service;
  service.AttachStream(*served.stream);
  serve::RuleServer server(service, serve::ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  for (const std::string length : {"four", "5x", "-1"}) {
    const std::string response =
        HttpExchange(server.port(), "POST /v1/query HTTP/1.1\r\n"
                                    "Content-Length: " + length +
                                        "\r\n\r\n1,2,3");
    EXPECT_EQ(response.substr(0, response.find("\r\n")),
              "HTTP/1.1 400 Bad Request")
        << length;
    EXPECT_NE(response.find("Content-Length \\\"" + length +
                            "\\\" is not a non-negative integer"),
              std::string::npos)
        << response;
  }
  server.Stop();
}

TEST(RuleServerTest, HttpBodiesArePinned) {
  // Every endpoint's whole answer over a live server, on the two-generation
  // quality stream: status line, headers and JSON body.
  ServedStream served = MakeQualityServedStream();
  QueryService service;
  service.AttachStream(*served.stream);
  serve::RuleServer server(service, serve::ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  std::string tuple;
  for (const double v : served.data.relation.Row(0)) {
    tuple += (tuple.empty() ? "" : ",") + FormatDoubleExact(v);
  }
  const std::string post_body = "[" + tuple + "]";
  const struct {
    std::string request;
    std::string response;
  } kExchanges[] = {
      {"GET /v1/info HTTP/1.1\r\nHost: x\r\nX-Tenant: t\r\n\r\n",
       "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
       "Content-Length: 104\r\nConnection: close\r\n\r\n"
       R"js({"api_version":1,"generation":2,"rows_ingested":3000,)js"
       R"js("num_clusters":12,"num_rules":138,"has_index":true})js"},
      {"GET /v1/rules?limit=2 HTTP/1.1\r\n\r\n",
       "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
       "Content-Length: 289\r\nConnection: close\r\n\r\n"
       R"js({"generation":2,"rows_ingested":3000,"total_rules":138,)js"
       R"js("offset":0,"rules":[{"id":0,"degree":35.70845546262684,)js"
       R"js("support_count":937,"antecedent_size":1,"consequent_size":1,)js"
       R"js("text":""},{"id":1,"degree":35.759054997978176,)js"
       R"js("support_count":935,"antecedent_size":1,"consequent_size":1,)js"
       R"js("text":""}]})js"},
      {"GET /v1/rules?limit=2&text=1 HTTP/1.1\r\n\r\n",
       "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
       "Content-Length: 516\r\nConnection: close\r\n\r\n"
       R"js({"generation":2,"rows_ingested":3000,"total_rules":138,)js"
       R"js("offset":0,"rules":[{"id":0,"degree":35.70845546262684,)js"
       R"js("support_count":937,"antecedent_size":1,"consequent_size":1,)js"
       R"js("text":"[attr0 in [402.727,)js"
       R"js( 530.065] (n=934)] => [attr1 in [452.972,)js"
       R"js( 570.369] (n=924)] (degree=35.7085, support_count=937)"},)js"
       R"js({"id":1,"degree":35.759054997978176,"support_count":935,)js"
       R"js("antecedent_size":1,"consequent_size":1,)js"
       R"js("text":"[attr0 in [402.727,)js"
       R"js( 530.065] (n=934)] => [attr2 in [448.89,)js"
       R"js( 547.793] (n=936)] (degree=35.7591, support_count=935)"}]})js"},
      {"GET /v1/rules?measure=lift&min=1&limit=2 HTTP/1.1\r\n\r\n",
       "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
       "Content-Length: 408\r\nConnection: close\r\n\r\n"
       R"js({"generation":2,"rows_ingested":3000,"total_matching":138,)js"
       R"js("offset":0,"measure":"lift","rules":[{"id":55,)js"
       R"js("degree":49.909467035894494,"support_count":925,)js"
       R"js("score":3.157334231419515,"representative":true,)js"
       R"js("antecedent_size":2,"consequent_size":2,"text":""},{"id":31,)js"
       R"js("degree":47.57896528201847,"support_count":925,)js"
       R"js("score":3.1573342314195147,"representative":true,)js"
       R"js("antecedent_size":2,"consequent_size":2,"text":""}]})js"},
      {"GET /v1/query?max_rules=2&tuple=" + tuple + " HTTP/1.1\r\n\r\n",
       "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
       "Content-Length: 98\r\nConnection: close\r\n\r\n"
       R"js({"generation":2,"rows_ingested":3000,"total_rule_matches":46,)js"
       R"js("clusters":[0,3,8,9],"rules":[21,34]})js"},
      {"POST /v1/query?max_rules=1 HTTP/1.1\r\nContent-Length: " +
           std::to_string(post_body.size()) + "\r\n\r\n" + post_body,
       "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
       "Content-Length: 95\r\nConnection: close\r\n\r\n"
       R"js({"generation":2,"rows_ingested":3000,"total_rule_matches":46,)js"
       R"js("clusters":[0,3,8,9],"rules":[21]})js"},
      {"GET /v1/diff?limit=2&text=1 HTTP/1.1\r\n\r\n",
       "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
       "Content-Length: 542\r\nConnection: close\r\n\r\n"
       R"js({"old_generation":1,"new_generation":2,"rows_ingested":3000,)js"
       R"js("born":0,"died":0,"drifted":87,"unchanged":51,)js"
       R"js("total_changed":87,"entries":[{"kind":1,"rule_id":0,)js"
       R"js("degree":35.70845546262684,)js"
       R"js("interval_shift":0.004218373679895972,)js"
       R"js("text":"[attr0 in [402.727,)js"
       R"js( 530.065] (n=934)] => [attr1 in [452.972,)js"
       R"js( 570.369] (n=924)] (degree=35.7085, support_count=937)"},)js"
       R"js({"kind":1,"rule_id":1,"degree":35.759054997978176,)js"
       R"js("interval_shift":0,"text":"[attr0 in [402.727,)js"
       R"js( 530.065] (n=934)] => [attr2 in [448.89,)js"
       R"js( 547.793] (n=936)] (degree=35.7591, support_count=935)"}]})js"},
      {"GET /v1/rules?limit=-1 HTTP/1.1\r\n\r\n",
       "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
       "Content-Length: 75\r\nConnection: close\r\n\r\n"
       R"js({"error":"invalid_request",)js"
       R"js("message":"parameter limit=\"-1\" is not a u32"})js"},
      {"GET /v1/nope HTTP/1.1\r\n\r\n",
       "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
       "Content-Length: 108\r\nConnection: close\r\n\r\n"
       R"js({"error":"not_found",)js"
       R"js("message":"no endpoint GET /v1/nope; serving /v1/info,)js"
       R"js( /v1/rules, /v1/query, /v1/diff"})js"},
  };
  for (const auto& exchange : kExchanges) {
    EXPECT_EQ(HttpExchange(server.port(), exchange.request), exchange.response)
        << exchange.request;
  }
  // The statuses no request above reaches, and a code past the last.
  const struct {
    ServeCode code;
    std::string response;
  } kErrors[] = {
      {ServeCode::kOverloaded,
       "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n"
       "Content-Length: 36\r\nConnection: close\r\n\r\n"
       R"js({"error":"overloaded","message":"m"})js"},
      {ServeCode::kUnavailable,
       "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n"
       "Content-Length: 37\r\nConnection: close\r\n\r\n"
       R"js({"error":"unavailable","message":"m"})js"},
      {ServeCode::kInternal,
       "HTTP/1.1 500 Internal Server Error\r\n"
       "Content-Type: application/json\r\n"
       "Content-Length: 34\r\nConnection: close\r\n\r\n"
       R"js({"error":"internal","message":"m"})js"},
  };
  for (const auto& error : kErrors) {
    EXPECT_EQ(serve::MakeHttpErrorResponse(error.code, "m"), error.response);
  }
  EXPECT_EQ(serve::HttpStatusForServeCode(static_cast<ServeCode>(6)), 500);
  server.Stop();
}

}  // namespace
}  // namespace dar
