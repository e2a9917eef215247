#ifndef DAR_SERVE_QUERY_SERVICE_H_
#define DAR_SERVE_QUERY_SERVICE_H_

#include <memory>
#include <utility>

#include "common/status.h"
#include "core/miner_result.h"
#include "relation/partition.h"
#include "relation/schema.h"
#include "serve/query_api.h"
#include "stream/snapshot_cell.h"
#include "telemetry/metrics.h"

namespace dar {

class RuleSnapshot;    // stream/rule_snapshot.h
class StreamingMiner;  // stream/streaming_miner.h

/// The transport-agnostic query facade — the ONE surface through which
/// rules are read, shared by in-process callers, the framed binary
/// protocol and the HTTP adapter (serve/server.h). It answers the
/// versioned requests of serve/query_api.h from the latest published
/// RuleSnapshot, hiding the stream-layer machinery (RuleSnapshot,
/// RuleIndex, SnapshotCell) that used to leak into examples and tests.
///
/// A service is *bound* to a snapshot source:
///   - AttachStream: a live dar::stream — every request is answered from
///     the stream's latest snapshot, so background re-mining hot-swaps
///     the served generation without a single blocked reader;
///   - AttachSnapshot: a pinned snapshot — e.g. one-shot Session::Mine
///     results wrapped via MakeSnapshot, or a checkpoint restored for
///     read-only serving.
/// Rebinding is itself a lock-free hot swap: queries in flight finish on
/// the binding they acquired (which keeps its stream/snapshot alive), new
/// queries see the new source. That is how a server warm-starts from a
/// RestoreCheckpoint while traffic is running.
///
/// Consistency contract: every response is derived from exactly one
/// snapshot generation — generation, row counts, ids and totals are never
/// a torn mix across a concurrent re-mine or re-bind (pinned by the
/// TSan-labeled tests in tests/serve_test.cc).
///
/// Hot path: PointQuery performs no allocation in steady state — the
/// request views its tuple, the response reuses its vectors, the index
/// scratch is thread-local, and the only shared-ownership traffic is the
/// two lock-free acquires (binding, then snapshot).
///
/// Thread-safe: any number of threads may call the query methods
/// concurrently with each other and with Attach* calls.
class QueryService {
 public:
  /// `registry` may be null (telemetry disabled). Metrics live under
  /// serve.* next to the stream.* counters of the backing stream.
  explicit QueryService(telemetry::MetricsRegistry* registry = nullptr);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Binds to a live stream WITHOUT taking ownership: `stream` must
  /// outlive both this binding (until the next Attach*) and any query
  /// still in flight on it. Prefer the shared_ptr overload when the
  /// service outlives the code that opened the stream.
  void AttachStream(const StreamingMiner& stream);

  /// Binds to a live stream, sharing ownership: the stream stays alive as
  /// long as any in-flight query still uses the old binding.
  void AttachStream(std::shared_ptr<const StreamingMiner> stream);

  /// Binds to a pinned snapshot (may be null to detach — queries then
  /// fail kUnavailable). `schema`/`partition` provide the naming context
  /// for rule text.
  void AttachSnapshot(std::shared_ptr<const RuleSnapshot> snapshot,
                      Schema schema, AttributePartition partition);

  /// Wraps one-shot mining results as a servable snapshot (generation 1,
  /// rule index built), so batch callers get the same query surface as
  /// streams. The row count is recovered from the Phase-I tree stats.
  static std::shared_ptr<const RuleSnapshot> MakeSnapshot(
      DarMiningResult result, const AttributePartition& partition);

  /// Point query: which clusters contain the tuple, which rules fire.
  /// Errors: kUnavailable (no snapshot), kInvalidRequest (tuple too short
  /// or the snapshot has no index).
  [[nodiscard]] Status PointQuery(const PointQueryRequest& request,
                                  PointQueryResponse& response) const;

  /// Paginated rule listing from the current snapshot.
  [[nodiscard]] Status ListRules(const RuleListRequest& request,
                                 RuleListResponse& response) const;

  /// Measure-ranked, score-filtered rule listing. Errors: kUnavailable
  /// (no snapshot), kInvalidRequest (snapshot carries no scores — open the
  /// stream with StreamConfig::score_measures), kNotFound (measure not
  /// among the scored ones, message lists what is available).
  [[nodiscard]] Status ListRulesScored(
      const ScoredRuleListRequest& request,
      ScoredRuleListResponse& response) const;

  /// Drift report of the current snapshot against its predecessor.
  /// Errors: kUnavailable (no snapshot, or no diff yet — the stream needs
  /// StreamConfig::diff_snapshots and at least two generations).
  [[nodiscard]] Status Diff(const RuleDiffRequest& request,
                            RuleDiffResponse& response) const;

  /// Metadata of the current snapshot. When a source is attached but has
  /// not published yet, succeeds with generation 0 (the readiness-probe
  /// shape); fails kUnavailable only when nothing is attached.
  [[nodiscard]] Status SnapshotInfo(SnapshotInfoResponse& response) const;

  /// True once any source is attached (even if it has not published yet).
  [[nodiscard]] bool bound() const { return binding_.load() != nullptr; }

 private:
  // One immutable source binding, published through a SnapshotCell so
  // re-binding never blocks readers. Exactly one of {stream, pinned} is
  // the source; `owned_stream` keeps the shared_ptr overload's stream
  // alive and aliases `stream` when used.
  struct Binding {
    const StreamingMiner* stream = nullptr;  // not owned; may be null
    std::shared_ptr<const StreamingMiner> owned_stream;
    std::shared_ptr<const RuleSnapshot> pinned;
    Schema schema;
    AttributePartition partition;

    // The snapshot this source serves now; null before its first publish.
    [[nodiscard]] std::shared_ptr<const RuleSnapshot> Current() const;
  };

  // The current binding and the snapshot it serves, for one request;
  // kUnavailable, counted in serve.unavailable, when nothing is bound or
  // nothing is published yet.
  Status Acquire(std::shared_ptr<const Binding>& binding,
                 std::shared_ptr<const RuleSnapshot>& snapshot) const;

  SnapshotCell<const Binding> binding_;

  // Telemetry handles, resolved once at construction (null when the
  // registry is null). Latency histograms carry Unit::kSeconds, so the
  // deterministic exporter view excludes them automatically.
  telemetry::Counter* point_queries_ = nullptr;
  telemetry::Counter* rule_lists_ = nullptr;
  telemetry::Counter* scored_lists_ = nullptr;
  telemetry::Counter* diffs_ = nullptr;
  telemetry::Counter* snapshot_infos_ = nullptr;
  telemetry::Counter* unavailable_ = nullptr;
  telemetry::Histogram* point_query_seconds_ = nullptr;
  telemetry::Histogram* rule_list_seconds_ = nullptr;
};

}  // namespace dar

#endif  // DAR_SERVE_QUERY_SERVICE_H_
