#include "serve/query_service.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/model.h"
#include "stream/rule_index.h"
#include "stream/rule_snapshot.h"
#include "stream/streaming_miner.h"

namespace dar {
namespace {

// Per-thread index scratch: the serving hot path reuses it across queries,
// so after warm-up a PointQuery performs no allocation at all.
RuleIndex::QueryScratch& TlsScratch() {
  thread_local RuleIndex::QueryScratch scratch;
  return scratch;
}

// A listing's page size: `limit`, or the default when it is 0, capped at
// the protocol's maximum.
uint32_t PageLimit(uint32_t limit) {
  return limit == 0 ? kDefaultRuleListLimit
                    : std::min(limit, kMaxRuleListLimit);
}

Status NotBound() {
  return Status::Unavailable("QueryService has no attached rule source");
}

}  // namespace

QueryService::QueryService(telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  point_queries_ = registry->GetCounter("serve.point_queries");
  rule_lists_ = registry->GetCounter("serve.rule_lists");
  scored_lists_ = registry->GetCounter("serve.scored_lists");
  diffs_ = registry->GetCounter("serve.diffs");
  snapshot_infos_ = registry->GetCounter("serve.snapshot_infos");
  unavailable_ = registry->GetCounter("serve.unavailable");
  point_query_seconds_ = registry->GetHistogram(
      "serve.point_query_seconds", telemetry::Histogram::LatencyBounds());
  rule_list_seconds_ = registry->GetHistogram(
      "serve.rule_list_seconds", telemetry::Histogram::LatencyBounds());
}

void QueryService::AttachStream(const StreamingMiner& stream) {
  auto binding = std::make_shared<Binding>();
  binding->stream = &stream;
  binding->schema = stream.schema();
  binding->partition = stream.partition();
  binding_.store(std::move(binding));
}

void QueryService::AttachStream(
    std::shared_ptr<const StreamingMiner> stream) {
  if (stream == nullptr) {
    binding_.store(nullptr);
    return;
  }
  auto binding = std::make_shared<Binding>();
  binding->stream = stream.get();
  binding->schema = stream->schema();
  binding->partition = stream->partition();
  binding->owned_stream = std::move(stream);
  binding_.store(std::move(binding));
}

void QueryService::AttachSnapshot(
    std::shared_ptr<const RuleSnapshot> snapshot, Schema schema,
    AttributePartition partition) {
  auto binding = std::make_shared<Binding>();
  binding->pinned = std::move(snapshot);
  binding->schema = std::move(schema);
  binding->partition = std::move(partition);
  binding_.store(std::move(binding));
}

std::shared_ptr<const RuleSnapshot> QueryService::MakeSnapshot(
    DarMiningResult result, const AttributePartition& partition) {
  int64_t rows = 0;
  for (const AcfTreeStats& stats : result.phase1.tree_stats) {
    rows = std::max(rows, stats.points_inserted);
  }
  return std::make_shared<const RuleSnapshot>(
      /*generation=*/1, rows, std::move(result.phase1),
      std::move(result.phase2), partition, /*build_index=*/true);
}

std::shared_ptr<const RuleSnapshot> QueryService::Binding::Current() const {
  return stream != nullptr ? stream->current_snapshot() : pinned;
}

Status QueryService::Acquire(
    std::shared_ptr<const Binding>& binding,
    std::shared_ptr<const RuleSnapshot>& snapshot) const {
  binding = binding_.load();
  if (binding != nullptr) {
    snapshot = binding->Current();
    if (snapshot != nullptr) return Status::OK();
  }
  if (unavailable_) unavailable_->Increment();
  return binding == nullptr
             ? NotBound()
             : Status::Unavailable(
                   "no published rule snapshot yet (stream has not "
                   "re-mined)");
}

Status QueryService::PointQuery(const PointQueryRequest& request,
                                PointQueryResponse& response) const {
  Stopwatch watch;
  if (point_queries_) point_queries_->Increment();
  std::shared_ptr<const Binding> binding;
  std::shared_ptr<const RuleSnapshot> snapshot;
  DAR_RETURN_IF_ERROR(Acquire(binding, snapshot));

  const RuleIndex* index = snapshot->index();
  if (index == nullptr) {
    return Status::InvalidArgument(
        "snapshot has no rule index (stream opened with "
        "build_rule_index = false); point queries are not servable");
  }
  DAR_ASSIGN_OR_RETURN(const RuleIndex::Hits hits,
                       index->Query(request.tuple, TlsScratch()));

  // Every field below comes from `snapshot` — one generation, even while
  // the backing stream publishes a newer one mid-call.
  response.generation = snapshot->generation();
  response.rows_ingested = snapshot->rows_ingested();
  response.clusters.clear();
  for (size_t id : hits.clusters) {
    response.clusters.push_back(static_cast<uint32_t>(id));
  }
  response.total_rule_matches = static_cast<uint32_t>(hits.rules.size());
  size_t keep = hits.rules.size();
  if (request.max_rules != 0 && keep > request.max_rules) {
    // Rule indices ascend by degree (Phase II sorts strongest first), so
    // truncation keeps the strongest implications.
    keep = request.max_rules;
  }
  response.rules.clear();
  for (size_t i = 0; i < keep; ++i) {
    response.rules.push_back(static_cast<uint32_t>(hits.rules[i]));
  }
  if (point_query_seconds_) {
    point_query_seconds_->Record(watch.ElapsedSeconds());
  }
  return Status::OK();
}

Status QueryService::ListRules(const RuleListRequest& request,
                               RuleListResponse& response) const {
  Stopwatch watch;
  if (rule_lists_) rule_lists_->Increment();
  std::shared_ptr<const Binding> binding;
  std::shared_ptr<const RuleSnapshot> snapshot;
  DAR_RETURN_IF_ERROR(Acquire(binding, snapshot));

  const uint32_t limit = PageLimit(request.limit);
  const std::vector<DistanceRule>& rules = snapshot->rules();
  response.generation = snapshot->generation();
  response.rows_ingested = snapshot->rows_ingested();
  response.total_rules = static_cast<uint32_t>(rules.size());
  response.offset = request.offset;
  response.rules.clear();
  // An offset at or past the end is the natural pagination stop: an empty
  // page, not an error — the total tells the client it is done.
  for (size_t i = request.offset;
       i < rules.size() && response.rules.size() < limit; ++i) {
    const DistanceRule& rule = rules[i];
    RuleListEntry& entry = response.rules.emplace_back();
    entry.id = static_cast<uint32_t>(i);
    entry.degree = rule.degree;
    entry.support_count = rule.support_count;
    entry.antecedent_size = static_cast<uint32_t>(rule.antecedent.size());
    entry.consequent_size = static_cast<uint32_t>(rule.consequent.size());
    if (request.include_text) {
      entry.text = rule.ToString(snapshot->clusters(), binding->schema,
                                 binding->partition);
    }
  }
  if (rule_list_seconds_) rule_list_seconds_->Record(watch.ElapsedSeconds());
  return Status::OK();
}

Status QueryService::ListRulesScored(const ScoredRuleListRequest& request,
                                     ScoredRuleListResponse& response) const {
  Stopwatch watch;
  if (scored_lists_) scored_lists_->Increment();
  std::shared_ptr<const Binding> binding;
  std::shared_ptr<const RuleSnapshot> snapshot;
  DAR_RETURN_IF_ERROR(Acquire(binding, snapshot));

  const quality::ScoredRuleSet* scored = snapshot->scored();
  if (scored == nullptr) {
    return Status::InvalidArgument(
        "snapshot carries no measure scores; open the stream with "
        "StreamConfig::score_measures to serve scored listings");
  }
  const int measure = scored->FindMeasure(request.measure);
  if (measure < 0) {
    return Status::NotFound("measure \"" + request.measure +
                            "\" is not scored on this snapshot (have: " +
                            Join(scored->measure_names, ", ") + ")");
  }
  const std::vector<double>& scores =
      scored->scores[static_cast<size_t>(measure)];

  // Filter, then rank descending by score (ties ascend by rule id so the
  // order — and therefore the page content — is fully deterministic).
  std::vector<uint32_t> selected;
  selected.reserve(scores.size());
  for (size_t k = 0; k < scores.size(); ++k) {
    if (!request.include_pruned && scored->representative[k] == 0) continue;
    if (request.has_min && scores[k] < request.min_score) continue;
    if (request.has_max && scores[k] > request.max_score) continue;
    selected.push_back(static_cast<uint32_t>(k));
  }
  std::sort(selected.begin(), selected.end(),
            [&scores](uint32_t a, uint32_t b) {
              if (scores[a] != scores[b]) return scores[a] > scores[b];
              return a < b;
            });

  const uint32_t limit = PageLimit(request.limit);
  const std::vector<DistanceRule>& rules = snapshot->rules();
  response.generation = snapshot->generation();
  response.rows_ingested = snapshot->rows_ingested();
  response.total_matching = static_cast<uint32_t>(selected.size());
  response.offset = request.offset;
  response.measure = request.measure;
  response.rules.clear();
  for (size_t i = request.offset;
       i < selected.size() && response.rules.size() < limit; ++i) {
    const uint32_t id = selected[i];
    const DistanceRule& rule = rules[id];
    ScoredRuleListEntry& entry = response.rules.emplace_back();
    entry.id = id;
    entry.degree = rule.degree;
    entry.support_count = rule.support_count;
    entry.score = scores[id];
    entry.representative = scored->representative[id] != 0;
    entry.antecedent_size = static_cast<uint32_t>(rule.antecedent.size());
    entry.consequent_size = static_cast<uint32_t>(rule.consequent.size());
    if (request.include_text) {
      entry.text = rule.ToString(snapshot->clusters(), binding->schema,
                                 binding->partition);
    } else {
      entry.text.clear();
    }
  }
  if (rule_list_seconds_) rule_list_seconds_->Record(watch.ElapsedSeconds());
  return Status::OK();
}

Status QueryService::Diff(const RuleDiffRequest& request,
                          RuleDiffResponse& response) const {
  if (diffs_) diffs_->Increment();
  std::shared_ptr<const Binding> binding;
  std::shared_ptr<const RuleSnapshot> snapshot;
  DAR_RETURN_IF_ERROR(Acquire(binding, snapshot));

  const quality::SnapshotDiffResult* diff = snapshot->diff();
  if (diff == nullptr) {
    return Status::Unavailable(
        "snapshot carries no diff: the stream needs "
        "StreamConfig::diff_snapshots and at least two published "
        "generations");
  }

  response.old_generation = diff->old_generation;
  response.new_generation = diff->new_generation;
  response.rows_ingested = snapshot->rows_ingested();
  response.born = static_cast<uint32_t>(diff->born);
  response.died = static_cast<uint32_t>(diff->died);
  response.drifted = static_cast<uint32_t>(diff->drifted);
  response.unchanged = static_cast<uint32_t>(diff->unchanged);
  response.total_changed =
      static_cast<uint32_t>(diff->born + diff->died + diff->drifted);
  const uint32_t limit = PageLimit(request.limit);
  const std::vector<DistanceRule>& rules = snapshot->rules();
  response.entries.clear();
  for (const quality::RuleDiffRecord& record : diff->records) {
    if (record.kind == quality::DiffKind::kUnchanged) continue;
    if (response.entries.size() >= limit) break;
    RuleDiffEntry& entry = response.entries.emplace_back();
    entry.kind = static_cast<uint8_t>(record.kind);
    if (record.kind == quality::DiffKind::kDied) {
      // The old generation's rules (and naming context) are gone; only
      // the index survives in the record.
      entry.rule_id = static_cast<uint32_t>(record.old_index);
      entry.degree = 0;
      entry.interval_shift = 0;
      entry.text.clear();
      continue;
    }
    const uint32_t id = static_cast<uint32_t>(record.new_index);
    entry.rule_id = id;
    entry.degree = rules[id].degree;
    entry.interval_shift = record.interval_shift;
    if (request.include_text) {
      entry.text = rules[id].ToString(snapshot->clusters(), binding->schema,
                                      binding->partition);
    } else {
      entry.text.clear();
    }
  }
  return Status::OK();
}

Status QueryService::SnapshotInfo(SnapshotInfoResponse& response) const {
  if (snapshot_infos_) snapshot_infos_->Increment();
  const std::shared_ptr<const Binding> binding = binding_.load();
  if (binding == nullptr) {
    if (unavailable_) unavailable_->Increment();
    return NotBound();
  }
  const std::shared_ptr<const RuleSnapshot> snapshot = binding->Current();
  response.api_version = kQueryApiVersion;
  if (snapshot == nullptr) {
    // Bound but nothing published yet: answer generation 0 so clients can
    // readiness-probe without special-casing an error.
    response.generation = 0;
    response.rows_ingested =
        binding->stream ? binding->stream->rows_ingested() : 0;
    response.num_clusters = 0;
    response.num_rules = 0;
    response.has_index = false;
    return Status::OK();
  }
  response.generation = snapshot->generation();
  response.rows_ingested = snapshot->rows_ingested();
  response.num_clusters = snapshot->clusters().size();
  response.num_rules = snapshot->rules().size();
  response.has_index = snapshot->index() != nullptr;
  return Status::OK();
}

}  // namespace dar
