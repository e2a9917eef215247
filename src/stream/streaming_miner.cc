#include "stream/streaming_miner.h"

#include <utility>

#include "common/stopwatch.h"
#include "core/phase2_runner.h"
#include "core/rule_stats.h"
#include "core/session.h"
#include "quality/diff.h"
#include "quality/prune.h"
#include "quality/scored_rules.h"
#include "telemetry/context.h"

namespace dar {

StreamingMiner::StreamingMiner(
    PrivateTag, DarConfig config, StreamConfig stream_config, Schema schema,
    AttributePartition partition, std::shared_ptr<Executor> executor,
    std::shared_ptr<telemetry::MetricsRegistry> registry,
    MiningObserver* observer, Phase1Builder builder)
    : config_(std::move(config)),
      stream_config_(std::move(stream_config)),
      schema_(std::move(schema)),
      partition_(std::move(partition)),
      executor_(std::move(executor)),
      registry_(std::move(registry)),
      observer_(observer),
      builder_(std::move(builder)),
      retained_rows_(schema_) {
  if (registry_ != nullptr) {
    // Resolve every handle once; recording is then lock-free. All metric
    // names live under stream.* so a telemetry snapshot shows the stream's
    // lifetime totals next to the per-remine phase1.*/phase2.* counters.
    telemetry::MetricsRegistry& reg = *registry_;
    ingest_batches_ = reg.GetCounter("stream.ingest_batches");
    ingest_rows_ = reg.GetCounter("stream.ingest_rows");
    remines_ = reg.GetCounter("stream.remines");
    generation_gauge_ = reg.GetGauge("stream.generation");
    staleness_gauge_ = reg.GetGauge("stream.staleness_rows");
    snapshot_rules_ = reg.GetGauge("stream.snapshot_rules");
    snapshot_clusters_ = reg.GetGauge("stream.snapshot_clusters");
    ingest_seconds_ = reg.GetHistogram(
        "stream.ingest_seconds", telemetry::Histogram::LatencyBounds());
    remine_seconds_ = reg.GetHistogram(
        "stream.remine_seconds", telemetry::Histogram::LatencyBounds());
    post_scan_seconds_ = reg.GetHistogram(
        "stream.post_scan_seconds", telemetry::Histogram::LatencyBounds());
    rules_scored_ = reg.GetCounter("quality.rules_scored");
    rules_pruned_ = reg.GetCounter("quality.rules_pruned");
    rules_born_ = reg.GetCounter("quality.rules_born");
    rules_died_ = reg.GetCounter("quality.rules_died");
    rules_drifted_ = reg.GetCounter("quality.rules_drifted");
  }
}

Result<std::unique_ptr<StreamingMiner>> StreamingMiner::Make(
    const DarConfig& config, const Schema& schema,
    const AttributePartition& partition, StreamConfig stream_config,
    std::shared_ptr<Executor> executor,
    std::shared_ptr<telemetry::MetricsRegistry> registry,
    MiningObserver* observer) {
  DAR_RETURN_IF_ERROR(config.Validate());
  DAR_RETURN_IF_ERROR(stream_config.Validate());
  if (!stream_config.score_measures.empty() && !config.count_rule_support) {
    return Status::InvalidArgument(
        "StreamConfig::score_measures requires DarConfig::"
        "count_rule_support: measure scoring needs contingency tables, so "
        "the stream must retain tuples for the post-scan");
  }
  DAR_ASSIGN_OR_RETURN(
      Phase1Builder builder,
      Phase1Builder::Make(config, schema, partition, executor.get(), observer,
                          telemetry::TelemetryContext(registry.get())));
  // The atomics rule out moves, so the stream lives on the heap from
  // birth; PrivateTag keeps construction funneled through Make.
  return std::make_unique<StreamingMiner>(
      PrivateTag{}, config, std::move(stream_config), schema, partition,
      std::move(executor), std::move(registry), observer,
      std::move(builder));
}

Status StreamingMiner::Ingest(const Relation& batch) {
  Stopwatch watch;
  DAR_RETURN_IF_ERROR(builder_.AddRelation(batch));
  if (retains_rows()) DAR_RETURN_IF_ERROR(retained_rows_.Append(batch));
  rows_ingested_.store(builder_.rows_added(), std::memory_order_release);
  if (ingest_batches_ != nullptr) {
    ingest_batches_->Increment();
    ingest_rows_->Increment(static_cast<int64_t>(batch.num_rows()));
    ingest_seconds_->Record(watch.ElapsedSeconds());
    staleness_gauge_->Set(static_cast<double>(rows_since_snapshot()));
  }
  // Re-mine before checkpointing, so a cadence checkpoint taken this batch
  // carries the freshest snapshot available.
  DAR_RETURN_IF_ERROR(MaybeRemine());
  return MaybeCheckpoint();
}

Status StreamingMiner::IngestRow(std::span<const double> row) {
  Stopwatch watch;
  DAR_RETURN_IF_ERROR(builder_.AddRow(row));
  if (retains_rows()) {
    DAR_RETURN_IF_ERROR(retained_rows_.AppendRow(row));
  }
  rows_ingested_.store(builder_.rows_added(), std::memory_order_release);
  if (ingest_rows_ != nullptr) {
    ingest_rows_->Increment();
    ingest_seconds_->Record(watch.ElapsedSeconds());
    staleness_gauge_->Set(static_cast<double>(rows_since_snapshot()));
  }
  DAR_RETURN_IF_ERROR(MaybeRemine());
  return MaybeCheckpoint();
}

Status StreamingMiner::MaybeRemine() {
  if (stream_config_.remine_every_rows <= 0) return Status::OK();
  if (rows_since_snapshot() < stream_config_.remine_every_rows) {
    return Status::OK();
  }
  return Remine().status();
}

Result<std::shared_ptr<const RuleSnapshot>> StreamingMiner::Remine() {
  Stopwatch watch;
  const int64_t rows = builder_.rows_added();
  // Summary-only: clone the live trees, finish the clones, re-derive the
  // rules from the summaries. No ingested tuple is revisited.
  DAR_ASSIGN_OR_RETURN(Phase1Result phase1, builder_.Snapshot());
  Phase2RunOptions options;
  options.executor = executor_.get();
  options.observer = observer_;
  options.telemetry = telemetry::TelemetryContext(registry_.get());
  DAR_ASSIGN_OR_RETURN(Phase2Result phase2,
                       RunPhase2OnSummaries(phase1, config_, options));

  const uint64_t generation =
      generation_.load(std::memory_order_relaxed) + 1;
  const std::shared_ptr<const RuleSnapshot> previous = snapshot_.load();
  DAR_ASSIGN_OR_RETURN(
      QualityArtifacts quality,
      ComputeQuality(phase1, phase2, previous.get(), generation));
  auto snapshot = std::make_shared<const RuleSnapshot>(
      generation, rows, std::move(phase1), std::move(phase2), partition_,
      stream_config_.build_rule_index, std::move(quality));

  // Publication order: the fully built snapshot first (SnapshotCell's
  // unlock is a release), then the counters readers use as staleness/
  // progress gauges. A reader that sees generation N can therefore always
  // load a snapshot of at least that generation.
  snapshot_.store(snapshot);
  rows_at_snapshot_.store(rows, std::memory_order_release);
  generation_.store(generation, std::memory_order_release);

  if (remines_ != nullptr) {
    remines_->Increment();
    remine_seconds_->Record(watch.ElapsedSeconds());
    generation_gauge_->Set(static_cast<double>(generation));
    staleness_gauge_->Set(0);
    snapshot_rules_->Set(static_cast<double>(snapshot->rules().size()));
    snapshot_clusters_->Set(static_cast<double>(snapshot->clusters().size()));
    if (snapshot->scored() != nullptr) {
      rules_scored_->Increment(
          static_cast<int64_t>(snapshot->scored()->stats.size()));
      rules_pruned_->Increment(
          static_cast<int64_t>(snapshot->scored()->num_pruned));
    }
    if (snapshot->diff() != nullptr) {
      rules_born_->Increment(static_cast<int64_t>(snapshot->diff()->born));
      rules_died_->Increment(static_cast<int64_t>(snapshot->diff()->died));
      rules_drifted_->Increment(
          static_cast<int64_t>(snapshot->diff()->drifted));
    }
  }
  return snapshot;
}

Result<QualityArtifacts> StreamingMiner::ComputeQuality(
    const Phase1Result& phase1, Phase2Result& phase2,
    const RuleSnapshot* previous, uint64_t new_generation) {
  QualityArtifacts quality;
  if (retains_rows()) {
    // The §6.2 support post-scan the batch path runs inside Mine(): one
    // executor-parallel pass over the retained tuples fills contingency
    // tables for every rule at once.
    Stopwatch watch;
    DAR_ASSIGN_OR_RETURN(
        std::vector<RuleStats> stats,
        ScanRuleSupport(retained_rows_, partition_, phase1.clusters,
                        phase2.rules, executor_.get()));
    if (post_scan_seconds_ != nullptr) {
      post_scan_seconds_->Record(watch.ElapsedSeconds());
    }
    if (!stream_config_.score_measures.empty()) {
      DAR_ASSIGN_OR_RETURN(
          quality::ScoredRuleSet scored,
          quality::ScoreRules(std::move(stats), measures_,
                              stream_config_.score_measures));
      if (stream_config_.prune_redundant) {
        quality::PruneOptions prune_options;
        prune_options.min_overlap = stream_config_.prune_min_overlap;
        DAR_ASSIGN_OR_RETURN(
            quality::PruneResult pruned,
            quality::PruneRedundant(phase1.clusters, phase2.rules,
                                    scored.scores, prune_options));
        scored.representative = std::move(pruned.representative);
        scored.num_pruned = pruned.num_pruned;
      }
      quality.scored = std::make_shared<const quality::ScoredRuleSet>(
          std::move(scored));
    }
  }
  if (stream_config_.diff_snapshots && previous != nullptr) {
    quality::DiffOptions diff_options;
    diff_options.interval_tolerance =
        stream_config_.drift_interval_tolerance;
    diff_options.degree_tolerance = stream_config_.drift_degree_tolerance;
    DAR_ASSIGN_OR_RETURN(
        quality::SnapshotDiffResult diff,
        quality::DiffRuleSets(previous->clusters(), previous->rules(),
                              previous->generation(), phase1.clusters,
                              phase2.rules, new_generation, diff_options));
    quality.diff =
        std::make_shared<const quality::SnapshotDiffResult>(std::move(diff));
  }
  return quality;
}

// Defined here rather than in session.cc so dar_core does not depend on
// dar_stream: the facade's streaming entry point links with the subsystem
// it constructs.
Result<std::unique_ptr<StreamingMiner>> Session::OpenStream(
    const Schema& schema, const AttributePartition& partition,
    StreamConfig stream_config) const {
  return StreamingMiner::Make(config_, schema, partition, stream_config,
                              executor_, registry_, observer_or_null());
}

}  // namespace dar
