// Persistence glue between dar::stream and dar::persist: checkpoint save/
// restore for StreamingMiner and the Session-facade entry points. Lives
// here rather than in src/persist/ so dar_persist does not link dar_stream:
// the RuleSnapshot and the miner itself stay out of the persist library,
// and every section layout stays in persist/codec.cc.

#include <memory>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "core/session.h"
#include "persist/checkpoint_io.h"
#include "persist/codec.h"
#include "stream/streaming_miner.h"
#include "telemetry/metrics.h"

namespace dar {
namespace {

using persist::SectionId;

void RecordSave(telemetry::MetricsRegistry* reg, size_t bytes,
                double seconds) {
  if (reg == nullptr) return;
  reg->GetCounter("persist.saves")->Increment();
  reg->GetCounter("persist.save_bytes", telemetry::Unit::kBytes)
      ->Increment(static_cast<int64_t>(bytes));
  reg->GetGauge("persist.last_checkpoint_bytes", telemetry::Unit::kBytes)
      ->Set(static_cast<double>(bytes));
  reg->GetHistogram("persist.save_seconds",
                    telemetry::Histogram::LatencyBounds())
      ->Record(seconds);
}

void RecordLoad(telemetry::MetricsRegistry* reg, size_t bytes,
                double seconds) {
  if (reg == nullptr) return;
  reg->GetCounter("persist.loads")->Increment();
  reg->GetCounter("persist.load_bytes", telemetry::Unit::kBytes)
      ->Increment(static_cast<int64_t>(bytes));
  reg->GetHistogram("persist.load_seconds",
                    telemetry::Histogram::LatencyBounds())
      ->Record(seconds);
}

}  // namespace

Status StreamingMiner::SaveCheckpoint(
    const std::string& path, std::span<const Dictionary> dictionaries) const {
  Stopwatch watch;
  persist::StreamState state;
  state.generation = generation_.load(std::memory_order_acquire);
  state.rows_ingested = rows_ingested_.load(std::memory_order_acquire);
  state.rows_at_snapshot = rows_at_snapshot_.load(std::memory_order_acquire);
  // The file itself is a checkpoint at rows_ingested, regardless of the
  // in-memory cadence bookkeeping.
  state.rows_at_checkpoint = state.rows_ingested;
  state.stream_config = stream_config_;
  // Shard provenance: one entry for this stream, so MergeCheckpoints can
  // attribute the checkpoint's tuples to a shard.
  const persist::ShardInfo shard{stream_config_.shard_id,
                                 state.rows_ingested};
  persist::CheckpointWriter writer;
  persist::AddCommonSections(writer, config_, schema_, partition_,
                             dictionaries, &state, builder_, {&shard, 1});
  if (retains_rows()) {
    writer.AddSection(SectionId::kRetainedRows,
                      persist::EncodeRetainedRowsSection(retained_rows_));
  }

  std::shared_ptr<const RuleSnapshot> snap = snapshot_.load();
  if (snap != nullptr) {
    writer.AddSection(
        SectionId::kSnapshot,
        persist::EncodeResultsSection(snap->generation(),
                                      snap->rows_ingested(), snap->phase1(),
                                      snap->phase2()));
  }

  size_t bytes = 0;
  DAR_RETURN_IF_ERROR(writer.WriteToFile(path, &bytes));
  RecordSave(registry_.get(), bytes, watch.ElapsedSeconds());
  return Status::OK();
}

Status StreamingMiner::MaybeCheckpoint() {
  if (stream_config_.checkpoint_every_rows <= 0) return Status::OK();
  const int64_t rows = rows_ingested_.load(std::memory_order_relaxed);
  if (rows - rows_at_checkpoint_ < stream_config_.checkpoint_every_rows) {
    return Status::OK();
  }
  // Advance the cadence mark before writing: a failing disk surfaces one
  // error per cadence window, not one per subsequent row.
  rows_at_checkpoint_ = rows;
  return SaveCheckpoint(stream_config_.checkpoint_path);
}

Result<RestoredStream> StreamingMiner::RestoreFromFile(
    const std::string& path, const DarConfig& config,
    std::shared_ptr<Executor> executor,
    std::shared_ptr<telemetry::MetricsRegistry> registry,
    MiningObserver* observer) {
  Stopwatch watch;
  DAR_RETURN_IF_ERROR(config.Validate());
  DAR_ASSIGN_OR_RETURN(persist::CheckpointReader reader,
                       persist::CheckpointReader::Open(path));

  DAR_ASSIGN_OR_RETURN(persist::CheckpointMeta meta,
                       persist::DecodeCheckpointMeta(reader));
  DAR_ASSIGN_OR_RETURN(std::string_view state_bytes,
                       reader.Section(SectionId::kStreamState));
  DAR_ASSIGN_OR_RETURN(persist::StreamState state,
                       persist::DecodeStreamStateSection(state_bytes));
  // Same invariant StreamingMiner::Make enforces: scoring needs the
  // support post-scan, which needs retained tuples.
  if (!state.stream_config.score_measures.empty() &&
      !config.count_rule_support) {
    return Status::InvalidArgument(
        "'" + path + "': the checkpointed stream scores measures (" +
        "StreamConfig::score_measures) but the restoring config has "
        "count_rule_support off");
  }
  // Shard identity travels in the provenance section (absent in
  // checkpoints predating it, which restore as anonymous).
  if (meta.shards.has_value()) {
    const std::vector<persist::ShardInfo>& shards = *meta.shards;
    if (shards.size() != 1) {
      return Status::InvalidArgument(
          "'" + path + "': a stream checkpoint must describe exactly one "
          "shard, found " + std::to_string(shards.size()) +
          " (merged checkpoints cannot be restored as streams)");
    }
    state.stream_config.shard_id = shards[0].shard_id;
    if (shards[0].rows != state.rows_ingested) {
      return Status::InvalidArgument(
          "'" + path + "': shard provenance records " +
          std::to_string(shards[0].rows) + " rows but stream state records " +
          std::to_string(state.rows_ingested));
    }
  }

  // The builder is rebuilt under the *restoring* config: the serialized
  // trees are pre-frequency-filter summaries, and the finishing pipeline
  // (frequency threshold, d0 derivation) runs the restoring session's
  // knobs — which is exactly what makes warm re-mining under different
  // thresholds possible without touching the data.
  DAR_ASSIGN_OR_RETURN(std::string_view builder_bytes,
                       reader.Section(SectionId::kBuilder));
  DAR_ASSIGN_OR_RETURN(
      Phase1Builder builder,
      persist::DecodeBuilderSection(
          builder_bytes, config, meta.schema, meta.partition, executor.get(),
          observer, telemetry::TelemetryContext(registry.get())));
  if (builder.rows_added() != state.rows_ingested) {
    return Status::InvalidArgument(
        "'" + path + "': builder recorded " +
        std::to_string(builder.rows_added()) +
        " rows but stream state recorded " +
        std::to_string(state.rows_ingested));
  }

  telemetry::MetricsRegistry* reg = registry.get();
  auto stream = std::make_unique<StreamingMiner>(
      PrivateTag{}, config, state.stream_config, meta.schema, meta.partition,
      std::move(executor), std::move(registry), observer,
      std::move(builder));
  stream->rows_ingested_.store(state.rows_ingested,
                               std::memory_order_release);
  stream->rows_at_snapshot_.store(state.rows_at_snapshot,
                                  std::memory_order_release);
  stream->generation_.store(state.generation, std::memory_order_release);
  stream->rows_at_checkpoint_ = state.rows_at_checkpoint;

  if (reader.HasSection(SectionId::kRetainedRows)) {
    DAR_ASSIGN_OR_RETURN(std::string_view rows_bytes,
                         reader.Section(SectionId::kRetainedRows));
    DAR_ASSIGN_OR_RETURN(
        Relation retained,
        persist::DecodeRetainedRowsSection(rows_bytes, meta.schema));
    if (static_cast<int64_t>(retained.num_rows()) != state.rows_ingested) {
      return Status::InvalidArgument(
          "'" + path + "': retained rows section has " +
          std::to_string(retained.num_rows()) +
          " rows but stream state recorded " +
          std::to_string(state.rows_ingested));
    }
    if (stream->retains_rows()) {
      stream->retained_rows_ = std::move(retained);
    }
    // A restoring config without count_rule_support simply drops the
    // retained tuples: the stream stops rescanning.
  } else if (stream->retains_rows() && state.rows_ingested > 0) {
    return Status::InvalidArgument(
        "'" + path + "': the restoring config sets count_rule_support but "
        "the checkpoint retained no tuples (it was saved without "
        "count_rule_support), so the support post-scan cannot resume");
  }

  if (reader.HasSection(SectionId::kSnapshot)) {
    DAR_ASSIGN_OR_RETURN(std::string_view snap_bytes,
                         reader.Section(SectionId::kSnapshot));
    DAR_ASSIGN_OR_RETURN(persist::DecodedResults results,
                         persist::DecodeResultsSection(snap_bytes));
    if (results.generation != state.generation ||
        results.rows_ingested != state.rows_at_snapshot) {
      return Status::InvalidArgument(
          "'" + path + "': snapshot section is generation " +
          std::to_string(results.generation) + " at " +
          std::to_string(results.rows_ingested) +
          " rows, stream state expects generation " +
          std::to_string(state.generation) + " at " +
          std::to_string(state.rows_at_snapshot) + " rows");
    }
    auto snap = std::make_shared<const RuleSnapshot>(
        results.generation, results.rows_ingested,
        std::move(results.phase1), std::move(results.phase2),
        stream->partition_, state.stream_config.build_rule_index);
    DAR_RETURN_IF_ERROR(snap->CheckConsistency());
    stream->snapshot_.store(std::move(snap));
  } else if (state.generation != 0) {
    return Status::InvalidArgument(
        "'" + path + "': stream state records generation " +
        std::to_string(state.generation) +
        " but the checkpoint has no snapshot section");
  }

  RecordLoad(reg, reader.total_bytes(), watch.ElapsedSeconds());

  RestoredStream out;
  out.stream = std::move(stream);
  out.schema = std::move(meta.schema);
  out.dictionaries = std::move(meta.dictionaries);
  out.saved_config = std::move(meta.config);
  return out;
}

// Defined here rather than in session.cc for the same reason as
// Session::OpenStream: dar_core must not depend on dar_stream/dar_persist.

Status Session::SaveCheckpoint(const StreamingMiner& stream,
                               const std::string& path,
                               std::span<const Dictionary> dictionaries) const {
  return stream.SaveCheckpoint(path, dictionaries);
}

Result<RestoredStream> Session::RestoreCheckpoint(
    const std::string& path) const {
  return StreamingMiner::RestoreFromFile(path, config_, executor_, registry_,
                                         observer_or_null());
}

}  // namespace dar
