#include "persist/merge.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/stopwatch.h"
#include "core/session.h"
#include "persist/checkpoint_io.h"

namespace dar::persist {
namespace {

Status Contextualize(const std::string& path, const Status& status) {
  return {status.code(), "'" + path + "': " + status.message()};
}

bool PartitionsEqual(const AttributePartition& a,
                     const AttributePartition& b) {
  if (a.num_parts() != b.num_parts()) return false;
  for (size_t p = 0; p < a.num_parts(); ++p) {
    if (a.part(p).columns != b.part(p).columns ||
        a.part(p).metric != b.part(p).metric) {
      return false;
    }
  }
  return true;
}

/// One input checkpoint: its shared sections, decoded up front, and the
/// reader the (large) builder payload is fetched from once the effective
/// config is known.
struct Input {
  CheckpointReader reader;
  CheckpointMeta meta;
};

Result<Input> OpenInput(const std::string& path) {
  auto reader = CheckpointReader::Open(path);
  if (!reader.ok()) return Contextualize(path, reader.status());
  auto meta = DecodeCheckpointMeta(*reader);
  if (!meta.ok()) return Contextualize(path, meta.status());
  return Input{std::move(reader).ValueOrDie(), std::move(meta).ValueOrDie()};
}

/// Folds `from` into `into` under the prefix rule: codes are baked into
/// the shards' summaries and cannot be remapped, so per column the shorter
/// dictionary must be a code-for-code prefix of the longer, which wins.
Status ReconcileDictionaries(std::vector<Dictionary>& into,
                             const std::vector<Dictionary>& from,
                             const std::string& path) {
  if (from.empty()) return Status::OK();
  if (into.empty()) {
    into = from;
    return Status::OK();
  }
  if (into.size() != from.size()) {
    return Status::InvalidArgument(
        "'" + path + "': has " + std::to_string(from.size()) +
        " dictionaries but earlier checkpoints have " +
        std::to_string(into.size()));
  }
  for (size_t d = 0; d < into.size(); ++d) {
    const size_t common = std::min(into[d].size(), from[d].size());
    for (size_t code = 0; code < common; ++code) {
      const std::string a =
          into[d].Decode(static_cast<double>(code)).ValueOrDie();
      const std::string b =
          from[d].Decode(static_cast<double>(code)).ValueOrDie();
      if (a != b) {
        return Status::InvalidArgument(
            "'" + path + "': dictionary " + std::to_string(d) +
            " maps code " + std::to_string(code) + " to '" + b +
            "' but earlier checkpoints map it to '" + a +
            "'; nominal codes are baked into the summaries and cannot be "
            "remapped");
      }
    }
    if (from[d].size() > into[d].size()) into[d] = from[d];
  }
  return Status::OK();
}

}  // namespace

Result<MergedCheckpoint> MergeCheckpoints(std::span<const std::string> paths,
                                          const MergeOptions& options) {
  if (paths.empty()) {
    return Status::InvalidArgument(
        "MergeCheckpoints needs at least one checkpoint path");
  }
  Stopwatch watch;
  telemetry::TelemetryContext telemetry = options.telemetry;

  DAR_ASSIGN_OR_RETURN(Input first, OpenInput(paths[0]));
  CheckpointMeta& base = first.meta;

  // The merged builder is rebuilt under the caller's config when given
  // (warm re-mine, same semantics as Session::RestoreCheckpoint) and the
  // inputs' own shared config otherwise.
  const DarConfig& effective =
      options.config != nullptr ? *options.config : base.config;
  DAR_RETURN_IF_ERROR(effective.Validate());

  DAR_ASSIGN_OR_RETURN(std::string_view builder_bytes,
                       first.reader.Section(SectionId::kBuilder));
  auto builder_or = DecodeBuilderSection(
      builder_bytes, effective, base.schema, base.partition,
      options.executor, options.observer, telemetry);
  if (!builder_or.ok()) return Contextualize(paths[0], builder_or.status());
  Phase1Builder merged = std::move(builder_or).ValueOrDie();
  if (merged.rows_added() == 0) {
    return Status::InvalidArgument("'" + paths[0] +
                                   "': shard checkpoint is empty (0 rows)");
  }

  std::vector<Dictionary> dictionaries = std::move(base.dictionaries);
  std::vector<ShardInfo> shards;
  // `provenance_path[k]` names the file that contributed shards[k], for
  // the duplicate-id diagnostics below.
  std::vector<std::string> provenance_path;
  // Inputs without a shards section contribute one anonymous entry.
  const auto add_provenance = [&](const CheckpointMeta& meta, int64_t rows,
                                  const std::string& path) {
    for (const ShardInfo& s : meta.shards.value_or(
             std::vector<ShardInfo>{{-1, rows}})) {
      shards.push_back(s);
      provenance_path.push_back(path);
    }
  };
  add_provenance(base, merged.rows_added(), paths[0]);
  for (size_t i = 1; i < paths.size(); ++i) {
    DAR_ASSIGN_OR_RETURN(Input input, OpenInput(paths[i]));
    const CheckpointMeta& meta = input.meta;

    if (const std::string knob = FirstConfigDiff(base.config, meta.config);
        !knob.empty()) {
      return Status::InvalidArgument(
          "config mismatch: '" + paths[i] + "' disagrees with '" + paths[0] +
          "' on " + knob + "; shards must be mined under one config");
    }
    if (!(meta.schema == base.schema)) {
      return Status::InvalidArgument(
          "schema mismatch: '" + paths[i] +
          "' was mined over a different relation schema than '" + paths[0] +
          "'");
    }
    if (!PartitionsEqual(meta.partition, base.partition)) {
      return Status::InvalidArgument(
          "partition mismatch: '" + paths[i] +
          "' uses a different attribute partitioning than '" + paths[0] +
          "'");
    }
    DAR_RETURN_IF_ERROR(
        ReconcileDictionaries(dictionaries, meta.dictionaries, paths[i]));

    DAR_ASSIGN_OR_RETURN(std::string_view bytes,
                         input.reader.Section(SectionId::kBuilder));
    // Shard builders are transient (consumed by the merge): decode them
    // serial and unobserved.
    auto shard_or = DecodeBuilderSection(bytes, effective, base.schema,
                                         base.partition);
    if (!shard_or.ok()) return Contextualize(paths[i], shard_or.status());
    Phase1Builder shard = std::move(shard_or).ValueOrDie();
    if (shard.rows_added() == 0) {
      return Status::InvalidArgument("'" + paths[i] +
                                     "': shard checkpoint is empty (0 rows)");
    }
    DAR_RETURN_IF_ERROR(merged.MergeFrom(shard));
    add_provenance(meta, shard.rows_added(), paths[i]);
  }

  // Non-negative shard ids assert an identity; the same shard merged twice
  // would double-count its tuples, so refuse duplicates outright.
  std::map<int64_t, size_t> first_seen;
  for (size_t k = 0; k < shards.size(); ++k) {
    if (shards[k].shard_id < 0) continue;
    auto [it, inserted] = first_seen.emplace(shards[k].shard_id, k);
    if (!inserted) {
      return Status::InvalidArgument(
          "duplicate shard id " + std::to_string(shards[k].shard_id) +
          ": contributed by both '" + provenance_path[it->second] +
          "' and '" + provenance_path[k] +
          "'; merging the same shard twice would double-count its tuples");
    }
  }

  if (telemetry.enabled()) {
    telemetry.GetCounter("merge.checkpoints")
        ->Increment(static_cast<int64_t>(paths.size()));
    telemetry.GetCounter("merge.shards")
        ->Increment(static_cast<int64_t>(shards.size()));
    telemetry
        .GetHistogram("merge.seconds", telemetry::Histogram::LatencyBounds())
        ->Record(watch.ElapsedSeconds());
  }

  return MergedCheckpoint{std::move(base.config),
                          std::move(base.schema),
                          std::move(base.partition),
                          std::move(dictionaries),
                          std::move(shards),
                          std::move(merged)};
}

Status WriteMergedCheckpoint(const MergedCheckpoint& merged,
                             const std::string& path) {
  CheckpointWriter writer;
  AddCommonSections(writer, merged.config, merged.schema, merged.partition,
                    merged.dictionaries, /*stream_state=*/nullptr,
                    merged.builder, merged.shards);
  return writer.WriteToFile(path);
}

}  // namespace dar::persist

namespace dar {

// Defined here rather than in core/session.cc because it layers on
// dar_persist (dar_core must not depend on it) — the same arrangement as
// Session::SaveCheckpoint / RestoreCheckpoint in src/stream/.
Result<MiningReport> Session::MineFromCheckpoints(
    std::span<const std::string> paths) const {
  registry_->Reset();  // mirrors Mine: one call == one reported run
  persist::MergeOptions options;
  options.config = &config_;
  options.executor = executor_.get();
  options.observer = observer_or_null();
  options.telemetry = telemetry::TelemetryContext(registry_.get());
  DAR_ASSIGN_OR_RETURN(persist::MergedCheckpoint merged,
                       persist::MergeCheckpoints(paths, options));
  DAR_ASSIGN_OR_RETURN(Phase1Result phase1,
                       std::move(merged.builder).Finish());
  // No relation: the data never reaches this process, so the optional
  // §6.2 support rescan cannot run and support counts stay unset.
  return FinishRun(std::move(phase1), /*rel=*/nullptr, merged.partition);
}

}  // namespace dar
