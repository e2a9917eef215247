#ifndef DAR_PERSIST_CODEC_H_
#define DAR_PERSIST_CODEC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "birch/acf_tree.h"
#include "common/executor.h"
#include "common/result.h"
#include "core/config.h"
#include "core/miner_result.h"
#include "core/model.h"
#include "core/observer.h"
#include "core/phase1_builder.h"
#include "persist/checkpoint_io.h"
#include "persist/wire.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "stream/stream_config.h"
#include "telemetry/context.h"

namespace dar::persist {

/// Section codecs for the checkpoint container (checkpoint_io.h), and the
/// only code that knows the section layouts: stream save/restore, shard
/// merging and the `dar_ckpt` inspector all go through them. Each Encode*
/// returns a complete section payload; each Decode* re-validates
/// everything it reads (counts against remaining bytes, enum ranges,
/// cross-references against the schema/partition/layout), because a CRC
/// only rules out accidental corruption of valid bytes — it does not make
/// the bytes trustworthy.
///
/// Decoded summaries are bit-exact: doubles round-trip as raw IEEE-754
/// bits, so re-mining a restored Phase1Builder yields rules bit-identical
/// to the original run (Thm 6.1: Phase II is a pure function of the ACF
/// summaries).

// --- schema / dictionaries / partition / config ---

[[nodiscard]] std::string EncodeSchemaSection(const Schema& schema);
Result<Schema> DecodeSchemaSection(std::string_view bytes);

[[nodiscard]] std::string EncodeDictionariesSection(
    std::span<const Dictionary> dictionaries);
Result<std::vector<Dictionary>> DecodeDictionariesSection(
    std::string_view bytes);

[[nodiscard]] std::string EncodePartitionSection(
    const AttributePartition& partition);
/// Rebuilds through AttributePartition::Make, so all of Make's validation
/// (disjointness, schema bounds, nominal/discrete agreement) re-runs.
Result<AttributePartition> DecodePartitionSection(std::string_view bytes,
                                                  const Schema& schema);

/// Serializes every knob. After `initial_diameters` come seven slots (44
/// bytes) where configs once carried ACF-tree options: written from
/// AcfTreeOptions{}, dropped on read. One field list in codec.cc names the
/// knobs for the encoder, the decoder, FirstConfigDiff and
/// DescribeCheckpoint.
[[nodiscard]] std::string EncodeConfigSection(const DarConfig& config);
Result<DarConfig> DecodeConfigSection(std::string_view bytes);

/// The first knob, in wire order, on which the two configs disagree, by
/// its name in DescribeCheckpoint ("degree_threshold",
/// "count_rule_support", ...); "" when every knob agrees.
[[nodiscard]] std::string FirstConfigDiff(const DarConfig& a,
                                          const DarConfig& b);

// --- shard provenance ---

/// Provenance of one input shard, recorded in the kShards section of
/// merged checkpoints (persist/merge.h) and of stream checkpoints whose
/// StreamConfig::shard_id was set.
struct ShardInfo {
  /// Caller-assigned shard identity; -1 = anonymous. MergeCheckpoints
  /// requires non-negative ids to be unique across its inputs.
  int64_t shard_id = -1;
  /// Tuples this shard contributed.
  int64_t rows = 0;
};

[[nodiscard]] std::string EncodeShardsSection(
    std::span<const ShardInfo> shards);
Result<std::vector<ShardInfo>> DecodeShardsSection(std::string_view bytes);

// --- ACF-trees and Phase1Builder ---

/// Exact structural serialization of one tree: options, threshold,
/// counters, outlier buffers, then a preorder walk of the node structure.
/// Deliberately NOT a re-insertion log — InsertSummary could merge or
/// reorder entries, and ExtractClusters() order (hence cluster ids, hence
/// rule identities) must survive a round-trip bit-identically.
void EncodeTree(const AcfTree& tree, WireWriter& w);

/// Rebuilds a tree against `layout` (decoded images are validated against
/// it, its options by AcfTreeOptions::Validate).
/// When DAR_VALIDATE_INVARIANTS is defined the decoded tree is
/// additionally run through AcfTree::ValidateInvariants, so a CRC-valid
/// but semantically corrupt tree (e.g. version-skewed bytes) fails here
/// with the offending node path in the error.
Result<std::unique_ptr<AcfTree>> DecodeTree(
    WireReader& r, std::shared_ptr<const AcfLayout> layout,
    size_t expect_part);

[[nodiscard]] std::string EncodeBuilderSection(const Phase1Builder& builder);

/// Restores a builder ready to absorb more rows. `config` is the
/// *restoring* session's config — pass the original config for exact
/// continuation, or a config with different d0/frequency thresholds for
/// warm re-mining over the same summaries without data access. Tree
/// structure and options come from the file (each blob's options pass
/// AcfTreeOptions::Validate); the builder wires each tree's rebuild hook
/// to `observer`, as it does for the trees Phase1Builder::Make builds.
Result<Phase1Builder> DecodeBuilderSection(
    std::string_view bytes, const DarConfig& config, const Schema& schema,
    const AttributePartition& partition, Executor* executor = nullptr,
    MiningObserver* observer = nullptr,
    telemetry::TelemetryContext telemetry = {});

// --- mining results (RuleSnapshot payload) ---

/// Generation + rows + Phase1Result + Phase2Result. dar_persist does not
/// link dar_stream, so the RuleSnapshot object itself is (re)assembled by
/// the stream layer from these parts.
[[nodiscard]] std::string EncodeResultsSection(uint64_t generation,
                                               int64_t rows_ingested,
                                               const Phase1Result& phase1,
                                               const Phase2Result& phase2);

struct DecodedResults {
  uint64_t generation = 0;
  int64_t rows_ingested = 0;
  Phase1Result phase1;
  Phase2Result phase2;
};
Result<DecodedResults> DecodeResultsSection(std::string_view bytes);

// --- stream state and retained tuples (stream checkpoints only) ---

/// A stream's counters plus its StreamConfig, so a restored stream resumes
/// with the exact cadence the saved one ran under. The shard id travels in
/// the shards section instead.
struct StreamState {
  uint64_t generation = 0;
  int64_t rows_ingested = 0;
  int64_t rows_at_snapshot = 0;
  int64_t rows_at_checkpoint = 0;
  StreamConfig stream_config;
};

[[nodiscard]] std::string EncodeStreamStateSection(const StreamState& state);
/// Sections written before the quality knobs existed end after
/// checkpoint_path; they decode with the StreamConfig defaults.
Result<StreamState> DecodeStreamStateSection(std::string_view bytes);

/// Tuples a stream retains for the support post-scan: u64 rows, u64 cols,
/// then the values row-major.
[[nodiscard]] std::string EncodeRetainedRowsSection(const Relation& rows);
/// Refuses any shape whose values would not fill the payload exactly, so a
/// corrupt row count can never request a huge allocation.
Result<Relation> DecodeRetainedRowsSection(std::string_view bytes,
                                           const Schema& schema);

// --- whole checkpoints ---

/// The sections stream restore, shard merging and DescribeCheckpoint all
/// read: config, schema and partition (required), dictionaries and shard
/// provenance (optional).
struct CheckpointMeta {
  DarConfig config;
  Schema schema;
  AttributePartition partition;
  /// Empty when the checkpoint has no dictionaries section.
  std::vector<Dictionary> dictionaries;
  /// Absent in checkpoints written before shard provenance existed.
  std::optional<std::vector<ShardInfo>> shards;
};

Result<CheckpointMeta> DecodeCheckpointMeta(const CheckpointReader& reader);

/// Adds the sections stream and merged checkpoints share, in file order:
/// config, schema, partition, dictionaries (when any), `stream_state`
/// (null for a merged checkpoint), builder, shards. A stream checkpoint
/// appends its retained tuples and snapshot after these.
void AddCommonSections(CheckpointWriter& writer, const DarConfig& config,
                       const Schema& schema,
                       const AttributePartition& partition,
                       std::span<const Dictionary> dictionaries,
                       const StreamState* stream_state,
                       const Phase1Builder& builder,
                       std::span<const ShardInfo> shards);

/// The text `dar_ckpt` prints: one block per section in file order (sizes,
/// shapes, counters, per-tree statistics, cluster/clique/rule counts), then
/// `ok`. Every known section goes through the decoders restore and merge
/// use, so corrupt content is a Status here too; unknown ids are listed
/// as skipped. The config and stream-state blocks print every field of
/// their field lists, in wire order. Booleans print as True/False, text
/// quoted ('name'), lists as [1, 2], and floats in the shortest form that
/// reads back exactly (FormatDoubleExact), with ".0" after an integer:
/// 8.0, 0.05, 1e+05. `show_floats` false prints floats as `_`.
Result<std::string> DescribeCheckpoint(const CheckpointReader& reader,
                                       bool show_floats);

}  // namespace dar::persist

#endif  // DAR_PERSIST_CODEC_H_
