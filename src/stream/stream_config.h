#ifndef DAR_STREAM_STREAM_CONFIG_H_
#define DAR_STREAM_STREAM_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dar {

/// Knobs of an incremental mining stream (Session::OpenStream). The
/// DarConfig knobs — thresholds, metrics, arities — are inherited from the
/// owning Session; this struct only configures *when* rules are re-derived
/// and what the published snapshot carries.
struct StreamConfig {
  /// Re-mine cadence: after every `remine_every_rows` ingested rows a new
  /// RuleSnapshot is derived and published automatically. 0 disables the
  /// automatic cadence — snapshots are then produced only by explicit
  /// Remine() calls. Re-mining is summary-only (Thm 6.1): cost is
  /// proportional to the number of clusters, not to the rows ingested.
  int64_t remine_every_rows = 4096;

  /// When true (default) every snapshot carries a RuleIndex, so readers
  /// can answer "which clusters contain tuple t / which DARs fire for t"
  /// point queries in sublinear time. Costs O(rule references + clusters ·
  /// log clusters) per re-mine.
  bool build_rule_index = true;

  /// Checkpoint cadence: after every `checkpoint_every_rows` ingested rows
  /// the stream's full resumable state — live ACF-trees, counters and the
  /// current snapshot — is written atomically to `checkpoint_path`
  /// (see persist/checkpoint_io.h). 0 disables automatic checkpointing;
  /// StreamingMiner::SaveCheckpoint still works on demand. Cadence
  /// checkpoints carry no dictionaries section (the writer thread does not
  /// hold them); pass them to an explicit SaveCheckpoint call instead.
  int64_t checkpoint_every_rows = 0;

  /// Destination file for cadence checkpoints. Required (non-empty) when
  /// checkpoint_every_rows > 0; each checkpoint atomically replaces the
  /// previous one via write-to-temp + rename.
  std::string checkpoint_path;

  /// Shard identity recorded in this stream's checkpoints (the kShards
  /// provenance section) for distributed mining: workers mining disjoint
  /// data shards set distinct non-negative ids, and
  /// persist::MergeCheckpoints refuses to merge two checkpoints claiming
  /// the same non-negative id (the same shard merged twice would
  /// double-count its tuples). -1 (default) = anonymous; anonymous shards
  /// are never treated as duplicates.
  int64_t shard_id = -1;

  /// Interestingness measures evaluated over every published snapshot's
  /// rules (quality/measure.h names: "support", "confidence", "lift",
  /// "conviction", "chi_squared", plus any measure registered on the
  /// stream). Empty (default) disables per-snapshot scoring. Non-empty
  /// requires DarConfig::count_rule_support: scoring needs contingency
  /// tables, so the stream retains ingested tuples for the post-scan.
  std::vector<std::string> score_measures;

  /// When true, each scored snapshot is redundancy-pruned: near-duplicate
  /// rules (same attribute sets, every interval dimension overlapping by
  /// >= prune_min_overlap, dominated on degree and all scores) are marked
  /// non-representative. Requires non-empty score_measures.
  bool prune_redundant = false;

  /// Pruning strictness in [0, 1]: the per-dimension Jaccard overlap two
  /// rules must exceed to be considered near-duplicates. Higher = stricter
  /// = fewer rules pruned.
  double prune_min_overlap = 0.5;

  /// When true, every published snapshot (after the first) carries a
  /// SnapshotDiff against its predecessor classifying rules as born /
  /// died / drifted / unchanged, surfaced via quality.* telemetry and the
  /// serve diff endpoints.
  bool diff_snapshots = false;

  /// A matched rule counts as drifted when any interval endpoint moved by
  /// more than this fraction of the interval width...
  double drift_interval_tolerance = 0.05;

  /// ...or its degree moved by more than this relative fraction.
  double drift_degree_tolerance = 0.05;

  /// Rejects a negative cadence, a checkpoint cadence without a
  /// destination path, and inconsistent quality knobs. Session::OpenStream
  /// refuses to open a stream on any violation.
  [[nodiscard]] Status Validate() const {
    if (remine_every_rows < 0) {
      return Status::InvalidArgument(
          "StreamConfig::remine_every_rows must be >= 0, got " +
          std::to_string(remine_every_rows));
    }
    if (checkpoint_every_rows < 0) {
      return Status::InvalidArgument(
          "StreamConfig::checkpoint_every_rows must be >= 0, got " +
          std::to_string(checkpoint_every_rows));
    }
    if (checkpoint_every_rows > 0 && checkpoint_path.empty()) {
      return Status::InvalidArgument(
          "StreamConfig::checkpoint_every_rows is set but checkpoint_path "
          "is empty");
    }
    if (shard_id < -1) {
      return Status::InvalidArgument(
          "StreamConfig::shard_id must be >= -1 (-1 = anonymous), got " +
          std::to_string(shard_id));
    }
    for (const std::string& name : score_measures) {
      if (name.empty()) {
        return Status::InvalidArgument(
            "StreamConfig::score_measures contains an empty name");
      }
    }
    if (prune_redundant && score_measures.empty()) {
      return Status::InvalidArgument(
          "StreamConfig::prune_redundant requires score_measures: pruning "
          "compares rule scores to pick representatives");
    }
    if (prune_min_overlap < 0.0 || prune_min_overlap > 1.0) {
      return Status::InvalidArgument(
          "StreamConfig::prune_min_overlap must be in [0, 1], got " +
          std::to_string(prune_min_overlap));
    }
    if (drift_interval_tolerance < 0.0) {
      return Status::InvalidArgument(
          "StreamConfig::drift_interval_tolerance must be >= 0, got " +
          std::to_string(drift_interval_tolerance));
    }
    if (drift_degree_tolerance < 0.0) {
      return Status::InvalidArgument(
          "StreamConfig::drift_degree_tolerance must be >= 0, got " +
          std::to_string(drift_degree_tolerance));
    }
    return Status::OK();
  }
};

}  // namespace dar

#endif  // DAR_STREAM_STREAM_CONFIG_H_
