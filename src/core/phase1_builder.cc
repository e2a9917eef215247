#include "core/phase1_builder.h"

#include <algorithm>
#include <cmath>

#include "birch/refine.h"

namespace dar {

namespace {

// Rows between updates of the trees' outlier paging threshold.
constexpr int64_t kPagingRows = 4096;

}  // namespace

Result<Phase1Builder> Phase1Builder::Make(
    const DarConfig& config, const Schema& schema,
    const AttributePartition& partition, Executor* executor,
    MiningObserver* observer, telemetry::TelemetryContext telemetry) {
  if (partition.num_parts() == 0) {
    return Status::InvalidArgument("attribute partition is empty");
  }
  DAR_RETURN_IF_ERROR(config.Validate());
  for (const auto& part : partition.parts()) {
    for (size_t col : part.columns) {
      if (col >= schema.num_attributes()) {
        return Status::InvalidArgument(
            "partition references column " + std::to_string(col) +
            " outside the schema");
      }
    }
  }

  std::shared_ptr<const AcfLayout> layout = LayoutOf(partition);
  std::vector<std::unique_ptr<AcfTree>> trees;
  trees.reserve(partition.num_parts());
  for (size_t p = 0; p < partition.num_parts(); ++p) {
    // The outlier paging threshold starts at 0 and follows the rows
    // (UpdateOutlierThresholds); the constructor wires the rebuild hook.
    AcfTreeOptions opts;
    opts.memory_budget_bytes = std::max<size_t>(
        1, config.memory_budget_bytes / partition.num_parts());
    opts.initial_threshold = p < config.initial_diameters.size()
                                 ? config.initial_diameters[p]
                                 : 0.0;
    trees.push_back(std::make_unique<AcfTree>(layout, p, opts));
  }
  return Phase1Builder(config, partition, std::move(layout),
                       std::move(trees), schema.num_attributes(), executor,
                       observer, telemetry);
}

std::shared_ptr<const AcfLayout> Phase1Builder::LayoutOf(
    const AttributePartition& partition) {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts.reserve(partition.num_parts());
  for (const auto& part : partition.parts()) {
    layout->parts.push_back({part.dimension(), part.metric, part.label});
  }
  return layout;
}

Phase1Builder::Phase1Builder(DarConfig config, AttributePartition partition,
                             std::shared_ptr<const AcfLayout> layout,
                             std::vector<std::unique_ptr<AcfTree>> trees,
                             size_t schema_width, Executor* executor,
                             MiningObserver* observer,
                             telemetry::TelemetryContext telemetry)
    : config_(std::move(config)),
      partition_(std::move(partition)),
      layout_(std::move(layout)),
      trees_(std::move(trees)),
      schema_width_(schema_width),
      executor_(&ResolveExecutor(executor)),
      observer_(observer),
      telemetry_(telemetry) {
  for (const auto& part : partition_.parts()) {
    row_columns_.insert(row_columns_.end(), part.columns.begin(),
                        part.columns.end());
  }
  row_block_.resize(row_columns_.size());
  if (observer_ == nullptr) return;
  for (size_t p = 0; p < trees_.size(); ++p) {
    trees_[p]->set_on_rebuild([observer = observer_, p](int count,
                                                         double threshold) {
      observer->OnTreeRebuild(p, count, threshold);
    });
  }
}

int64_t Phase1Builder::OutlierMinN(int64_t rows) const {
  return static_cast<int64_t>(config_.outlier_fraction *
                              config_.frequency_fraction *
                              static_cast<double>(rows));
}

void Phase1Builder::UpdateOutlierThresholds() {
  if (config_.outlier_fraction <= 0) return;
  int64_t min_n = OutlierMinN(rows_added_);
  for (auto& tree : trees_) tree->set_outlier_entry_min_n(min_n);
}

Status Phase1Builder::AddRow(std::span<const double> row) {
  if (row.size() != schema_width_) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) + " != schema width " +
        std::to_string(schema_width_));
  }
  for (size_t k = 0; k < row_columns_.size(); ++k) {
    row_block_[k] = row.data() + row_columns_[k];
  }
  // One check of the row serves every tree, and a refused row reaches none.
  DAR_ASSIGN_OR_RETURN(const RowBlock block,
                       RowBlock::Make(*layout_, row_block_, 0, 1));
  for (auto& tree : trees_) DAR_RETURN_IF_ERROR(tree->InsertRows(block));
  ++rows_added_;
  // Keep outlier paging roughly in step with the running count; the exact
  // value only matters at rebuild time, so a coarse cadence is fine.
  if (rows_added_ % kPagingRows == 0) UpdateOutlierThresholds();
  return Status::OK();
}

Status Phase1Builder::FeedPart(std::span<const RowBlock> blocks, size_t p) {
  if (observer_ != nullptr) observer_->OnPhase1PartStart(p);
  // Absorb latency, one sample per block in seconds per row. The histogram
  // handle is resolved once per part (the lookup locks), and recording is
  // lock-free and safe from this worker thread.
  telemetry::Histogram* absorb_hist = telemetry_.GetHistogram(
      "phase1.absorb_seconds", telemetry::Histogram::LatencyBounds());
  Stopwatch feed_watch;
  // Each tree sees the exact insert sequence and outlier-paging cadence it
  // would under the streaming AddRow loop — trees only observe their own
  // insertions, so interleaving across trees is immaterial and the result
  // is bit-identical for any executor. The blocks end where the running
  // row count reaches a multiple of kPagingRows (AddRelation), so the
  // paging threshold moves between the same inserts as in that loop.
  AcfTree& tree = *trees_[p];
  int64_t count = rows_added_;
  for (const RowBlock& block : blocks) {
    const size_t len = block.end() - block.begin();
    Stopwatch block_watch;
    DAR_RETURN_IF_ERROR(tree.InsertRows(block));
    if (absorb_hist != nullptr) {
      absorb_hist->Record(block_watch.ElapsedSeconds() /
                          static_cast<double>(len));
    }
    count += static_cast<int64_t>(len);
    if (count % kPagingRows == 0 && config_.outlier_fraction > 0) {
      tree.set_outlier_entry_min_n(OutlierMinN(count));
    }
  }
  telemetry::PartTimings timings;
  timings.feed_seconds = feed_watch.ElapsedSeconds();
  if (telemetry::Histogram* feed_hist = telemetry_.GetHistogram(
          "phase1.feed_seconds", telemetry::Histogram::LatencyBounds());
      feed_hist != nullptr) {
    feed_hist->Record(timings.feed_seconds);
  }
  if (observer_ != nullptr) {
    observer_->OnPhase1PartDone(p, tree.Stats(), timings);
  }
  return Status::OK();
}

Status Phase1Builder::AddRelation(const Relation& rel) {
  if (rel.num_columns() != schema_width_) {
    return Status::InvalidArgument(
        "relation width " + std::to_string(rel.num_columns()) +
        " != schema width " + std::to_string(schema_width_));
  }
  // ACFs summarize the cluster's image on *every* part (Eq. 7), so each
  // tree reads every partitioned column, in layout order. The batch is cut
  // into blocks that end where the running row count reaches a multiple
  // of kPagingRows, and each block is checked once, before any tree sees a
  // row: a tree fed up to a bad row would keep rows that rows_added_ never
  // counts.
  std::vector<const double*> columns;
  columns.reserve(row_columns_.size());
  for (size_t col : row_columns_) columns.push_back(rel.column(col).data());
  std::vector<RowBlock> blocks;
  int64_t count = rows_added_;
  for (size_t r = 0; r < rel.num_rows();) {
    const int64_t room = kPagingRows - count % kPagingRows;
    const size_t len = std::min(rel.num_rows() - r, static_cast<size_t>(room));
    DAR_ASSIGN_OR_RETURN(RowBlock block,
                         RowBlock::Make(*layout_, columns, r, r + len));
    blocks.push_back(block);
    r += len;
    count += static_cast<int64_t>(len);
  }
  DAR_RETURN_IF_ERROR(executor_->ParallelFor(
      trees_.size(), [&](size_t p) { return FeedPart(blocks, p); }));
  rows_added_ += static_cast<int64_t>(rel.num_rows());
  return Status::OK();
}

Status Phase1Builder::MergeFrom(const Phase1Builder& other) {
  if (&other == this) {
    return Status::InvalidArgument(
        "cannot merge a Phase-I builder into itself: its tuples are not "
        "disjoint from its own");
  }
  if (schema_width_ != other.schema_width_) {
    return Status::InvalidArgument(
        "cannot merge Phase-I builders over different schema widths (" +
        std::to_string(schema_width_) + " vs " +
        std::to_string(other.schema_width_) + ")");
  }
  if (!LayoutsEquivalent(*layout_, *other.layout_)) {
    return Status::InvalidArgument(
        "cannot merge Phase-I builders with different attribute "
        "partitionings");
  }
  if (other.rows_added_ == 0) {
    return Status::InvalidArgument(
        "cannot merge an empty Phase-I builder (no rows added)");
  }
  Stopwatch watch;
  DAR_RETURN_IF_ERROR(executor_->ParallelFor(trees_.size(), [&](size_t p) {
    return trees_[p]->MergeFrom(*other.trees_[p]);
  }));
  rows_added_ += other.rows_added_;
  UpdateOutlierThresholds();
  if (telemetry_.enabled()) {
    telemetry_.GetCounter("merge.builder_merges")->Increment(1);
    telemetry_.GetCounter("merge.rows")->Increment(other.rows_added_);
    telemetry_
        .GetHistogram("merge.builder_seconds",
                      telemetry::Histogram::LatencyBounds())
        ->Record(watch.ElapsedSeconds());
  }
  return Status::OK();
}

Result<Phase1Result> Phase1Builder::Finish() && {
  return FinishTrees(trees_);
}

Result<Phase1Result> Phase1Builder::Snapshot() const {
  // Clone every live tree (part-parallel) and finish the clones; the
  // originals keep absorbing rows. Clones replay FinishScan exactly as the
  // real trees would, so for identical rows the result is bit-identical
  // to Finish().
  std::vector<std::unique_ptr<AcfTree>> clones(trees_.size());
  DAR_RETURN_IF_ERROR(executor_->ParallelFor(clones.size(), [&](size_t p) {
    clones[p] = trees_[p]->Clone();
    return Status::OK();
  }));
  return FinishTrees(clones);
}

Result<Phase1Result> Phase1Builder::FinishTrees(
    std::vector<std::unique_ptr<AcfTree>>& trees) const {
  if (rows_added_ == 0) {
    return Status::InvalidArgument("no rows were added");
  }

  Phase1Result out;
  out.layout = layout_;
  out.frequency_threshold = std::max<int64_t>(
      1,
      static_cast<int64_t>(std::ceil(config_.frequency_fraction *
                                     static_cast<double>(rows_added_))));

  // Per-part finishing (outlier re-absorption, optional refinement,
  // frequency filtering, d0 derivation) is independent across parts; run
  // it on the executor with one output slot per part and merge in part
  // order so cluster ids never depend on scheduling.
  struct PartSlot {
    std::vector<Acf> frequent;
    double d0 = 0;
    AcfTreeStats stats;
    std::vector<Acf> outliers;
    size_t raw_count = 0;
  };
  std::vector<PartSlot> slots(partition_.num_parts());
  const int64_t s0 = out.frequency_threshold;
  DAR_RETURN_IF_ERROR(executor_->ParallelFor(slots.size(), [&](size_t p) {
    AcfTree& tree = *trees[p];
    DAR_RETURN_IF_ERROR(tree.FinishScan());
    PartSlot& slot = slots[p];
    slot.stats = tree.Stats();
    // The trees die after this: move their summaries out.
    std::vector<Acf> leaf_clusters = std::move(tree).ExtractClusters();
    slot.outliers = std::move(tree).outliers();
    if (config_.refine_clusters) {
      leaf_clusters =
          RefineClusters(std::move(leaf_clusters), tree.threshold());
    }
    slot.raw_count = leaf_clusters.size();
    std::vector<double> diameters;
    for (auto& acf : leaf_clusters) {
      if (acf.n() < s0) continue;
      diameters.push_back(acf.Diameter());
      slot.frequent.push_back(std::move(acf));
    }
    double d0 = 0;
    if (p < config_.density_thresholds.size()) {
      d0 = config_.density_thresholds[p];
    }
    if (d0 <= 0) {
      double median = 0;
      if (!diameters.empty()) {
        size_t mid = diameters.size() / 2;
        std::nth_element(diameters.begin(), diameters.begin() + mid,
                         diameters.end());
        median = diameters[mid];
      }
      d0 = std::max(tree.threshold(), median);
    }
    slot.d0 = d0;
    return Status::OK();
  }));

  std::vector<FoundCluster> found;
  out.raw_cluster_counts.resize(partition_.num_parts());
  out.effective_d0.resize(partition_.num_parts());
  for (size_t p = 0; p < partition_.num_parts(); ++p) {
    PartSlot& slot = slots[p];
    for (auto& acf : slot.frequent) {
      FoundCluster c;
      c.id = found.size();
      c.part = p;
      c.acf = std::move(acf);
      found.push_back(std::move(c));
    }
    out.raw_cluster_counts[p] = slot.raw_count;
    out.effective_d0[p] = slot.d0;
    out.tree_stats.push_back(slot.stats);
    for (auto& acf : slot.outliers) out.outliers.push_back(std::move(acf));
  }
  out.clusters = ClusterSet(out.layout, std::move(found));
  out.seconds = watch_.ElapsedSeconds();
  RecordTelemetry(out);
  return out;
}

void Phase1Builder::RecordTelemetry(const Phase1Result& out) const {
  if (!telemetry_.enabled()) return;
  using telemetry::Unit;
  telemetry_.GetCounter("phase1.rows")->Increment(rows_added_);
  telemetry_.GetCounter("phase1.clusters")
      ->Increment(static_cast<int64_t>(out.clusters.size()));
  telemetry_.GetCounter("phase1.outliers")
      ->Increment(static_cast<int64_t>(out.outliers.size()));
  int64_t inserts = 0, splits = 0, rebuilds = 0;
  size_t bytes = 0;
  for (size_t p = 0; p < out.tree_stats.size(); ++p) {
    const AcfTreeStats& stats = out.tree_stats[p];
    const std::string prefix = "phase1.part" + std::to_string(p);
    telemetry_.GetCounter(prefix + ".inserts")
        ->Increment(stats.points_inserted);
    telemetry_.GetCounter(prefix + ".splits")->Increment(stats.split_count);
    telemetry_.GetCounter(prefix + ".rebuilds")
        ->Increment(stats.rebuild_count);
    telemetry_.GetGauge(prefix + ".height")
        ->Set(static_cast<double>(stats.height));
    inserts += stats.points_inserted;
    splits += stats.split_count;
    rebuilds += stats.rebuild_count;
    bytes += stats.approx_bytes;
  }
  telemetry_.GetCounter("phase1.inserts")->Increment(inserts);
  telemetry_.GetCounter("phase1.splits")->Increment(splits);
  telemetry_.GetCounter("phase1.rebuilds")->Increment(rebuilds);
  telemetry_.GetGauge("phase1.tree_bytes", Unit::kBytes)
      ->Set(static_cast<double>(bytes));
  telemetry_.GetGauge("phase1.seconds", Unit::kSeconds)->Set(out.seconds);
}

}  // namespace dar
