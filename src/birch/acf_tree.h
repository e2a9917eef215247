#ifndef DAR_BIRCH_ACF_TREE_H_
#define DAR_BIRCH_ACF_TREE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "birch/acf.h"
#include "birch/metrics.h"
#include "common/status.h"

namespace dar {

// Test-only backdoor for planting corruptions; defined by invariant tests.
struct InvariantTestPeer;
// Serialization backdoor for dar::persist; defined in persist/persist_peer.h.
struct PersistPeer;

/// Tuning knobs for one ACF-tree. Phase1Builder sets the budget, the initial
/// threshold and the outlier paging threshold; the rest keep these defaults.
struct AcfTreeOptions {
  /// Max entries per internal node (BIRCH's branching factor B).
  int branching_factor = 16;
  /// Max ACF entries per leaf node (BIRCH's L).
  int leaf_capacity = 8;
  /// Initial diameter threshold T for absorbing points into clusters.
  /// BIRCH starts at 0 (every distinct point its own cluster) and lets the
  /// rebuild loop raise it under memory pressure.
  double initial_threshold = 0.0;
  /// Memory budget for this tree in (approximate) bytes. Exceeding it
  /// triggers a threshold increase and rebuild (§3, §4.3.1). The tree
  /// charges each node, internal entry and ACF the frozen byte counts of
  /// birch/budget.h, not their heap sizes, so rebuilds fire at the same
  /// inserts whatever the storage layout.
  size_t memory_budget_bytes = 1 << 20;
  /// Minimum multiplicative growth of the threshold per rebuild.
  double threshold_growth = 1.5;
  /// During rebuilds, leaf clusters with fewer than this many tuples are
  /// paged out to the outlier buffer instead of being reinserted
  /// ("clusters significantly smaller than the frequency threshold",
  /// §4.3.1). 0 disables outlier paging.
  int64_t outlier_entry_min_n = 0;
  /// Safety cap on rebuilds per insert; exceeded => ResourceExhausted.
  int max_rebuilds_per_insert = 64;

  /// InvalidArgument naming the first option out of range, and its value.
  /// The checkpoint decoder runs it on every tree blob.
  [[nodiscard]] Status Validate() const;
};

/// Summary statistics for benchmarking, telemetry and tests.
struct AcfTreeStats {
  size_t num_nodes = 0;
  size_t num_leaf_entries = 0;
  size_t num_outliers = 0;
  int rebuild_count = 0;
  double threshold = 0;
  size_t approx_bytes = 0;
  int64_t points_inserted = 0;
  /// Node splits over the tree's lifetime (including splits replayed
  /// during rebuilds).
  int64_t split_count = 0;
  /// Levels from root to leaf; 1 for a leaf-only root. The tree is
  /// height-balanced, so any root-to-leaf path has this length.
  int height = 0;
};

/// The height-balanced clustering tree of §4.3.1/§6.1: a CF-tree whose leaf
/// entries are ACFs. Internal nodes hold (CF, child) pairs on the tree's own
/// attribute set and guide insertion to the closest leaf cluster; leaf
/// entries absorb points while their diameter stays within the current
/// threshold, else spawn new clusters. When the memory budget is exceeded
/// the threshold is raised and the tree rebuilt by reinserting leaf ACFs —
/// the data is never rescanned. Small clusters can be paged out as outliers
/// during rebuilds and are re-absorbed by FinishScan().
///
/// One AcfTree is built per attribute set X_i of the user partitioning; the
/// tree clusters on X_i while its leaf ACFs accumulate image summaries over
/// every part.
///
/// Centroid tables: every node keeps the own-part centroids of its children
/// (internal nodes) or entries (leaves) in one contiguous table, written by
/// WriteCentroid whenever a slot's CF changes. A point descends by scanning
/// those tables with FindNearestCentroid (birch/metrics.h), so it reaches
/// the leaf and cluster that calling PointClusterDistance would. Discrete
/// parts call PointClusterDistance, which stays the definition. A summary
/// (rebuilds, merges, FinishScan) descends by the D0 centroid distance.
class AcfTree {
 public:
  /// `own_part` selects which part of `layout` this tree clusters on.
  AcfTree(std::shared_ptr<const AcfLayout> layout, size_t own_part,
          AcfTreeOptions options);

  AcfTree(const AcfTree&) = delete;
  AcfTree& operator=(const AcfTree&) = delete;

  /// Deep copy of the tree's full state — nodes, leaf ACFs, outlier
  /// buffers, counters, options and the rebuild hook. The
  /// clone evolves independently of the original; streaming re-mines clone
  /// each live tree and run the destructive finishing pipeline
  /// (FinishScan + extraction) on the copies, so ingestion can continue on
  /// the originals. O(tree size).
  [[nodiscard]] std::unique_ptr<AcfTree> Clone() const;

  /// Inserts the rows of `block` in order, exactly as InsertPoint would
  /// insert them one by one; they may trigger rebuilds. The block was
  /// checked when it was made (RowBlock::Make: column count, range, the
  /// 2^32-row limit, the row bound), so one check of a batch serves every
  /// tree; the only check here is that the block has this layout's
  /// row_width() columns (InvalidArgument, and the tree is unchanged).
  ///
  /// Each row descends on its own-part values and is absorbed into the own
  /// CF of a leaf entry at once; its offset is queued on that entry, and the
  /// queued rows are added to the entry's other images in queue order
  /// before every rebuild and before the call returns (birch/acf.h). No row
  /// stays queued between calls, on the error paths too, so every other
  /// operation sees complete summaries. The block length changes no result.
  /// Builds with -DDAR_VALIDATE_INVARIANTS flush and validate after every
  /// row.
  Status InsertRows(const RowBlock& block);

  /// Inserts one tuple projected per part: RowBlock::FromPartedRow checks
  /// the part count, each part's dimension and the row bound on every
  /// value, so a refused row changes nothing (InvalidArgument), and
  /// InsertRows inserts the one-row block. May trigger rebuilds.
  Status InsertPoint(const PartedRow& row);

  /// Inserts a pre-aggregated cluster summary (used by rebuilds and by
  /// FinishScan; also the primitive for merging trees).
  Status InsertSummary(Acf acf);

  /// Re-inserts paged-out outliers: each is absorbed into an existing
  /// cluster if the merged diameter fits the threshold, otherwise confirmed
  /// as an outlier. Call once after the data scan (§4.3.1).
  Status FinishScan();

  /// Absorbs another tree built over a *disjoint* tuple set: by CF/ACF
  /// additivity (Eq. 3/7) the union's summary is exactly the re-insertion
  /// of the other tree's leaf clusters. The threshold is raised to the max
  /// of the two trees before re-absorption; the other tree's paged-out and
  /// confirmed outliers land in this tree's outlier buffer for a fresh
  /// FinishScan decision under the merged threshold. Memory-budget
  /// overruns trigger the normal rebuild loop. `other` may come from a
  /// different process: a structurally equivalent layout (LayoutsEquivalent)
  /// suffices, pointer identity is not required. `other` is unchanged.
  /// A tree cannot absorb itself (its tuples are not disjoint from its
  /// own): InvalidArgument, and the tree is unchanged.
  Status MergeFrom(const AcfTree& other);

  /// All leaf clusters, in leaf order. Confirmed outliers are not included;
  /// see outliers(). The rvalue form moves them out of a tree that is done
  /// (Phase1Builder's finishing pipeline) instead of copying them, and
  /// leaves the tree without clusters.
  [[nodiscard]] std::vector<Acf> ExtractClusters() const&;
  [[nodiscard]] std::vector<Acf> ExtractClusters() &&;

  /// Clusters confirmed as outliers by FinishScan (plus any still paged out
  /// if FinishScan has not been called). The rvalue form moves them out.
  [[nodiscard]] const std::vector<Acf>& outliers() const& { return outliers_; }
  [[nodiscard]] std::vector<Acf> outliers() && {
    return std::exchange(outliers_, {});
  }

  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] int rebuild_count() const { return rebuild_count_; }

  /// Adjusts the outlier paging threshold mid-scan. Streaming callers keep
  /// it proportional to the running tuple count, since the absolute
  /// frequency threshold s0 is only known when the scan ends.
  void set_outlier_entry_min_n(int64_t n) { options_.outlier_entry_min_n = n; }
  /// Sets the hook invoked after every threshold-raise rebuild with the
  /// tree's rebuild count and its new threshold. It runs on whichever
  /// thread is inserting into this tree. A checkpoint does not carry it.
  void set_on_rebuild(
      std::function<void(int rebuild_count, double new_threshold)> hook) {
    on_rebuild_ = std::move(hook);
  }
  [[nodiscard]] AcfTreeStats Stats() const;

  /// Total tuple mass in the tree plus the outlier buffer. Invariant:
  /// equals the number of inserted points (plus summary masses).
  [[nodiscard]] int64_t TotalMass() const;

  /// Walks the whole tree and verifies the structural and summary-arithmetic
  /// invariants the mining phases rely on (Thm 6.1 is only valid on a tree
  /// where these hold):
  ///
  ///  - CF additivity: every internal entry's CF equals the merge of its
  ///    child subtree's CFs (exactly in N, within float tolerance in
  ///    LS/SS/min/max, exactly in discrete histograms);
  ///  - entry-count bounds: internal fan-out within [1, branching_factor],
  ///    leaf occupancy within [1, leaf_capacity] (root may be empty);
  ///  - CF sanity: non-negative masses and squared-sum terms, the
  ///    Cauchy-Schwarz moment inequality N*SS >= |LS|^2, centroids inside
  ///    the tracked bounding boxes;
  ///  - ACF cross-attribute consistency: every image summarizes exactly
  ///    cf().n() tuples on the right dimensions/metric;
  ///  - cached counters (num_nodes, num_leaf_entries, total mass) match a
  ///    recount;
  ///  - then, on a tree that passed all of the above: every node's
  ///    centroid table equals `ls[d] / n` of its slots bit for bit, and no
  ///    entry holds queued rows (none may outside InsertRows).
  ///
  /// Returns the first violation as an Internal status naming the offending
  /// node path (e.g. "root/c2/e0"), or OK. O(tree size); automatically run
  /// after every mutating operation when built with -DDAR_VALIDATE_INVARIANTS.
  [[nodiscard]] Status ValidateInvariants() const;

 private:
  friend struct InvariantTestPeer;
  friend struct PersistPeer;
  struct Node;
  struct ChildRef {
    CfVector cf;  // summary of the subtree, on the own part
    std::unique_ptr<Node> child;
  };
  struct Node {
    bool is_leaf = true;
    // A leaf whose entries may hold queued rows; it is on queued_leaves_.
    bool queued = false;
    std::vector<ChildRef> children;  // internal nodes
    std::vector<Acf> entries;        // leaf nodes
    // The centroid table: slot i's own-part centroid (WriteCentroid) at
    // [i * dim, (i + 1) * dim). A slot is a child or an entry.
    std::vector<double> centroids;

    [[nodiscard]] size_t size() const {
      return is_leaf ? entries.size() : children.size();
    }
    [[nodiscard]] const CfVector& SlotCf(size_t i) const {
      return is_leaf ? entries[i].cf() : children[i].cf;
    }
    // Writes slot i's centroid, sizing the table to size() slots. Call
    // after every change to the slot's CF.
    void SetCentroid(size_t i);
    // Rewrites the whole table, after slots move.
    void SetCentroids();
  };

  // Outcome of a recursive insert: whether the node split, and if so the
  // new sibling to add to the parent.
  struct InsertOutcome {
    bool split = false;
    std::unique_ptr<Node> sibling;
  };

  // The slot of `node` whose centroid is nearest to the own-part values
  // `own`, and its PointClusterDistance: FindNearestCentroid over the
  // node's table, or PointClusterDistance per slot on a discrete part.
  [[nodiscard]] NearestCentroid NearestSlot(const Node& node,
                                            const double* own) const;
  // The slot of `node` nearest to the summary `cf` by the D0 centroid
  // distance, and that distance; the first slot wins a tie, and slot 0 at
  // infinity when no distance is below infinity.
  [[nodiscard]] NearestCentroid NearestSlot(const Node& node,
                                            const CfVector& cf) const;
  // Whether `leaf`'s slot `nearest` (of NearestSlot for `cf`) absorbs the
  // summary `cf`: both the centroid distance and the merged diameter stay
  // within the threshold.
  [[nodiscard]] bool AbsorbsSummary(const Node& leaf,
                                    const NearestCentroid& nearest,
                                    const CfVector& cf) const;

  // Inserts the row at `offset` in the current block, whose own-part
  // values are `own`.
  InsertOutcome InsertRowRec(Node* node, const double* own, uint32_t offset);
  InsertOutcome InsertSummaryRec(Node* node, Acf&& acf);

  // Adds every queued row of the block to its entry's other images.
  void FlushQueues(const RowBlock& block);

  // The step after child `slot` of `node` split off `sibling`: refreshes
  // that child's CF, appends the sibling, and splits `node` if over full.
  InsertOutcome AdoptSibling(Node* node, size_t slot,
                             std::unique_ptr<Node> sibling);

  // Splits `node` if it holds more slots than its capacity allows.
  InsertOutcome SplitIfOverfull(Node* node);

  // Splits an over-full node, leaf or internal; returns the new sibling
  // holding roughly half the slots. `node` keeps the other half.
  std::unique_ptr<Node> SplitNode(Node* node);

  // Recomputes the subtree CF of `node` on the own part.
  [[nodiscard]] CfVector ComputeNodeCf(const Node& node) const;

  // Handles a root split by growing the tree one level.
  void GrowRoot(std::unique_ptr<Node> sibling);

  // Raises the threshold and reinserts all leaf entries; pages out small
  // clusters as outliers. Returns an error if the budget cannot be met.
  Status Rebuild();

  // Picks the next threshold: max(growth * current, the median over leaves
  // of the smallest merged-pair diameter within the leaf), so that at least
  // a substantial fraction of adjacent clusters merge after the rebuild.
  [[nodiscard]] double NextThreshold() const;

  // Recursive deep copy of a subtree (Clone's workhorse).
  [[nodiscard]] std::unique_ptr<Node> CloneNode(const Node& node) const;

  [[nodiscard]] size_t ApproxBytesNow() const;

  // ValidateInvariants helpers; `path` names the node under scrutiny.
  Status ValidateNodeRec(const Node& node, const std::string& path,
                         bool is_root, size_t* nodes,
                         size_t* leaf_entries) const;
  Status ValidateCfSummary(const CfVector& cf, size_t expect_dim,
                           MetricKind expect_metric,
                           const std::string& path) const;
  [[nodiscard]] Status ValidateAcfEntry(const Acf& acf, const std::string& path) const;
  // The centroid-table and queue checks, run after all the others.
  Status ValidateTablesRec(const Node& node, const std::string& path) const;

  std::shared_ptr<const AcfLayout> layout_;
  size_t own_part_;
  size_t own_offset_;  // of the own part's values in a flat row
  size_t row_width_;   // values in a flat row
  std::vector<double> own_;  // the own-part values of the row inserted now
  // InsertPoint's one-row block: one pointer per flat-row slot.
  std::vector<const double*> row_columns_;
  std::vector<Node*> queued_leaves_;  // leaves with Node::queued set
  AcfTreeOptions options_;
  std::function<void(int, double)> on_rebuild_;
  double threshold_;
  std::unique_ptr<Node> root_;
  std::vector<Acf> outlier_buffer_;  // paged out, not yet confirmed
  std::vector<Acf> outliers_;        // confirmed by FinishScan
  int rebuild_count_ = 0;
  int64_t split_count_ = 0;
  int64_t points_inserted_ = 0;
  size_t num_nodes_ = 1;
  size_t num_leaf_entries_ = 0;
  size_t acf_bytes_estimate_;
  bool in_rebuild_ = false;
};

}  // namespace dar

#endif  // DAR_BIRCH_ACF_TREE_H_
