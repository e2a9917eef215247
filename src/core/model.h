#ifndef DAR_CORE_MODEL_H_
#define DAR_CORE_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "birch/acf.h"
#include "birch/acf_tree.h"
#include "common/result.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace dar {

/// A frequent cluster discovered by Phase I: an ACF plus bookkeeping.
struct FoundCluster {
  /// Dense id; index into ClusterSet::clusters().
  size_t id = 0;
  /// Attribute set (partition part) the cluster is defined on.
  size_t part = 0;
  Acf acf;
};

/// The set of frequent clusters produced by Phase I, with helpers used by
/// Phase II and by the generalized-QAR miner.
class ClusterSet {
 public:
  ClusterSet() = default;
  ClusterSet(std::shared_ptr<const AcfLayout> layout,
             std::vector<FoundCluster> clusters);

  [[nodiscard]] const std::vector<FoundCluster>& clusters() const { return clusters_; }
  [[nodiscard]] const FoundCluster& cluster(size_t id) const { return clusters_.at(id); }
  [[nodiscard]] size_t size() const { return clusters_.size(); }
  [[nodiscard]] const AcfLayout& layout() const { return *layout_; }

  /// Ids of the clusters defined on part `p`.
  [[nodiscard]] const std::vector<size_t>& ClustersOnPart(size_t p) const {
    return by_part_.at(p);
  }
  [[nodiscard]] size_t num_parts() const { return by_part_.size(); }

  /// Id of the cluster on part `p` whose centroid is nearest to `values`
  /// (the §4.3.2 point-to-cluster assignment). InvalidArgument when `p` is
  /// not a part of the set or `values` does not hold its dimension of
  /// values; NotFound when the part has no frequent clusters. Clusters are
  /// tried in ascending id order
  /// with a strict `<`, so the lowest id wins a tie, and a point whose
  /// distance to every cluster is NaN or infinite lands on the first.
  ///
  /// This is the definition. CentroidTable, which the whole-relation scans
  /// use, must equal it bit for bit; its tests and perfbench's support
  /// recount compare against this function, so it must not call the table.
  Result<size_t> AssignToCluster(size_t p,
                                 std::span<const double> values) const;

  /// Human-readable description of cluster `id` by its smallest bounding
  /// box (the §7.2 presentation choice), e.g. "Salary in [80K, 82K]".
  std::string Describe(size_t id, const Schema& schema,
                       const AttributePartition& partition) const;

 private:
  std::shared_ptr<const AcfLayout> layout_;
  std::vector<FoundCluster> clusters_;
  std::vector<std::vector<size_t>> by_part_;
};

/// ClusterSet::AssignToCluster for every row of one relation, prepared
/// once per scan. Per part it holds the ascending ids of the part's
/// clusters and one contiguous block of their centroids, written by
/// WriteCentroid: the division PointClusterDistance makes on every call.
/// Assign reads the row straight from the relation's columns and scans the
/// block with FindNearestCentroid (birch/metrics.h), the kernel the
/// ACF-tree's descent uses, so its answer equals AssignToCluster's bit for
/// bit; on a one-dimensional part the kernel compares |x - c| and takes no
/// square root unless it must rescan. Discrete (histogram) parts call
/// AssignToCluster itself.
///
/// The table points into `rel` and `clusters`; both must outlive it and
/// stay unchanged while it is used. Assign is const and safe to call from
/// many threads at once, each with its own scratch.
class CentroidTable {
 public:
  /// Checks `partition` against `clusters` and `rel`, then builds the
  /// table. InvalidArgument, naming the part or column, when the part
  /// counts differ, a part's column count differs from its layout
  /// dimension, or a column lies past the relation's last column.
  static Result<CentroidTable> Make(const Relation& rel,
                                    const AttributePartition& partition,
                                    const ClusterSet& clusters);

  /// Id of the cluster nearest to row `row` on part `p`, or -1 when the
  /// part has no frequent clusters. `scratch` holds the projected row of a
  /// discrete part; reuse it across calls.
  [[nodiscard]] int64_t Assign(size_t p, size_t row,
                               std::vector<double>& scratch) const;

 private:
  struct Part {
    std::span<const size_t> ids;
    size_t dim = 0;
    MetricKind metric = MetricKind::kEuclidean;
    size_t first_column = 0;    // into columns_: dim entries
    size_t first_centroid = 0;  // into centroids_: ids.size() * dim entries
  };

  const ClusterSet* clusters_ = nullptr;
  std::vector<Part> parts_;
  std::vector<const double*> columns_;
  std::vector<double> centroids_;
};

/// Everything Phase I reports.
struct Phase1Result {
  std::shared_ptr<const AcfLayout> layout;
  ClusterSet clusters;
  /// Per-part statistics of the final trees.
  std::vector<AcfTreeStats> tree_stats;
  /// Confirmed outliers across all parts.
  std::vector<Acf> outliers;
  /// Number of leaf clusters before frequency filtering, per part.
  std::vector<size_t> raw_cluster_counts;
  /// Effective density thresholds d0^X per part (see DarConfig).
  std::vector<double> effective_d0;
  /// The absolute frequency threshold s0 used.
  int64_t frequency_threshold = 0;
  /// Wall-clock seconds spent in Phase I.
  double seconds = 0;
};

}  // namespace dar

#endif  // DAR_CORE_MODEL_H_
