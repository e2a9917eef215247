#ifndef DAR_STREAM_RULE_INDEX_H_
#define DAR_STREAM_RULE_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/model.h"
#include "core/rules.h"
#include "relation/partition.h"

namespace dar {

/// The snapshot's serving index: answers "which clusters contain tuple t"
/// and "which DARs fire for t" point queries without scanning every
/// cluster or rule.
///
/// Containment is bounding-box containment of the tuple's projection in
/// the cluster's image on its own part (the §7.2 presentation geometry —
/// the same boxes ClusterSet::Describe prints). Boxes are closed, so a
/// value on an edge is inside. A rule *fires* for t when every antecedent
/// and consequent cluster contains t.
///
/// Cluster side: per part, clusters are sorted by their box's lower bound
/// on the part's first dimension, with a running prefix-max of the upper
/// bounds. A query binary-searches the sorted lower bounds and walks left
/// only while the prefix-max still reaches the probe value, so it visits
/// the candidates whose first-dimension interval actually straddles the
/// probe instead of every cluster on the part.
///
/// Rule side: each rule is stored once, under its *anchor* — its lowest
/// cluster id — as the record `[rule id, n, n other cluster ids]`; a
/// cluster's records are in ascending rule id. A query marks the
/// containing clusters in a byte table, visits only the records anchored
/// at a marked cluster, and fires a rule when all of its other ids are
/// marked. Firing ids go into a bitmap that is read back in ascending
/// order, so no step sorts rules. A query therefore costs the rules whose
/// anchor contains t (times their arity) plus num_rules / 64 bitmap
/// words, never the total reference count. A rule that names an
/// out-of-range cluster, or none, can never fire and is not stored.
///
/// Immutable after Build; Query is const and safe to call from any number
/// of reader threads concurrently, each with its own QueryScratch.
class RuleIndex {
 public:
  /// Reusable per-caller buffers for Query. A scratch grows to the high
  /// water mark of its caller's queries and is never shrunk, so a serving
  /// thread that reuses one scratch performs no allocation per query in
  /// steady state. One scratch may serve any number of indexes (e.g. the
  /// successive generations of a hot-swapped snapshot). Not thread-safe:
  /// one scratch per concurrent caller.
  struct QueryScratch {
    std::vector<size_t> clusters;
    std::vector<size_t> rules;
    /// The candidate rules the last query checked (those whose anchor
    /// contains the tuple), in visit order; `touched.size()` is the
    /// query's rule-side work.
    std::vector<size_t> touched;
    // Internal, and all zero between calls: the containment table (one
    // byte per cluster id) and the firing bitmap (one bit per rule id).
    // Both start empty and grow to the largest index served.
    std::vector<uint8_t> contains;
    std::vector<uint64_t> firing;
  };

  /// A query answer as views into the caller's QueryScratch: valid until
  /// the next Query call with the same scratch (and no longer than the
  /// snapshot owning this index). The ids index the snapshot's ClusterSet
  /// and rule vector respectively; both are ascending.
  struct Hits {
    std::span<const size_t> clusters;
    std::span<const size_t> rules;
  };

  RuleIndex() = default;

  /// Builds the index over a Phase-I cluster set and the Phase-II rules
  /// derived from it. `partition` supplies each part's schema columns so
  /// queries can take a full-width tuple. One pass over the rules, with
  /// no per-rule allocation and no sort.
  static RuleIndex Build(const ClusterSet& clusters,
                         const std::vector<DistanceRule>& rules,
                         const AttributePartition& partition);

  /// Point query for one full-width tuple (one value per schema attribute
  /// covered by the partitioning; `row.size()` must be at least the
  /// largest partitioned column index + 1, and every partitioned value
  /// must be finite — both are InvalidArgument, checked before `scratch`
  /// is touched). Fills `scratch` and returns views into it — the
  /// allocation-free hot path.
  [[nodiscard]] Result<Hits> Query(std::span<const double> row,
                                   QueryScratch& scratch) const;

  [[nodiscard]] size_t num_clusters() const { return records_.size(); }
  [[nodiscard]] size_t num_rules() const { return num_rules_; }

 private:
  // One dimension's [lo, hi] of a cluster's bounding box.
  struct Interval {
    double lo = 0;
    double hi = 0;
  };

  struct PartIndex {
    std::vector<size_t> columns;  // schema columns of this part
    std::string label;            // the part's label, for error messages
    // Clusters on this part sorted by box lo on dimension 0 (ties by id).
    std::vector<size_t> ids;
    std::vector<double> lo0;            // sort keys, aligned with ids
    std::vector<double> prefix_max_hi;  // running max of hi on dim 0
    std::vector<std::vector<Interval>> boxes;  // full box, aligned with ids
  };

  std::vector<PartIndex> parts_;
  // Per cluster id: the records of the rules anchored there, each
  // [rule id, n, n other cluster ids], in ascending rule id.
  std::vector<std::vector<uint32_t>> records_;
  size_t num_rules_ = 0;
  size_t min_row_width_ = 0;
};

}  // namespace dar

#endif  // DAR_STREAM_RULE_INDEX_H_
