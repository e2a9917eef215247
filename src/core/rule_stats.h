#ifndef DAR_CORE_RULE_STATS_H_
#define DAR_CORE_RULE_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "core/model.h"
#include "core/rules.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace dar {

/// The 2x2 contingency table of one rule over a scanned relation, in the
/// form every classical interestingness measure consumes (Guillaume et
/// al., arXiv:1206.6741): of `total` scanned tuples, `antecedent` matched
/// every antecedent cluster, `consequent` matched every consequent
/// cluster, and `both` matched the whole rule (== the §6.2 support
/// count). A tuple "matches" a cluster when the §4.3.2 point-to-cluster
/// assignment puts it in that cluster on the cluster's part.
struct RuleStats {
  int64_t total = 0;
  int64_t antecedent = 0;
  int64_t consequent = 0;
  int64_t both = 0;
};

/// Fills one RuleStats per rule with a single pass over `rel`: each row is
/// assigned to one cluster per part once, then every rule's three match
/// counters are bumped from that shared assignment — the cost is one
/// assignment scan regardless of how many measures are later evaluated.
///
/// Cost model. One CentroidTable per call: a flat block of centroids per
/// part, computed once from `clusters`. Then, per row, one contiguous scan
/// of each part's block, reading the row straight from `rel`'s columns
/// (rows × Σ_parts clusters-on-part × dim distance terms, no copy of the
/// row and no division; a discrete part still copies its values and calls
/// ClusterSet::AssignToCluster). Then the rule loop over that row's
/// assignment (rows × Σ_rules rule size). The assignment equals
/// ClusterSet::AssignToCluster's bit for bit.
///
/// Row ranges are sharded on `executor` (null = serial) and the per-shard
/// integer counts are summed in shard order, so the result is bit-identical
/// at any thread count. This is the generalization of the §6.2 support
/// post-scan; ScanRuleSupport runs it for the pipeline.
///
/// Before scanning, InvalidArgument names the part, column or rule when
/// `partition` and `clusters` differ in part count or in a part's
/// dimension, when a partition column lies past `rel`'s last column, or
/// when a rule names a cluster id the set does not have.
Result<std::vector<RuleStats>> ComputeRuleStats(
    const Relation& rel, const AttributePartition& partition,
    const ClusterSet& clusters, std::span<const DistanceRule> rules,
    Executor* executor);

/// The §6.2 support post-scan, the pipeline's one support-count step:
/// ComputeRuleStats, then each table's `both` cell copied into its rule's
/// `support_count`. Returns the tables, so a caller that scores the rules
/// (quality::ScoreRules) consumes the same scan. Session::CountRuleSupport
/// and the stream's re-mine both run it. Fails as ComputeRuleStats does,
/// leaving `rules` untouched.
Result<std::vector<RuleStats>> ScanRuleSupport(
    const Relation& rel, const AttributePartition& partition,
    const ClusterSet& clusters, std::span<DistanceRule> rules,
    Executor* executor);

}  // namespace dar

#endif  // DAR_CORE_RULE_STATS_H_
