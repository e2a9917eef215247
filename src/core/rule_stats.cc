#include "core/rule_stats.h"

#include <algorithm>
#include <string>

namespace dar {
namespace {

// Per-shard accumulation: three counters per rule, bumped from one shared
// per-row cluster assignment.
struct ShardCounts {
  std::vector<int64_t> antecedent;
  std::vector<int64_t> consequent;
  std::vector<int64_t> both;
};

bool SideMatches(const std::vector<size_t>& side, const ClusterSet& clusters,
                 std::span<const int64_t> assignment) {
  for (size_t id : side) {
    const FoundCluster& c = clusters.cluster(id);
    if (assignment[c.part] != static_cast<int64_t>(id)) return false;
  }
  return true;
}

// An id past the set would make SideMatches' clusters.cluster(id) throw
// in the middle of the scan; refuse the rules before scanning instead.
Status CheckClusterIds(std::span<const DistanceRule> rules,
                       const ClusterSet& clusters) {
  for (size_t k = 0; k < rules.size(); ++k) {
    for (const auto* side : {&rules[k].antecedent, &rules[k].consequent}) {
      for (const size_t id : *side) {
        if (id >= clusters.size()) {
          return Status::InvalidArgument(
              "rule " + std::to_string(k) + " names cluster " +
              std::to_string(id) + " but the cluster set has " +
              std::to_string(clusters.size()) + " clusters");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<RuleStats>> ComputeRuleStats(
    const Relation& rel, const AttributePartition& partition,
    const ClusterSet& clusters, std::span<const DistanceRule> rules,
    Executor* executor) {
  DAR_ASSIGN_OR_RETURN(const CentroidTable table,
                       CentroidTable::Make(rel, partition, clusters));
  DAR_RETURN_IF_ERROR(CheckClusterIds(rules, clusters));
  std::vector<RuleStats> stats(rules.size());
  for (RuleStats& s : stats) s.total = static_cast<int64_t>(rel.num_rows());
  if (rules.empty() || rel.num_rows() == 0) return stats;

  Executor& ex = ResolveExecutor(executor);
  const size_t num_shards = std::max<size_t>(
      1, std::min(static_cast<size_t>(ex.parallelism()), rel.num_rows()));
  const size_t rows_per_shard =
      (rel.num_rows() + num_shards - 1) / num_shards;
  std::vector<ShardCounts> shards(num_shards);

  auto scan_shard = [&](size_t s) -> Status {
    const size_t begin = s * rows_per_shard;
    const size_t end = std::min(rel.num_rows(), begin + rows_per_shard);
    // The thread that bumps the counters allocates them, from its own
    // heap: two shards' hot counters laid end to end could share a cache
    // line.
    ShardCounts& counts = shards[s];
    counts.antecedent.assign(rules.size(), 0);
    counts.consequent.assign(rules.size(), 0);
    counts.both.assign(rules.size(), 0);
    std::vector<double> scratch;
    std::vector<int64_t> assignment(partition.num_parts(), -1);
    for (size_t r = begin; r < end; ++r) {
      for (size_t p = 0; p < partition.num_parts(); ++p) {
        assignment[p] = table.Assign(p, r, scratch);
      }
      for (size_t k = 0; k < rules.size(); ++k) {
        const bool a = SideMatches(rules[k].antecedent, clusters, assignment);
        const bool c = SideMatches(rules[k].consequent, clusters, assignment);
        if (a) ++counts.antecedent[k];
        if (c) ++counts.consequent[k];
        if (a && c) ++counts.both[k];
      }
    }
    return Status::OK();
  };

  DAR_RETURN_IF_ERROR(ex.ParallelFor(num_shards, scan_shard));

  // Shard-order merge: integer sums, so the totals are executor-independent.
  for (const ShardCounts& shard : shards) {
    for (size_t k = 0; k < rules.size(); ++k) {
      stats[k].antecedent += shard.antecedent[k];
      stats[k].consequent += shard.consequent[k];
      stats[k].both += shard.both[k];
    }
  }
  return stats;
}

Result<std::vector<RuleStats>> ScanRuleSupport(
    const Relation& rel, const AttributePartition& partition,
    const ClusterSet& clusters, std::span<DistanceRule> rules,
    Executor* executor) {
  DAR_ASSIGN_OR_RETURN(
      std::vector<RuleStats> stats,
      ComputeRuleStats(rel, partition, clusters, rules, executor));
  for (size_t k = 0; k < rules.size(); ++k) {
    rules[k].support_count = stats[k].both;
  }
  return stats;
}

}  // namespace dar
