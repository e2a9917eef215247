#ifndef DAR_QUALITY_SCORED_RULES_H_
#define DAR_QUALITY_SCORED_RULES_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/rule_stats.h"
#include "quality/measure.h"

namespace dar::quality {

/// Every requested measure evaluated over every rule of one snapshot, plus
/// the redundancy-pruning verdicts when pruning ran. Computed once per
/// published RuleSnapshot from the tables of the one support post-scan
/// (ScanRuleSupport, core/rule_stats.h) regardless of how many measures
/// are requested, then immutable and shared with the snapshot.
struct ScoredRuleSet {
  /// Measures evaluated, in the order the stream was configured with.
  std::vector<std::string> measure_names;
  /// One contingency table per rule (index-aligned with the snapshot's
  /// rule vector).
  std::vector<RuleStats> stats;
  /// scores[m][k] = measure_names[m] applied to rule k. All finite.
  std::vector<std::vector<double>> scores;
  /// Per rule: 1 when the rule survived redundancy pruning as its
  /// cluster's representative (or pruning was off), 0 when a near-
  /// duplicate of an earlier, at-least-as-strong rule.
  std::vector<uint8_t> representative;
  /// Number of zeros in `representative`; always <= stats.size().
  size_t num_pruned = 0;

  /// Index into measure_names/scores, or -1 when `name` was not computed.
  [[nodiscard]] int FindMeasure(std::string_view name) const {
    for (size_t m = 0; m < measure_names.size(); ++m) {
      if (measure_names[m] == name) return static_cast<int>(m);
    }
    return -1;
  }
};

/// Evaluates `measure_names` over precomputed contingency tables (those
/// ScanRuleSupport or ComputeRuleStats return). Fails
/// NotFound naming the registry's contents when a requested measure is not
/// registered, and InvalidArgument on a duplicate request. Every rule
/// starts as a representative (pruning is a separate pass, quality/
/// prune.h).
Result<ScoredRuleSet> ScoreRules(std::vector<RuleStats> stats,
                                 const MeasureRegistry& registry,
                                 std::span<const std::string> measure_names);

}  // namespace dar::quality

#endif  // DAR_QUALITY_SCORED_RULES_H_
