#include "quality/scored_rules.h"

#include <utility>

#include "common/str_util.h"

namespace dar::quality {

Result<ScoredRuleSet> ScoreRules(std::vector<RuleStats> stats,
                                 const MeasureRegistry& registry,
                                 std::span<const std::string> measure_names) {
  ScoredRuleSet out;
  out.stats = std::move(stats);
  out.measure_names.assign(measure_names.begin(), measure_names.end());
  out.scores.reserve(measure_names.size());
  for (size_t m = 0; m < measure_names.size(); ++m) {
    for (size_t prev = 0; prev < m; ++prev) {
      if (measure_names[prev] == measure_names[m]) {
        return Status::InvalidArgument("measure \"" + measure_names[m] +
                                       "\" requested twice");
      }
    }
    const InterestingnessMeasure* measure = registry.Find(measure_names[m]);
    if (measure == nullptr) {
      return Status::NotFound("measure \"" + measure_names[m] +
                              "\" is not registered (have: " +
                              Join(registry.Names(), ", ") + ")");
    }
    std::vector<double>& column = out.scores.emplace_back();
    column.reserve(out.stats.size());
    for (const RuleStats& s : out.stats) {
      column.push_back(measure->Score(s));
    }
  }
  out.representative.assign(out.stats.size(), 1);
  out.num_pruned = 0;
  return out;
}

}  // namespace dar::quality
