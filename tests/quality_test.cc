// Tests for dar::quality — pluggable interestingness measures pinned
// against brute-force contingency tables, the executor-sharded stats scan
// against a per-row reference count, redundancy pruning, and the
// SnapshotDiff classification edge cases.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "birch/acf.h"
#include "common/executor.h"
#include "common/random.h"
#include "core/model.h"
#include "core/rule_stats.h"
#include "core/rules.h"
#include "quality/diff.h"
#include "quality/interval_match.h"
#include "quality/measure.h"
#include "quality/prune.h"
#include "quality/scored_rules.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace dar::quality {
namespace {

// --- Synthetic-cluster scaffolding: 1-d Euclidean parts, clusters built
// from explicit full tuples so every image (and thus every bounding box)
// is exactly known. ---

std::shared_ptr<const AcfLayout> MakeLayout(size_t num_parts) {
  auto layout = std::make_shared<AcfLayout>();
  for (size_t p = 0; p < num_parts; ++p) {
    layout->parts.push_back(
        {1, MetricKind::kEuclidean, "p" + std::to_string(p)});
  }
  return layout;
}

Acf MakeAcf(const std::shared_ptr<const AcfLayout>& layout, size_t part,
            const std::vector<std::vector<double>>& tuples) {
  Acf acf(layout, part);
  for (const auto& tuple : tuples) {
    PartedRow row;
    row.reserve(tuple.size());
    for (const double v : tuple) row.push_back({v});
    acf.AddRow(row);
  }
  return acf;
}

// Two parts; clusters 0/1 live on part 0 with own-part boxes [0,10] and
// [1,11] (Jaccard 9/11), cluster 2 on part 0 at [50,60] (disjoint from
// both), clusters 3/4 on part 1 at [0,10] and [1,11], cluster 5 on part 1
// at [50,60].
ClusterSet MakeOverlapClusters(std::shared_ptr<const AcfLayout> layout) {
  std::vector<FoundCluster> clusters;
  clusters.push_back({0, 0, MakeAcf(layout, 0, {{0, 0}, {10, 10}})});
  clusters.push_back({1, 0, MakeAcf(layout, 0, {{1, 1}, {11, 11}})});
  clusters.push_back({2, 0, MakeAcf(layout, 0, {{50, 50}, {60, 60}})});
  clusters.push_back({3, 1, MakeAcf(layout, 1, {{0, 0}, {10, 10}})});
  clusters.push_back({4, 1, MakeAcf(layout, 1, {{1, 1}, {11, 11}})});
  clusters.push_back({5, 1, MakeAcf(layout, 1, {{50, 50}, {60, 60}})});
  return ClusterSet(std::move(layout), std::move(clusters));
}

DistanceRule MakeRule(std::vector<size_t> antecedent,
                      std::vector<size_t> consequent, double degree) {
  DistanceRule rule;
  rule.antecedent = std::move(antecedent);
  rule.consequent = std::move(consequent);
  rule.degree = degree;
  return rule;
}

// --- Measures pinned against the brute-force 2x2 table. The expected
// values are computed here straight from the a/b/c/d cells, independently
// of the measure implementations. ---

RuleStats Table(int64_t a, int64_t b, int64_t c, int64_t d) {
  RuleStats stats;
  stats.both = a;
  stats.antecedent = a + b;
  stats.consequent = a + c;
  stats.total = a + b + c + d;
  return stats;
}

TEST(MeasureTest, PinnedAgainstBruteForceContingencyTable) {
  // a = both, b = antecedent-only, c = consequent-only, d = neither.
  const struct {
    int64_t a, b, c, d;
  } tables[] = {{20, 20, 10, 50}, {1, 0, 0, 99}, {7, 3, 11, 4},
                {5, 5, 5, 5},     {0, 10, 10, 80}};
  const auto support = MakeSupportMeasure();
  const auto confidence = MakeConfidenceMeasure();
  const auto lift = MakeLiftMeasure();
  const auto conviction = MakeConvictionMeasure();
  const auto chi2 = MakeChiSquaredMeasure();
  for (const auto& t : tables) {
    const RuleStats stats = Table(t.a, t.b, t.c, t.d);
    const double a = static_cast<double>(t.a);
    const double b = static_cast<double>(t.b);
    const double c = static_cast<double>(t.c);
    const double d = static_cast<double>(t.d);
    const double n = a + b + c + d;

    EXPECT_DOUBLE_EQ(support->Score(stats), a / n);
    EXPECT_DOUBLE_EQ(confidence->Score(stats), a / (a + b));
    EXPECT_DOUBLE_EQ(lift->Score(stats), (a / (a + b)) / ((a + c) / n));
    const double conf = a / (a + b);
    const double expected_conviction =
        conf >= 1.0 ? kMaxConviction
                    : std::min(kMaxConviction,
                               (1.0 - (a + c) / n) / (1.0 - conf));
    EXPECT_DOUBLE_EQ(conviction->Score(stats), expected_conviction);
    const double margins = (a + b) * (c + d) * (a + c) * (b + d);
    const double expected_chi2 =
        margins == 0 ? 0.0
                     : n * (a * d - b * c) * (a * d - b * c) / margins;
    EXPECT_DOUBLE_EQ(chi2->Score(stats), expected_chi2);
  }
}

TEST(MeasureTest, DegenerateTablesAreFiniteZeros) {
  const RuleStats empty;  // total == 0
  const RuleStats no_antecedent = Table(0, 0, 10, 90);
  const RuleStats all_consequent = Table(10, 0, 0, 0);  // confidence 1
  for (const auto& make :
       {MakeSupportMeasure, MakeConfidenceMeasure, MakeLiftMeasure,
        MakeConvictionMeasure, MakeChiSquaredMeasure}) {
    const auto measure = make();
    EXPECT_EQ(measure->Score(empty), 0.0) << measure->name();
    EXPECT_TRUE(std::isfinite(measure->Score(no_antecedent)))
        << measure->name();
    EXPECT_TRUE(std::isfinite(measure->Score(all_consequent)))
        << measure->name();
  }
  // Perfect confidence hits the conviction cap, never infinity.
  EXPECT_DOUBLE_EQ(MakeConvictionMeasure()->Score(all_consequent),
                   kMaxConviction);
}

// --- Registry behavior. ---

class BothCountMeasure : public InterestingnessMeasure {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "both_count";
  }
  [[nodiscard]] double Score(const RuleStats& stats) const override {
    return static_cast<double>(stats.both);
  }
};

class NamelessMeasure : public InterestingnessMeasure {
 public:
  [[nodiscard]] std::string_view name() const override { return ""; }
  [[nodiscard]] double Score(const RuleStats&) const override { return 0; }
};

TEST(MeasureRegistryTest, BuiltinsPreRegisteredAndUserMeasuresAdded) {
  MeasureRegistry registry;
  EXPECT_EQ(registry.size(), 5u);
  EXPECT_NE(registry.Find("lift"), nullptr);
  EXPECT_EQ(registry.Find("both_count"), nullptr);

  ASSERT_TRUE(registry.Register(std::make_unique<BothCountMeasure>()).ok());
  ASSERT_NE(registry.Find("both_count"), nullptr);
  EXPECT_DOUBLE_EQ(registry.Find("both_count")->Score(Table(7, 1, 1, 1)),
                   7.0);

  // Duplicate (built-in or user) and empty names are rejected.
  EXPECT_TRUE(registry.Register(MakeLiftMeasure())
                  .code() == StatusCode::kAlreadyExists);
  EXPECT_TRUE(registry.Register(std::make_unique<BothCountMeasure>())
                  .code() == StatusCode::kAlreadyExists);
  EXPECT_TRUE(registry.Register(std::make_unique<NamelessMeasure>())
                  .IsInvalidArgument());
}

TEST(MeasureRegistryTest, ScoreRulesRejectsUnknownAndDuplicateRequests) {
  MeasureRegistry registry;
  std::vector<RuleStats> stats = {Table(5, 5, 5, 5)};
  const std::vector<std::string> unknown = {"lift", "tachyon_flux"};
  auto result = ScoreRules(stats, registry, unknown);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  // The error names the available measures for discovery.
  EXPECT_NE(result.status().message().find("lift"), std::string::npos);

  const std::vector<std::string> duplicate = {"lift", "lift"};
  EXPECT_TRUE(
      ScoreRules(stats, registry, duplicate).status().IsInvalidArgument());
}

// --- The contingency scan against a per-row brute-force count, serial
// and 8-thread results bit-identical. ---

TEST(RuleStatsTest, ScanMatchesBruteForce) {
  auto schema = Schema::Make({{"x", AttributeKind::kInterval},
                              {"y", AttributeKind::kInterval}});
  ASSERT_TRUE(schema.ok());
  auto partition = AttributePartition::Make(
      *schema, {{{"x"}, MetricKind::kEuclidean},
                {{"y"}, MetricKind::kEuclidean}});
  ASSERT_TRUE(partition.ok());

  auto layout = MakeLayout(2);
  std::vector<FoundCluster> found;
  found.push_back({0, 0, MakeAcf(layout, 0, {{0, 0}, {10, 10}})});
  found.push_back({1, 0, MakeAcf(layout, 0, {{90, 90}, {100, 100}})});
  found.push_back({2, 1, MakeAcf(layout, 1, {{0, 0}, {10, 10}})});
  found.push_back({3, 1, MakeAcf(layout, 1, {{90, 90}, {100, 100}})});
  const ClusterSet clusters(layout, std::move(found));

  // Correlated mixture plus uniform noise, so every cell of every rule's
  // table is populated.
  Relation rel(*schema);
  Rng rng(1997);
  for (size_t i = 0; i < 500; ++i) {
    double x, y;
    if (rng.Bernoulli(0.4)) {
      x = rng.Uniform(0, 12);
      y = rng.Bernoulli(0.8) ? rng.Uniform(0, 12) : rng.Uniform(88, 100);
    } else {
      x = rng.Uniform(0, 100);
      y = rng.Uniform(0, 100);
    }
    ASSERT_TRUE(rel.AppendRow({x, y}).ok());
  }

  const std::vector<DistanceRule> rules = {MakeRule({0}, {2}, 1.0),
                                           MakeRule({1}, {3}, 2.0),
                                           MakeRule({0}, {3}, 3.0)};

  auto serial = ComputeRuleStats(rel, *partition, clusters, rules, nullptr);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->size(), rules.size());

  // Brute force: assign each row once per part, then count per rule.
  std::vector<RuleStats> expected(rules.size());
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    const std::vector<double> row = rel.Row(r);
    std::vector<size_t> assigned(2);
    for (size_t p = 0; p < 2; ++p) {
      auto id = clusters.AssignToCluster(p, {{row[p]}});
      ASSERT_TRUE(id.ok());
      assigned[p] = *id;
    }
    for (size_t k = 0; k < rules.size(); ++k) {
      auto matches = [&](const std::vector<size_t>& side) {
        for (const size_t id : side) {
          if (assigned[clusters.cluster(id).part] != id) return false;
        }
        return true;
      };
      ++expected[k].total;
      const bool a = matches(rules[k].antecedent);
      const bool c = matches(rules[k].consequent);
      if (a) ++expected[k].antecedent;
      if (c) ++expected[k].consequent;
      if (a && c) ++expected[k].both;
    }
  }
  for (size_t k = 0; k < rules.size(); ++k) {
    EXPECT_EQ((*serial)[k].total, expected[k].total) << "rule " << k;
    EXPECT_EQ((*serial)[k].antecedent, expected[k].antecedent) << "rule " << k;
    EXPECT_EQ((*serial)[k].consequent, expected[k].consequent) << "rule " << k;
    EXPECT_EQ((*serial)[k].both, expected[k].both) << "rule " << k;
  }

  // Identical at 8 threads (shard-ordered integer merge).
  ThreadPoolExecutor pool(8);
  auto parallel = ComputeRuleStats(rel, *partition, clusters, rules, &pool);
  ASSERT_TRUE(parallel.ok());
  for (size_t k = 0; k < rules.size(); ++k) {
    EXPECT_EQ((*serial)[k].both, (*parallel)[k].both);
    EXPECT_EQ((*serial)[k].antecedent, (*parallel)[k].antecedent);
    EXPECT_EQ((*serial)[k].consequent, (*parallel)[k].consequent);
    EXPECT_EQ((*serial)[k].total, (*parallel)[k].total);
  }

  // End-to-end scoring: scores[m][k] is exactly measure m over stats[k],
  // bit-identical across thread counts.
  MeasureRegistry registry;
  const std::vector<std::string> names = {"support", "confidence", "lift",
                                          "conviction", "chi2"};
  auto scored_serial = ScoreRules(*serial, registry, names);
  auto scored_parallel = ScoreRules(*parallel, registry, names);
  ASSERT_TRUE(scored_serial.ok());
  ASSERT_TRUE(scored_parallel.ok());
  ASSERT_EQ(scored_serial->scores.size(), names.size());
  for (size_t m = 0; m < names.size(); ++m) {
    const InterestingnessMeasure* measure = registry.Find(names[m]);
    ASSERT_NE(measure, nullptr);
    for (size_t k = 0; k < rules.size(); ++k) {
      const double score = scored_serial->scores[m][k];
      EXPECT_TRUE(std::isfinite(score));
      EXPECT_DOUBLE_EQ(score, measure->Score((*serial)[k]));
      EXPECT_EQ(score, scored_parallel->scores[m][k])
          << names[m] << " rule " << k;
    }
  }
}

// --- Redundancy pruning. ---

TEST(PruneTest, AbsorbsNearDuplicateIntoStrongerRepresentative) {
  auto layout = MakeLayout(2);
  const ClusterSet clusters = MakeOverlapClusters(layout);
  // r0 strongest (lowest degree); r1 same signature with ~0.82 Jaccard on
  // both sides; r2 same signature but disjoint antecedent box.
  const std::vector<DistanceRule> rules = {MakeRule({0}, {3}, 1.0),
                                           MakeRule({1}, {4}, 2.0),
                                           MakeRule({2}, {3}, 3.0)};
  PruneOptions options;
  options.min_overlap = 0.5;
  auto result = PruneRedundant(clusters, rules, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->representative, (std::vector<uint8_t>{1, 0, 1}));
  EXPECT_EQ(result->representative_of, (std::vector<uint32_t>{0, 0, 2}));
  EXPECT_EQ(result->num_pruned, 1u);

  // Strictest setting: only bit-identical intervals merge, so nothing is
  // pruned here.
  options.min_overlap = 1.0;
  auto strict = PruneRedundant(clusters, rules, {}, options);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->num_pruned, 0u);
}

TEST(PruneTest, DominanceKeepsRulesThatWinOnAnyMeasure) {
  auto layout = MakeLayout(2);
  const ClusterSet clusters = MakeOverlapClusters(layout);
  const std::vector<DistanceRule> rules = {MakeRule({0}, {3}, 1.0),
                                           MakeRule({1}, {4}, 2.0)};
  // One score column where the near-duplicate BEATS the representative.
  const std::vector<std::vector<double>> scores = {{0.4, 0.9}};
  PruneOptions options;
  options.min_overlap = 0.5;
  options.require_dominance = true;
  auto dominated = PruneRedundant(clusters, rules, scores, options);
  ASSERT_TRUE(dominated.ok());
  EXPECT_EQ(dominated->num_pruned, 0u);  // r1 wins on the measure: kept

  options.require_dominance = false;
  auto loose = PruneRedundant(clusters, rules, scores, options);
  ASSERT_TRUE(loose.ok());
  EXPECT_EQ(loose->num_pruned, 1u);  // overlap alone decides
  EXPECT_EQ(loose->representative_of[1], 0u);
}

TEST(PruneTest, ValidatesOptionsAndScoreShape) {
  auto layout = MakeLayout(2);
  const ClusterSet clusters = MakeOverlapClusters(layout);
  const std::vector<DistanceRule> rules = {MakeRule({0}, {3}, 1.0)};
  PruneOptions bad;
  bad.min_overlap = 1.5;
  EXPECT_TRUE(
      PruneRedundant(clusters, rules, {}, bad).status().IsInvalidArgument());

  const std::vector<std::vector<double>> short_column = {{}};
  EXPECT_TRUE(PruneRedundant(clusters, rules, short_column, PruneOptions{})
                  .status()
                  .IsInvalidArgument());
}

// --- Snapshot diffing. ---

TEST(DiffTest, EmptyVersusNonEmptyGenerations) {
  auto layout = MakeLayout(2);
  const ClusterSet clusters = MakeOverlapClusters(layout);
  const std::vector<DistanceRule> rules = {MakeRule({0}, {3}, 1.0),
                                           MakeRule({1}, {4}, 2.0)};
  const std::vector<DistanceRule> none;

  auto born = DiffRuleSets(clusters, none, 1, clusters, rules, 2,
                           DiffOptions{});
  ASSERT_TRUE(born.ok());
  EXPECT_EQ(born->born, 2u);
  EXPECT_EQ(born->died, 0u);
  EXPECT_EQ(born->drifted, 0u);
  EXPECT_EQ(born->unchanged, 0u);
  ASSERT_EQ(born->records.size(), 2u);
  EXPECT_EQ(born->records[0].kind, DiffKind::kBorn);
  EXPECT_EQ(born->records[0].new_index, 0);
  EXPECT_EQ(born->records[0].old_index, -1);

  auto died = DiffRuleSets(clusters, rules, 2, clusters, none, 3,
                           DiffOptions{});
  ASSERT_TRUE(died.ok());
  EXPECT_EQ(died->died, 2u);
  EXPECT_EQ(died->born, 0u);
  ASSERT_EQ(died->records.size(), 2u);
  EXPECT_EQ(died->records[0].kind, DiffKind::kDied);
  EXPECT_EQ(died->records[0].old_index, 0);
  EXPECT_EQ(died->records[0].new_index, -1);
  EXPECT_EQ(died->old_generation, 2u);
  EXPECT_EQ(died->new_generation, 3u);

  auto both_empty =
      DiffRuleSets(clusters, none, 0, clusters, none, 1, DiffOptions{});
  ASSERT_TRUE(both_empty.ok());
  EXPECT_TRUE(both_empty->records.empty());
}

TEST(DiffTest, IdenticalGenerationsReportNoFalseChanges) {
  auto layout = MakeLayout(2);
  const ClusterSet clusters = MakeOverlapClusters(layout);
  const std::vector<DistanceRule> rules = {MakeRule({0}, {3}, 1.0),
                                           MakeRule({1}, {4}, 2.0),
                                           MakeRule({2}, {3}, 3.0)};
  auto diff =
      DiffRuleSets(clusters, rules, 5, clusters, rules, 6, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->born, 0u);
  EXPECT_EQ(diff->died, 0u);
  EXPECT_EQ(diff->drifted, 0u);
  EXPECT_EQ(diff->unchanged, rules.size());
  for (const RuleDiffRecord& record : diff->records) {
    EXPECT_EQ(record.kind, DiffKind::kUnchanged);
    EXPECT_EQ(record.old_index, record.new_index);
    EXPECT_EQ(record.interval_shift, 0.0);
    EXPECT_EQ(record.degree_shift, 0.0);
  }
}

TEST(DiffTest, ReorderOnlyIsNotDrift) {
  auto layout = MakeLayout(2);
  const ClusterSet clusters = MakeOverlapClusters(layout);
  const std::vector<DistanceRule> old_rules = {MakeRule({0}, {3}, 1.0),
                                               MakeRule({2}, {3}, 3.0)};
  // Same rules, opposite vector order: the signature + max-overlap match
  // must pair each with its true counterpart, not its positional one.
  const std::vector<DistanceRule> new_rules = {MakeRule({2}, {3}, 3.0),
                                               MakeRule({0}, {3}, 1.0)};
  auto diff = DiffRuleSets(clusters, old_rules, 1, clusters, new_rules, 2,
                           DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->born, 0u);
  EXPECT_EQ(diff->died, 0u);
  EXPECT_EQ(diff->drifted, 0u);
  EXPECT_EQ(diff->unchanged, 2u);
  ASSERT_EQ(diff->records.size(), 2u);
  EXPECT_EQ(diff->records[0].new_index, 0);
  EXPECT_EQ(diff->records[0].old_index, 1);
  EXPECT_EQ(diff->records[1].new_index, 1);
  EXPECT_EQ(diff->records[1].old_index, 0);
}

TEST(DiffTest, IntervalShiftPastToleranceIsDrift) {
  auto layout = MakeLayout(2);
  // Old: cluster on part 0 at [0,10]; new: same signature at [5,15] —
  // endpoints moved by half the width.
  std::vector<FoundCluster> old_found;
  old_found.push_back({0, 0, MakeAcf(layout, 0, {{0, 0}, {10, 10}})});
  old_found.push_back({1, 1, MakeAcf(layout, 1, {{0, 0}, {10, 10}})});
  const ClusterSet old_clusters(layout, std::move(old_found));
  std::vector<FoundCluster> new_found;
  new_found.push_back({0, 0, MakeAcf(layout, 0, {{5, 0}, {15, 10}})});
  new_found.push_back({1, 1, MakeAcf(layout, 1, {{5, 0}, {15, 10}})});
  const ClusterSet new_clusters(layout, std::move(new_found));

  const std::vector<DistanceRule> old_rules = {MakeRule({0}, {1}, 1.0)};
  const std::vector<DistanceRule> new_rules = {MakeRule({0}, {1}, 1.0)};
  DiffOptions options;
  options.interval_tolerance = 0.25;
  auto diff = DiffRuleSets(old_clusters, old_rules, 1, new_clusters,
                           new_rules, 2, options);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->drifted, 1u);
  EXPECT_EQ(diff->born, 0u);
  EXPECT_EQ(diff->died, 0u);
  ASSERT_EQ(diff->records.size(), 1u);
  EXPECT_EQ(diff->records[0].kind, DiffKind::kDrifted);
  EXPECT_NEAR(diff->records[0].interval_shift, 0.5, 1e-12);

  // The same movement inside a generous tolerance is "unchanged".
  options.interval_tolerance = 0.75;
  auto tolerant = DiffRuleSets(old_clusters, old_rules, 1, new_clusters,
                               new_rules, 2, options);
  ASSERT_TRUE(tolerant.ok());
  EXPECT_EQ(tolerant->drifted, 0u);
  EXPECT_EQ(tolerant->unchanged, 1u);
}

TEST(DiffTest, DegreeShiftAloneIsDrift) {
  auto layout = MakeLayout(2);
  const ClusterSet clusters = MakeOverlapClusters(layout);
  const std::vector<DistanceRule> old_rules = {MakeRule({0}, {3}, 1.0)};
  const std::vector<DistanceRule> new_rules = {MakeRule({0}, {3}, 2.0)};
  auto diff = DiffRuleSets(clusters, old_rules, 1, clusters, new_rules, 2,
                           DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->drifted, 1u);
  ASSERT_EQ(diff->records.size(), 1u);
  EXPECT_NEAR(diff->records[0].degree_shift, 1.0, 1e-12);
  EXPECT_EQ(diff->records[0].interval_shift, 0.0);
}

TEST(DiffTest, FullyDisjointIntervalsNeverMatchEvenWithSameSignature) {
  auto layout = MakeLayout(2);
  const ClusterSet clusters = MakeOverlapClusters(layout);
  // Every paired dimension disjoint ([0,10] vs [50,60] on both sides):
  // zero mean overlap must yield born + died, not a drifted "match".
  const std::vector<DistanceRule> old_rules = {MakeRule({0}, {3}, 1.0)};
  const std::vector<DistanceRule> new_rules = {MakeRule({2}, {5}, 1.0)};
  auto diff = DiffRuleSets(clusters, old_rules, 1, clusters, new_rules, 2,
                           DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->born, 1u);
  EXPECT_EQ(diff->died, 1u);
  EXPECT_EQ(diff->drifted, 0u);
  EXPECT_EQ(diff->unchanged, 0u);
}

TEST(DiffTest, PartialOverlapMatchesAsExtremeDrift) {
  auto layout = MakeLayout(2);
  const ClusterSet clusters = MakeOverlapClusters(layout);
  // Antecedent interval moved wholesale ([0,10] -> [50,60]) while the
  // consequent stayed: the mean overlap is still positive, so the rules
  // match — and the shift classifies the pair as (far-past-tolerance)
  // drift rather than an unrelated birth + death.
  const std::vector<DistanceRule> old_rules = {MakeRule({0}, {3}, 1.0)};
  const std::vector<DistanceRule> new_rules = {MakeRule({2}, {3}, 1.0)};
  auto diff = DiffRuleSets(clusters, old_rules, 1, clusters, new_rules, 2,
                           DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->drifted, 1u);
  EXPECT_EQ(diff->born, 0u);
  EXPECT_EQ(diff->died, 0u);
  ASSERT_EQ(diff->records.size(), 1u);
  EXPECT_GE(diff->records[0].interval_shift, 1.0);
}

TEST(DiffTest, ValidatesTolerances) {
  auto layout = MakeLayout(2);
  const ClusterSet clusters = MakeOverlapClusters(layout);
  DiffOptions bad;
  bad.interval_tolerance = -0.1;
  EXPECT_TRUE(DiffRuleSets(clusters, {}, 1, clusters, {}, 2, bad)
                  .status()
                  .IsInvalidArgument());
}

// --- Interval-match primitives. ---

TEST(IntervalMatchTest, JaccardAndShiftBasics) {
  EXPECT_DOUBLE_EQ(IntervalJaccard({0, 10}, {0, 10}), 1.0);
  EXPECT_DOUBLE_EQ(IntervalJaccard({0, 10}, {1, 11}), 9.0 / 11.0);
  EXPECT_DOUBLE_EQ(IntervalJaccard({0, 10}, {20, 30}), 0.0);
  // Degenerate point intervals.
  EXPECT_DOUBLE_EQ(IntervalJaccard({5, 5}, {5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(IntervalJaccard({5, 5}, {6, 6}), 0.0);
}

}  // namespace
}  // namespace dar::quality
