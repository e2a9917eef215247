#include "core/rule_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <set>

#include "common/random.h"
#include "core/clustering_graph.h"
#include "test_util.h"

namespace dar {
namespace {

using testutil::MakeCluster;

// Layout with four 1-d parts A, B, C, D.
std::shared_ptr<const AcfLayout> FourPartLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "A"},
                   {1, MetricKind::kEuclidean, "B"},
                   {1, MetricKind::kEuclidean, "C"},
                   {1, MetricKind::kEuclidean, "D"}};
  return layout;
}

// A population of identical tuples (10, 20, 30, 40): clusters on A, B, C
// summarizing it are mutually associated with degree 0.
ClusterSet CooccurringSet(std::shared_ptr<const AcfLayout> layout) {
  std::vector<std::vector<double>> tuples(5, {10, 20, 30, 40});
  std::vector<FoundCluster> clusters;
  for (size_t p = 0; p < 3; ++p) {
    clusters.push_back(MakeCluster(layout, p, p, tuples));
  }
  return ClusterSet(layout, std::move(clusters));
}

// --- Reference: the §6.2 definition, all pairs -----------------------------

// Enumerates all subsets of `universe` with size in [1, max_size], invoking
// `fn(subset)`; returns false early if fn returns false (budget exhausted).
bool ForEachSubset(const std::vector<size_t>& universe, size_t max_size,
                   const std::function<bool(const std::vector<size_t>&)>& fn) {
  std::vector<size_t> current;
  std::function<bool(size_t)> rec = [&](size_t start) -> bool {
    if (!current.empty()) {
      if (!fn(current)) return false;
    }
    if (current.size() == max_size) return true;
    for (size_t i = start; i < universe.size(); ++i) {
      current.push_back(universe[i]);
      if (!rec(i + 1)) return false;
      current.pop_back();
    }
    return true;
  };
  return rec(0);
}

// Every ordered clique pair (Q2 outer, Q1 inner), each assoc(C_Y) built per
// pair through a degree cache, duplicates dropped through a seen set. This
// is the straightforward reading of §6.2 that GenerateDistanceRules must
// reproduce rule for rule.
RuleGenResult ReferenceGenerateDistanceRules(
    const ClusterSet& clusters,
    const std::vector<std::vector<size_t>>& cliques,
    const RuleGenOptions& options) {
  RuleGenResult result;
  std::set<std::pair<std::vector<size_t>, std::vector<size_t>>> seen;
  std::map<std::pair<size_t, size_t>, double> degree_cache;
  auto degree_of = [&](size_t cy, size_t cx) {
    auto key = std::make_pair(cy, cx);
    auto it = degree_cache.find(key);
    if (it != degree_cache.end()) return it->second;
    const FoundCluster& y = clusters.cluster(cy);
    const FoundCluster& x = clusters.cluster(cx);
    double d = ClusterDistance(y.acf.image(y.part), x.acf.image(y.part),
                               options.metric);
    ++result.degree_evaluations;
    degree_cache.emplace(key, d);
    return d;
  };
  auto degree_limit = [&](size_t cy) {
    size_t part = clusters.cluster(cy).part;
    if (part < options.degree_thresholds.size()) {
      return options.degree_thresholds[part];
    }
    return options.degree_threshold;
  };

  for (const auto& q2 : cliques) {
    for (const auto& q1 : cliques) {
      std::map<size_t, std::vector<size_t>> assoc;
      for (size_t cy : q2) {
        std::vector<size_t>& a = assoc[cy];
        for (size_t cx : q1) {
          if (cx == cy) continue;
          if (clusters.cluster(cx).part == clusters.cluster(cy).part) {
            continue;
          }
          if (degree_of(cy, cx) <= degree_limit(cy)) a.push_back(cx);
        }
        std::sort(a.begin(), a.end());
      }
      bool keep_going = ForEachSubset(
          q2, options.max_consequent,
          [&](const std::vector<size_t>& consequent) -> bool {
            std::vector<size_t> candidates = assoc[consequent[0]];
            for (size_t i = 1; i < consequent.size() && !candidates.empty();
                 ++i) {
              std::vector<size_t> next;
              const auto& other = assoc[consequent[i]];
              std::set_intersection(candidates.begin(), candidates.end(),
                                    other.begin(), other.end(),
                                    std::back_inserter(next));
              candidates = std::move(next);
            }
            if (candidates.empty()) return true;
            std::set<size_t> consequent_parts;
            for (size_t cy : consequent) {
              consequent_parts.insert(clusters.cluster(cy).part);
            }
            std::erase_if(candidates, [&](size_t cx) {
              return consequent_parts.count(clusters.cluster(cx).part) > 0;
            });
            if (candidates.empty()) return true;
            return ForEachSubset(
                candidates, options.max_antecedent,
                [&](const std::vector<size_t>& antecedent) -> bool {
                  if (!seen.emplace(antecedent, consequent).second) {
                    return true;
                  }
                  if (result.rules.size() >= options.max_rules) {
                    result.truncated = true;
                    return false;
                  }
                  DistanceRule rule;
                  rule.antecedent = antecedent;
                  rule.consequent = consequent;
                  for (size_t cy : consequent) {
                    for (size_t cx : antecedent) {
                      rule.degree = std::max(rule.degree, degree_of(cy, cx));
                    }
                  }
                  result.rules.push_back(std::move(rule));
                  return true;
                });
          });
      if (!keep_going) return result;
    }
  }
  return result;
}

// Same rules in the same order with the same degree bits, the same
// truncation flag, and (untruncated) the same number of degree evaluations.
void ExpectSameAsReference(const ClusterSet& set,
                           const std::vector<std::vector<size_t>>& cliques,
                           const RuleGenOptions& opts) {
  RuleGenResult got = GenerateDistanceRules(set, cliques, opts);
  RuleGenResult want = ReferenceGenerateDistanceRules(set, cliques, opts);
  EXPECT_EQ(got.truncated, want.truncated);
  if (!want.truncated) {
    EXPECT_EQ(got.degree_evaluations, want.degree_evaluations);
  }
  ASSERT_EQ(got.rules.size(), want.rules.size());
  for (size_t i = 0; i < want.rules.size(); ++i) {
    SCOPED_TRACE("rule " + std::to_string(i));
    EXPECT_EQ(got.rules[i].antecedent, want.rules[i].antecedent);
    EXPECT_EQ(got.rules[i].consequent, want.rules[i].consequent);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.rules[i].degree),
              std::bit_cast<uint64_t>(want.rules[i].degree));
  }
}

TEST(DegreeTest, ZeroForPerfectAssociation) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  EXPECT_DOUBLE_EQ(
      DegreeOfAssociation(set, {0}, {1}, ClusterMetric::kD2AvgInter), 0.0);
}

TEST(DegreeTest, GrowsWithImageDisplacement) {
  auto layout = FourPartLayout();
  std::vector<FoundCluster> clusters;
  // Cluster on A whose B-image sits at 25; cluster on B at 20.
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 25, 0, 0}}));
  clusters.push_back(MakeCluster(layout, 1, 1, {{10, 20, 0, 0}}));
  ClusterSet set(layout, std::move(clusters));
  double d = DegreeOfAssociation(set, {0}, {1}, ClusterMetric::kD2AvgInter);
  EXPECT_NEAR(d, 5.0, 1e-9);
}

TEST(DegreeTest, MaxOverPairs) {
  auto layout = FourPartLayout();
  std::vector<FoundCluster> clusters;
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 20, 0, 0}}));  // on A
  clusters.push_back(MakeCluster(layout, 1, 1, {{10, 20, 0, 0}}));  // on B
  // Second antecedent on C whose B-image is displaced by 7.
  clusters.push_back(MakeCluster(layout, 2, 2, {{10, 27, 5, 0}}));
  ClusterSet set(layout, std::move(clusters));
  double d =
      DegreeOfAssociation(set, {0, 2}, {1}, ClusterMetric::kD2AvgInter);
  EXPECT_NEAR(d, 7.0, 1e-9);
}

RuleGenOptions DefaultOptions() {
  RuleGenOptions opts;
  opts.degree_threshold = 1.0;
  return opts;
}

TEST(RuleGenTest, EmitsAllArityCombinationsFromOneClique) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  // One clique {0, 1, 2}.
  std::vector<std::vector<size_t>> cliques = {{0, 1, 2}};
  RuleGenResult result = GenerateDistanceRules(set, cliques, DefaultOptions());
  EXPECT_FALSE(result.truncated);
  // Count: for 3 mutually associated clusters with max_antecedent 3 and
  // max_consequent 2: consequent {y}: antecedents from remaining 2 ->
  // 3 subsets each, 3 choices of y = 9; consequent pairs {y1,y2}: 3 pairs,
  // antecedent = the remaining single cluster -> 3. Total 12.
  EXPECT_EQ(result.rules.size(), 12u);
  for (const auto& rule : result.rules) {
    EXPECT_NEAR(rule.degree, 0.0, 1e-9);
    // Parts disjoint.
    std::set<size_t> parts;
    for (size_t id : rule.antecedent) {
      EXPECT_TRUE(parts.insert(set.cluster(id).part).second);
    }
    for (size_t id : rule.consequent) {
      EXPECT_TRUE(parts.insert(set.cluster(id).part).second);
    }
  }
}

TEST(RuleGenTest, DegreeThresholdFiltersWeakRules) {
  auto layout = FourPartLayout();
  std::vector<FoundCluster> clusters;
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 90, 0, 0}}));  // far B-img
  clusters.push_back(MakeCluster(layout, 1, 1, {{10, 20, 0, 0}}));
  ClusterSet set(layout, std::move(clusters));
  std::vector<std::vector<size_t>> cliques = {{0, 1}};
  RuleGenOptions opts = DefaultOptions();
  opts.degree_threshold = 5.0;
  RuleGenResult result = GenerateDistanceRules(set, cliques, opts);
  // 0 => 1 has degree |90 - 20| = 70 > 5 (dropped). 1 => 0: the A-images
  // coincide at 10, degree 0 (kept).
  ASSERT_EQ(result.rules.size(), 1u);
  EXPECT_EQ(result.rules[0].antecedent, (std::vector<size_t>{1}));
  EXPECT_EQ(result.rules[0].consequent, (std::vector<size_t>{0}));
}

TEST(RuleGenTest, OneWayAssociation) {
  // The paper's point (§5.2): association is one-way. Build clusters where
  // C_A's B-image is close to C_B (A => B strong) but C_B's A-image is far
  // from C_A (B => A weak).
  auto layout = FourPartLayout();
  std::vector<FoundCluster> clusters;
  // C_A summarizes tuples (10, 20): its B-image is exactly C_B's location.
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 20, 0, 0}}));
  // C_B summarizes tuples (10, 20) plus many (500, 20): its A-image
  // centroid is far from 10.
  clusters.push_back(MakeCluster(
      layout, 1, 1, {{10, 20, 0, 0}, {500, 20, 0, 0}, {500, 20, 0, 0}}));
  ClusterSet set(layout, std::move(clusters));
  double a_to_b =
      DegreeOfAssociation(set, {0}, {1}, ClusterMetric::kD2AvgInter);
  double b_to_a =
      DegreeOfAssociation(set, {1}, {0}, ClusterMetric::kD2AvgInter);
  EXPECT_LT(a_to_b, 1e-9);
  EXPECT_GT(b_to_a, 100.0);
}

TEST(RuleGenTest, CrossCliqueRules) {
  auto layout = FourPartLayout();
  // Clique 1 = {A-cluster, B-cluster} from population P1; clique 2 =
  // {C-cluster} whose images on A and B are near P1 (one-way assoc).
  std::vector<std::vector<double>> p1(4, {10, 20, 30, 0});
  std::vector<FoundCluster> clusters;
  clusters.push_back(MakeCluster(layout, 0, 0, p1));
  clusters.push_back(MakeCluster(layout, 1, 1, p1));
  clusters.push_back(MakeCluster(layout, 2, 2, p1));
  ClusterSet set(layout, std::move(clusters));
  // Force the clique structure: pretend graph found two cliques.
  std::vector<std::vector<size_t>> cliques = {{0, 1}, {2}};
  RuleGenResult result = GenerateDistanceRules(set, cliques, DefaultOptions());
  // Expect cross-clique rules like {0} => {2} and {0,1} => {2}.
  bool pair_to_c = false;
  for (const auto& rule : result.rules) {
    if (rule.antecedent == std::vector<size_t>{0, 1} &&
        rule.consequent == std::vector<size_t>{2}) {
      pair_to_c = true;
    }
  }
  EXPECT_TRUE(pair_to_c);
}

TEST(RuleGenTest, NoDuplicateRulesAcrossCliquePairs) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  // Overlapping cliques sharing nodes.
  std::vector<std::vector<size_t>> cliques = {{0, 1, 2}, {0, 1}, {1, 2}};
  RuleGenResult result = GenerateDistanceRules(set, cliques, DefaultOptions());
  std::set<std::pair<std::vector<size_t>, std::vector<size_t>>> unique;
  for (const auto& rule : result.rules) {
    EXPECT_TRUE(unique.emplace(rule.antecedent, rule.consequent).second);
  }
}

TEST(RuleGenTest, ArityCapsRespected) {
  auto layout = FourPartLayout();
  std::vector<std::vector<double>> tuples(5, {10, 20, 30, 40});
  std::vector<FoundCluster> clusters;
  for (size_t p = 0; p < 4; ++p) {
    clusters.push_back(MakeCluster(layout, p, p, tuples));
  }
  ClusterSet set(layout, std::move(clusters));
  std::vector<std::vector<size_t>> cliques = {{0, 1, 2, 3}};
  RuleGenOptions opts = DefaultOptions();
  opts.max_antecedent = 1;
  opts.max_consequent = 1;
  RuleGenResult result = GenerateDistanceRules(set, cliques, opts);
  for (const auto& rule : result.rules) {
    EXPECT_EQ(rule.antecedent.size(), 1u);
    EXPECT_EQ(rule.consequent.size(), 1u);
  }
  // 4 * 3 ordered pairs.
  EXPECT_EQ(result.rules.size(), 12u);
}

TEST(RuleGenTest, MaxRulesTruncatesLoudly) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  std::vector<std::vector<size_t>> cliques = {{0, 1, 2}};
  RuleGenOptions opts = DefaultOptions();
  opts.max_rules = 3;
  RuleGenResult result = GenerateDistanceRules(set, cliques, opts);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.rules.size(), 3u);
}

// Seeded random inputs: clusters on four 1-d parts summarizing tuples from
// a small grid (so degrees tie often), overlapping cliques drawn from a
// small pool (so they share clusters, and sometimes repeat), per-part
// thresholds on half the seeds, arity caps 1-3, then max_rules at cut
// points around the full rule count.
TEST(RuleGenTest, MatchesAllPairsDefinitionOnRandomInputs) {
  auto layout = FourPartLayout();
  size_t truncated_runs = 0;
  size_t max_rules_seen = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const size_t n = static_cast<size_t>(rng.UniformInt(4, 14));
    std::vector<FoundCluster> clusters;
    for (size_t id = 0; id < n; ++id) {
      std::vector<std::vector<double>> tuples(
          static_cast<size_t>(rng.UniformInt(1, 3)), std::vector<double>(4));
      for (auto& t : tuples) {
        for (double& v : t) v = static_cast<double>(rng.UniformInt(0, 6));
      }
      clusters.push_back(MakeCluster(
          layout, id, static_cast<size_t>(rng.UniformInt(0, 3)), tuples));
    }
    ClusterSet set(layout, std::move(clusters));

    // Cliques as Phase II shapes them (one cluster per part) on even seeds;
    // any ascending id set, same-part members included, on odd ones.
    const bool one_per_part = seed % 2 == 0;
    std::vector<std::vector<size_t>> cliques(
        static_cast<size_t>(rng.UniformInt(1, 8)));
    for (auto& q : cliques) {
      std::set<size_t> members;
      std::set<size_t> parts;
      const size_t want = static_cast<size_t>(rng.UniformInt(1, 5));
      for (size_t tries = 0; tries < 20 && members.size() < want; ++tries) {
        size_t id = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1));
        if (one_per_part && !parts.insert(set.cluster(id).part).second) {
          continue;
        }
        members.insert(id);
      }
      q.assign(members.begin(), members.end());
    }
    if (rng.Bernoulli(0.3)) cliques.push_back(cliques.front());

    // Thresholds on a half-unit grid, so degrees of single-tuple clusters
    // land exactly on D0 now and then.
    RuleGenOptions opts;
    opts.degree_threshold = static_cast<double>(rng.UniformInt(1, 8)) / 2;
    if (seed % 3 != 0) {
      opts.degree_thresholds.resize(static_cast<size_t>(rng.UniformInt(0, 4)));
      for (double& t : opts.degree_thresholds) {
        t = static_cast<double>(rng.UniformInt(0, 10)) / 2;
      }
    }
    opts.max_antecedent = static_cast<size_t>(rng.UniformInt(1, 3));
    opts.max_consequent = static_cast<size_t>(rng.UniformInt(1, 3));
    ExpectSameAsReference(set, cliques, opts);

    const size_t total = GenerateDistanceRules(set, cliques, opts).rules.size();
    max_rules_seen = std::max(max_rules_seen, total);
    for (size_t cut : {size_t{0}, size_t{1}, total / 3, total / 2,
                       total > 0 ? total - 1 : 0, total, total + 1}) {
      SCOPED_TRACE("max_rules " + std::to_string(cut));
      opts.max_rules = cut;
      ExpectSameAsReference(set, cliques, opts);
      if (cut < total) ++truncated_runs;
    }
  }
  // The seeds must exercise both sides of the cut and non-trivial outputs.
  EXPECT_GT(truncated_runs, 100u);
  EXPECT_GT(max_rules_seen, 20u);
}

TEST(RuleGenTest, ZeroArityCapsEmitNothingButStillEvaluate) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  std::vector<std::vector<size_t>> cliques = {{0, 1, 2}};
  RuleGenOptions opts = DefaultOptions();
  opts.max_antecedent = 0;
  ExpectSameAsReference(set, cliques, opts);
  opts.max_antecedent = 3;
  opts.max_consequent = 0;
  ExpectSameAsReference(set, cliques, opts);
  EXPECT_EQ(GenerateDistanceRules(set, cliques, opts).degree_evaluations, 6);
}

TEST(RuleGenTest, EmptyCliquesNoRules) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  RuleGenResult result = GenerateDistanceRules(set, {}, DefaultOptions());
  EXPECT_TRUE(result.rules.empty());
  EXPECT_FALSE(result.truncated);
}

}  // namespace
}  // namespace dar
