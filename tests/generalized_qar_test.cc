#include "core/generalized_qar.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"
#include "datagen/planted.h"

namespace dar {
namespace {

DarConfig SmallConfig() {
  DarConfig config;
  config.memory_budget_bytes = 8u << 20;
  config.frequency_fraction = 0.05;
  return config;
}

TEST(GeneralizedQarTest, FindsPlantedClusterRules) {
  PlantedDataSpec spec = WbcdLikeSpec(3, 3, 0.05, 21);
  auto data = GeneratePlanted(spec, 3000, 22);
  ASSERT_TRUE(data.ok());
  DarConfig config = SmallConfig();
  config.initial_diameters.assign(3, 80.0);
  GeneralizedQarMiner miner(config, /*min_confidence=*/0.8);
  auto result = miner.Mine(data->relation, data->partition);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->rules.empty());

  const ClusterSet& clusters = result->phase1.clusters;
  for (const auto& rule : result->rules) {
    EXPECT_GE(rule.confidence, 0.8);
    EXPECT_GT(rule.support_count, 0);
    // All clusters of a rule should belong to one planted pattern: their
    // centroids map to the same pattern index.
    int pattern = -1;
    for (const auto* side : {&rule.antecedent, &rule.consequent}) {
      for (size_t id : *side) {
        const FoundCluster& c = clusters.cluster(id);
        double centroid = c.acf.Centroid()[0];
        for (size_t k = 0; k < 3; ++k) {
          if (std::fabs(spec.parts[c.part].clusters[k].center[0] - centroid) <
              20) {
            if (pattern == -1) pattern = static_cast<int>(k);
            EXPECT_EQ(pattern, static_cast<int>(k));
          }
        }
      }
    }
  }
}

TEST(GeneralizedQarTest, SupportCountsConsistent) {
  PlantedDataSpec spec = WbcdLikeSpec(2, 2, 0.0, 23);
  auto data = GeneratePlanted(spec, 1000, 24);
  ASSERT_TRUE(data.ok());
  DarConfig config = SmallConfig();
  config.initial_diameters.assign(2, 80.0);
  GeneralizedQarMiner miner(config, 0.5);
  auto result = miner.Mine(data->relation, data->partition);
  ASSERT_TRUE(result.ok());
  for (const auto& rule : result->rules) {
    EXPECT_GE(rule.support_count, result->phase1.frequency_threshold);
    EXPECT_NEAR(rule.support,
                static_cast<double>(rule.support_count) / 1000.0, 1e-12);
    EXPECT_LE(rule.confidence, 1.0 + 1e-12);
  }
}

TEST(GeneralizedQarTest, FrequentItemsetsDownwardClosed) {
  PlantedDataSpec spec = WbcdLikeSpec(3, 2, 0.0, 25);
  auto data = GeneratePlanted(spec, 800, 26);
  ASSERT_TRUE(data.ok());
  DarConfig config = SmallConfig();
  config.initial_diameters.assign(3, 80.0);
  GeneralizedQarMiner miner(config, 0.5);
  auto result = miner.Mine(data->relation, data->partition);
  ASSERT_TRUE(result.ok());
  std::set<Itemset> frequent;
  for (const auto& f : result->frequent_itemsets) frequent.insert(f.items);
  for (const auto& f : result->frequent_itemsets) {
    if (f.items.size() < 2) continue;
    for (size_t drop = 0; drop < f.items.size(); ++drop) {
      Itemset sub;
      for (size_t i = 0; i < f.items.size(); ++i) {
        if (i != drop) sub.push_back(f.items[i]);
      }
      EXPECT_TRUE(frequent.count(sub));
    }
  }
}

TEST(GeneralizedQarTest, RuleToStringReadable) {
  PlantedDataSpec spec = WbcdLikeSpec(2, 2, 0.0, 27);
  auto data = GeneratePlanted(spec, 500, 28);
  ASSERT_TRUE(data.ok());
  DarConfig config = SmallConfig();
  config.initial_diameters.assign(2, 80.0);
  GeneralizedQarMiner miner(config, 0.5);
  auto result = miner.Mine(data->relation, data->partition);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->rules.empty());
  std::string s = result->rules[0].ToString(
      result->phase1.clusters, data->relation.schema(), data->partition);
  EXPECT_NE(s.find("=>"), std::string::npos);
  EXPECT_NE(s.find("confidence="), std::string::npos);
}

// The miner's transactions come from the scan's centroid table. Recount
// every mined rule's support through ClusterSet::AssignToCluster, on an
// interval part, a 2-D part and a nominal part.
TEST(GeneralizedQarTest, SupportCountsMatchAssignToClusterRecount) {
  auto schema = Schema::Make({{"age", AttributeKind::kInterval},
                              {"lat", AttributeKind::kInterval},
                              {"lon", AttributeKind::kInterval},
                              {"region", AttributeKind::kNominal}});
  ASSERT_TRUE(schema.ok());
  auto partition = AttributePartition::Make(
      *schema, {{{"age"}, MetricKind::kEuclidean},
                {{"lat", "lon"}, MetricKind::kEuclidean},
                {{"region"}, MetricKind::kDiscrete}});
  ASSERT_TRUE(partition.ok());
  // Three patterns, each a place, an age band and a region, plus 10%
  // uniform noise.
  Relation rel(*schema);
  Rng rng(29);
  for (int i = 0; i < 1500; ++i) {
    if (rng.Bernoulli(0.1)) {
      ASSERT_TRUE(rel.AppendRow({rng.Uniform(0, 100), rng.Uniform(0, 50),
                                 rng.Uniform(0, 50),
                                 static_cast<double>(rng.UniformInt(0, 2))})
                      .ok());
      continue;
    }
    const double k = static_cast<double>(rng.UniformInt(0, 2));
    ASSERT_TRUE(rel.AppendRow({rng.Gaussian(20 + 30 * k, 2),
                               rng.Gaussian(10 + 15 * k, 1),
                               rng.Gaussian(40 - 15 * k, 1),
                               rng.Bernoulli(0.9) ? k : (k + 1 == 3 ? 0 : k + 1)})
                    .ok());
  }
  DarConfig config = SmallConfig();
  config.initial_diameters = {4.0, 4.0, 0.0};
  GeneralizedQarMiner miner(config, 0.5);
  auto result = miner.Mine(rel, *partition);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->rules.empty());

  const ClusterSet& clusters = result->phase1.clusters;
  std::vector<std::set<size_t>> assigned(rel.num_rows());
  std::vector<double> x;
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    for (size_t p = 0; p < partition->num_parts(); ++p) {
      rel.ProjectRow(r, partition->part(p).columns, x);
      auto id = clusters.AssignToCluster(p, x);
      if (id.ok()) assigned[r].insert(*id);
    }
  }
  std::set<size_t> parts_seen;
  for (const GeneralizedQarRule& rule : result->rules) {
    int64_t want = 0;
    for (const std::set<size_t>& items : assigned) {
      bool all = true;
      for (const auto* side : {&rule.antecedent, &rule.consequent}) {
        for (const size_t id : *side) all = all && items.count(id) > 0;
      }
      want += all ? 1 : 0;
    }
    EXPECT_EQ(rule.support_count, want);
    for (const auto* side : {&rule.antecedent, &rule.consequent}) {
      for (const size_t id : *side) parts_seen.insert(clusters.cluster(id).part);
    }
  }
  // Every part's assignment reached some rule.
  EXPECT_EQ(parts_seen.size(), partition->num_parts());
}

}  // namespace
}  // namespace dar
