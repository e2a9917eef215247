#include "core/advisor.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/session.h"
#include "datagen/planted.h"

namespace dar {
namespace {

TEST(AdvisorTest, ValidatesInput) {
  Schema s = *Schema::Make({{"a", AttributeKind::kInterval}});
  Relation rel(s);
  AttributePartition part = AttributePartition::SingletonPartition(s);
  EXPECT_TRUE(SuggestThresholds(rel, part).status().IsInvalidArgument());
}

TEST(AdvisorTest, DeterministicForSeed) {
  PlantedDataSpec spec = WbcdLikeSpec(3, 4, 0.1, 51);
  auto data = GeneratePlanted(spec, 2000, 52);
  ASSERT_TRUE(data.ok());
  auto a = SuggestThresholds(data->relation, data->partition);
  auto b = SuggestThresholds(data->relation, data->partition);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->initial_diameters, b->initial_diameters);
  EXPECT_EQ(a->density_thresholds, b->density_thresholds);
  EXPECT_DOUBLE_EQ(a->degree_threshold, b->degree_threshold);
}

TEST(AdvisorTest, DiameterBetweenNoiseAndClusterGap) {
  // Planted clusters at spacing ~250, sigma ~10: the advised Phase-I
  // diameter must exceed the within-cluster scale but stay below the gap.
  PlantedDataSpec spec = WbcdLikeSpec(2, 4, 0.0, 53);
  auto data = GeneratePlanted(spec, 3000, 54);
  ASSERT_TRUE(data.ok());
  auto advice = SuggestThresholds(data->relation, data->partition);
  ASSERT_TRUE(advice.ok());
  double sigma = spec.parts[0].clusters[0].stddev;
  double gap = 1000.0 / 4;
  for (double d : advice->initial_diameters) {
    EXPECT_GT(d, 0.1 * sigma);
    EXPECT_LT(d, 0.5 * gap);
  }
}

TEST(AdvisorTest, DiscretePartsGetTheoremThresholds) {
  Schema s = *Schema::Make({{"job", AttributeKind::kNominal},
                            {"salary", AttributeKind::kInterval}});
  Relation rel(s);
  Rng rng(55);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        rel.AppendRow({double(i % 3), rng.Uniform(0, 1000)}).ok());
  }
  AttributePartition part = AttributePartition::SingletonPartition(s);
  auto advice = SuggestThresholds(rel, part);
  ASSERT_TRUE(advice.ok());
  EXPECT_DOUBLE_EQ(advice->initial_diameters[0], 0.0);
  EXPECT_LT(advice->density_thresholds[0], 1.0);
  EXPECT_GT(advice->initial_diameters[1], 0.0);
  EXPECT_NE(advice->rationale.find("discrete"), std::string::npos);
}

TEST(AdvisorTest, AdvisedThresholdsRecoverPlantedStructure) {
  // End-to-end: mine with nothing but the advisor's output and expect the
  // planted 1:1 links to appear.
  PlantedDataSpec spec = WbcdLikeSpec(3, 3, 0.05, 57);
  auto data = GeneratePlanted(spec, 4000, 58);
  ASSERT_TRUE(data.ok());
  auto advice = SuggestThresholds(data->relation, data->partition);
  ASSERT_TRUE(advice.ok());

  DarConfig config;
  config.memory_budget_bytes = 16u << 20;
  config.frequency_fraction = 0.05;
  config.initial_diameters = advice->initial_diameters;
  config.density_thresholds = advice->density_thresholds;
  config.degree_thresholds = advice->degree_thresholds;
  config.refine_clusters = true;
  auto session = Session::Builder().WithConfig(config).Build();
  ASSERT_TRUE(session.ok());
  auto result = session->Mine(data->relation, data->partition);
  ASSERT_TRUE(result.ok());
  // All 3 clusters per part recovered and a healthy number of rules found.
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(result->phase1().clusters.ClustersOnPart(p).size(), 3u);
  }
  EXPECT_GE(result->rules().size(), 6u);
}

TEST(AdvisorTest, TiedColumnFallsBackToSpreadFraction) {
  Schema s = *Schema::Make({{"x", AttributeKind::kInterval}});
  Relation rel(s);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rel.AppendRow({i < 45 ? 5.0 : 100.0}).ok());
  }
  AttributePartition part = AttributePartition::SingletonPartition(s);
  auto advice = SuggestThresholds(rel, part);
  ASSERT_TRUE(advice.ok());
  // Median NN distance is 0 (ties); diameter must still be positive.
  EXPECT_GT(advice->initial_diameters[0], 0.0);
}

}  // namespace
}  // namespace dar
