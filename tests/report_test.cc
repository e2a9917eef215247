#include "core/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "common/random.h"
#include "core/session.h"
#include "datagen/planted.h"

namespace dar {
namespace {

DarMiningResult MineSmall(const PlantedDataset& data) {
  DarConfig config;
  config.memory_budget_bytes = 8u << 20;
  config.frequency_fraction = 0.05;
  config.initial_diameters = {80.0, 80.0};
  config.degree_threshold = 150.0;
  config.count_rule_support = true;
  auto session = Session::Builder().WithConfig(config).Build();
  EXPECT_TRUE(session.ok());
  auto result = session->Mine(data.relation, data.partition);
  EXPECT_TRUE(result.ok());
  return std::move(result).ValueOrDie().result;
}

TEST(ReportTest, JsonContainsClustersAndRules) {
  PlantedDataSpec spec = WbcdLikeSpec(2, 2, 0.0, 61);
  auto data = GeneratePlanted(spec, 1000, 62);
  ASSERT_TRUE(data.ok());
  DarMiningResult result = MineSmall(*data);
  ASSERT_GT(result.phase1.clusters.size(), 0u);
  ASSERT_GT(result.phase2.rules.size(), 0u);

  std::string json =
      MiningResultToJson(result, data->relation.schema(), data->partition);
  EXPECT_NE(json.find("\"clusters\""), std::string::npos);
  EXPECT_NE(json.find("\"rules\""), std::string::npos);
  EXPECT_NE(json.find("\"degree\""), std::string::npos);
  EXPECT_NE(json.find("\"support_count\""), std::string::npos);
  EXPECT_NE(json.find("\"box\""), std::string::npos);
  EXPECT_NE(json.find("attr0"), std::string::npos);

  // Structural sanity: balanced braces and brackets.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ReportTest, WriteReportToStream) {
  PlantedDataSpec spec = WbcdLikeSpec(2, 2, 0.0, 63);
  auto data = GeneratePlanted(spec, 800, 64);
  ASSERT_TRUE(data.ok());
  DarMiningResult result = MineSmall(*data);
  std::ostringstream out;
  ASSERT_TRUE(WriteMiningReport(result, data->relation.schema(),
                                data->partition, out)
                  .ok());
  EXPECT_FALSE(out.str().empty());
}

TEST(ReportTest, SummaryListsRulesAndCaps) {
  PlantedDataSpec spec = WbcdLikeSpec(3, 3, 0.0, 65);
  auto data = GeneratePlanted(spec, 2000, 66);
  ASSERT_TRUE(data.ok());
  DarMiningResult result = MineSmall(*data);
  std::string summary = MiningResultSummary(
      result, data->relation.schema(), data->partition, /*max_rules=*/2);
  EXPECT_NE(summary.find("Phase I:"), std::string::npos);
  EXPECT_NE(summary.find("Phase II:"), std::string::npos);
  if (result.phase2.rules.size() > 2) {
    EXPECT_NE(summary.find("more"), std::string::npos);
  }
}

TEST(ReportTest, EscapesSpecialCharactersInLabels) {
  // A schema with a quote in an attribute name must not break the JSON.
  Schema s = *Schema::Make({{"a\"b", AttributeKind::kInterval},
                            {"c", AttributeKind::kInterval}});
  Relation rel(s);
  Rng rng(67);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        rel.AppendRow({rng.Gaussian(10, 1), rng.Gaussian(20, 1)}).ok());
  }
  AttributePartition part = AttributePartition::SingletonPartition(s);
  DarConfig config;
  config.frequency_fraction = 0.5;
  config.initial_diameters = {5.0, 5.0};
  auto session = Session::Builder().WithConfig(config).Build();
  ASSERT_TRUE(session.ok());
  auto result = session->Mine(rel, part);
  ASSERT_TRUE(result.ok());
  std::string json = MiningResultToJson(result->result, s, part);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
}

// Mines two tight groups in the one interval attribute of `s`; every value
// carries 10 significant digits.
DarMiningResult MineTwoGroups(const Schema& s) {
  Relation rel(s);
  Rng rng(68);
  for (int i = 0; i < 200; ++i) {
    const double base = i % 2 == 0 ? 1000.0 : 5000.0;
    const double v = base + 0.000001 * rng.UniformInt(1000000, 1999999);
    EXPECT_TRUE(rel.AppendRow({v}).ok());
  }
  DarConfig config;
  config.frequency_fraction = 0.2;
  config.initial_diameters = {5.0};
  auto session = Session::Builder().WithConfig(config).Build();
  EXPECT_TRUE(session.ok());
  auto result =
      session->Mine(rel, AttributePartition::SingletonPartition(s));
  EXPECT_TRUE(result.ok());
  return std::move(result).ValueOrDie().result;
}

TEST(ReportTest, ControlCharactersInNamesAreEscaped) {
  Schema s = *Schema::Make({{"a\tb", AttributeKind::kInterval}});
  const std::string json = MiningResultToJson(
      MineTwoGroups(s), s, AttributePartition::SingletonPartition(s));
  EXPECT_NE(json.find("a\\tb"), std::string::npos);
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return static_cast<unsigned char>(c) < 0x20;
                          }),
            0)
      << json;
}

TEST(ReportTest, BoxBoundsParseBackBitForBit) {
  Schema s = *Schema::Make({{"x", AttributeKind::kInterval}});
  const DarMiningResult result = MineTwoGroups(s);
  const std::string json = MiningResultToJson(
      result, s, AttributePartition::SingletonPartition(s));
  // Every "box" holds [lo, hi] pairs; read each number back with strtod.
  std::vector<double> bounds;
  for (size_t at = json.find("\"box\""); at != std::string::npos;
       at = json.find("\"box\"", at + 1)) {
    const size_t end = json.find("]]", at);
    ASSERT_NE(end, std::string::npos);
    for (size_t i = json.find('[', at); i < end; ++i) {
      const char c = json[i];
      if (c != '-' && (c < '0' || c > '9')) continue;
      char* stop = nullptr;
      bounds.push_back(std::strtod(json.c_str() + i, &stop));
      i = static_cast<size_t>(stop - json.c_str());
    }
  }
  ASSERT_EQ(bounds.size(), 2 * result.phase1.clusters.size());
  ASSERT_GT(bounds.size(), 0u);
  for (size_t k = 0; k < bounds.size(); ++k) {
    const FoundCluster& c = result.phase1.clusters.cluster(k / 2);
    const auto box = c.acf.BoundingBox(c.part);
    const double want = k % 2 == 0 ? box[0].first : box[0].second;
    EXPECT_EQ(std::bit_cast<uint64_t>(bounds[k]),
              std::bit_cast<uint64_t>(want))
        << bounds[k] << " vs " << want;
  }
}

}  // namespace
}  // namespace dar
