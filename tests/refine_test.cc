#include "birch/refine.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace dar {
namespace {

std::shared_ptr<const AcfLayout> OnePartLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "X"}};
  return layout;
}

Acf MakeCluster(std::shared_ptr<const AcfLayout> layout,
                std::initializer_list<double> values) {
  Acf acf(layout, 0);
  for (double v : values) acf.AddRow({{v}});
  return acf;
}

int64_t TotalMass(const std::vector<Acf>& clusters) {
  int64_t mass = 0;
  for (const auto& c : clusters) mass += c.n();
  return mass;
}

TEST(RefineTest, MergesFragmentsOfOneCluster) {
  auto layout = OnePartLayout();
  std::vector<Acf> fragments;
  fragments.push_back(MakeCluster(layout, {10.0, 10.5}));
  fragments.push_back(MakeCluster(layout, {11.0, 11.5}));
  fragments.push_back(MakeCluster(layout, {10.2, 11.2}));
  auto refined = RefineClusters(std::move(fragments), 3.0);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(refined[0].n(), 6);
  EXPECT_NEAR(refined[0].Centroid()[0], 10.733, 0.01);
}

TEST(RefineTest, KeepsSeparatedClustersApart) {
  auto layout = OnePartLayout();
  std::vector<Acf> clusters;
  clusters.push_back(MakeCluster(layout, {10.0, 10.5}));
  clusters.push_back(MakeCluster(layout, {90.0, 90.5}));
  auto refined = RefineClusters(std::move(clusters), 3.0);
  EXPECT_EQ(refined.size(), 2u);
}

TEST(RefineTest, ZeroThresholdIsNoOp) {
  auto layout = OnePartLayout();
  std::vector<Acf> clusters;
  clusters.push_back(MakeCluster(layout, {1.0}));
  clusters.push_back(MakeCluster(layout, {1.0}));
  auto refined = RefineClusters(std::move(clusters), 0);
  EXPECT_EQ(refined.size(), 2u);
}

TEST(RefineTest, MassConservedOnRandomInput) {
  Rng rng(81);
  auto layout = OnePartLayout();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Acf> clusters;
    int64_t mass = 0;
    size_t k = static_cast<size_t>(rng.UniformInt(2, 20));
    for (size_t i = 0; i < k; ++i) {
      Acf acf(layout, 0);
      int points = static_cast<int>(rng.UniformInt(1, 10));
      double base = rng.Uniform(0, 100);
      for (int pt = 0; pt < points; ++pt) {
        acf.AddRow({{base + rng.Uniform(-1, 1)}});
      }
      mass += acf.n();
      clusters.push_back(std::move(acf));
    }
    const double threshold = rng.Uniform(0.5, 20.0);
    auto refined = RefineClusters(std::move(clusters), threshold);
    EXPECT_EQ(TotalMass(refined), mass);
    EXPECT_LE(refined.size(), k);
    EXPECT_GE(refined.size(), 1u);
  }
}

TEST(RefineTest, MergedClustersRespectDiameterBound) {
  Rng rng(82);
  auto layout = OnePartLayout();
  std::vector<Acf> clusters;
  for (int i = 0; i < 15; ++i) {
    Acf acf(layout, 0);
    double base = rng.Uniform(0, 50);
    for (int pt = 0; pt < 4; ++pt) acf.AddRow({{base + rng.Uniform(0, 1)}});
    clusters.push_back(std::move(acf));
  }
  const double threshold = 6.0;
  size_t before = clusters.size();
  auto refined = RefineClusters(std::move(clusters), threshold);
  EXPECT_LT(refined.size(), before);  // dense in [0,50]: some merges
  for (const auto& c : refined) {
    // Any cluster produced by a merge satisfies the bound; original
    // clusters here all have diameter < 1 anyway.
    EXPECT_LE(c.Diameter(), threshold + 1e-9);
  }
}

TEST(RefineTest, CarriesImageSummariesThroughMerges) {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "X"},
                   {1, MetricKind::kEuclidean, "Y"}};
  std::vector<Acf> clusters;
  Acf a(layout, 0), b(layout, 0);
  a.AddRow({{10.0}, {100.0}});
  b.AddRow({{10.5}, {200.0}});
  clusters.push_back(std::move(a));
  clusters.push_back(std::move(b));
  auto refined = RefineClusters(std::move(clusters), 2.0);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_DOUBLE_EQ(refined[0].image(1).ls()[0], 300.0);
}

}  // namespace
}  // namespace dar
