#include "birch/cf.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace dar {
namespace {

using testutil::BruteCentroid;
using testutil::BruteDiameterDiscrete;
using testutil::BruteDiameterRms;
using testutil::Points;
using testutil::RandomDiscretePoints;
using testutil::RandomPoints;

CfVector Summarize(const Points& pts, MetricKind metric) {
  CfVector cf(pts.empty() ? 1 : pts[0].size(), metric);
  for (const auto& p : pts) cf.AddPoint(p);
  return cf;
}

TEST(CfVectorTest, EmptyState) {
  CfVector cf(2, MetricKind::kEuclidean);
  EXPECT_EQ(cf.n(), 0);
  EXPECT_DOUBLE_EQ(cf.Diameter(), 0.0);
  EXPECT_DOUBLE_EQ(cf.Radius(), 0.0);
}

TEST(CfVectorTest, SinglePointMoments) {
  CfVector cf(2, MetricKind::kEuclidean);
  cf.AddPoint(std::vector<double>{3, -4});
  EXPECT_EQ(cf.n(), 1);
  EXPECT_DOUBLE_EQ(cf.ls()[0], 3);
  EXPECT_DOUBLE_EQ(cf.ss()[1], 16);
  EXPECT_DOUBLE_EQ(cf.Diameter(), 0.0);
  EXPECT_DOUBLE_EQ(cf.Radius(), 0.0);
  EXPECT_EQ(cf.Centroid(), (std::vector<double>{3, -4}));
}

TEST(CfVectorTest, MinMaxTracksBoundingBox) {
  CfVector cf(1, MetricKind::kEuclidean);
  for (double v : {5.0, -2.0, 9.0, 1.0}) {
    cf.AddPoint(std::vector<double>{v});
  }
  EXPECT_DOUBLE_EQ(cf.min()[0], -2.0);
  EXPECT_DOUBLE_EQ(cf.max()[0], 9.0);
}

TEST(CfVectorTest, TwoPointDiameterIsDistance) {
  CfVector cf(2, MetricKind::kEuclidean);
  cf.AddPoint(std::vector<double>{0, 0});
  cf.AddPoint(std::vector<double>{3, 4});
  // For exactly two points the RMS pairwise distance is the distance.
  EXPECT_NEAR(cf.Diameter(), 5.0, 1e-12);
}

TEST(CfVectorTest, DiameterMatchesBruteForce) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(2, 40));
    size_t dim = static_cast<size_t>(rng.UniformInt(1, 4));
    Points pts = RandomPoints(rng, n, dim);
    CfVector cf = Summarize(pts, MetricKind::kEuclidean);
    EXPECT_NEAR(cf.Diameter(), BruteDiameterRms(pts), 1e-8);
  }
}

TEST(CfVectorTest, RadiusMatchesBruteForce) {
  Rng rng(18);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 40));
    Points pts = RandomPoints(rng, n, 3);
    CfVector cf = Summarize(pts, MetricKind::kEuclidean);
    auto c = BruteCentroid(pts);
    double sum = 0;
    for (const auto& p : pts) sum += SquaredEuclidean(p, c);
    EXPECT_NEAR(cf.Radius(), std::sqrt(sum / pts.size()), 1e-8);
  }
}

TEST(CfVectorTest, CentroidMatchesBruteForce) {
  Rng rng(19);
  Points pts = RandomPoints(rng, 25, 2);
  CfVector cf = Summarize(pts, MetricKind::kEuclidean);
  auto expect = BruteCentroid(pts);
  auto got = cf.Centroid();
  for (size_t d = 0; d < expect.size(); ++d) {
    EXPECT_NEAR(got[d], expect[d], 1e-9);
  }
}

TEST(CfVectorTest, AdditivityTheorem) {
  // CF(S1 u S2) == Merge(CF(S1), CF(S2)) in every component.
  Rng rng(20);
  for (int trial = 0; trial < 10; ++trial) {
    Points a = RandomPoints(rng, 12, 2);
    Points b = RandomPoints(rng, 7, 2);
    CfVector cfa = Summarize(a, MetricKind::kEuclidean);
    CfVector cfb = Summarize(b, MetricKind::kEuclidean);
    cfa.Merge(cfb);
    Points all = a;
    all.insert(all.end(), b.begin(), b.end());
    CfVector cfall = Summarize(all, MetricKind::kEuclidean);
    EXPECT_EQ(cfa.n(), cfall.n());
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_NEAR(cfa.ls()[d], cfall.ls()[d], 1e-9);
      EXPECT_NEAR(cfa.ss()[d], cfall.ss()[d], 1e-9);
      EXPECT_DOUBLE_EQ(cfa.min()[d], cfall.min()[d]);
      EXPECT_DOUBLE_EQ(cfa.max()[d], cfall.max()[d]);
    }
    EXPECT_NEAR(cfa.Diameter(), cfall.Diameter(), 1e-9);
  }
}

TEST(CfVectorTest, DiameterWithPointMatchesActualAdd) {
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    Points pts = RandomPoints(rng, 10, 2);
    CfVector cf = Summarize(pts, MetricKind::kEuclidean);
    std::vector<double> x = {rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    double predicted = cf.DiameterWithPoint(x);
    cf.AddPoint(x);
    EXPECT_NEAR(predicted, cf.Diameter(), 1e-9);
  }
}

TEST(CfVectorTest, DiameterWithMergeMatchesActualMerge) {
  Rng rng(22);
  for (int trial = 0; trial < 10; ++trial) {
    Points a = RandomPoints(rng, 8, 2);
    Points b = RandomPoints(rng, 5, 2);
    CfVector cfa = Summarize(a, MetricKind::kEuclidean);
    CfVector cfb = Summarize(b, MetricKind::kEuclidean);
    double predicted = cfa.DiameterWithMerge(cfb);
    cfa.Merge(cfb);
    EXPECT_NEAR(predicted, cfa.Diameter(), 1e-9);
  }
}

// --- discrete-metric (histogram) behaviour ---

TEST(CfVectorTest, DiscreteHistogramCounts) {
  CfVector cf(1, MetricKind::kDiscrete);
  for (double v : {1.0, 1.0, 2.0}) cf.AddPoint(std::vector<double>{v});
  ASSERT_TRUE(cf.has_histogram());
  EXPECT_EQ(cf.histogram(0).at(1.0), 2);
  EXPECT_EQ(cf.histogram(0).at(2.0), 1);
}

TEST(CfVectorTest, DiscreteDiameterMatchesBruteForce) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(2, 30));
    size_t dim = static_cast<size_t>(rng.UniformInt(1, 3));
    Points pts = RandomDiscretePoints(rng, n, dim);
    CfVector cf = Summarize(pts, MetricKind::kDiscrete);
    EXPECT_NEAR(cf.Diameter(), BruteDiameterDiscrete(pts), 1e-9);
  }
}

TEST(CfVectorTest, DiscreteDiameterZeroIffPure) {
  // Theorem 5.1's engine: a cluster has diameter 0 iff all values equal.
  CfVector pure(1, MetricKind::kDiscrete);
  for (int i = 0; i < 5; ++i) pure.AddPoint(std::vector<double>{7.0});
  EXPECT_DOUBLE_EQ(pure.Diameter(), 0.0);

  CfVector mixed(1, MetricKind::kDiscrete);
  mixed.AddPoint(std::vector<double>{7.0});
  mixed.AddPoint(std::vector<double>{8.0});
  EXPECT_GT(mixed.Diameter(), 0.0);
}

TEST(CfVectorTest, DiscreteDiameterWithPointMatchesAdd) {
  Rng rng(24);
  for (int trial = 0; trial < 10; ++trial) {
    Points pts = RandomDiscretePoints(rng, 9, 2);
    CfVector cf = Summarize(pts, MetricKind::kDiscrete);
    std::vector<double> x = {double(rng.UniformInt(0, 3)),
                             double(rng.UniformInt(0, 3))};
    double predicted = cf.DiameterWithPoint(x);
    cf.AddPoint(x);
    EXPECT_NEAR(predicted, cf.Diameter(), 1e-9);
  }
}

TEST(CfVectorTest, DiscreteDiameterWithMergeMatchesMerge) {
  Rng rng(25);
  for (int trial = 0; trial < 10; ++trial) {
    Points a = RandomDiscretePoints(rng, 7, 1);
    Points b = RandomDiscretePoints(rng, 6, 1);
    CfVector cfa = Summarize(a, MetricKind::kDiscrete);
    CfVector cfb = Summarize(b, MetricKind::kDiscrete);
    double predicted = cfa.DiameterWithMerge(cfb);
    cfa.Merge(cfb);
    EXPECT_NEAR(predicted, cfa.Diameter(), 1e-9);
  }
}

TEST(CfVectorTest, DiscreteMergeAddsHistograms) {
  CfVector a(1, MetricKind::kDiscrete), b(1, MetricKind::kDiscrete);
  a.AddPoint(std::vector<double>{1.0});
  b.AddPoint(std::vector<double>{1.0});
  b.AddPoint(std::vector<double>{3.0});
  a.Merge(b);
  EXPECT_EQ(a.histogram(0).at(1.0), 2);
  EXPECT_EQ(a.histogram(0).at(3.0), 1);
}

TEST(CfVectorTest, ToStringMentionsCount) {
  CfVector cf(1, MetricKind::kEuclidean);
  cf.AddPoint(std::vector<double>{2.0});
  EXPECT_NE(cf.ToString().find("n=1"), std::string::npos);
}

}  // namespace
}  // namespace dar
