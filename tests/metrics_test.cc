#include "birch/metrics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "test_util.h"

namespace dar {
namespace {

using testutil::BruteCentroid;
using testutil::BruteD2Discrete;
using testutil::BruteD2Rms;
using testutil::BruteDiameterRms;
using testutil::Points;
using testutil::RandomDiscretePoints;
using testutil::RandomPoints;

CfVector Summarize(const Points& pts, MetricKind metric) {
  CfVector cf(pts[0].size(), metric);
  for (const auto& p : pts) cf.AddPoint(p);
  return cf;
}

TEST(ClusterMetricTest, Names) {
  EXPECT_STREQ(ClusterMetricToString(ClusterMetric::kD0Centroid), "D0");
  EXPECT_STREQ(ClusterMetricToString(ClusterMetric::kD2AvgInter), "D2");
  EXPECT_STREQ(ClusterMetricToString(ClusterMetric::kD4VarIncrease), "D4");
}

TEST(ClusterMetricTest, D0MatchesCentroidDistance) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    Points a = RandomPoints(rng, 9, 2);
    Points b = RandomPoints(rng, 6, 2);
    CfVector cfa = Summarize(a, MetricKind::kEuclidean);
    CfVector cfb = Summarize(b, MetricKind::kEuclidean);
    double expect = PointDistance(MetricKind::kEuclidean, BruteCentroid(a),
                                  BruteCentroid(b));
    EXPECT_NEAR(ClusterDistance(cfa, cfb, ClusterMetric::kD0Centroid), expect,
                1e-9);
  }
}

TEST(ClusterMetricTest, D1MatchesManhattanCentroidDistance) {
  Rng rng(32);
  Points a = RandomPoints(rng, 9, 3);
  Points b = RandomPoints(rng, 6, 3);
  CfVector cfa = Summarize(a, MetricKind::kEuclidean);
  CfVector cfb = Summarize(b, MetricKind::kEuclidean);
  double expect = PointDistance(MetricKind::kManhattan, BruteCentroid(a),
                                BruteCentroid(b));
  EXPECT_NEAR(
      ClusterDistance(cfa, cfb, ClusterMetric::kD1CentroidManhattan), expect,
      1e-9);
}

TEST(ClusterMetricTest, D2MatchesBruteForce) {
  Rng rng(33);
  for (int trial = 0; trial < 15; ++trial) {
    Points a = RandomPoints(rng, size_t(rng.UniformInt(1, 20)), 2);
    Points b = RandomPoints(rng, size_t(rng.UniformInt(1, 20)), 2);
    CfVector cfa = Summarize(a, MetricKind::kEuclidean);
    CfVector cfb = Summarize(b, MetricKind::kEuclidean);
    EXPECT_NEAR(ClusterDistance(cfa, cfb, ClusterMetric::kD2AvgInter),
                BruteD2Rms(a, b), 1e-8);
  }
}

TEST(ClusterMetricTest, D3IsMergedDiameter) {
  Rng rng(34);
  Points a = RandomPoints(rng, 8, 2);
  Points b = RandomPoints(rng, 5, 2);
  CfVector cfa = Summarize(a, MetricKind::kEuclidean);
  CfVector cfb = Summarize(b, MetricKind::kEuclidean);
  Points all = a;
  all.insert(all.end(), b.begin(), b.end());
  EXPECT_NEAR(ClusterDistance(cfa, cfb, ClusterMetric::kD3AvgIntra),
              BruteDiameterRms(all), 1e-8);
}

TEST(ClusterMetricTest, D4MatchesVarianceIncrease) {
  Rng rng(35);
  Points a = RandomPoints(rng, 8, 2);
  Points b = RandomPoints(rng, 5, 2);
  CfVector cfa = Summarize(a, MetricKind::kEuclidean);
  CfVector cfb = Summarize(b, MetricKind::kEuclidean);
  auto scatter = [](const Points& pts) {
    auto c = BruteCentroid(pts);
    double s = 0;
    for (const auto& p : pts) s += SquaredEuclidean(p, c);
    return s;
  };
  Points all = a;
  all.insert(all.end(), b.begin(), b.end());
  double expect = std::sqrt(scatter(all) - scatter(a) - scatter(b));
  EXPECT_NEAR(ClusterDistance(cfa, cfb, ClusterMetric::kD4VarIncrease),
              expect, 1e-8);
}

TEST(ClusterMetricTest, D2LowerBoundedByRadii) {
  // The §6.2 pruning inequality: D2(A,B)^2 = R_A^2 + R_B^2 + D0^2.
  Rng rng(36);
  for (int trial = 0; trial < 10; ++trial) {
    Points a = RandomPoints(rng, 10, 2);
    Points b = RandomPoints(rng, 10, 2);
    CfVector cfa = Summarize(a, MetricKind::kEuclidean);
    CfVector cfb = Summarize(b, MetricKind::kEuclidean);
    double d2 = ClusterDistance(cfa, cfb, ClusterMetric::kD2AvgInter);
    double d0 = ClusterDistance(cfa, cfb, ClusterMetric::kD0Centroid);
    EXPECT_NEAR(d2 * d2,
                cfa.Radius() * cfa.Radius() + cfb.Radius() * cfb.Radius() +
                    d0 * d0,
                1e-7);
    EXPECT_GE(d2 + 1e-12, cfa.Radius());
    EXPECT_GE(d2 + 1e-12, cfb.Radius());
  }
}

TEST(ClusterMetricTest, IdenticalSinglePointClustersAreAtZero) {
  CfVector a(1, MetricKind::kEuclidean), b(1, MetricKind::kEuclidean);
  a.AddPoint(std::vector<double>{5.0});
  b.AddPoint(std::vector<double>{5.0});
  for (auto m : {ClusterMetric::kD0Centroid, ClusterMetric::kD1CentroidManhattan,
                 ClusterMetric::kD2AvgInter, ClusterMetric::kD3AvgIntra,
                 ClusterMetric::kD4VarIncrease}) {
    EXPECT_NEAR(ClusterDistance(a, b, m), 0.0, 1e-12) << ClusterMetricToString(m);
  }
}

TEST(ClusterMetricTest, DiscreteD2MatchesBruteForce) {
  Rng rng(37);
  for (int trial = 0; trial < 15; ++trial) {
    Points a = RandomDiscretePoints(rng, size_t(rng.UniformInt(1, 15)), 2);
    Points b = RandomDiscretePoints(rng, size_t(rng.UniformInt(1, 15)), 2);
    CfVector cfa = Summarize(a, MetricKind::kDiscrete);
    CfVector cfb = Summarize(b, MetricKind::kDiscrete);
    double expect = BruteD2Discrete(a, b);
    EXPECT_NEAR(ClusterDistance(cfa, cfb, ClusterMetric::kD2AvgInter), expect,
                1e-9);
    // Centroid-based metrics degenerate to the same average form.
    EXPECT_NEAR(ClusterDistance(cfa, cfb, ClusterMetric::kD0Centroid), expect,
                1e-9);
    EXPECT_NEAR(
        ClusterDistance(cfa, cfb, ClusterMetric::kD1CentroidManhattan),
        expect, 1e-9);
  }
}

TEST(ClusterMetricTest, DiscreteDistanceBetweenPureClustersIs01) {
  // The §5.1 construction: pure single-value clusters behave like nominal
  // values under the 0/1 metric.
  CfVector a(1, MetricKind::kDiscrete), b(1, MetricKind::kDiscrete),
      c(1, MetricKind::kDiscrete);
  for (int i = 0; i < 4; ++i) a.AddPoint(std::vector<double>{1.0});
  for (int i = 0; i < 3; ++i) b.AddPoint(std::vector<double>{1.0});
  for (int i = 0; i < 5; ++i) c.AddPoint(std::vector<double>{2.0});
  EXPECT_DOUBLE_EQ(ClusterDistance(a, b, ClusterMetric::kD2AvgInter), 0.0);
  EXPECT_DOUBLE_EQ(ClusterDistance(a, c, ClusterMetric::kD2AvgInter), 1.0);
}

TEST(PointClusterDistanceTest, EuclideanToCentroid) {
  CfVector cf(2, MetricKind::kEuclidean);
  cf.AddPoint(std::vector<double>{0, 0});
  cf.AddPoint(std::vector<double>{2, 0});
  std::vector<double> x = {1, 4};
  EXPECT_NEAR(PointClusterDistance(x, cf), 4.0, 1e-12);
}

TEST(PointClusterDistanceTest, ManhattanToCentroid) {
  CfVector cf(2, MetricKind::kManhattan);
  cf.AddPoint(std::vector<double>{0, 0});
  cf.AddPoint(std::vector<double>{2, 2});
  std::vector<double> x = {3, 5};
  EXPECT_NEAR(PointClusterDistance(x, cf), 2.0 + 4.0, 1e-12);
}

TEST(PointClusterDistanceTest, DiscreteMismatchProbability) {
  CfVector cf(1, MetricKind::kDiscrete);
  cf.AddPoint(std::vector<double>{1.0});
  cf.AddPoint(std::vector<double>{1.0});
  cf.AddPoint(std::vector<double>{2.0});
  std::vector<double> x = {1.0};
  EXPECT_NEAR(PointClusterDistance(x, cf), 1.0 - 2.0 / 3.0, 1e-12);
  std::vector<double> y = {9.0};
  EXPECT_NEAR(PointClusterDistance(y, cf), 1.0, 1e-12);
}

// FindNearestCentroid over a WriteCentroid table of `clusters`, checked
// against the lowest-index minimum of PointClusterDistance, the
// definition: the same index and the same distance bits. Returns the
// kernel's answer.
NearestCentroid ExpectKernelMatchesDefinition(
    const std::vector<CfVector>& clusters, const std::vector<double>& x) {
  const size_t dim = x.size();
  std::vector<double> table(clusters.size() * dim);
  for (size_t i = 0; i < clusters.size(); ++i) {
    WriteCentroid(clusters[i], table.data() + i * dim);
  }
  NearestCentroid want;
  for (size_t i = 0; i < clusters.size(); ++i) {
    const double d = PointClusterDistance(x, clusters[i]);
    if (d < want.distance) want = {i, d};
  }
  const NearestCentroid got =
      FindNearestCentroid(table.data(), clusters.size(), dim,
                          clusters[0].metric(),
                          [&x](size_t d) { return x[d]; });
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.distance),
            std::bit_cast<uint64_t>(want.distance));
  return got;
}

TEST(NearestCentroidTest, MatchesPointClusterDistance) {
  Rng rng(41);
  for (const MetricKind metric :
       {MetricKind::kEuclidean, MetricKind::kManhattan}) {
    for (const size_t dim : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(metric)) + "/" +
                   std::to_string(dim));
      for (int trial = 0; trial < 50; ++trial) {
        std::vector<CfVector> clusters;
        for (int c = 0; c < 12; ++c) {
          const size_t n = static_cast<size_t>(rng.UniformInt(1, 7));
          clusters.push_back(Summarize(RandomPoints(rng, n, dim), metric));
        }
        ExpectKernelMatchesDefinition(clusters, RandomPoints(rng, 1, dim)[0]);
      }
    }
  }
}

TEST(NearestCentroidTest, FirstIndexWinsATie) {
  // Single points at 5, 1, 3 and 3 again on every dimension, probed at 2:
  // slots 1, 2 and 3 are at exactly the same distance.
  for (const MetricKind metric :
       {MetricKind::kEuclidean, MetricKind::kManhattan}) {
    for (const size_t dim : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(metric)) + "/" +
                   std::to_string(dim));
      std::vector<CfVector> clusters;
      for (const double v : {5.0, 1.0, 3.0, 3.0}) {
        clusters.push_back(Summarize({std::vector<double>(dim, v)}, metric));
      }
      const NearestCentroid got =
          ExpectKernelMatchesDefinition(clusters, std::vector<double>(dim, 2));
      EXPECT_EQ(got.index, 1u);
    }
  }
}

TEST(NearestCentroidTest, NaNProbeIsIndexZeroAtInfinity) {
  for (const MetricKind metric :
       {MetricKind::kEuclidean, MetricKind::kManhattan}) {
    for (const size_t dim : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(metric)) + "/" +
                   std::to_string(dim));
      Rng rng(42);
      std::vector<CfVector> clusters;
      for (int c = 0; c < 4; ++c) {
        clusters.push_back(Summarize(RandomPoints(rng, 3, dim), metric));
      }
      std::vector<double> x(dim, 1.0);
      x[dim - 1] = std::numeric_limits<double>::quiet_NaN();
      const NearestCentroid got = ExpectKernelMatchesDefinition(clusters, x);
      EXPECT_EQ(got.index, 0u);
      EXPECT_EQ(got.distance, std::numeric_limits<double>::infinity());
    }
  }
}

// Single-point summaries at `values` and a probe at `x`, on dimension
// `dim`: the values sit on dimension 0 and every other coordinate is 0,
// so each distance is the one-dimensional one, through the kernel's
// one-dimensional path at dim 1 and its general loop above.
NearestCentroid ExpectOneDimensionalCase(const std::vector<double>& values,
                                         double x, size_t dim,
                                         MetricKind metric) {
  std::vector<CfVector> clusters;
  for (const double v : values) {
    std::vector<double> point(dim, 0.0);
    point[0] = v;
    clusters.push_back(Summarize({point}, metric));
  }
  std::vector<double> probe(dim, 0.0);
  probe[0] = x;
  return ExpectKernelMatchesDefinition(clusters, probe);
}

// Whether the Euclidean distance between `x` and `c`, sqrt(d * d), is
// |d| bit for bit.
bool RootIsAbsolute(double x, double c) {
  const double d = x - c;
  return std::bit_cast<uint64_t>(std::sqrt(d * d)) ==
         std::bit_cast<uint64_t>(std::fabs(d));
}

TEST(NearestCentroidTest, OneDimensionalGuardEdgesMatchTheDefinition) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double lo = 0x1p-511;
  const double hi = 0x1p511;
  const double below_lo = std::nextafter(0x1p-512, 1.0);
  const double tiny = 0x1p-600;
  // The cases rely on these: the root is |d| from 2^-511 to 2^511, and not
  // just below it (the square is subnormal) or at 2^512 (it overflows).
  ASSERT_TRUE(RootIsAbsolute(lo, 0) && RootIsAbsolute(hi, 0));
  ASSERT_TRUE(RootIsAbsolute(std::nextafter(lo, 1.0), 0));
  ASSERT_TRUE(RootIsAbsolute(std::nextafter(hi, 0.0), 0));
  ASSERT_FALSE(RootIsAbsolute(below_lo, 0));
  ASSERT_FALSE(RootIsAbsolute(0x1p512, 0));
  struct Case {
    const char* name;
    std::vector<double> centroids;
    double x;
  };
  const std::vector<Case> cases = {
      {"exact hit", {5, 3, 3, 7}, 3},
      // The tiny centroid's square underflows, so its root ties the hit.
      {"exact hit after a tiny difference", {tiny, 0, 1}, 0},
      {"tiny differences tie", {-tiny, tiny / 2, 1}, 0},
      {"at 2^-511", {lo, 1}, 0},
      {"just above 2^-511", {std::nextafter(lo, 1.0), 1}, 0},
      {"just below 2^-511", {1, below_lo}, 0},
      {"at 2^511", {0, -1}, hi},
      {"just below 2^511", {0, -1}, std::nextafter(hi, 0.0)},
      {"just above 2^511", {0, -1}, std::nextafter(hi, kInf)},
      {"at 2^512", {0, -1}, 0x1p512},
      {"+inf probe", {1, 2}, kInf},
      {"-inf probe", {1, 2}, -kInf},
      {"NaN probe", {1, 2}, std::numeric_limits<double>::quiet_NaN()},
      {"equal distances on both sides", {1, 3}, 2},
      {"equal distances, far side first", {7, 3, 1}, 2},
      {"duplicate centroids", {4, 2, 2}, 2.5},
      {"duplicate centroids hit", {4, 2, 2}, 2},
  };
  for (const MetricKind metric :
       {MetricKind::kEuclidean, MetricKind::kManhattan}) {
    for (const size_t dim : {size_t{1}, size_t{2}, size_t{3}}) {
      for (const Case& c : cases) {
        SCOPED_TRACE(std::string(c.name) + " " +
                     std::to_string(static_cast<int>(metric)) + "/" +
                     std::to_string(dim));
        ExpectOneDimensionalCase(c.centroids, c.x, dim, metric);
      }
    }
  }
  // The answers the cases pin, where the two forms part.
  const auto euclid = [](const std::vector<double>& centroids, double x) {
    return ExpectOneDimensionalCase(centroids, x, 1, MetricKind::kEuclidean);
  };
  EXPECT_EQ(euclid({tiny, 0, 1}, 0).index, 0u);
  EXPECT_EQ(euclid({-tiny, tiny / 2, 1}, 0).index, 0u);
  EXPECT_NE(std::bit_cast<uint64_t>(euclid({1, below_lo}, 0).distance),
            std::bit_cast<uint64_t>(below_lo));
  EXPECT_EQ(euclid({0, -1}, 0x1p512).distance, kInf);
  EXPECT_EQ(euclid({1, 3}, 2).index, 0u);
  EXPECT_EQ(euclid({4, 2, 2}, 2).index, 1u);
}

}  // namespace
}  // namespace dar
