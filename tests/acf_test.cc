#include "birch/acf.h"

#include <gtest/gtest.h>

#include "birch/metrics.h"
#include "test_util.h"

namespace dar {
namespace {

using testutil::BruteD2Rms;
using testutil::Points;
using testutil::RandomPoints;

std::shared_ptr<const AcfLayout> TwoPartLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "X"},
                   {2, MetricKind::kEuclidean, "Y"}};
  return layout;
}

PartedRow Row(double x, double y0, double y1) {
  return {{x}, {y0, y1}};
}

TEST(AcfTest, TracksAllImages) {
  Acf acf(TwoPartLayout(), 0);
  acf.AddRow(Row(1, 10, 20));
  acf.AddRow(Row(3, 30, 40));
  EXPECT_EQ(acf.n(), 2);
  EXPECT_EQ(acf.own_part(), 0u);
  EXPECT_DOUBLE_EQ(acf.cf().ls()[0], 4);
  EXPECT_DOUBLE_EQ(acf.image(1).ls()[0], 40);
  EXPECT_DOUBLE_EQ(acf.image(1).ls()[1], 60);
}

TEST(AcfTest, MergeIsAdditiveOnEveryImage) {
  auto layout = TwoPartLayout();
  Acf a(layout, 0), b(layout, 0), all(layout, 0);
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    PartedRow r = Row(rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1));
    a.AddRow(r);
    all.AddRow(r);
  }
  for (int i = 0; i < 6; ++i) {
    PartedRow r = Row(rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1));
    b.AddRow(r);
    all.AddRow(r);
  }
  a.Merge(b);
  EXPECT_EQ(a.n(), all.n());
  for (size_t p = 0; p < 2; ++p) {
    for (size_t d = 0; d < a.image(p).dim(); ++d) {
      EXPECT_NEAR(a.image(p).ls()[d], all.image(p).ls()[d], 1e-9);
      EXPECT_NEAR(a.image(p).ss()[d], all.image(p).ss()[d], 1e-9);
    }
  }
}

TEST(AcfTest, RepresentativityTheorem) {
  // Thm 6.1: any inter-cluster distance on any projection is computable
  // from ACFs alone. Check D(C1[Y], C2[Y]) against brute force where the
  // clusters are defined on X.
  auto layout = TwoPartLayout();
  Acf c1(layout, 0), c2(layout, 0);
  Rng rng(6);
  Points y1, y2;
  for (int i = 0; i < 8; ++i) {
    double a = rng.Uniform(-5, 5), b = rng.Uniform(-5, 5);
    c1.AddRow(Row(rng.Uniform(0, 1), a, b));
    y1.push_back({a, b});
  }
  for (int i = 0; i < 5; ++i) {
    double a = rng.Uniform(-5, 5), b = rng.Uniform(-5, 5);
    c2.AddRow(Row(rng.Uniform(0, 1), a, b));
    y2.push_back({a, b});
  }
  double got =
      ClusterDistance(c1.image(1), c2.image(1), ClusterMetric::kD2AvgInter);
  EXPECT_NEAR(got, BruteD2Rms(y1, y2), 1e-8);
}

TEST(AcfTest, BoundingBoxPerImage) {
  Acf acf(TwoPartLayout(), 0);
  acf.AddRow(Row(1, 10, -3));
  acf.AddRow(Row(5, 2, 9));
  auto own = acf.BoundingBox(0);
  ASSERT_EQ(own.size(), 1u);
  EXPECT_DOUBLE_EQ(own[0].first, 1);
  EXPECT_DOUBLE_EQ(own[0].second, 5);
  auto img = acf.BoundingBox(1);
  ASSERT_EQ(img.size(), 2u);
  EXPECT_DOUBLE_EQ(img[0].first, 2);
  EXPECT_DOUBLE_EQ(img[1].second, 9);
}

TEST(AcfTest, DiameterIsOwnPartDiameter) {
  Acf acf(TwoPartLayout(), 1);
  acf.AddRow(Row(0, 0, 0));
  acf.AddRow(Row(100, 3, 4));
  // Own part is Y (2-d); diameter of two points = their distance = 5.
  EXPECT_NEAR(acf.Diameter(), 5.0, 1e-9);
}

TEST(AcfTest, LayoutApproxBytesPositive) {
  auto layout = TwoPartLayout();
  EXPECT_GT(layout->ApproxAcfBytes(), 0u);
}

TEST(AcfTest, FlatRowOffsetsFollowPartOrder) {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{2, MetricKind::kEuclidean, "A"},
                   {1, MetricKind::kManhattan, "B"},
                   {3, MetricKind::kDiscrete, "C"}};
  EXPECT_EQ(layout->offset(0), 0u);
  EXPECT_EQ(layout->offset(1), 2u);
  EXPECT_EQ(layout->offset(2), 3u);
  EXPECT_EQ(layout->row_width(), 6u);
}

TEST(AcfTest, BudgetChargesArePinned) {
  // The memory budget's model (birch/budget.h): 48 bytes per ACF, plus per
  // image 136 bytes and 4 * dim doubles, plus an estimate of 16 histogram
  // entries of 64 bytes per discrete dimension. Rebuilds fire on these
  // numbers, so they must not follow the storage layout.
  auto flat = std::make_shared<AcfLayout>();
  for (int p = 0; p < 30; ++p) {
    flat->parts.push_back({1, MetricKind::kEuclidean, "p"});
  }
  EXPECT_EQ(flat->ApproxAcfBytes(), 5088u);  // 48 + 30 * (136 + 32)

  auto mixed = std::make_shared<AcfLayout>();
  mixed->parts = {{2, MetricKind::kEuclidean, "A"},
                  {1, MetricKind::kManhattan, "B"},
                  {3, MetricKind::kDiscrete, "C"}};
  // 48 + (136 + 64) + (136 + 32) + (136 + 96 + 3 * 16 * 64)
  EXPECT_EQ(mixed->ApproxAcfBytes(), 3720u);
}

TEST(AcfTest, ToStringShowsBoxAndCount) {
  Acf acf(TwoPartLayout(), 0);
  acf.AddRow(Row(2, 0, 0));
  std::string s = acf.ToString();
  EXPECT_NE(s.find("n=1"), std::string::npos);
  EXPECT_NE(s.find("X"), std::string::npos);
}

}  // namespace
}  // namespace dar
