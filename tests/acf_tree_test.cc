#include "birch/acf_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "persist/codec.h"

namespace dar {
namespace {

std::shared_ptr<const AcfLayout> OnePartLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "X"}};
  return layout;
}

std::shared_ptr<const AcfLayout> TwoPartLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "X"},
                   {1, MetricKind::kEuclidean, "Y"}};
  return layout;
}

AcfTreeOptions SmallTreeOptions() {
  AcfTreeOptions opts;
  opts.branching_factor = 4;
  opts.leaf_capacity = 4;
  opts.memory_budget_bytes = 64u << 20;  // effectively unbounded
  return opts;
}

// Sums the LS of every cluster image on `part`, over clusters + outliers.
double TotalLs(const AcfTree& tree, size_t part) {
  double total = 0;
  for (const auto& c : tree.ExtractClusters()) total += c.image(part).ls()[0];
  for (const auto& c : tree.outliers()) total += c.image(part).ls()[0];
  return total;
}

TEST(AcfTreeTest, SinglePointSingleCluster) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  ASSERT_TRUE(tree.InsertPoint({{5.0}}).ok());
  auto clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].n(), 1);
  EXPECT_DOUBLE_EQ(clusters[0].Centroid()[0], 5.0);
}

TEST(AcfTreeTest, IdenticalPointsMergeAtThresholdZero) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{3.0}}).ok());
  }
  auto clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].n(), 10);
}

TEST(AcfTreeTest, DistinctPointsStaySeparateAtThresholdZero) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{double(i) * 10}}).ok());
  }
  EXPECT_EQ(tree.ExtractClusters().size(), 8u);
}

TEST(AcfTreeTest, ThresholdAbsorbsNearbyPoints) {
  AcfTreeOptions opts = SmallTreeOptions();
  opts.initial_threshold = 2.0;
  AcfTree tree(OnePartLayout(), 0, opts);
  // Two groups around 0 and 100.
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    double base = (i % 2 == 0) ? 0.0 : 100.0;
    ASSERT_TRUE(tree.InsertPoint({{base + rng.Uniform(-0.5, 0.5)}}).ok());
  }
  auto clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].n() + clusters[1].n(), 50);
}

TEST(AcfTreeTest, MassConservedThroughSplits) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{rng.Uniform(0, 1000)}}).ok());
  }
  EXPECT_EQ(tree.TotalMass(), 500);
  EXPECT_GT(tree.Stats().num_nodes, 1u);
  EXPECT_EQ(tree.Stats().num_leaf_entries, tree.ExtractClusters().size());
}

TEST(AcfTreeTest, LinearSumsConservedThroughSplits) {
  AcfTree tree(TwoPartLayout(), 0, SmallTreeOptions());
  Rng rng(5);
  double sum_x = 0, sum_y = 0;
  for (int i = 0; i < 300; ++i) {
    double x = rng.Uniform(0, 100), y = rng.Uniform(-50, 50);
    sum_x += x;
    sum_y += y;
    ASSERT_TRUE(tree.InsertPoint({{x}, {y}}).ok());
  }
  EXPECT_NEAR(TotalLs(tree, 0), sum_x, 1e-6);
  EXPECT_NEAR(TotalLs(tree, 1), sum_y, 1e-6);
}

TEST(AcfTreeTest, MemoryPressureTriggersRebuild) {
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 16 << 10;  // 16 KB: forces threshold adaptation
  AcfTree tree(OnePartLayout(), 0, opts);
  Rng rng(6);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{rng.Uniform(0, 1e6)}}).ok());
  }
  EXPECT_GT(tree.rebuild_count(), 0);
  EXPECT_GT(tree.threshold(), 0.0);
  EXPECT_EQ(tree.TotalMass(), 3000);
  EXPECT_LE(tree.Stats().approx_bytes, opts.memory_budget_bytes);
}

TEST(AcfTreeTest, BudgetAccountingIsPinned) {
  // A fixed-seed tree under memory pressure. Its charged bytes and rebuild
  // count are pinned, so a change that moves the budget's model
  // (birch/budget.h) fails here instead of silently moving every rebuild.
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 16 << 10;
  AcfTree tree(TwoPartLayout(), 0, opts);
  Rng rng(8);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.Uniform(0, 1e6);
    ASSERT_TRUE(tree.InsertPoint({{x}, {rng.Uniform(0, 1e3)}}).ok());
  }
  const AcfTreeStats stats = tree.Stats();
  EXPECT_EQ(stats.approx_bytes, 11512u);
  EXPECT_EQ(stats.rebuild_count, 5);
}

TEST(AcfTreeTest, RebuildPreservesLinearSums) {
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 16 << 10;
  AcfTree tree(TwoPartLayout(), 0, opts);
  Rng rng(7);
  double sum_x = 0, sum_y = 0;
  for (int i = 0; i < 2000; ++i) {
    double x = rng.Uniform(0, 1e5), y = rng.Uniform(0, 10);
    sum_x += x;
    sum_y += y;
    ASSERT_TRUE(tree.InsertPoint({{x}, {y}}).ok());
  }
  ASSERT_GT(tree.rebuild_count(), 0);
  EXPECT_NEAR(TotalLs(tree, 0) / sum_x, 1.0, 1e-9);
  EXPECT_NEAR(TotalLs(tree, 1) / sum_y, 1.0, 1e-9);
}

TEST(AcfTreeTest, ImpossibleBudgetFailsCleanly) {
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 1;  // can never hold even the root
  AcfTree tree(OnePartLayout(), 0, opts);
  Status s = tree.InsertPoint({{1.0}});
  EXPECT_TRUE(s.IsResourceExhausted());
}

TEST(AcfTreeTest, InsertPointValidatesShape) {
  AcfTree tree(TwoPartLayout(), 0, SmallTreeOptions());
  EXPECT_TRUE(tree.InsertPoint({{1.0}}).IsInvalidArgument());  // 1 part
  EXPECT_TRUE(
      tree.InsertPoint({{1.0, 2.0}, {3.0}}).IsInvalidArgument());  // bad dim
}

TEST(AcfTreeTest, InsertSummaryEquivalentToPoints) {
  auto layout = OnePartLayout();
  AcfTreeOptions opts = SmallTreeOptions();
  opts.initial_threshold = 1.0;
  AcfTree by_points(layout, 0, opts);
  AcfTree by_summary(layout, 0, opts);
  Rng rng(8);
  Acf batch(layout, 0);
  for (int i = 0; i < 20; ++i) {
    double x = 50 + rng.Uniform(-0.2, 0.2);
    ASSERT_TRUE(by_points.InsertPoint({{x}}).ok());
    batch.AddRow({{x}});
  }
  ASSERT_TRUE(by_summary.InsertSummary(std::move(batch)).ok());
  EXPECT_EQ(by_points.TotalMass(), by_summary.TotalMass());
  auto a = by_points.ExtractClusters();
  auto b = by_summary.ExtractClusters();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(a[0].Centroid()[0], b[0].Centroid()[0], 1e-9);
}

TEST(AcfTreeTest, InsertSummaryValidates) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  // Different layout object => rejected.
  Acf wrong(OnePartLayout(), 0);
  wrong.AddRow({{1.0}});
  EXPECT_TRUE(tree.InsertSummary(std::move(wrong)).IsInvalidArgument());
  // Empty summary => rejected.
  auto layout = OnePartLayout();
  AcfTree tree2(layout, 0, SmallTreeOptions());
  Acf empty(layout, 0);
  EXPECT_TRUE(tree2.InsertSummary(std::move(empty)).IsInvalidArgument());
}

TEST(AcfTreeTest, OutlierPagingAndReabsorption) {
  auto layout = OnePartLayout();
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 12 << 10;
  opts.outlier_entry_min_n = 5;
  AcfTree tree(layout, 0, opts);
  Rng rng(9);
  // A dense population plus rare scattered singletons.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{rng.Gaussian(100, 1.0)}}).ok());
    if (i % 40 == 0) {
      ASSERT_TRUE(tree.InsertPoint({{rng.Uniform(1e5, 1e6)}}).ok());
    }
  }
  ASSERT_GT(tree.rebuild_count(), 0);
  ASSERT_TRUE(tree.FinishScan().ok());
  // Every point is accounted for: clusters + confirmed outliers.
  EXPECT_EQ(tree.TotalMass(), 2000 + 50);
}

TEST(AcfTreeTest, FinishScanAbsorbsCloseOutliers) {
  auto layout = OnePartLayout();
  AcfTreeOptions opts = SmallTreeOptions();
  opts.initial_threshold = 5.0;
  AcfTree tree(layout, 0, opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{50.0}}).ok());
  }
  // Fake a paged-out outlier near the big cluster by inserting a summary
  // after FinishScan-style reinsertion: exercise via a second tree.
  ASSERT_TRUE(tree.FinishScan().ok());
  EXPECT_TRUE(tree.outliers().empty());
  EXPECT_EQ(tree.TotalMass(), 100);
}

// A 1-D Euclidean, a 2-D Manhattan and a 2-D discrete part.
std::shared_ptr<const AcfLayout> MixedLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "x"},
                   {2, MetricKind::kManhattan, "yz"},
                   {2, MetricKind::kDiscrete, "ab"}};
  return layout;
}

std::string Encode(const AcfTree& tree) {
  persist::WireWriter w;
  persist::EncodeTree(tree, w);
  return std::move(w).Take();
}

// Checks the rows [begin, end) of `columns` against `layout` and inserts
// them into `tree`.
Status InsertBlock(AcfTree& tree, const AcfLayout& layout,
                   std::span<const double* const> columns, size_t begin,
                   size_t end) {
  DAR_ASSIGN_OR_RETURN(const RowBlock block,
                       RowBlock::Make(layout, columns, begin, end));
  return tree.InsertRows(block);
}

TEST(AcfTreeTest, InsertRowsEncodesLikeFlatRowsAtAnyBlockLength) {
  // Blocks of 1 row, 7 rows and the whole input, against InsertPoint row
  // by row, on every part. The budget makes rebuilds (with outlier
  // paging) fire inside the blocks.
  const std::shared_ptr<const AcfLayout> layout = MixedLayout();
  const size_t rows = 1500;
  Rng rng(21);
  std::vector<std::vector<double>> columns(layout->row_width(),
                                           std::vector<double>(rows));
  for (size_t r = 0; r < rows; ++r) {
    columns[0][r] = rng.Uniform(0, 1000);
    columns[1][r] = rng.Uniform(-50, 50);
    columns[2][r] = rng.Uniform(0, 10);
    columns[3][r] = std::floor(rng.Uniform(0, 5));
    columns[4][r] = std::floor(rng.Uniform(0, 3));
  }
  std::vector<const double*> block;
  for (const std::vector<double>& column : columns) {
    block.push_back(column.data());
  }
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 48u << 10;
  opts.outlier_entry_min_n = 2;
  for (size_t own = 0; own < layout->num_parts(); ++own) {
    SCOPED_TRACE("part " + std::to_string(own));
    AcfTree by_row(layout, own, opts);
    for (size_t r = 0; r < rows; ++r) {
      PartedRow row(layout->num_parts());
      for (size_t p = 0; p < row.size(); ++p) {
        for (size_t d = 0; d < layout->parts[p].dim; ++d) {
          row[p].push_back(columns[layout->offset(p) + d][r]);
        }
      }
      ASSERT_TRUE(by_row.InsertPoint(row).ok());
    }
    EXPECT_GE(by_row.rebuild_count(), 3);
    const std::string want = Encode(by_row);
    for (const size_t length : {size_t{1}, size_t{7}, rows}) {
      SCOPED_TRACE("block of " + std::to_string(length));
      AcfTree tree(layout, own, opts);
      for (size_t begin = 0; begin < rows; begin += length) {
        const size_t end = std::min(rows, begin + length);
        ASSERT_TRUE(InsertBlock(tree, *layout, block, begin, end).ok());
      }
      EXPECT_EQ(Encode(tree), want);
      Status valid = tree.ValidateInvariants();
      EXPECT_TRUE(valid.ok()) << valid;
    }
  }
}

TEST(AcfTreeTest, InsertRowsRefusesABadBlockWhole) {
  // The checks live in RowBlock::Make, so a refused block is never made
  // and no tree can take it; the tree itself checks only the width.
  const std::shared_ptr<const AcfLayout> layout = TwoPartLayout();
  AcfTree tree(layout, 0, SmallTreeOptions());
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {4, std::numeric_limits<double>::quiet_NaN(),
                                 6};
  const std::vector<const double*> block = {x.data(), y.data()};
  Status st = RowBlock::Make(*layout, block, 0, 3).status();
  ASSERT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("part 1 ('Y'), row 1"), std::string::npos)
      << st;
  EXPECT_TRUE(RowBlock::Make(*layout, std::span(block).first(1), 0, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      RowBlock::Make(*layout, block, 2, 1).status().IsInvalidArgument());
  // Longer than 32-bit offsets reach: refused before any value is read.
  EXPECT_TRUE(RowBlock::Make(*layout, block, 0, (uint64_t{1} << 32) + 1)
                  .status()
                  .IsInvalidArgument());
  // A block checked for a layout of another width.
  const Result<RowBlock> narrow =
      RowBlock::Make(*OnePartLayout(), std::span(block).first(1), 0, 3);
  ASSERT_TRUE(narrow.ok()) << narrow.status();
  EXPECT_TRUE(tree.InsertRows(*narrow).IsInvalidArgument());
  EXPECT_EQ(tree.TotalMass(), 0);

  ASSERT_TRUE(InsertBlock(tree, *layout, block, 2, 3).ok());
  const std::vector<Acf> clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].image(0).ls()[0], 3.0);
  EXPECT_EQ(clusters[0].image(1).ls()[0], 6.0);
  EXPECT_EQ(clusters[0].image(1).n(), 1);
}

// FNV-1a, 64 bits.
uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// Seeded rows for MixedLayout(), one vector per flat-row slot. Every 37th
// row lies far from the others on every part (a unique code on the
// discrete part), so paged-out clusters can stay outliers.
std::vector<std::vector<double>> MixedColumns(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> columns(5, std::vector<double>(rows));
  for (size_t r = 0; r < rows; ++r) {
    const bool far = r % 37 == 0;
    const double code = 100.0 + static_cast<double>(r);
    columns[0][r] = far ? rng.Uniform(1e5, 2e5) : rng.Uniform(0, 1000);
    columns[1][r] = far ? rng.Uniform(1e4, 2e4) : rng.Uniform(-50, 50);
    columns[2][r] = rng.Uniform(0, 10);
    columns[3][r] = far ? code : std::floor(rng.Uniform(0, 5));
    columns[4][r] = far ? code : std::floor(rng.Uniform(0, 3));
  }
  return columns;
}

Status InsertColumns(AcfTree& tree,
                     const std::vector<std::vector<double>>& columns) {
  std::vector<const double*> block;
  for (const std::vector<double>& column : columns) {
    block.push_back(column.data());
  }
  return InsertBlock(tree, *MixedLayout(), block, 0, columns[0].size());
}

TEST(AcfTreeTest, EveryEntryRefusesANonFiniteValueWhole) {
  // On every part's tree of the mixed layout: a non-finite value in any
  // slot of a parted row (InsertPoint) or in any column and row of a block
  // (RowBlock::Make, the only way to a direct InsertRows) is refused,
  // naming its part, and the tree's encoded bytes do not change.
  const std::shared_ptr<const AcfLayout> layout = MixedLayout();
  const std::vector<std::vector<double>> good = MixedColumns(300, 33);
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 48u << 10;
  // 1e200 is finite, but past the row bound (2^448, RowBlock): its square
  // is not.
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 1e200,
                         -1e200};
  for (size_t own = 0; own < layout->num_parts(); ++own) {
    SCOPED_TRACE("tree of part " + std::to_string(own));
    AcfTree tree(layout, own, opts);
    ASSERT_TRUE(InsertColumns(tree, good).ok());
    const std::string before = Encode(tree);
    for (size_t p = 0; p < layout->num_parts(); ++p) {
      const std::string part = "part " + std::to_string(p) + " (";
      for (size_t k = layout->offset(p); k < layout->offset(p + 1); ++k) {
        for (const double bad : kBad) {
          SCOPED_TRACE("slot " + std::to_string(k) + " = " +
                       std::to_string(bad));
          PartedRow row(layout->num_parts());
          for (size_t q = 0; q < row.size(); ++q) {
            for (size_t j = layout->offset(q); j < layout->offset(q + 1);
                 ++j) {
              row[q].push_back(j == k ? bad : good[j][0]);
            }
          }
          Status refused = tree.InsertPoint(row);
          ASSERT_TRUE(refused.IsInvalidArgument()) << refused;
          EXPECT_NE(refused.message().find(part), std::string::npos)
              << refused;
          for (const size_t r : {size_t{0}, size_t{150}, size_t{299}}) {
            std::vector<std::vector<double>> columns = good;
            columns[k][r] = bad;
            std::vector<const double*> block;
            for (const std::vector<double>& column : columns) {
              block.push_back(column.data());
            }
            refused = InsertBlock(tree, *layout, block, 0, 300);
            ASSERT_TRUE(refused.IsInvalidArgument()) << refused;
            EXPECT_NE(refused.message().find(part + "'" +
                                             layout->parts[p].label +
                                             "'), row " + std::to_string(r)),
                      std::string::npos)
                << refused;
          }
          EXPECT_EQ(Encode(tree), before);
        }
      }
    }
  }
}

TEST(AcfTreeTest, RowsAtTheBoundRoundTripThroughTheCodec) {
  // Rows at plus and minus the row bound (2^448, RowBlock) keep every
  // moment of the tree finite, so its checkpoint restores: encoding,
  // decoding and re-encoding give the same bytes. One step past the bound
  // is refused.
  const double bound = 0x1p448;
  const std::shared_ptr<const AcfLayout> layout = MixedLayout();
  auto row_of = [&](double v) {
    PartedRow row(layout->num_parts());
    for (size_t q = 0; q < row.size(); ++q) {
      row[q].assign(layout->parts[q].dim, v);
    }
    return row;
  };
  for (size_t own = 0; own < layout->num_parts(); ++own) {
    SCOPED_TRACE("tree of part " + std::to_string(own));
    AcfTree tree(layout, own, SmallTreeOptions());
    for (const double v : {bound, -bound, bound, 0.0, -bound, bound}) {
      ASSERT_TRUE(tree.InsertPoint(row_of(v)).ok());
    }
    const std::string bytes = Encode(tree);
    persist::WireReader r(bytes);
    auto decoded = persist::DecodeTree(r, layout, own);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(Encode(**decoded), bytes);
    for (const double past :
         {std::nextafter(bound, HUGE_VAL), std::nextafter(-bound, -HUGE_VAL)}) {
      EXPECT_TRUE(tree.InsertPoint(row_of(past)).IsInvalidArgument());
    }
    EXPECT_EQ(Encode(tree), bytes);
  }
}

TEST(AcfTreeTest, PinnedOutputThroughRebuildsFinishScanAndMerge) {
  // Fixed-seed trees on every part of the mixed layout (Euclidean,
  // Manhattan and discrete), through splits, rebuilds with outlier
  // paging, FinishScan and a merge. The encoded bytes are pinned by
  // hash, so a change to any descent, split or absorption decision fails
  // here.
  const std::shared_ptr<const AcfLayout> layout = MixedLayout();
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 64u << 10;
  opts.outlier_entry_min_n = 3;
  struct Pin {
    uint64_t hash;
    int64_t splits;
    int rebuilds;
    size_t outliers;
  };
  const Pin pins[] = {{0xa1078e25fc96fef4ull, 130, 15, 51},
                      {0xcd9ae617824688b4ull, 87, 11, 28},
                      {0xf0bc6cf278e32de1ull, 122, 10, 0}};
  for (size_t own = 0; own < layout->num_parts(); ++own) {
    SCOPED_TRACE("part " + std::to_string(own));
    AcfTree tree(layout, own, opts);
    ASSERT_TRUE(InsertColumns(tree, MixedColumns(2000, 31)).ok());
    EXPECT_GE(tree.rebuild_count(), 3);
    EXPECT_GT(tree.Stats().num_outliers, 0u);  // some cluster was paged
    ASSERT_TRUE(tree.FinishScan().ok());
    AcfTree other(layout, own, opts);
    ASSERT_TRUE(InsertColumns(other, MixedColumns(1200, 32)).ok());
    ASSERT_TRUE(tree.MergeFrom(other).ok());
    ASSERT_TRUE(tree.FinishScan().ok());
    Status valid = tree.ValidateInvariants();
    EXPECT_TRUE(valid.ok()) << valid;
    EXPECT_EQ(tree.TotalMass(), 3200);
    const AcfTreeStats stats = tree.Stats();
    EXPECT_EQ(Fnv1a64(Encode(tree)), pins[own].hash);
    EXPECT_EQ(stats.split_count, pins[own].splits);
    EXPECT_EQ(stats.rebuild_count, pins[own].rebuilds);
    EXPECT_EQ(tree.outliers().size(), pins[own].outliers);
  }
}

TEST(AcfTreeTest, MergeFromItselfIsRefused) {
  // A tree's tuples are not disjoint from its own. Paging fills the
  // outlier buffer that a self-merge would read while appending to it.
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 6u << 10;
  opts.outlier_entry_min_n = 3;
  AcfTree tree(OnePartLayout(), 0, opts);
  Rng rng(15);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{rng.Uniform(0, 1e6)}}).ok());
  }
  ASSERT_GT(tree.Stats().num_outliers, 0u);
  const std::string before = Encode(tree);
  EXPECT_TRUE(tree.MergeFrom(tree).IsInvalidArgument());
  EXPECT_EQ(Encode(tree), before);
}

TEST(AcfTreeTest, DeterministicForIdenticalInput) {
  auto run = [] {
    AcfTreeOptions opts = SmallTreeOptions();
    opts.memory_budget_bytes = 32 << 10;
    AcfTree tree(OnePartLayout(), 0, opts);
    Rng rng(11);
    for (int i = 0; i < 1500; ++i) {
      EXPECT_TRUE(tree.InsertPoint({{rng.Uniform(0, 1e4)}}).ok());
    }
    std::vector<double> centroids;
    for (const auto& c : tree.ExtractClusters()) {
      centroids.push_back(c.Centroid()[0]);
    }
    return centroids;
  };
  EXPECT_EQ(run(), run());
}

TEST(AcfTreeTest, StatsReportInsertedPoints) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{double(i)}}).ok());
  }
  AcfTreeStats stats = tree.Stats();
  EXPECT_EQ(stats.points_inserted, 25);
  EXPECT_EQ(stats.rebuild_count, 0);
  EXPECT_GT(stats.approx_bytes, 0u);
}

TEST(AcfTreeTest, HigherThresholdYieldsFewerClusters) {
  auto count_clusters = [](double threshold) {
    AcfTreeOptions opts = SmallTreeOptions();
    opts.initial_threshold = threshold;
    AcfTree tree(OnePartLayout(), 0, opts);
    Rng rng(12);
    for (int i = 0; i < 400; ++i) {
      EXPECT_TRUE(tree.InsertPoint({{rng.Uniform(0, 100)}}).ok());
    }
    return tree.ExtractClusters().size();
  };
  size_t fine = count_clusters(0.5);
  size_t coarse = count_clusters(20.0);
  EXPECT_GT(fine, coarse);
}

TEST(AcfTreeTest, RejectsNonFiniteValues) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  EXPECT_TRUE(tree.InsertPoint({{std::nan("")}}).IsInvalidArgument());
  EXPECT_TRUE(tree.InsertPoint(
                      {{std::numeric_limits<double>::infinity()}})
                  .IsInvalidArgument());
  // The tree is unchanged afterwards.
  EXPECT_EQ(tree.TotalMass(), 0);
  ASSERT_TRUE(tree.InsertPoint({{1.0}}).ok());
  EXPECT_EQ(tree.TotalMass(), 1);
}

TEST(AcfTreeTest, TwoDimensionalPartClusters) {
  // The paper's Latitude+Longitude case: one attribute set of dimension 2
  // with a Euclidean metric.
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{2, MetricKind::kEuclidean, "Lat+Lon"}};
  AcfTreeOptions opts = SmallTreeOptions();
  opts.initial_threshold = 2.0;
  AcfTree tree(layout, 0, opts);
  Rng rng(14);
  // Two spatial clusters.
  for (int i = 0; i < 100; ++i) {
    double lat = (i % 2 == 0) ? 40.0 : 52.0;
    double lon = (i % 2 == 0) ? -74.0 : 13.0;
    ASSERT_TRUE(tree.InsertPoint({{lat + rng.Uniform(-0.3, 0.3),
                                   lon + rng.Uniform(-0.3, 0.3)}})
                    .ok());
  }
  auto clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 2u);
  for (const auto& c : clusters) {
    EXPECT_EQ(c.n(), 50);
    auto box = c.BoundingBox(0);
    ASSERT_EQ(box.size(), 2u);
    EXPECT_LT(box[0].second - box[0].first, 1.0);
  }
}

TEST(AcfTreeTest, ManhattanMetricPart) {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{2, MetricKind::kManhattan, "XY"}};
  AcfTreeOptions opts = SmallTreeOptions();
  opts.initial_threshold = 3.0;
  AcfTree tree(layout, 0, opts);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{10.0, 10.0}}).ok());
    ASSERT_TRUE(tree.InsertPoint({{90.0, 90.0}}).ok());
  }
  EXPECT_EQ(tree.ExtractClusters().size(), 2u);
}

TEST(AcfTreeTest, DiscretePartClustersByValue) {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kDiscrete, "Color"}};
  AcfTree tree(layout, 0, SmallTreeOptions());  // threshold 0
  Rng rng(13);
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{double(i % 3)}}).ok());
  }
  // Theorem 5.1: diameter-0 clusters are exactly the distinct values.
  auto clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 3u);
  for (const auto& c : clusters) {
    EXPECT_EQ(c.n(), 30);
    EXPECT_DOUBLE_EQ(c.Diameter(), 0.0);
  }
}

}  // namespace
}  // namespace dar
