#include "core/phase1_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/random.h"
#include "core/observer.h"
#include "core/session.h"
#include "datagen/planted.h"
#include "persist/codec.h"

namespace dar {
namespace {

DarConfig TestConfig() {
  DarConfig config;
  config.memory_budget_bytes = 8u << 20;
  config.frequency_fraction = 0.05;
  config.initial_diameters = {80.0, 80.0};
  return config;
}

TEST(Phase1BuilderTest, ValidatesConfig) {
  // Make runs DarConfig::Validate: a NaN outlier fraction would reach an
  // int64_t cast at the 4096th row, and a zero budget no tree can keep.
  Schema s = *Schema::Make({{"a", AttributeKind::kInterval}});
  AttributePartition part = AttributePartition::SingletonPartition(s);
  const std::pair<const char*, void (*)(DarConfig&)> knobs[] = {
      {"frequency_fraction", [](DarConfig& c) { c.frequency_fraction = 0; }},
      {"outlier_fraction",
       [](DarConfig& c) {
         c.outlier_fraction = std::numeric_limits<double>::quiet_NaN();
       }},
      {"memory_budget_bytes",
       [](DarConfig& c) { c.memory_budget_bytes = 0; }}};
  for (const auto& [knob, change] : knobs) {
    DarConfig bad = TestConfig();
    change(bad);
    const Status status = Phase1Builder::Make(bad, s, part).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << knob << ": " << status;
    EXPECT_NE(status.message().find(knob), std::string::npos) << status;
  }
}

TEST(Phase1BuilderTest, RejectsWrongRowWidth) {
  Schema s = *Schema::Make({{"a", AttributeKind::kInterval},
                            {"b", AttributeKind::kInterval}});
  AttributePartition part = AttributePartition::SingletonPartition(s);
  auto builder = Phase1Builder::Make(TestConfig(), s, part);
  ASSERT_TRUE(builder.ok());
  std::vector<double> short_row = {1.0};
  EXPECT_TRUE(builder->AddRow(short_row).IsInvalidArgument());
}

TEST(Phase1BuilderTest, FinishWithoutRowsFails) {
  Schema s = *Schema::Make({{"a", AttributeKind::kInterval}});
  AttributePartition part = AttributePartition::SingletonPartition(s);
  auto builder = Phase1Builder::Make(TestConfig(), s, part);
  ASSERT_TRUE(builder.ok());
  EXPECT_TRUE(
      std::move(*builder).Finish().status().IsInvalidArgument());
}

TEST(Phase1BuilderTest, StreamingEqualsBatch) {
  PlantedDataSpec spec = WbcdLikeSpec(2, 3, 0.05, 41);
  auto data = GeneratePlanted(spec, 2000, 42);
  ASSERT_TRUE(data.ok());
  DarConfig config = TestConfig();

  // Batch via a serial session.
  auto session = Session::Builder().WithConfig(config).Build();
  ASSERT_TRUE(session.ok());
  auto batch = session->RunPhase1(data->relation, data->partition);
  ASSERT_TRUE(batch.ok());

  // Streaming via the builder, row by row.
  auto builder =
      Phase1Builder::Make(config, data->relation.schema(), data->partition);
  ASSERT_TRUE(builder.ok());
  for (size_t r = 0; r < data->relation.num_rows(); ++r) {
    ASSERT_TRUE(builder->AddRow(data->relation.Row(r)).ok());
  }
  EXPECT_EQ(builder->rows_added(), 2000);
  auto streamed = std::move(*builder).Finish();
  ASSERT_TRUE(streamed.ok());

  // Identical input order and configuration => identical clusters.
  ASSERT_EQ(streamed->clusters.size(), batch->clusters.size());
  for (size_t i = 0; i < streamed->clusters.size(); ++i) {
    const FoundCluster& a = streamed->clusters.cluster(i);
    const FoundCluster& b = batch->clusters.cluster(i);
    EXPECT_EQ(a.part, b.part);
    EXPECT_EQ(a.acf.n(), b.acf.n());
    EXPECT_NEAR(a.acf.Centroid()[0], b.acf.Centroid()[0], 1e-9);
  }
  EXPECT_EQ(streamed->frequency_threshold, batch->frequency_threshold);
}

TEST(Phase1BuilderTest, RefinementReducesFragmentation) {
  // A workload prone to fragmentation: tight threshold relative to spread.
  PlantedDataSpec spec = WbcdLikeSpec(2, 4, 0.0, 43);
  auto data = GeneratePlanted(spec, 3000, 44);
  ASSERT_TRUE(data.ok());
  auto count_raw = [&](bool refine) {
    DarConfig config = TestConfig();
    config.initial_diameters = {25.0, 25.0};  // sigma ~10 => fragments
    config.refine_clusters = refine;
    auto session = Session::Builder().WithConfig(config).Build();
    EXPECT_TRUE(session.ok());
    auto phase1 = session->RunPhase1(data->relation, data->partition);
    EXPECT_TRUE(phase1.ok());
    size_t raw = 0;
    for (size_t c : phase1->raw_cluster_counts) raw += c;
    return raw;
  };
  size_t without = count_raw(false);
  size_t with = count_raw(true);
  EXPECT_LE(with, without);
  EXPECT_LE(with, 2u * 4u + 2u);  // close to the 4 planted clusters per part
}

TEST(Phase1BuilderTest, StreamingMassAccounting) {
  Schema s = *Schema::Make({{"x", AttributeKind::kInterval}});
  AttributePartition part = AttributePartition::SingletonPartition(s);
  DarConfig config;
  config.memory_budget_bytes = 1u << 20;
  config.frequency_fraction = 0.01;
  auto builder = Phase1Builder::Make(config, s, part);
  ASSERT_TRUE(builder.ok());
  Rng rng(45);
  for (int i = 0; i < 5000; ++i) {
    std::vector<double> row = {rng.Uniform(0, 1000)};
    ASSERT_TRUE(builder->AddRow(row).ok());
  }
  auto phase1 = std::move(*builder).Finish();
  ASSERT_TRUE(phase1.ok());
  ASSERT_EQ(phase1->tree_stats.size(), 1u);
  EXPECT_EQ(phase1->tree_stats[0].points_inserted, 5000);
}

// Rows [begin, end) of `rel`; column 1 of row `nan_row`, if among them,
// becomes NaN.
Relation Batch(const Relation& rel, size_t begin, size_t end,
               size_t nan_row = std::numeric_limits<size_t>::max()) {
  Relation out(rel.schema());
  for (size_t r = begin; r < end; ++r) {
    std::vector<double> row = rel.Row(r);
    if (r == nan_row) row[1] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(out.AppendRow(row).ok());
  }
  return out;
}

TEST(Phase1BuilderTest, RejectedBatchFeedsNoTree) {
  // A 50-row batch with a NaN in row 5 is refused before any tree sees a
  // row: the builder still encodes as an untouched one, and after a clean
  // batch every tree's insert count equals rows_added and the builder
  // encodes as one that never saw the bad batch. At 1 and at 4 threads.
  PlantedDataSpec spec = WbcdLikeSpec(3, 3, 0.05, 61);
  auto data = GeneratePlanted(spec, 100, 62);
  ASSERT_TRUE(data.ok());
  const Relation bad = Batch(data->relation, 0, 50, /*nan_row=*/5);
  const Relation clean = Batch(data->relation, 50, 100);
  DarConfig config = TestConfig();
  config.initial_diameters.assign(3, 80.0);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    std::shared_ptr<Executor> executor = MakeExecutor(threads);
    auto offered = Phase1Builder::Make(config, data->relation.schema(),
                                       data->partition, executor.get());
    ASSERT_TRUE(offered.ok());
    auto never = Phase1Builder::Make(config, data->relation.schema(),
                                     data->partition, executor.get());
    ASSERT_TRUE(never.ok());

    Status refused = offered->AddRelation(bad);
    ASSERT_TRUE(refused.IsInvalidArgument()) << refused;
    EXPECT_NE(refused.message().find("row 5"), std::string::npos) << refused;
    EXPECT_EQ(offered->rows_added(), 0);
    EXPECT_EQ(persist::EncodeBuilderSection(*offered),
              persist::EncodeBuilderSection(*never));

    ASSERT_TRUE(offered->AddRelation(clean).ok());
    ASSERT_TRUE(never->AddRelation(clean).ok());
    EXPECT_EQ(offered->rows_added(), 50);
    auto snapshot = offered->Snapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    for (const AcfTreeStats& stats : snapshot->tree_stats) {
      EXPECT_EQ(stats.points_inserted, offered->rows_added());
    }
    EXPECT_EQ(persist::EncodeBuilderSection(*offered),
              persist::EncodeBuilderSection(*never));
  }
}

// Parts of dimension 2, 1 and 3 under the Euclidean, Manhattan and discrete
// metrics, listed out of schema order: the flat row is (a, d | f | b, c, e),
// not the schema's (a, b, c, d, e, f).
struct MixedLayoutData {
  Relation rel;
  AttributePartition partition;
};

// Interval values drift up by `drift` per row, so late rows keep opening
// clusters and rebuilds keep firing.
MixedLayoutData MakeMixedLayoutData(size_t rows, double drift = 0) {
  Schema schema = *Schema::Make({{"a", AttributeKind::kInterval},
                                 {"b", AttributeKind::kNominal},
                                 {"c", AttributeKind::kNominal},
                                 {"d", AttributeKind::kInterval},
                                 {"e", AttributeKind::kNominal},
                                 {"f", AttributeKind::kInterval}});
  auto partition = AttributePartition::Make(
      schema, {{{"d", "a"}, MetricKind::kEuclidean},
               {{"f"}, MetricKind::kManhattan},
               {{"e", "b", "c"}, MetricKind::kDiscrete}});
  EXPECT_TRUE(partition.ok()) << partition.status();
  MixedLayoutData out{Relation(schema), *partition};
  Rng rng(63);
  for (size_t r = 0; r < rows; ++r) {
    // Integer values, so every sum below is exact in any order.
    std::vector<double> row(6);
    for (size_t c : {0, 3, 5}) {
      row[c] = std::floor(rng.Uniform(0, 200) + drift * static_cast<double>(r));
    }
    for (size_t c : {1, 2, 4}) row[c] = std::floor(rng.Uniform(0, 4));
    EXPECT_TRUE(out.rel.AppendRow(row).ok());
  }
  return out;
}

// Trees built outside any builder, with the options Phase1Builder::Make
// gives its trees (the budget split evenly over the parts), fed every row
// of `rel` as a parted row through InsertPoint. Every 4096 rows they move
// the outlier paging threshold as the builder does.
std::vector<std::unique_ptr<AcfTree>> StandaloneTrees(
    const Relation& rel, const AttributePartition& partition,
    const DarConfig& config) {
  auto layout = std::make_shared<AcfLayout>();
  for (const AttributeSet& part : partition.parts()) {
    layout->parts.push_back({part.dimension(), part.metric, part.label});
  }
  AcfTreeOptions options;
  options.memory_budget_bytes =
      config.memory_budget_bytes / partition.num_parts();
  std::vector<std::unique_ptr<AcfTree>> trees;
  for (size_t p = 0; p < partition.num_parts(); ++p) {
    trees.push_back(std::make_unique<AcfTree>(layout, p, options));
  }
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    PartedRow row;
    for (const AttributeSet& part : partition.parts()) {
      std::vector<double> values;
      for (size_t col : part.columns) values.push_back(rel.at(r, col));
      row.push_back(std::move(values));
    }
    for (auto& tree : trees) EXPECT_TRUE(tree->InsertPoint(row).ok());
    if ((r + 1) % 4096 != 0) continue;
    const auto min_n = static_cast<int64_t>(config.outlier_fraction *
                                            config.frequency_fraction *
                                            static_cast<double>(r + 1));
    for (auto& tree : trees) tree->set_outlier_entry_min_n(min_n);
  }
  return trees;
}

// The builder section of `trees` after `rows` rows, tree by tree.
std::string BuilderSectionOf(const std::vector<std::unique_ptr<AcfTree>>& trees,
                             size_t rows) {
  persist::WireWriter w;
  w.I64(static_cast<int64_t>(rows));
  w.U32(static_cast<uint32_t>(trees.size()));
  for (const auto& tree : trees) {
    persist::WireWriter blob;
    persist::EncodeTree(*tree, blob);
    w.U64(blob.size());
    w.Raw(blob.bytes());
  }
  return std::move(w).Take();
}

TEST(Phase1BuilderTest, FlatRowOnMixedLayoutIsFeedOrderIndependent) {
  const MixedLayoutData data = MakeMixedLayoutData(600);
  const Relation& rel = data.rel;
  const AttributePartition& partition = data.partition;
  ASSERT_EQ(partition.part(0).columns, (std::vector<size_t>{0, 3}));
  ASSERT_EQ(partition.part(2).columns, (std::vector<size_t>{1, 2, 4}));
  DarConfig config;
  config.memory_budget_bytes = 96u << 10;  // small enough to rebuild
  config.frequency_fraction = 1e-9;        // s0 = 1

  auto make = [&](Executor* executor) -> Phase1Builder {
    auto builder =
        Phase1Builder::Make(config, rel.schema(), partition, executor);
    EXPECT_TRUE(builder.ok()) << builder.status();
    return std::move(*builder);
  };
  std::shared_ptr<Executor> pool = MakeExecutor(4);
  Phase1Builder serial = make(nullptr);
  ASSERT_TRUE(serial.AddRelation(rel).ok());
  Phase1Builder parallel = make(pool.get());
  ASSERT_TRUE(parallel.AddRelation(rel).ok());
  Phase1Builder by_row = make(nullptr);
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    ASSERT_TRUE(by_row.AddRow(rel.Row(r)).ok());
  }

  // The fourth way: standalone trees fed parted rows (under 4096 rows
  // outlier paging never switches on).
  const std::vector<std::unique_ptr<AcfTree>> trees =
      StandaloneTrees(rel, partition, config);
  const std::string want = BuilderSectionOf(trees, rel.num_rows());
  EXPECT_EQ(persist::EncodeBuilderSection(serial), want);
  EXPECT_EQ(persist::EncodeBuilderSection(parallel), want);
  EXPECT_EQ(persist::EncodeBuilderSection(by_row), want);

  // Every tree's leaf entries and outliers together summarize every row
  // on every part (Eq. 7): their sums are the column totals.
  for (size_t p = 0; p < trees.size(); ++p) {
    SCOPED_TRACE(p);
    EXPECT_GT(trees[p]->rebuild_count(), 0);
    std::vector<Acf> entries = trees[p]->ExtractClusters();
    for (const Acf& acf : trees[p]->outliers()) entries.push_back(acf);
    for (size_t q = 0; q < partition.num_parts(); ++q) {
      int64_t n = 0;
      for (const Acf& acf : entries) n += acf.image(q).n();
      EXPECT_EQ(n, static_cast<int64_t>(rel.num_rows()));
      const std::vector<size_t>& cols = partition.part(q).columns;
      for (size_t d = 0; d < cols.size(); ++d) {
        const std::span<const double> column = rel.column(cols[d]);
        double ls = 0, ss = 0, lo = column[0], hi = column[0];
        for (double v : column) {
          ls += v;
          ss += v * v;
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        double got_ls = 0, got_ss = 0;
        double got_lo = std::numeric_limits<double>::infinity();
        double got_hi = -got_lo;
        for (const Acf& acf : entries) {
          got_ls += acf.image(q).ls()[d];
          got_ss += acf.image(q).ss()[d];
          got_lo = std::min(got_lo, acf.image(q).min()[d]);
          got_hi = std::max(got_hi, acf.image(q).max()[d]);
        }
        EXPECT_EQ(got_ls, ls) << "part " << q << " dim " << d;
        EXPECT_EQ(got_ss, ss) << "part " << q << " dim " << d;
        EXPECT_EQ(got_lo, lo) << "part " << q << " dim " << d;
        EXPECT_EQ(got_hi, hi) << "part " << q << " dim " << d;
      }
    }
  }
}

TEST(Phase1BuilderTest, BlockBoundariesKeepTheOutlierCadence) {
  // Past 4096 rows outlier paging switches on, so the feeds below cross
  // the paging cadence and their block boundaries fall on both sides of
  // it: 1 and 4 threads, row by row, uneven batches, and standalone trees.
  const MixedLayoutData data = MakeMixedLayoutData(9500, /*drift=*/0.05);
  const Relation& rel = data.rel;
  const AttributePartition& partition = data.partition;
  DarConfig config;
  config.memory_budget_bytes = 384u << 10;
  config.frequency_fraction = 0.3;  // pages clusters under 307, then 614
  ASSERT_GT(config.outlier_fraction, 0);

  auto make = [&](Executor* executor) -> Phase1Builder {
    auto builder =
        Phase1Builder::Make(config, rel.schema(), partition, executor);
    EXPECT_TRUE(builder.ok()) << builder.status();
    return std::move(*builder);
  };
  std::shared_ptr<Executor> pool = MakeExecutor(4);
  Phase1Builder serial = make(nullptr);
  ASSERT_TRUE(serial.AddRelation(rel).ok());
  Phase1Builder parallel = make(pool.get());
  ASSERT_TRUE(parallel.AddRelation(rel).ok());
  Phase1Builder by_row = make(nullptr);
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    ASSERT_TRUE(by_row.AddRow(rel.Row(r)).ok());
  }
  Phase1Builder batched = make(pool.get());
  size_t begin = 0;
  for (const size_t length : {size_t{1}, size_t{999}, size_t{4097},
                              rel.num_rows() - 5097}) {
    ASSERT_TRUE(batched.AddRelation(Batch(rel, begin, begin + length)).ok());
    begin += length;
  }
  ASSERT_EQ(batched.rows_added(), static_cast<int64_t>(rel.num_rows()));

  const std::vector<std::unique_ptr<AcfTree>> trees =
      StandaloneTrees(rel, partition, config);
  size_t paged = 0;
  for (const auto& tree : trees) paged += tree->Stats().num_outliers;
  EXPECT_GT(paged, 0u) << "no cluster was paged out: the cadence is untested";
  const std::string want = BuilderSectionOf(trees, rel.num_rows());
  EXPECT_EQ(persist::EncodeBuilderSection(serial), want);
  EXPECT_EQ(persist::EncodeBuilderSection(parallel), want);
  EXPECT_EQ(persist::EncodeBuilderSection(by_row), want);
  EXPECT_EQ(persist::EncodeBuilderSection(batched), want);
}

TEST(Phase1BuilderTest, DecodedTreesReportEveryRebuildToTheObserver) {
  // The builder wires the observer's rebuild hook into the trees Make
  // builds and into the trees a checkpoint restores; the hook itself is
  // not in the checkpoint. Every rebuild before the save reaches the first
  // observer, every rebuild after the restore (FinishScan's included)
  // reaches the second, and together they count each tree's rebuilds.
  const MixedLayoutData data = MakeMixedLayoutData(6000, /*drift=*/0.05);
  const Relation& rel = data.rel;
  DarConfig config;
  config.memory_budget_bytes = 384u << 10;
  config.frequency_fraction = 0.3;

  CountersObserver saved;
  auto made = Phase1Builder::Make(config, rel.schema(), data.partition,
                                  /*executor=*/nullptr, &saved);
  ASSERT_TRUE(made.ok()) << made.status();
  ASSERT_TRUE(made->AddRelation(Batch(rel, 0, 3000)).ok());
  ASSERT_GT(saved.counters().tree_rebuilds, 0);

  CountersObserver restoring;
  auto restored = persist::DecodeBuilderSection(
      persist::EncodeBuilderSection(*made), config, rel.schema(),
      data.partition, /*executor=*/nullptr, &restoring);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_TRUE(restored->AddRelation(Batch(rel, 3000, 6000)).ok());
  auto result = std::move(*restored).Finish();
  ASSERT_TRUE(result.ok()) << result.status();

  int64_t rebuilds = 0;
  for (const AcfTreeStats& stats : result->tree_stats) {
    rebuilds += stats.rebuild_count;
  }
  EXPECT_GT(restoring.counters().tree_rebuilds, 0);
  EXPECT_EQ(saved.counters().tree_rebuilds +
                restoring.counters().tree_rebuilds,
            rebuilds);
}

TEST(Phase1BuilderTest, MergeFromItselfIsRefused) {
  // A builder's tuples are not disjoint from its own: a self-merge would
  // double rows_added and read every tree's outlier buffer while
  // appending to it. Refused before any state changes, at 1 and 4 threads.
  const MixedLayoutData data = MakeMixedLayoutData(9500, /*drift=*/0.05);
  DarConfig config;
  config.memory_budget_bytes = 384u << 10;
  config.frequency_fraction = 0.3;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    std::shared_ptr<Executor> executor = MakeExecutor(threads);
    auto builder = Phase1Builder::Make(config, data.rel.schema(),
                                       data.partition, executor.get());
    ASSERT_TRUE(builder.ok()) << builder.status();
    ASSERT_TRUE(builder->AddRelation(data.rel).ok());
    const std::string before = persist::EncodeBuilderSection(*builder);
    Status refused = builder->MergeFrom(*builder);
    EXPECT_TRUE(refused.IsInvalidArgument()) << refused;
    EXPECT_EQ(builder->rows_added(), static_cast<int64_t>(data.rel.num_rows()));
    EXPECT_EQ(persist::EncodeBuilderSection(*builder), before);
  }
}

// Rows [begin, end) of `rel` with `value` at (`row`, `col`), rows counted
// from `begin`.
Relation WithValue(const Relation& rel, size_t begin, size_t end, size_t row,
                   size_t col, double value) {
  Relation out(rel.schema());
  for (size_t r = begin; r < end; ++r) {
    std::vector<double> values = rel.Row(r);
    if (r - begin == row) values[col] = value;
    EXPECT_TRUE(out.AppendRow(values).ok());
  }
  return out;
}

TEST(Phase1BuilderTest, EveryEntryRefusesANonFiniteValueWhole) {
  // A non-finite value in any partitioned column and any row of a batch
  // or a row is refused by the one check that serves every tree, naming
  // its part (and its row in a batch), and no tree changes. The builder
  // has 100 rows, so the 4,100-row batch is fed in blocks that end at its
  // row 3996: the bad rows sit at both ends of both blocks.
  const MixedLayoutData data = MakeMixedLayoutData(4200, /*drift=*/0.05);
  DarConfig config;
  config.memory_budget_bytes = 384u << 10;
  config.frequency_fraction = 0.3;
  auto builder =
      Phase1Builder::Make(config, data.rel.schema(), data.partition);
  ASSERT_TRUE(builder.ok()) << builder.status();
  ASSERT_TRUE(builder->AddRelation(Batch(data.rel, 0, 100)).ok());
  const std::string before = persist::EncodeBuilderSection(*builder);
  // The part of each schema column: (a, d | f | b, c, e).
  const size_t part_of[] = {0, 2, 2, 0, 2, 1};
  // 1e200 is finite, but past the row bound (2^448, RowBlock): its square
  // is not.
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 1e200,
                         -1e200};
  for (size_t col = 0; col < 6; ++col) {
    const std::string part = "part " + std::to_string(part_of[col]) + " (";
    for (const double bad : kBad) {
      SCOPED_TRACE("column " + std::to_string(col) + " = " +
                   std::to_string(bad));
      for (const size_t row : {size_t{0}, size_t{3995}, size_t{3996},
                               size_t{4099}}) {
        Status refused = builder->AddRelation(
            WithValue(data.rel, 100, 4200, row, col, bad));
        ASSERT_TRUE(refused.IsInvalidArgument()) << refused;
        EXPECT_NE(refused.message().find(part), std::string::npos) << refused;
        EXPECT_NE(refused.message().find("row " + std::to_string(row) + ";"),
                  std::string::npos)
            << refused;
      }
      std::vector<double> values = data.rel.Row(100);
      values[col] = bad;
      Status refused = builder->AddRow(values);
      ASSERT_TRUE(refused.IsInvalidArgument()) << refused;
      EXPECT_NE(refused.message().find(part), std::string::npos) << refused;
      EXPECT_EQ(builder->rows_added(), 100);
      EXPECT_EQ(persist::EncodeBuilderSection(*builder), before);
    }
  }
}

}  // namespace
}  // namespace dar
