// The support post-scan: CentroidTable's assignment against a test-local
// loop over PointClusterDistance on randomized inputs (exact ties,
// midpoints, non-finite coordinates, ids that skip around a part, discrete
// and empty parts), ComputeRuleStats against a brute-force count at several
// thread counts, and the input checks ComputeRuleStats and
// Session::CountRuleSupport make before they scan.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "birch/acf.h"
#include "birch/metrics.h"
#include "common/executor.h"
#include "common/random.h"
#include "core/model.h"
#include "core/rule_stats.h"
#include "core/session.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace dar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The §4.3.2 assignment written out again, independently of both the table
// and ClusterSet::AssignToCluster: -1 for a part with no clusters.
int64_t OracleAssign(const ClusterSet& clusters, size_t p,
                     std::span<const double> x) {
  const std::vector<size_t>& ids = clusters.ClustersOnPart(p);
  if (ids.empty()) return -1;
  size_t best = ids[0];
  double best_d = kInf;
  for (const size_t id : ids) {
    const double d = PointClusterDistance(x, clusters.cluster(id).acf.cf());
    if (d < best_d) {
      best_d = d;
      best = id;
    }
  }
  return static_cast<int64_t>(best);
}

int64_t AssignOrMinusOne(const ClusterSet& clusters, size_t p,
                         std::span<const double> x) {
  auto id = clusters.AssignToCluster(p, x);
  return id.ok() ? static_cast<int64_t>(*id) : -1;
}

// One relation, its partition and a cluster set over it. The columns are
// c0, c1, ... in part order, so part p's columns are contiguous.
struct Fixture {
  Relation rel;
  AttributePartition partition;
  std::shared_ptr<AcfLayout> layout;
  ClusterSet clusters;
};

Schema ColumnsSchema(size_t n) {
  std::vector<Attribute> attrs;
  for (size_t c = 0; c < n; ++c) {
    attrs.push_back({"c" + std::to_string(c), AttributeKind::kInterval});
  }
  return *Schema::Make(std::move(attrs));
}

AttributePartition PartitionOf(const Schema& schema,
                               const std::vector<PartSpec>& shapes) {
  std::vector<std::pair<std::vector<std::string>, MetricKind>> parts;
  size_t col = 0;
  for (const PartSpec& shape : shapes) {
    std::vector<std::string> names;
    for (size_t d = 0; d < shape.dim; ++d) {
      names.push_back("c" + std::to_string(col++));
    }
    parts.emplace_back(std::move(names), shape.metric);
  }
  auto partition = AttributePartition::Make(schema, parts);
  EXPECT_TRUE(partition.ok()) << partition.status();
  return *std::move(partition);
}

// A cluster on `part` made of two points per part: `center` ± 1 on its own
// interval part (so its centroid is `center` exactly), the codes in
// `center` on a discrete part, and `center`'s first value on every image.
Acf ClusterAt(const std::shared_ptr<AcfLayout>& layout, size_t part,
              const std::vector<double>& center) {
  Acf acf(layout, part);
  for (const double offset : {-1.0, 1.0}) {
    PartedRow row;
    for (size_t q = 0; q < layout->num_parts(); ++q) {
      const PartSpec& spec = layout->parts[q];
      std::vector<double> values(spec.dim, center[0]);
      if (q == part) {
        for (size_t d = 0; d < spec.dim; ++d) {
          values[d] = spec.metric == MetricKind::kDiscrete
                          ? center[d]
                          : center[d] + offset;
        }
      }
      row.push_back(std::move(values));
    }
    acf.AddRow(row);
  }
  return acf;
}

// Parts: 1-D and 3-D Euclidean, 1-D and 3-D Manhattan, a 2-D discrete part
// and a 1-D Euclidean part with no frequent cluster. Cluster ids are dealt
// to the parts in a shuffled order, so a part's ids are not contiguous.
// Centers sit on a small integer grid (exact centroids; equal centers are
// exact ties), and one cluster in five repeats its part's first center.
Fixture RandomFixture(uint64_t seed, size_t rows) {
  const std::vector<PartSpec> shapes = {{1, MetricKind::kEuclidean, "e1"},
                                        {3, MetricKind::kEuclidean, "e3"},
                                        {1, MetricKind::kManhattan, "m1"},
                                        {3, MetricKind::kManhattan, "m3"},
                                        {2, MetricKind::kDiscrete, "d2"},
                                        {1, MetricKind::kEuclidean, "none"}};
  const size_t empty_part = shapes.size() - 1;
  Rng rng(seed);
  Fixture f;
  f.layout = std::make_shared<AcfLayout>();
  f.layout->parts = shapes;
  size_t num_columns = 0;
  for (const PartSpec& shape : shapes) num_columns += shape.dim;
  const Schema schema = ColumnsSchema(num_columns);
  f.partition = PartitionOf(schema, shapes);

  std::vector<size_t> owner;  // owner[id] = part
  for (size_t p = 0; p < empty_part; ++p) {
    const int64_t count = rng.UniformInt(2, 7);
    for (int64_t i = 0; i < count; ++i) owner.push_back(p);
  }
  rng.Shuffle(owner);
  std::vector<std::vector<std::vector<double>>> centers(shapes.size());
  std::vector<FoundCluster> found;
  for (size_t id = 0; id < owner.size(); ++id) {
    const size_t p = owner[id];
    std::vector<double> center(shapes[p].dim);
    const bool repeat = !centers[p].empty() && rng.Bernoulli(0.2);
    for (size_t d = 0; d < center.size(); ++d) {
      center[d] = shapes[p].metric == MetricKind::kDiscrete
                      ? static_cast<double>(rng.UniformInt(0, 2))
                      : static_cast<double>(rng.UniformInt(-4, 4));
    }
    if (repeat) center = centers[p][0];
    centers[p].push_back(center);
    found.push_back({id, p, ClusterAt(f.layout, p, center)});
  }
  f.clusters = ClusterSet(f.layout, std::move(found));

  f.rel = Relation(schema);
  std::vector<double> row(num_columns);
  for (size_t r = 0; r < rows; ++r) {
    size_t col = 0;
    for (size_t p = 0; p < shapes.size(); ++p) {
      const size_t dim = shapes[p].dim;
      double* x = row.data() + col;
      col += dim;
      if (shapes[p].metric == MetricKind::kDiscrete) {
        for (size_t d = 0; d < dim; ++d) {
          x[d] = static_cast<double>(rng.UniformInt(0, 3));
        }
        continue;
      }
      const std::vector<std::vector<double>>& grid = centers[p];
      const double pick = rng.Uniform(0, 1);
      if (pick < 0.4 || grid.empty()) {
        for (size_t d = 0; d < dim; ++d) x[d] = rng.Uniform(-6, 6);
      } else if (pick < 0.7) {
        // Exactly midway between two centers: equal distances to both.
        const auto& a = grid[rng.UniformInt(0, grid.size() - 1)];
        const auto& b = grid[rng.UniformInt(0, grid.size() - 1)];
        for (size_t d = 0; d < dim; ++d) x[d] = (a[d] + b[d]) / 2;
      } else if (pick < 0.8) {
        const auto& a = grid[rng.UniformInt(0, grid.size() - 1)];
        for (size_t d = 0; d < dim; ++d) x[d] = a[d];
      } else {
        for (size_t d = 0; d < dim; ++d) x[d] = rng.Uniform(-6, 6);
        const double bad[] = {kNaN, kInf, -kInf};
        x[rng.UniformInt(0, dim - 1)] = bad[rng.UniformInt(0, 2)];
      }
    }
    EXPECT_TRUE(f.rel.AppendRow(row).ok());
  }
  return f;
}

// Every rule names one or two antecedent and one or two consequent ids,
// drawn from the whole set (sides may share a part: the scan must count
// whatever it is given).
std::vector<DistanceRule> RandomRules(const ClusterSet& clusters, size_t n,
                                      Rng& rng) {
  std::vector<DistanceRule> rules(n);
  const int64_t last = static_cast<int64_t>(clusters.size()) - 1;
  for (DistanceRule& rule : rules) {
    for (int64_t i = rng.UniformInt(1, 2); i > 0; --i) {
      rule.antecedent.push_back(static_cast<size_t>(rng.UniformInt(0, last)));
    }
    for (int64_t i = rng.UniformInt(1, 2); i > 0; --i) {
      rule.consequent.push_back(static_cast<size_t>(rng.UniformInt(0, last)));
    }
  }
  return rules;
}

TEST(CentroidTableTest, EqualsPointClusterDistanceOnRandomInputs) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Fixture f = RandomFixture(seed, 300);
    auto table = CentroidTable::Make(f.rel, f.partition, f.clusters);
    ASSERT_TRUE(table.ok()) << table.status();
    std::vector<double> scratch;
    std::vector<double> x;
    for (size_t r = 0; r < f.rel.num_rows(); ++r) {
      for (size_t p = 0; p < f.partition.num_parts(); ++p) {
        f.rel.ProjectRow(r, f.partition.part(p).columns, x);
        const int64_t want = OracleAssign(f.clusters, p, x);
        ASSERT_EQ(table->Assign(p, r, scratch), want)
            << "row " << r << " part " << p;
        ASSERT_EQ(AssignOrMinusOne(f.clusters, p, x), want)
            << "row " << r << " part " << p;
      }
    }
  }
}

TEST(CentroidTableTest, TiesGoToTheLowestIdAndNonFiniteToTheFirst) {
  // Part 0 (Euclidean) holds ids 1, 3, 5 at 0, 4, 4; part 1 (Manhattan)
  // holds ids 0, 2, 4 at the same centers; part 2 has none.
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "e"},
                   {1, MetricKind::kManhattan, "m"},
                   {1, MetricKind::kEuclidean, "none"}};
  const std::vector<double> at = {0, 0, 4, 4, 4, 4};
  std::vector<FoundCluster> found;
  for (size_t id = 0; id < at.size(); ++id) {
    const size_t part = id % 2 == 0 ? 1 : 0;
    found.push_back({id, part, ClusterAt(layout, part, {at[id]})});
  }
  const ClusterSet clusters(layout, std::move(found));
  const Schema schema = ColumnsSchema(3);
  const AttributePartition partition = PartitionOf(schema, layout->parts);
  Relation rel(schema);
  const std::vector<double> xs = {2, 4, 5, kNaN, kInf, -kInf};
  for (const double x : xs) ASSERT_TRUE(rel.AppendRow({x, x, x}).ok());
  auto table = CentroidTable::Make(rel, partition, clusters);
  ASSERT_TRUE(table.ok()) << table.status();

  // Midway between 0 and 4: the lower id. On 4 twice: the lower id.
  // Non-finite: the part's first cluster.
  const std::vector<int64_t> euclidean = {1, 3, 3, 1, 1, 1};
  const std::vector<int64_t> manhattan = {0, 2, 2, 0, 0, 0};
  std::vector<double> scratch;
  for (size_t r = 0; r < xs.size(); ++r) {
    SCOPED_TRACE("x = " + std::to_string(xs[r]));
    EXPECT_EQ(table->Assign(0, r, scratch), euclidean[r]);
    EXPECT_EQ(table->Assign(1, r, scratch), manhattan[r]);
    EXPECT_EQ(table->Assign(2, r, scratch), -1);
    EXPECT_EQ(AssignOrMinusOne(clusters, 0, {{xs[r]}}), euclidean[r]);
    EXPECT_EQ(AssignOrMinusOne(clusters, 1, {{xs[r]}}), manhattan[r]);
  }
}

TEST(ClusterSetTest, AssignToClusterRejectsBadPartOrWidth) {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "a"},
                   {1, MetricKind::kEuclidean, "b"}};
  std::vector<FoundCluster> found;
  found.push_back({0, 0, ClusterAt(layout, 0, {3})});
  found.push_back({1, 1, ClusterAt(layout, 1, {5})});
  const ClusterSet clusters(layout, std::move(found));
  const std::vector<double> two = {1.0, 2.0};
  const std::vector<double> one = {1.0};
  EXPECT_TRUE(clusters.AssignToCluster(0, two).status().IsInvalidArgument());
  EXPECT_TRUE(clusters.AssignToCluster(5, one).status().IsInvalidArgument());
  // A non-finite point keeps its documented answer: the part's first
  // cluster.
  const std::vector<double> nan = {kNaN};
  auto id = clusters.AssignToCluster(1, nan);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, 1u);
}

// 1001 rows: neither 3 nor 8 shards divide it, so the last shard is short.
TEST(RuleStatsScanTest, EqualsBruteForceAtOneThreeAndEightThreads) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Fixture f = RandomFixture(seed, 1001);
    Rng rng(seed + 1000);
    const std::vector<DistanceRule> rules = RandomRules(f.clusters, 40, rng);

    std::vector<RuleStats> want(rules.size());
    std::vector<int64_t> assigned(f.partition.num_parts());
    std::vector<double> x;
    for (size_t r = 0; r < f.rel.num_rows(); ++r) {
      for (size_t p = 0; p < f.partition.num_parts(); ++p) {
        f.rel.ProjectRow(r, f.partition.part(p).columns, x);
        assigned[p] = AssignOrMinusOne(f.clusters, p, x);
      }
      auto matches = [&](const std::vector<size_t>& side) {
        for (const size_t id : side) {
          if (assigned[f.clusters.cluster(id).part] !=
              static_cast<int64_t>(id)) {
            return false;
          }
        }
        return true;
      };
      for (size_t k = 0; k < rules.size(); ++k) {
        const bool a = matches(rules[k].antecedent);
        const bool c = matches(rules[k].consequent);
        ++want[k].total;
        want[k].antecedent += a ? 1 : 0;
        want[k].consequent += c ? 1 : 0;
        want[k].both += a && c ? 1 : 0;
      }
    }

    for (const int threads : {1, 3, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ThreadPoolExecutor pool(threads);
      auto got = ComputeRuleStats(f.rel, f.partition, f.clusters, rules,
                                  threads == 1 ? nullptr : &pool);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got->size(), rules.size());
      for (size_t k = 0; k < rules.size(); ++k) {
        EXPECT_EQ((*got)[k].total, want[k].total) << "rule " << k;
        EXPECT_EQ((*got)[k].antecedent, want[k].antecedent) << "rule " << k;
        EXPECT_EQ((*got)[k].consequent, want[k].consequent) << "rule " << k;
        EXPECT_EQ((*got)[k].both, want[k].both) << "rule " << k;
      }
    }
  }
}

// --- Inputs that disagree with the cluster set: InvalidArgument naming
// the part, column or rule, from ComputeRuleStats and from the facade. ---

class PostScanInputTest : public ::testing::Test {
 protected:
  // Three 1-D Euclidean parts over x, y, z with three clusters each: ids
  // 0-8, id i on part i % 3.
  void SetUp() override {
    layout_ = std::make_shared<AcfLayout>();
    layout_->parts = {{1, MetricKind::kEuclidean, "x"},
                      {1, MetricKind::kEuclidean, "y"},
                      {1, MetricKind::kEuclidean, "z"}};
    std::vector<FoundCluster> found;
    for (size_t id = 0; id < 9; ++id) {
      const size_t part = id % 3;
      found.push_back(
          {id, part, ClusterAt(layout_, part, {static_cast<double>(id)})});
    }
    clusters_ = ClusterSet(layout_, std::move(found));
    schema_ = ColumnsSchema(3);
    partition_ = PartitionOf(schema_, layout_->parts);
    rel_ = Relation(schema_);
    for (int i = 0; i < 20; ++i) {
      const double v = i % 9;
      ASSERT_TRUE(rel_.AppendRow({v, v, v}).ok());
    }
    rules_ = {MakeRule({0}, {1}), MakeRule({3}, {4, 5})};
  }

  static DistanceRule MakeRule(std::vector<size_t> antecedent,
                               std::vector<size_t> consequent) {
    DistanceRule rule;
    rule.antecedent = std::move(antecedent);
    rule.consequent = std::move(consequent);
    return rule;
  }

  // Runs both entry points and expects InvalidArgument mentioning every
  // string in `needles` from each.
  void ExpectRejected(const Relation& rel, const AttributePartition& partition,
                      std::vector<DistanceRule> rules,
                      const std::vector<std::string>& needles) const {
    auto direct = ComputeRuleStats(rel, partition, clusters_, rules, nullptr);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument)
        << direct.status();
    auto session = Session::Builder().WithThreads(2).Build();
    ASSERT_TRUE(session.ok());
    Phase1Result phase1;
    phase1.layout = layout_;
    phase1.clusters = clusters_;
    const Status facade =
        session->CountRuleSupport(rel, partition, phase1, rules);
    EXPECT_EQ(facade.code(), StatusCode::kInvalidArgument) << facade;
    for (const std::string& needle : needles) {
      EXPECT_NE(direct.status().message().find(needle), std::string::npos)
          << direct.status();
      EXPECT_NE(facade.message().find(needle), std::string::npos) << facade;
    }
  }

  std::shared_ptr<AcfLayout> layout_;
  ClusterSet clusters_;
  Schema schema_;
  AttributePartition partition_;
  Relation rel_;
  std::vector<DistanceRule> rules_;
};

TEST_F(PostScanInputTest, ConsistentInputsScan) {
  auto stats = ComputeRuleStats(rel_, partition_, clusters_, rules_, nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto session = Session::Builder().Build();
  ASSERT_TRUE(session.ok());
  Phase1Result phase1;
  phase1.layout = layout_;
  phase1.clusters = clusters_;
  std::vector<DistanceRule> rules = rules_;
  ASSERT_TRUE(session->CountRuleSupport(rel_, partition_, phase1, rules).ok());
  for (size_t k = 0; k < rules.size(); ++k) {
    EXPECT_EQ(rules[k].support_count, (*stats)[k].both);
  }
  // A row at 0 or 1 lands on cluster 0 (at 0) on x and cluster 1 (at 1)
  // on y, so rule 0 fires.
  EXPECT_GT((*stats)[0].both, 0);
}

TEST_F(PostScanInputTest, RejectsRuleNamingAMissingCluster) {
  std::vector<DistanceRule> rules = rules_;
  rules.push_back(MakeRule({2}, {14}));
  ExpectRejected(rel_, partition_, rules, {"rule 2", "cluster 14", "9"});
}

TEST_F(PostScanInputTest, RejectsPartitionWithMorePartsThanTheClusterSet) {
  const Schema schema = ColumnsSchema(4);
  const AttributePartition partition =
      PartitionOf(schema, {{1, MetricKind::kEuclidean, "x"},
                           {1, MetricKind::kEuclidean, "y"},
                           {1, MetricKind::kEuclidean, "z"},
                           {1, MetricKind::kEuclidean, "w"}});
  Relation rel(schema);
  ASSERT_TRUE(rel.AppendRow({0, 1, 2, 3}).ok());
  ExpectRejected(rel, partition, rules_, {"4 parts", "3"});
}

TEST_F(PostScanInputTest, RejectsRelationNarrowerThanThePartition) {
  const Schema narrow = ColumnsSchema(2);
  Relation rel(narrow);
  ASSERT_TRUE(rel.AppendRow({0, 1}).ok());
  ExpectRejected(rel, partition_, rules_, {"part 2", "column 2", "2 columns"});
}

TEST_F(PostScanInputTest, RejectsPartWhoseDimensionDiffersFromItsClusters) {
  // Part 1 spans two columns; its clusters are 1-dimensional.
  const Schema schema = ColumnsSchema(4);
  const AttributePartition partition =
      PartitionOf(schema, {{1, MetricKind::kEuclidean, "x"},
                           {2, MetricKind::kEuclidean, "yz"},
                           {1, MetricKind::kEuclidean, "w"}});
  Relation rel(schema);
  ASSERT_TRUE(rel.AppendRow({0, 1, 2, 3}).ok());
  ExpectRejected(rel, partition, rules_, {"part 1", "2 columns", "1-dim"});
}

}  // namespace
}  // namespace dar
