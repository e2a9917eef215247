#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "relation/csv.h"
#include "relation/metric.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "test_util.h"

namespace dar {
namespace {

Schema TestSchema() {
  return *Schema::Make({{"a", AttributeKind::kInterval},
                        {"b", AttributeKind::kInterval},
                        {"c", AttributeKind::kNominal}});
}

TEST(SchemaTest, MakeRejectsDuplicates) {
  auto r = Schema::Make({{"x", AttributeKind::kInterval},
                         {"x", AttributeKind::kInterval}});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(SchemaTest, MakeRejectsEmptyName) {
  auto r = Schema::Make({{"", AttributeKind::kInterval}});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(SchemaTest, IndexOf) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.IndexOf("b"), 1u);
  EXPECT_TRUE(s.IndexOf("zzz").status().IsNotFound());
}

TEST(SchemaTest, EqualityAndToString) {
  Schema s = TestSchema();
  Schema t = TestSchema();
  EXPECT_TRUE(s == t);
  EXPECT_EQ(s.ToString(), "(a:interval, b:interval, c:nominal)");
}

TEST(DictionaryTest, EncodeDecodeRoundTrip) {
  Dictionary d;
  EXPECT_DOUBLE_EQ(d.Encode("red"), 0.0);
  EXPECT_DOUBLE_EQ(d.Encode("blue"), 1.0);
  EXPECT_DOUBLE_EQ(d.Encode("red"), 0.0);  // stable
  EXPECT_EQ(*d.Decode(1.0), "blue");
  EXPECT_EQ(*d.Lookup("red"), 0.0);
  EXPECT_TRUE(d.Decode(7.0).status().IsNotFound());
  EXPECT_TRUE(d.Decode(0.5).status().IsNotFound());
  EXPECT_TRUE(d.Lookup("green").status().IsNotFound());
  EXPECT_EQ(d.size(), 2u);
}

TEST(RelationTest, AppendAndAccess) {
  Relation r(TestSchema());
  ASSERT_TRUE(r.AppendRow({1, 2, 0}).ok());
  ASSERT_TRUE(r.AppendRow({3, 4, 1}).ok());
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.num_columns(), 3u);
  EXPECT_DOUBLE_EQ(r.at(1, 0), 3);
  EXPECT_DOUBLE_EQ(r.column(1)[0], 2);
  EXPECT_EQ(r.Row(0), (std::vector<double>{1, 2, 0}));
}

TEST(RelationTest, AppendRejectsWrongWidth) {
  Relation r(TestSchema());
  EXPECT_TRUE(r.AppendRow({1, 2}).IsInvalidArgument());
}

TEST(RelationTest, AppendRelationAddsRowsColumnWise) {
  Relation r(TestSchema());
  ASSERT_TRUE(r.AppendRow({1, 2, 0}).ok());
  Relation batch(TestSchema());
  ASSERT_TRUE(batch.AppendRow({3, 4, 1}).ok());
  ASSERT_TRUE(batch.AppendRow({5, 6, 0}).ok());
  ASSERT_TRUE(r.Append(batch).ok());
  ASSERT_TRUE(r.Append(Relation(TestSchema())).ok());  // empty: no-op
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.Row(0), (std::vector<double>{1, 2, 0}));
  EXPECT_EQ(r.Row(1), (std::vector<double>{3, 4, 1}));
  EXPECT_EQ(r.Row(2), (std::vector<double>{5, 6, 0}));
  EXPECT_EQ(batch.num_rows(), 2u);  // the source is untouched
  // Appending a relation to itself doubles it.
  ASSERT_TRUE(r.Append(r).ok());
  ASSERT_EQ(r.num_rows(), 6u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(r.Row(i + 3), r.Row(i));
  // Many small batches: every row lands, in order.
  Relation grown(TestSchema());
  for (int i = 0; i < 500; ++i) {
    Relation one(TestSchema());
    ASSERT_TRUE(one.AppendRow({static_cast<double>(i), 0, 1}).ok());
    ASSERT_TRUE(grown.Append(one).ok());
  }
  ASSERT_EQ(grown.num_rows(), 500u);
  EXPECT_EQ(grown.column(0).size(), 500u);
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(grown.at(i, 0), static_cast<double>(i));
  }
}

TEST(RelationTest, AppendRelationRejectsWrongWidth) {
  Relation r(TestSchema());
  ASSERT_TRUE(r.AppendRow({1, 2, 0}).ok());
  auto narrow = Schema::Make({{"a", AttributeKind::kInterval},
                              {"b", AttributeKind::kInterval}});
  ASSERT_TRUE(narrow.ok()) << narrow.status();
  Relation other(*narrow);
  ASSERT_TRUE(other.AppendRow({7, 8}).ok());
  Status s = r.Append(other);
  EXPECT_TRUE(s.IsInvalidArgument()) << s;
  EXPECT_NE(s.message().find("width"), std::string::npos) << s;
  EXPECT_EQ(r.num_rows(), 1u);  // nothing appended
  EXPECT_EQ(r.column(0).size(), 1u);
}

TEST(RelationTest, ProjectRow) {
  Relation r(TestSchema());
  ASSERT_TRUE(r.AppendRow({10, 20, 30}).ok());
  std::vector<double> out;
  std::vector<size_t> cols = {2, 0};
  r.ProjectRow(0, cols, out);
  EXPECT_EQ(out, (std::vector<double>{30, 10}));
}

TEST(RelationTest, ProjectColumns) {
  Relation r(TestSchema());
  ASSERT_TRUE(r.AppendRow({1, 2, 3}).ok());
  ASSERT_TRUE(r.AppendRow({4, 5, 6}).ok());
  std::vector<size_t> cols = {1};
  auto p = r.Project(cols);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 1u);
  EXPECT_EQ(p->schema().attribute(0).name, "b");
  EXPECT_DOUBLE_EQ(p->at(1, 0), 5);
  std::vector<size_t> bad = {9};
  EXPECT_TRUE(r.Project(bad).status().IsOutOfRange());
}

TEST(RelationTest, SelectRows) {
  Relation r(TestSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(r.AppendRow({double(i), double(i * 10), 0}).ok());
  }
  std::vector<size_t> rows = {4, 0};
  auto s = r.SelectRows(rows);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(s->at(0, 1), 40);
  EXPECT_DOUBLE_EQ(s->at(1, 1), 0);
  std::vector<size_t> bad = {99};
  EXPECT_TRUE(r.SelectRows(bad).status().IsOutOfRange());
}

TEST(MetricTest, Euclidean) {
  std::vector<double> a = {0, 0}, b = {3, 4};
  EXPECT_DOUBLE_EQ(PointDistance(MetricKind::kEuclidean, a, b), 5.0);
}

TEST(MetricTest, Manhattan) {
  std::vector<double> a = {1, 1}, b = {4, -3};
  EXPECT_DOUBLE_EQ(PointDistance(MetricKind::kManhattan, a, b), 7.0);
}

TEST(MetricTest, DiscreteCountsMismatches) {
  std::vector<double> a = {1, 2, 3}, b = {1, 5, 3};
  EXPECT_DOUBLE_EQ(PointDistance(MetricKind::kDiscrete, a, b), 1.0);
  EXPECT_DOUBLE_EQ(PointDistance(MetricKind::kDiscrete, a, a), 0.0);
}

TEST(MetricTest, SquaredEuclidean) {
  std::vector<double> a = {1}, b = {4};
  EXPECT_DOUBLE_EQ(SquaredEuclidean(a, b), 9.0);
}

TEST(PartitionTest, SingletonPartitionCoversAll) {
  Schema s = TestSchema();
  AttributePartition p = AttributePartition::SingletonPartition(s);
  EXPECT_EQ(p.num_parts(), 3u);
  EXPECT_EQ(p.TotalColumns(), 3u);
  EXPECT_EQ(p.part(2).metric, MetricKind::kDiscrete);  // nominal column
  EXPECT_EQ(p.part(0).metric, MetricKind::kEuclidean);
  EXPECT_EQ(*p.PartOfColumn(1), 1u);
}

TEST(PartitionTest, MakeMultiColumnPart) {
  Schema s = TestSchema();
  auto p = AttributePartition::Make(
      s, {{{"a", "b"}, MetricKind::kEuclidean}, {{"c"}, MetricKind::kDiscrete}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_parts(), 2u);
  EXPECT_EQ(p->part(0).dimension(), 2u);
  EXPECT_EQ(p->part(0).label, "a+b");
}

TEST(PartitionTest, RejectsOverlap) {
  Schema s = TestSchema();
  auto p = AttributePartition::Make(s, {{{"a"}, MetricKind::kEuclidean},
                                        {{"a"}, MetricKind::kEuclidean}});
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(PartitionTest, RejectsNominalWithoutDiscreteMetric) {
  Schema s = TestSchema();
  auto p = AttributePartition::Make(s, {{{"c"}, MetricKind::kEuclidean}});
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(PartitionTest, RejectsUnknownAttribute) {
  Schema s = TestSchema();
  auto p = AttributePartition::Make(s, {{{"zzz"}, MetricKind::kEuclidean}});
  EXPECT_TRUE(p.status().IsNotFound());
}

TEST(PartitionTest, RejectsEmptyPart) {
  Schema s = TestSchema();
  auto p = AttributePartition::Make(s, {{{}, MetricKind::kEuclidean}});
  EXPECT_TRUE(p.status().IsInvalidArgument());
}

TEST(CsvTest, ReadWithHeaderAndNominal) {
  std::istringstream in("job,age,salary\nDBA,30,40000\nMgr,31,50000\n");
  CsvOptions opts;
  opts.nominal_columns = {"job"};
  auto table = ReadCsv(in, opts);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->relation.num_rows(), 2u);
  EXPECT_EQ(table->relation.schema().attribute(0).kind,
            AttributeKind::kNominal);
  EXPECT_EQ(*table->dictionaries[0].Decode(table->relation.at(1, 0)), "Mgr");
  EXPECT_DOUBLE_EQ(table->relation.at(0, 2), 40000);
}

TEST(CsvTest, ReadWithoutHeader) {
  std::istringstream in("1,2\n3,4\n");
  CsvOptions opts;
  opts.has_header = false;
  auto table = ReadCsv(in, opts);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->relation.schema().attribute(0).name, "c0");
  EXPECT_EQ(table->relation.num_rows(), 2u);
}

TEST(CsvTest, RejectsRaggedRows) {
  std::istringstream in("a,b\n1,2\n3\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalidArgument());
}

TEST(CsvTest, RejectsNonNumericInterval) {
  std::istringstream in("a\nhello\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalidArgument());
}

TEST(CsvTest, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalidArgument());
}

TEST(CsvTest, HandlesCrlf) {
  std::istringstream in("a,b\r\n1,2\r\n");
  auto table = ReadCsv(in);
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(table->relation.at(0, 1), 2);
}

TEST(CsvTest, FinalRowWithoutTrailingNewline) {
  std::istringstream in("a,b\n1,2\n3,4");  // EOF right after the last field
  auto table = ReadCsv(in);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->relation.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(table->relation.at(1, 1), 4);
}

TEST(CsvTest, RaggedRowErrorNamesPhysicalLine) {
  // Blank line before the ragged row: the error must name the physical
  // line (4), not the how-many-rows-so-far count.
  std::istringstream in("a,b\n1,2\n\n3\n");
  auto table = ReadCsv(in);
  ASSERT_TRUE(table.status().IsInvalidArgument());
  EXPECT_NE(table.status().message().find("line 4"), std::string::npos);
  EXPECT_NE(table.status().message().find("expected 2"), std::string::npos);
}

TEST(CsvStreamReaderTest, BatchesWithPersistentDictionaries) {
  std::istringstream in("job,age\nDBA,30\nMgr,31\nDBA,32\nOps,33\nMgr,34\n");
  CsvOptions opts;
  opts.nominal_columns = {"job"};
  auto reader = CsvStreamReader::Open(in, opts);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->schema().attribute(0).kind, AttributeKind::kNominal);

  auto batch1 = reader->NextBatch(2);
  ASSERT_TRUE(batch1.ok());
  ASSERT_EQ(batch1->num_rows(), 2u);
  EXPECT_FALSE(reader->exhausted());

  auto batch2 = reader->NextBatch(2);
  ASSERT_TRUE(batch2.ok());
  ASSERT_EQ(batch2->num_rows(), 2u);
  // "DBA" in batch 2 must reuse the code assigned in batch 1.
  EXPECT_DOUBLE_EQ(batch2->at(0, 0), batch1->at(0, 0));

  auto batch3 = reader->NextBatch(2);  // only one row left
  ASSERT_TRUE(batch3.ok());
  ASSERT_EQ(batch3->num_rows(), 1u);
  EXPECT_TRUE(reader->exhausted());
  EXPECT_DOUBLE_EQ(batch3->at(0, 0), batch1->at(1, 0));  // "Mgr" again
  EXPECT_EQ(reader->dictionaries()[0].size(), 3u);  // DBA, Mgr, Ops

  auto empty = reader->NextBatch(2);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_rows(), 0u);
}

TEST(CsvStreamReaderTest, CrlfAndNoTrailingNewline) {
  std::istringstream in("a,b\r\n1,2\r\n3,4");
  auto reader = CsvStreamReader::Open(in);
  ASSERT_TRUE(reader.ok());
  auto batch = reader->NextBatch(100);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(batch->at(0, 1), 2);
  EXPECT_DOUBLE_EQ(batch->at(1, 1), 4);
  EXPECT_TRUE(reader->exhausted());
}

TEST(CsvStreamReaderTest, ColumnMismatchIsErrorNotSkip) {
  std::istringstream in("a,b\n1,2\n3\n5,6\n");
  auto reader = CsvStreamReader::Open(in);
  ASSERT_TRUE(reader.ok());
  auto batch = reader->NextBatch(100);
  ASSERT_TRUE(batch.status().IsInvalidArgument());
  EXPECT_NE(batch.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(batch.status().message().find("has 1 fields"), std::string::npos);
}

TEST(CsvStreamReaderTest, NoHeaderFirstRowIsData) {
  std::istringstream in("1,2\n3,4\n");
  CsvOptions opts;
  opts.has_header = false;
  auto reader = CsvStreamReader::Open(in, opts);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->schema().attribute(1).name, "c1");
  auto batch = reader->NextBatch(10);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->num_rows(), 2u);  // the peeked first line is replayed
  EXPECT_DOUBLE_EQ(batch->at(0, 0), 1);
}

TEST(CsvStreamReaderTest, EmptyInputFailsAtOpen) {
  std::istringstream in("");
  EXPECT_TRUE(CsvStreamReader::Open(in).status().IsInvalidArgument());
}

TEST(CsvTest, SourceNamePrefixesParseErrors) {
  // A caller feeding several inputs through one code path names each one;
  // the prefix wraps whatever the parse error already said.
  std::istringstream in("a,b\n1,2\n3\n");
  CsvOptions opts;
  opts.source_name = "orders.csv";
  auto table = ReadCsv(in, opts);
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("'orders.csv':"),
            std::string::npos);
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos);

  // Default options stay prefix-free: string-stream callers see the same
  // messages as before the knob existed.
  std::istringstream bare("a,b\n1,2\n3\n");
  auto bare_table = ReadCsv(bare);
  ASSERT_FALSE(bare_table.ok());
  EXPECT_EQ(bare_table.status().message().find("'"), std::string::npos);
}

TEST(CsvTest, ReadCsvFileErrorsNameThePath) {
  const std::string path = testutil::TempPath("malformed.csv");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "a,b\n1,not_a_number\n";
  }
  auto table = ReadCsvFile(path);
  ASSERT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsInvalidArgument());
  EXPECT_NE(table.status().message().find("'" + path + "':"),
            std::string::npos);
  EXPECT_NE(table.status().message().find("column 'b'"), std::string::npos);
  std::remove(path.c_str());

  auto missing = ReadCsvFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsIOError());
  EXPECT_NE(missing.status().message().find(path), std::string::npos);
}

TEST(CsvTest, WriteReadRoundTrip) {
  // Integers, fractions, values past 6 significant digits and subnormals
  // all come back bit for bit.
  std::istringstream in(
      "job,age\nDBA,30\nMgr,31\nDBA,32\nMgr,1234.5678\nDBA,123456789\n"
      "Mgr,0.1\nDBA,-2.718281828459045\nMgr,6.02214076e23\nDBA,5e-324\n"
      "Mgr,-1e-310\n");
  CsvOptions opts;
  opts.nominal_columns = {"job"};
  auto table = ReadCsv(in, opts);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->relation.at(8, 1), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(table->relation.at(9, 1), -1e-310);
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*table, out).ok());
  std::istringstream in2(out.str());
  auto table2 = ReadCsv(in2, opts);
  ASSERT_TRUE(table2.ok()) << table2.status();
  EXPECT_EQ(table2->relation.num_rows(), 10u);
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(std::bit_cast<uint64_t>(table->relation.at(r, 1)),
              std::bit_cast<uint64_t>(table2->relation.at(r, 1)))
        << out.str();
    EXPECT_EQ(*table->dictionaries[0].Decode(table->relation.at(r, 0)),
              *table2->dictionaries[0].Decode(table2->relation.at(r, 0)));
  }
}

}  // namespace
}  // namespace dar
