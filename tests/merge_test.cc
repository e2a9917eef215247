// Distributed shard-merge mining (Phase1Builder::MergeFrom,
// persist/merge.h, Session::MineFromCheckpoints): ACF additivity (Eq. 3/7,
// Thm 6.1) lets Phase I run independently over disjoint shards and merge
// at the summary level. The acceptance pins here: 8-shard
// MergeCheckpoints + one Phase II equal single-node Mine on exact
// (integer-valued) data at any thread count, and every merge
// incompatibility surfaces as a descriptive error Status (run under
// -DDAR_SANITIZE=address,undefined via `ctest -L ubsan`).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/phase1_builder.h"
#include "core/session.h"
#include "persist/checkpoint_io.h"
#include "persist/merge.h"
#include "persist/wire.h"
#include "stream/streaming_miner.h"
#include "telemetry/metrics.h"
#include "test_util.h"

namespace dar {
namespace {

// ---------------------------------------------------------------------
// Workloads.

struct IntDataset {
  Schema schema;
  Relation relation;
  AttributePartition partition;

  IntDataset() : schema(MakeSchema()), relation(schema) {}

 private:
  static Schema MakeSchema() {
    return Schema::Make({{"X", AttributeKind::kInterval},
                         {"Y", AttributeKind::kInterval},
                         {"Z", AttributeKind::kInterval}})
        .ValueOrDie();
  }
};

// Three interleaved co-occurrence patterns over three attributes, every
// value a small exact integer: pattern k lives near (100k, 100k, 100k).
// Integer coordinates make all CF sums exact doubles, so re-grouping them
// across shard boundaries is associative and merge results are bit-equal
// to single-node results — the "exact data" leg of the equivalence claim.
IntDataset IntData(size_t rows_per_pattern = 400) {
  IntDataset data;
  data.partition = AttributePartition::Make(
                       data.schema, {{{"X"}, MetricKind::kEuclidean},
                                     {{"Y"}, MetricKind::kEuclidean},
                                     {{"Z"}, MetricKind::kEuclidean}})
                       .ValueOrDie();
  for (size_t i = 0; i < rows_per_pattern; ++i) {
    for (int k = 0; k < 3; ++k) {  // interleaved: shards cut mid-pattern
      const double base = 100.0 * k;
      EXPECT_TRUE(data.relation
                      .AppendRow({base + static_cast<double>(i % 5),
                                  base + static_cast<double>(i % 7),
                                  base + static_cast<double>(i % 3)})
                      .ok());
    }
  }
  return data;
}

DarConfig IntConfig() {
  DarConfig config;
  config.frequency_fraction = 0.05;
  config.initial_diameters = {30.0, 30.0, 30.0};
  config.degree_threshold = 150.0;
  return config;
}

Result<Session> MakeSession(const DarConfig& config, int threads = 1) {
  return Session::Builder().WithConfig(config).WithThreads(threads).Build();
}

void ExpectSameRules(const std::vector<DistanceRule>& a,
                     const std::vector<DistanceRule>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].antecedent, b[i].antecedent);
    EXPECT_EQ(a[i].consequent, b[i].consequent);
    EXPECT_EQ(a[i].degree, b[i].degree);  // bitwise
    EXPECT_EQ(a[i].cooccurrence_slack, b[i].cooccurrence_slack);
    EXPECT_EQ(a[i].support_count, b[i].support_count);
  }
}

// Mines rows [begin, end) in a one-shot serial worker process stand-in:
// open a stream, ingest the slice, checkpoint it under `shard_id`.
std::string WriteShardCheckpoint(const Session& session, const Relation& rel,
                                 const AttributePartition& partition,
                                 size_t begin, size_t end, int64_t shard_id,
                                 const std::string& name,
                                 std::span<const Dictionary> dicts = {}) {
  StreamConfig sc;
  sc.remine_every_rows = 0;
  sc.shard_id = shard_id;
  auto stream = session.OpenStream(rel.schema(), partition, sc);
  EXPECT_TRUE(stream.ok()) << stream.status();
  for (size_t r = begin; r < end; ++r) {
    EXPECT_TRUE((*stream)->IngestRow(rel.Row(r)).ok());
  }
  const std::string path = testutil::TempPath(name);
  EXPECT_TRUE((*stream)->SaveCheckpoint(path, dicts).ok());
  return path;
}

// ---------------------------------------------------------------------
// Builder-level merge.

TEST(MergeBuildersTest, TwoHalvesEqualTheWhole) {
  IntDataset data = IntData();
  const DarConfig config = IntConfig();
  const size_t half = data.relation.num_rows() / 2;

  auto make_over = [&](size_t begin, size_t end,
                       telemetry::TelemetryContext telemetry = {}) {
    auto builder = Phase1Builder::Make(config, data.schema, data.partition,
                                       /*executor=*/nullptr,
                                       /*observer=*/nullptr, telemetry);
    EXPECT_TRUE(builder.ok()) << builder.status();
    for (size_t r = begin; r < end; ++r) {
      EXPECT_TRUE(builder->AddRow(data.relation.Row(r)).ok());
    }
    return std::move(*builder);
  };

  // The merging builder records merge.* counters on its own telemetry.
  telemetry::MetricsRegistry registry;
  Phase1Builder merged =
      make_over(0, half, telemetry::TelemetryContext(&registry));
  Phase1Builder second = make_over(half, data.relation.num_rows());
  Phase1Builder whole = make_over(0, data.relation.num_rows());
  ASSERT_TRUE(merged.MergeFrom(second).ok());
  EXPECT_EQ(merged.rows_added(), whole.rows_added());
  const telemetry::Snapshot counters = registry.TakeSnapshot();
  EXPECT_EQ(counters.CounterOr("merge.builder_merges"), 1);
  EXPECT_EQ(counters.CounterOr("merge.rows"), second.rows_added());

  auto merged_result = std::move(merged).Finish();
  auto whole_result = std::move(whole).Finish();
  ASSERT_TRUE(merged_result.ok()) << merged_result.status();
  ASSERT_TRUE(whole_result.ok());
  ASSERT_GT(whole_result->clusters.size(), 0u);
  EXPECT_EQ(merged_result->clusters.size(), whole_result->clusters.size());
  // On exact integer data the merged summaries are bitwise the single-node
  // summaries: same per-cluster mass and centroid.
  for (size_t i = 0; i < whole_result->clusters.size(); ++i) {
    const FoundCluster& a = merged_result->clusters.cluster(i);
    const FoundCluster& b = whole_result->clusters.cluster(i);
    EXPECT_EQ(a.part, b.part);
    EXPECT_EQ(a.acf.n(), b.acf.n());
    EXPECT_EQ(a.acf.Centroid(), b.acf.Centroid());
  }
}

TEST(MergeBuildersTest, RefusesEmptyAndMismatchedInputs) {
  IntDataset data = IntData(/*rows_per_pattern=*/20);
  const DarConfig config = IntConfig();
  auto dst = Phase1Builder::Make(config, data.schema, data.partition);
  ASSERT_TRUE(dst.ok());
  ASSERT_TRUE(dst->AddRow(data.relation.Row(0)).ok());

  // Empty source: nothing to merge is a caller bug, not a no-op.
  auto empty = Phase1Builder::Make(config, data.schema, data.partition);
  ASSERT_TRUE(empty.ok());
  Status status = dst->MergeFrom(*empty);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("empty"), std::string::npos) << status;

  // Structurally different layout (two parts instead of three).
  auto other_partition = AttributePartition::Make(
      data.schema, {{{"X", "Y"}, MetricKind::kEuclidean},
                    {{"Z"}, MetricKind::kEuclidean}});
  ASSERT_TRUE(other_partition.ok());
  auto other = Phase1Builder::Make(config, data.schema, *other_partition);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other->AddRow(data.relation.Row(0)).ok());
  EXPECT_TRUE(dst->MergeFrom(*other).IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Checkpoint-level merging (the cross-process half).

// Writes `num_shards` worker checkpoints over contiguous slices of `rel`,
// shard ids 0..num_shards-1. Returns the checkpoint paths.
std::vector<std::string> WriteShardFleet(const DarConfig& config,
                                         const Relation& rel,
                                         const AttributePartition& partition,
                                         size_t num_shards,
                                         const std::string& prefix) {
  auto worker_session = MakeSession(config);
  EXPECT_TRUE(worker_session.ok());
  std::vector<std::string> paths;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t begin = s * rel.num_rows() / num_shards;
    const size_t end = (s + 1) * rel.num_rows() / num_shards;
    paths.push_back(WriteShardCheckpoint(
        *worker_session, rel, partition, begin, end,
        static_cast<int64_t>(s), prefix + std::to_string(s) + ".ckpt"));
  }
  return paths;
}

void RemoveAll(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) std::remove(path.c_str());
}

// The acceptance pin: 8 worker checkpoints merged + one Phase II equal
// single-node Mine over the union, at 1 and 8 coordinator threads. The
// stream retains no tuples, so support rescans are off on both sides.
TEST(MergeCheckpointsTest, EightShardsEqualSingleNodeMine) {
  IntDataset data = IntData();
  DarConfig config = IntConfig();
  config.count_rule_support = false;

  auto reference_session = MakeSession(config);
  ASSERT_TRUE(reference_session.ok());
  auto reference = reference_session->Mine(data.relation, data.partition);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->rules().size(), 0u);

  const std::vector<std::string> paths =
      WriteShardFleet(config, data.relation, data.partition, 8, "accept");
  for (int threads : {1, 8}) {
    auto coordinator_session = MakeSession(config, threads);
    ASSERT_TRUE(coordinator_session.ok());
    auto report = coordinator_session->MineFromCheckpoints(paths);
    ASSERT_TRUE(report.ok()) << threads << " threads: " << report.status();
    EXPECT_EQ(report->phase1().clusters.size(),
              reference->phase1().clusters.size());
    EXPECT_EQ(report->phase2().cliques, reference->phase2().cliques);
    ExpectSameRules(report->rules(), reference->rules());
    EXPECT_EQ(report->telemetry.CounterOr("merge.checkpoints"), 8);
    EXPECT_EQ(report->telemetry.CounterOr("merge.shards"), 8);
    // Shard 0 is decoded as the merge target; shards 1-7 merge into it.
    EXPECT_EQ(report->telemetry.CounterOr("merge.builder_merges"), 7);
    EXPECT_EQ(report->telemetry.CounterOr("merge.rows"),
              static_cast<int64_t>(data.relation.num_rows() -
                                   data.relation.num_rows() / 8));
  }
  RemoveAll(paths);
}

// A merged checkpoint is itself a valid MergeCheckpoints input: merging
// can proceed in trees of any shape without changing the result.
TEST(MergeCheckpointsTest, MergedCheckpointMergesAgain) {
  IntDataset data = IntData();
  DarConfig config = IntConfig();
  config.count_rule_support = false;

  const std::vector<std::string> paths =
      WriteShardFleet(config, data.relation, data.partition, 4, "tree");

  // Merge shards {0,1,2} into one intermediate checkpoint...
  auto partial = persist::MergeCheckpoints(
      std::span<const std::string>(paths.data(), 3));
  ASSERT_TRUE(partial.ok()) << partial.status();
  ASSERT_EQ(partial->shards.size(), 3u);
  const std::string merged_path = testutil::TempPath("tree_merged.ckpt");
  ASSERT_TRUE(persist::WriteMergedCheckpoint(*partial, merged_path).ok());

  // ...then merge it with the straggler. Provenance is the union.
  const std::vector<std::string> second_round = {merged_path, paths[3]};
  auto session = MakeSession(config);
  ASSERT_TRUE(session.ok());
  auto tree_report = session->MineFromCheckpoints(second_round);
  ASSERT_TRUE(tree_report.ok()) << tree_report.status();
  auto flat_report = session->MineFromCheckpoints(paths);
  ASSERT_TRUE(flat_report.ok());
  ASSERT_GT(flat_report->rules().size(), 0u);
  ExpectSameRules(tree_report->rules(), flat_report->rules());

  auto remerged = persist::MergeCheckpoints(second_round);
  ASSERT_TRUE(remerged.ok());
  ASSERT_EQ(remerged->shards.size(), 4u);
  std::remove(merged_path.c_str());
  RemoveAll(paths);
}

// MergeOptions::config re-homes the merged summaries under new thresholds
// (warm re-mine), while MergedCheckpoint::config stays the workers' own.
TEST(MergeCheckpointsTest, WarmRemineUnderDifferentConfig) {
  IntDataset data = IntData();
  DarConfig config = IntConfig();
  config.count_rule_support = false;
  const std::vector<std::string> paths =
      WriteShardFleet(config, data.relation, data.partition, 2, "warm");

  DarConfig warm = config;
  warm.degree_threshold = 10.0;  // much stricter than the workers'
  persist::MergeOptions options;
  options.config = &warm;
  auto merged = persist::MergeCheckpoints(paths, options);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->config.degree_threshold, config.degree_threshold)
      << "MergedCheckpoint::config is the inputs' saved config";
  EXPECT_EQ(merged->builder.rows_added(),
            static_cast<int64_t>(data.relation.num_rows()));
  RemoveAll(paths);
}

// ---------------------------------------------------------------------
// Merge error paths: every incompatibility is a descriptive Status.

TEST(MergeCheckpointsTest, RejectsEmptyPathList) {
  auto merged = persist::MergeCheckpoints({});
  ASSERT_TRUE(merged.status().IsInvalidArgument());
}

TEST(MergeCheckpointsTest, RejectsSchemaMismatch) {
  IntDataset data = IntData(/*rows_per_pattern=*/40);
  DarConfig config = IntConfig();
  auto session = MakeSession(config);
  ASSERT_TRUE(session.ok());
  const std::string a = WriteShardCheckpoint(
      *session, data.relation, data.partition, 0, 60, 0, "schema_a.ckpt");

  // Same shape, different attribute name — a different relation.
  auto other_schema = Schema::Make({{"X", AttributeKind::kInterval},
                                    {"Y", AttributeKind::kInterval},
                                    {"W", AttributeKind::kInterval}});
  ASSERT_TRUE(other_schema.ok());
  auto other_partition = AttributePartition::Make(
      *other_schema, {{{"X"}, MetricKind::kEuclidean},
                      {{"Y"}, MetricKind::kEuclidean},
                      {{"W"}, MetricKind::kEuclidean}});
  ASSERT_TRUE(other_partition.ok());
  Relation other_rel(*other_schema);
  for (size_t r = 60; r < 120; ++r) {
    ASSERT_TRUE(other_rel.AppendRow(data.relation.Row(r)).ok());
  }
  const std::string b = WriteShardCheckpoint(
      *session, other_rel, *other_partition, 0, 60, 1, "schema_b.ckpt");

  const std::vector<std::string> paths = {a, b};
  auto merged = persist::MergeCheckpoints(paths);
  ASSERT_TRUE(merged.status().IsInvalidArgument());
  EXPECT_NE(merged.status().message().find("schema mismatch"),
            std::string::npos)
      << merged.status();
  EXPECT_NE(merged.status().message().find(b), std::string::npos)
      << "error must name the offending file: " << merged.status();
  RemoveAll(paths);
}

TEST(MergeCheckpointsTest, RejectsConfigMismatchNamingTheKnob) {
  // Shards that differ in one knob each: a Phase II threshold and the
  // config's last knob on the wire.
  IntDataset data = IntData(/*rows_per_pattern=*/40);
  const DarConfig config = IntConfig();
  auto session_a = MakeSession(config);
  ASSERT_TRUE(session_a.ok());
  const std::string a = WriteShardCheckpoint(
      *session_a, data.relation, data.partition, 0, 60, 0, "config_a.ckpt");

  const std::pair<const char*, void (*)(DarConfig&)> knobs[] = {
      {"degree_threshold", [](DarConfig& c) { c.degree_threshold = 99.0; }},
      {"count_rule_support",
       [](DarConfig& c) { c.count_rule_support = true; }}};
  for (const auto& [knob, change] : knobs) {
    SCOPED_TRACE(knob);
    DarConfig other = config;
    change(other);
    auto session_b = MakeSession(other);
    ASSERT_TRUE(session_b.ok());
    const std::string b =
        WriteShardCheckpoint(*session_b, data.relation, data.partition, 60,
                             120, 1, "config_b.ckpt");

    const std::vector<std::string> paths = {a, b};
    auto merged = persist::MergeCheckpoints(paths);
    ASSERT_TRUE(merged.status().IsInvalidArgument());
    EXPECT_NE(merged.status().message().find("config mismatch"),
              std::string::npos)
        << merged.status();
    EXPECT_NE(merged.status().message().find(std::string(" on ") + knob +
                                             ";"),
              std::string::npos)
        << "error must name the first differing knob: " << merged.status();
    std::remove(b.c_str());
  }
  std::remove(a.c_str());
}

TEST(MergeCheckpointsTest, ConfigsDifferingOnlyInARetiredTreeSlotMerge) {
  // The config section keeps seven slots where configs once carried tree
  // options, and drops them on read. Shards whose config sections differ
  // only there (the old tree.memory_budget_bytes slot, patched with every
  // CRC recomputed) were mined under one config, so they merge.
  IntDataset data = IntData(/*rows_per_pattern=*/40);
  const DarConfig config = IntConfig();
  auto session = MakeSession(config);
  ASSERT_TRUE(session.ok());
  const std::string a = WriteShardCheckpoint(
      *session, data.relation, data.partition, 0, 60, 0, "slot_a.ckpt");
  const std::string b = WriteShardCheckpoint(
      *session, data.relation, data.partition, 60, 120, 1, "slot_b.ckpt");

  auto reader = persist::CheckpointReader::Open(b);
  ASSERT_TRUE(reader.ok()) << reader.status();
  persist::CheckpointWriter writer;
  for (const uint32_t id : reader->section_ids()) {
    const auto section = static_cast<persist::SectionId>(id);
    std::string payload(*reader->Section(section));
    if (section == persist::SectionId::kConfig) {
      // After three 8-byte knobs and initial_diameters (a u32 count, then
      // the doubles) come the branching, leaf and threshold slots.
      persist::WireWriter budget;
      budget.U64(2u << 20);
      payload.replace(3 * 8 + 4 + 8 * config.initial_diameters.size() + 16,
                      budget.size(), budget.bytes());
    }
    writer.AddSection(section, std::move(payload));
  }
  ASSERT_TRUE(writer.WriteToFile(b).ok());

  const std::vector<std::string> paths = {a, b};
  auto merged = persist::MergeCheckpoints(paths);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(persist::FirstConfigDiff(merged->config, config), "");
  EXPECT_EQ(merged->builder.rows_added(), 120);
  RemoveAll(paths);
}

TEST(MergeCheckpointsTest, RejectsPartitionMismatch) {
  IntDataset data = IntData(/*rows_per_pattern=*/40);
  DarConfig config = IntConfig();
  config.initial_diameters = {30.0, 30.0};  // two parts below
  auto session = MakeSession(IntConfig());
  ASSERT_TRUE(session.ok());
  const std::string a = WriteShardCheckpoint(
      *session, data.relation, data.partition, 0, 60, 0, "part_a.ckpt");

  auto grouped = AttributePartition::Make(
      data.schema, {{{"X", "Y"}, MetricKind::kEuclidean},
                    {{"Z"}, MetricKind::kEuclidean}});
  ASSERT_TRUE(grouped.ok());
  auto session_b = MakeSession(config);
  ASSERT_TRUE(session_b.ok());
  const std::string b = WriteShardCheckpoint(
      *session_b, data.relation, *grouped, 60, 120, 1, "part_b.ckpt");

  const std::vector<std::string> paths = {a, b};
  auto merged = persist::MergeCheckpoints(paths);
  ASSERT_TRUE(merged.status().IsInvalidArgument()) << merged.status();
  const std::string message = merged.status().message();
  EXPECT_TRUE(message.find("partition mismatch") != std::string::npos ||
              message.find("config mismatch") != std::string::npos)
      << merged.status();
  RemoveAll(paths);
}

TEST(MergeCheckpointsTest, RejectsDuplicateShardIds) {
  IntDataset data = IntData(/*rows_per_pattern=*/40);
  DarConfig config = IntConfig();
  auto session = MakeSession(config);
  ASSERT_TRUE(session.ok());
  const std::string a = WriteShardCheckpoint(
      *session, data.relation, data.partition, 0, 60, 5, "dup_a.ckpt");
  const std::string b = WriteShardCheckpoint(
      *session, data.relation, data.partition, 60, 120, 5, "dup_b.ckpt");

  const std::vector<std::string> paths = {a, b};
  auto merged = persist::MergeCheckpoints(paths);
  ASSERT_TRUE(merged.status().IsInvalidArgument());
  const std::string message = merged.status().message();
  EXPECT_NE(message.find("duplicate shard id 5"), std::string::npos)
      << merged.status();
  EXPECT_NE(message.find(a), std::string::npos) << merged.status();
  EXPECT_NE(message.find(b), std::string::npos) << merged.status();
  RemoveAll(paths);
}

TEST(MergeCheckpointsTest, AnonymousShardsNeverCollide) {
  IntDataset data = IntData(/*rows_per_pattern=*/40);
  DarConfig config = IntConfig();
  auto session = MakeSession(config);
  ASSERT_TRUE(session.ok());
  // shard_id -1 (the default) asserts no identity: many may merge.
  const std::string a = WriteShardCheckpoint(
      *session, data.relation, data.partition, 0, 60, -1, "anon_a.ckpt");
  const std::string b = WriteShardCheckpoint(
      *session, data.relation, data.partition, 60, 120, -1, "anon_b.ckpt");

  const std::vector<std::string> paths = {a, b};
  auto merged = persist::MergeCheckpoints(paths);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_EQ(merged->shards.size(), 2u);
  EXPECT_EQ(merged->shards[0].shard_id, -1);
  EXPECT_EQ(merged->shards[1].shard_id, -1);
  EXPECT_EQ(merged->shards[0].rows + merged->shards[1].rows, 120);
  RemoveAll(paths);
}

TEST(MergeCheckpointsTest, RejectsEmptyShard) {
  IntDataset data = IntData(/*rows_per_pattern=*/40);
  DarConfig config = IntConfig();
  auto session = MakeSession(config);
  ASSERT_TRUE(session.ok());
  const std::string a = WriteShardCheckpoint(
      *session, data.relation, data.partition, 0, 60, 0, "empty_a.ckpt");
  // A checkpoint of a stream that never ingested: 0 rows.
  const std::string b = WriteShardCheckpoint(
      *session, data.relation, data.partition, 0, 0, 1, "empty_b.ckpt");

  const std::vector<std::string> paths = {a, b};
  auto merged = persist::MergeCheckpoints(paths);
  ASSERT_TRUE(merged.status().IsInvalidArgument());
  EXPECT_NE(merged.status().message().find("empty"), std::string::npos)
      << merged.status();
  EXPECT_NE(merged.status().message().find(b), std::string::npos)
      << merged.status();

  // Empty shard first: same refusal, naming the first file.
  const std::vector<std::string> reversed = {b, a};
  auto reversed_merge = persist::MergeCheckpoints(reversed);
  ASSERT_TRUE(reversed_merge.status().IsInvalidArgument());
  EXPECT_NE(reversed_merge.status().message().find(b), std::string::npos)
      << reversed_merge.status();
  RemoveAll(paths);
}

TEST(MergeCheckpointsTest, RejectsVersionSkewedCheckpoint) {
  IntDataset data = IntData(/*rows_per_pattern=*/40);
  DarConfig config = IntConfig();
  auto session = MakeSession(config);
  ASSERT_TRUE(session.ok());
  const std::string a = WriteShardCheckpoint(
      *session, data.relation, data.partition, 0, 60, 0, "skew_a.ckpt");
  const std::string b = WriteShardCheckpoint(
      *session, data.relation, data.partition, 60, 120, 1, "skew_b.ckpt");

  // Patch b's header to claim a format_version one past the library's
  // (with a valid header CRC, so the *version*, not corruption, is what
  // gets reported).
  std::string bytes;
  {
    std::ifstream in(b, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GE(bytes.size(), persist::kHeaderBytes);
  const uint32_t skewed_version = persist::kFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &skewed_version, sizeof(skewed_version));
  const uint32_t header_crc =
      persist::Crc32(std::string_view(bytes.data(), 16));
  std::memcpy(bytes.data() + 16, &header_crc, sizeof(header_crc));
  {
    std::ofstream out(b, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const std::vector<std::string> paths = {a, b};
  auto merged = persist::MergeCheckpoints(paths);
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("version"), std::string::npos)
      << merged.status();
  EXPECT_NE(merged.status().message().find(b), std::string::npos)
      << merged.status();
  RemoveAll(paths);
}

TEST(MergeCheckpointsTest, ReconcilesPrefixDictionariesRejectsConflicts) {
  IntDataset data = IntData(/*rows_per_pattern=*/40);
  DarConfig config = IntConfig();
  auto session = MakeSession(config);
  ASSERT_TRUE(session.ok());

  std::vector<Dictionary> short_dict(1);
  short_dict[0].Encode("low");
  std::vector<Dictionary> long_dict(1);
  long_dict[0].Encode("low");
  long_dict[0].Encode("high");
  std::vector<Dictionary> conflicting(1);
  conflicting[0].Encode("high");
  conflicting[0].Encode("low");

  const std::string a =
      WriteShardCheckpoint(*session, data.relation, data.partition, 0, 60, 0,
                           "dict_a.ckpt", short_dict);
  const std::string b =
      WriteShardCheckpoint(*session, data.relation, data.partition, 60, 120,
                           1, "dict_b.ckpt", long_dict);
  const std::string c =
      WriteShardCheckpoint(*session, data.relation, data.partition, 0, 60, 2,
                           "dict_c.ckpt", conflicting);

  // Prefix rule: {low} ⊑ {low, high}; the longer dictionary wins.
  const std::vector<std::string> compatible = {a, b};
  auto merged = persist::MergeCheckpoints(compatible);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_EQ(merged->dictionaries.size(), 1u);
  EXPECT_EQ(merged->dictionaries[0].size(), 2u);
  EXPECT_EQ(merged->dictionaries[0].Decode(1.0).ValueOrDie(), "high");

  // Same labels, different codes: unreconcilable.
  const std::vector<std::string> conflict = {a, c};
  auto refused = persist::MergeCheckpoints(conflict);
  ASSERT_TRUE(refused.status().IsInvalidArgument());
  EXPECT_NE(refused.status().message().find("dictionary"), std::string::npos)
      << refused.status();
  RemoveAll({a, b, c});
}

TEST(MergeCheckpointsTest, SingleCheckpointMergeMatchesItsOwnRemine) {
  IntDataset data = IntData();
  DarConfig config = IntConfig();
  config.count_rule_support = false;

  auto session = MakeSession(config);
  ASSERT_TRUE(session.ok());
  auto reference = session->Mine(data.relation, data.partition);
  ASSERT_TRUE(reference.ok());

  const std::vector<std::string> paths =
      WriteShardFleet(config, data.relation, data.partition, 1, "single");
  auto report = session->MineFromCheckpoints(paths);
  ASSERT_TRUE(report.ok()) << report.status();
  ExpectSameRules(report->rules(), reference->rules());
  RemoveAll(paths);
}

}  // namespace
}  // namespace dar
