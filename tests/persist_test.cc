// dar::persist: wire primitive round-trips, container framing, section
// codec round-trips, checkpoint save/restore equality (bit-identical
// re-mining at any thread count, warm re-mining under changed thresholds),
// and the fault-injection sweep — every corruption mode must surface as a
// descriptive error Status, never a crash (run under `ctest -L ubsan` with
// -DDAR_SANITIZE=address,undefined).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "datagen/planted.h"
#include "persist/checkpoint_io.h"
#include "persist/codec.h"
#include "persist/merge.h"
#include "persist/wire.h"
#include "stream/streaming_miner.h"
#include "stream_test_peer.h"
#include "test_util.h"

namespace dar {
namespace {

using persist::CheckpointReader;
using persist::CheckpointWriter;
using persist::SectionId;
using persist::WireReader;
using persist::WireWriter;

// ---------------------------------------------------------------------------
// Wire primitives.

TEST(WireTest, PrimitivesRoundTrip) {
  WireWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-(int64_t{1} << 40));
  w.F64(-0.1);
  w.F64(std::numeric_limits<double>::infinity());
  w.F64(std::numeric_limits<double>::quiet_NaN());
  w.Str("hello");
  w.Str("");

  WireReader r(w.bytes());
  EXPECT_EQ(r.U8().ValueOrDie(), 0xAB);
  EXPECT_EQ(r.U32().ValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64().ValueOrDie(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32().ValueOrDie(), -42);
  EXPECT_EQ(r.I64().ValueOrDie(), -(int64_t{1} << 40));
  EXPECT_EQ(r.F64().ValueOrDie(), -0.1);  // bitwise round-trip
  EXPECT_TRUE(std::isinf(r.F64().ValueOrDie()));
  EXPECT_TRUE(std::isnan(r.F64().ValueOrDie()));
  EXPECT_EQ(r.Str().ValueOrDie(), "hello");
  EXPECT_EQ(r.Str().ValueOrDie(), "");
  EXPECT_TRUE(r.ExpectEnd("test blob").ok());
}

TEST(WireTest, LittleEndianOnTheWire) {
  WireWriter w;
  w.U32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(w.bytes()[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(w.bytes()[3]), 0x01);
}

TEST(WireTest, ShortReadsFailCleanly) {
  WireWriter w;
  w.U32(7);
  WireReader r(std::string_view(w.bytes()).substr(0, 2));
  auto got = r.U32();
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsOutOfRange()) << got.status();

  // A string whose length prefix overruns the buffer.
  WireWriter w2;
  w2.U32(1000);  // length prefix, but no body follows
  WireReader r2(w2.bytes());
  EXPECT_TRUE(r2.Str().status().IsOutOfRange());

  WireReader r3(std::string_view("abc"));
  EXPECT_TRUE(r3.Slice(4).status().IsOutOfRange());
  auto sliced = r3.Slice(2);
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ(sliced->remaining(), 2u);
  EXPECT_FALSE(r3.ExpectEnd("r3").ok()) << "one byte left";
}

TEST(WireTest, Crc32MatchesReferenceVector) {
  // The CRC-32/ISO-HDLC check value, shared with zlib's crc32(), so
  // standard tools can verify a checkpoint's CRCs.
  EXPECT_EQ(persist::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(persist::Crc32(""), 0u);
}

TEST(WireTest, Crc32ChainsAcrossPieces) {
  // Crc32(b, Crc32(a)) == Crc32(a + b) at every split point, so the file
  // writer can checksum a section's header and payload without joining
  // them.
  const std::string whole = "DARCKPT section header + payload bytes";
  for (size_t split = 0; split <= whole.size(); ++split) {
    const std::string_view a = std::string_view(whole).substr(0, split);
    const std::string_view b = std::string_view(whole).substr(split);
    EXPECT_EQ(persist::Crc32(b, persist::Crc32(a)), persist::Crc32(whole))
        << "split at " << split;
  }
  EXPECT_EQ(persist::Crc32("56789", persist::Crc32("1234")), 0xCBF43926u);
}

// ---------------------------------------------------------------------------
// Container framing.

TEST(CheckpointIoTest, ContainerRoundTripsInMemory) {
  CheckpointWriter writer;
  writer.AddSection(SectionId::kSchema, "schema-bytes");
  writer.AddSection(SectionId::kBuilder, std::string(1000, 'x'));
  writer.AddSection(SectionId::kConfig, "");  // empty payload is legal

  auto reader = CheckpointReader::Parse(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->format_version(), persist::kFormatVersion);
  ASSERT_EQ(reader->section_ids().size(), 3u);
  EXPECT_TRUE(reader->HasSection(SectionId::kSchema));
  EXPECT_FALSE(reader->HasSection(SectionId::kSnapshot));
  EXPECT_EQ(reader->Section(SectionId::kSchema).ValueOrDie(), "schema-bytes");
  EXPECT_EQ(reader->Section(SectionId::kBuilder).ValueOrDie(),
            std::string(1000, 'x'));
  EXPECT_EQ(reader->Section(SectionId::kConfig).ValueOrDie(), "");
  EXPECT_TRUE(
      reader->Section(SectionId::kSnapshot).status().IsNotFound());
}

TEST(CheckpointIoTest, UnknownSectionIdsAreTolerated) {
  CheckpointWriter writer;
  writer.AddSection(SectionId::kSchema, "s");
  writer.AddSection(static_cast<SectionId>(42), "future-content");
  auto reader = CheckpointReader::Parse(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->section_ids()[1], 42u);
  EXPECT_EQ(persist::SectionName(42), "unknown");
}

TEST(CheckpointIoTest, Version1PayloadOnlyCrcStillReads) {
  // A version-1 container built by hand: section CRCs cover the payload
  // bytes only (the pre-v2 layout). The reader must keep accepting it.
  WireWriter w;
  w.Raw(std::string_view(persist::kCheckpointMagic,
                         sizeof(persist::kCheckpointMagic)));
  w.U32(1);  // format_version 1
  w.U32(1);  // section_count
  w.U32(persist::Crc32(std::string_view(w.bytes()).substr(0, 16)));
  const std::string payload = "v1-payload";
  w.U32(static_cast<uint32_t>(SectionId::kConfig));
  w.U64(payload.size());
  w.Raw(payload);
  w.U32(persist::Crc32(payload));

  auto reader = CheckpointReader::Parse(std::move(w).Take());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->format_version(), 1u);
  EXPECT_EQ(reader->Section(SectionId::kConfig).ValueOrDie(), payload);
}

TEST(CheckpointIoTest, SectionIdCorruptionIsDetected) {
  // The v2 section CRC covers the id + length header: flipping a bit in
  // an (optional) section's id must fail the parse, not silently turn
  // the section into an ignorable unknown one.
  CheckpointWriter writer;
  writer.AddSection(SectionId::kShards, "shard-bytes");
  std::string bytes = writer.Serialize();
  bytes[persist::kHeaderBytes + 2] ^= 0x01;  // third byte of the u32 id
  auto reader = CheckpointReader::Parse(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("CRC"), std::string::npos)
      << reader.status();
}

TEST(CheckpointIoTest, DuplicateSectionsRefused) {
  CheckpointWriter writer;
  writer.AddSection(SectionId::kConfig, "a");
  writer.AddSection(SectionId::kConfig, "b");
  auto reader = CheckpointReader::Parse(writer.Serialize());
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("duplicate"), std::string::npos);
}

TEST(CheckpointIoTest, FileRoundTripIsAtomic) {
  const std::string path = testutil::TempPath("ckpt_io_test.darckpt");
  CheckpointWriter writer;
  writer.AddSection(SectionId::kConfig, "payload");
  size_t bytes = 0;
  ASSERT_TRUE(writer.WriteToFile(path, &bytes).ok());
  EXPECT_GT(bytes, persist::kHeaderBytes);
  // No temp file may linger after a successful write.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  auto reader = CheckpointReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->total_bytes(), bytes);
  std::remove(path.c_str());
}

TEST(CheckpointIoTest, OpenMissingFileIsIOError) {
  auto reader =
      CheckpointReader::Open(testutil::TempPath("no_such_ckpt.darckpt"));
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsIOError());
  EXPECT_NE(reader.status().message().find("no_such_ckpt"),
            std::string::npos)
      << "error must name the file: " << reader.status();
}

// ---------------------------------------------------------------------------
// Section codec round-trips.

TEST(CodecTest, SchemaSectionRoundTrips) {
  auto schema = Schema::Make({{"Age", AttributeKind::kInterval},
                              {"City", AttributeKind::kNominal},
                              {"Salary", AttributeKind::kInterval}});
  ASSERT_TRUE(schema.ok());
  const std::string bytes = persist::EncodeSchemaSection(*schema);
  auto back = persist::DecodeSchemaSection(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(*back == *schema);
  EXPECT_EQ(persist::EncodeSchemaSection(*back), bytes);
}

TEST(CodecTest, PartitionSectionRoundTrips) {
  auto schema = Schema::Make({{"Lat", AttributeKind::kInterval},
                              {"Lon", AttributeKind::kInterval},
                              {"Kind", AttributeKind::kNominal}});
  ASSERT_TRUE(schema.ok());
  auto partition = AttributePartition::Make(
      *schema, {{{"Lat", "Lon"}, MetricKind::kEuclidean},
                {{"Kind"}, MetricKind::kDiscrete}});
  ASSERT_TRUE(partition.ok());
  const std::string bytes = persist::EncodePartitionSection(*partition);
  auto back = persist::DecodePartitionSection(bytes, *schema);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_parts(), 2u);
  EXPECT_EQ(back->part(0).columns, partition->part(0).columns);
  EXPECT_EQ(back->part(0).metric, MetricKind::kEuclidean);
  EXPECT_EQ(back->part(1).label, partition->part(1).label);
  // A partition referencing columns outside the schema is refused.
  auto narrow = Schema::Make({{"Lat", AttributeKind::kInterval}});
  ASSERT_TRUE(narrow.ok());
  EXPECT_FALSE(persist::DecodePartitionSection(bytes, *narrow).ok());
}

TEST(CodecTest, DictionariesSectionRoundTrips) {
  std::vector<Dictionary> dicts(2);
  EXPECT_EQ(dicts[0].Encode("red"), 0.0);
  EXPECT_EQ(dicts[0].Encode("green"), 1.0);
  EXPECT_EQ(dicts[1].Encode("madrid"), 0.0);
  const std::string bytes = persist::EncodeDictionariesSection(dicts);
  auto back = persist::DecodeDictionariesSection(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].Lookup("green").ValueOrDie(), 1.0);
  EXPECT_EQ((*back)[0].Decode(0.0).ValueOrDie(), "red");
  EXPECT_EQ((*back)[1].Decode(0.0).ValueOrDie(), "madrid");
}

TEST(CodecTest, ConfigSectionRoundTripsEveryKnob) {
  DarConfig config;
  config.memory_budget_bytes = 123456;
  config.frequency_fraction = 0.07;
  config.outlier_fraction = 0.5;
  config.initial_diameters = {1.5, 2.5};
  config.refine_clusters = true;
  config.metric = ClusterMetric::kD3AvgIntra;
  config.degree_threshold = 42.0;
  config.degree_thresholds = {10.0, 20.0};
  config.density_thresholds = {3.0, 4.0};
  config.phase2_leniency = 3.5;
  config.prune_low_density_images = false;
  config.max_antecedent = 5;
  config.max_consequent = 4;
  config.max_rules = 777;
  config.max_cliques = 888;
  config.count_rule_support = true;
  const std::string bytes = persist::EncodeConfigSection(config);
  auto back = persist::DecodeConfigSection(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  // Re-encoding the decoded config must reproduce the bytes — which pins
  // every serialized knob without writing one EXPECT per field.
  EXPECT_EQ(persist::EncodeConfigSection(*back), bytes);
  EXPECT_EQ(back->metric, ClusterMetric::kD3AvgIntra);
  EXPECT_EQ(back->initial_diameters, config.initial_diameters);
}

TEST(CodecTest, ConfigSectionRejectsInvalidKnobs) {
  DarConfig config;
  std::string bytes = persist::EncodeConfigSection(config);
  // Corrupt the frequency_fraction (offset 8, after memory_budget) into a
  // negative value: the CRC layer is not involved here — the decoder's own
  // DarConfig::Validate must refuse.
  WireWriter w;
  w.F64(-0.5);
  for (int i = 0; i < 8; ++i) bytes[8 + i] = w.bytes()[i];
  auto back = persist::DecodeConfigSection(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Pinned bytes: one fixed instance of each flat record, every field off its
// default, encodes to the bytes below, and decoding and re-encoding gives
// them back. The constants are the wire layout: a codec change that moves,
// resizes or drops a byte fails here.

DarConfig PinnedConfig() {
  DarConfig config;
  config.memory_budget_bytes = 123456;
  config.frequency_fraction = 0.07;
  config.outlier_fraction = 0.5;
  config.initial_diameters = {1.5, 2.5};
  config.refine_clusters = true;
  config.metric = ClusterMetric::kD3AvgIntra;
  config.degree_threshold = 42.0;
  config.degree_thresholds = {10.0, 20.0};
  config.density_thresholds = {3.0, 4.0};
  config.phase2_leniency = 3.5;
  config.prune_low_density_images = false;
  config.max_antecedent = 5;
  config.max_consequent = 4;
  config.max_rules = 777;
  config.max_cliques = 888;
  config.count_rule_support = true;
  return config;
}

TEST(CodecTest, PinnedConfigBytes) {
  const std::string bytes = persist::EncodeConfigSection(PinnedConfig());
  EXPECT_EQ(testutil::Hex(bytes),
            "40e2010000000000ec51b81e85ebb13f000000000000e03f0200000000000000"
            "0000f83f00000000000004401000000008000000000000000000000000001000"
            "00000000000000000000f83f0000000000000000400000000103000000000000"
            "4540020000000000000000002440000000000000344002000000000000000000"
            "084000000000000010400000000000000c400005000000000000000400000000"
            "0000000903000000000000780300000000000001");
  auto back = persist::DecodeConfigSection(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(persist::EncodeConfigSection(*back), bytes);
}

TEST(CodecTest, ConfigSectionDropsItsRetiredTreeSlots) {
  // Sections written while configs carried tree options may hold any
  // values in the seven slots after initial_diameters: they read as the
  // same config, and re-encode with AcfTreeOptions{} in the slots.
  const DarConfig config = PinnedConfig();
  const std::string bytes = persist::EncodeConfigSection(config);
  WireWriter slots;
  slots.I32(9);
  slots.I32(3);
  slots.F64(0.25);
  slots.U64(65536);
  slots.F64(1.75);
  slots.I64(6);
  slots.I32(11);
  ASSERT_EQ(slots.size(), 44u);
  std::string older = bytes;
  older.replace(8 + 8 + 8 + 4 + 8 * config.initial_diameters.size(),
                slots.size(), slots.bytes());
  auto back = persist::DecodeConfigSection(older);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(persist::FirstConfigDiff(*back, config), "");
  EXPECT_EQ(persist::EncodeConfigSection(*back), bytes);
}

persist::StreamState PinnedStreamState() {
  persist::StreamState state;
  state.generation = 7;
  state.rows_ingested = 900;
  state.rows_at_snapshot = 800;
  state.rows_at_checkpoint = 700;
  StreamConfig& sc = state.stream_config;
  sc.remine_every_rows = 256;
  sc.build_rule_index = false;
  sc.checkpoint_every_rows = 512;
  sc.checkpoint_path = "run/ckpt.dar";
  sc.score_measures = {"support", "lift"};
  sc.prune_redundant = true;
  sc.prune_min_overlap = 0.75;
  sc.diff_snapshots = true;
  sc.drift_interval_tolerance = 0.125;
  sc.drift_degree_tolerance = 0.375;
  return state;
}

TEST(CodecTest, PinnedStreamStateBytesWithAndWithoutTheQualityTail) {
  const persist::StreamState state = PinnedStreamState();
  const std::string bytes = persist::EncodeStreamStateSection(state);
  const std::string head =
      "070000000000000084030000000000002003000000000000bc02000000000000"
      "00010000000000000000020000000000000c00000072756e2f636b70742e6461"
      "72";
  const std::string tail =
      "0200000007000000737570706f7274040000006c69667401000000000000e83f"
      "01000000000000c03f000000000000d83f";
  EXPECT_EQ(testutil::Hex(bytes), head + tail);
  auto back = persist::DecodeStreamStateSection(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(persist::EncodeStreamStateSection(*back), bytes);

  // A section written before the quality knobs existed ends after
  // checkpoint_path: it decodes with the StreamConfig defaults, which the
  // encoder then appends.
  const std::string old_section = bytes.substr(0, head.size() / 2);
  auto old = persist::DecodeStreamStateSection(old_section);
  ASSERT_TRUE(old.ok()) << old.status();
  EXPECT_EQ(old->rows_at_checkpoint, 700);
  EXPECT_EQ(old->stream_config.checkpoint_path, "run/ckpt.dar");
  persist::StreamState defaults = *old;
  const StreamConfig fresh;
  defaults.stream_config.score_measures = fresh.score_measures;
  defaults.stream_config.prune_redundant = fresh.prune_redundant;
  defaults.stream_config.prune_min_overlap = fresh.prune_min_overlap;
  defaults.stream_config.diff_snapshots = fresh.diff_snapshots;
  defaults.stream_config.drift_interval_tolerance =
      fresh.drift_interval_tolerance;
  defaults.stream_config.drift_degree_tolerance = fresh.drift_degree_tolerance;
  const std::string reencoded = persist::EncodeStreamStateSection(*old);
  EXPECT_EQ(reencoded, persist::EncodeStreamStateSection(defaults));
  EXPECT_EQ(reencoded.substr(0, old_section.size()), old_section);
}

TEST(CodecTest, PinnedShardsAndSchemaBytes) {
  const std::vector<persist::ShardInfo> shards = {{3, 64}, {-1, 10}, {7, 0}};
  const std::string shard_bytes = persist::EncodeShardsSection(shards);
  EXPECT_EQ(testutil::Hex(shard_bytes),
            "0300000003000000000000004000000000000000ffffffffffffffff0a000000"
            "0000000007000000000000000000000000000000");
  auto shards_back = persist::DecodeShardsSection(shard_bytes);
  ASSERT_TRUE(shards_back.ok()) << shards_back.status();
  EXPECT_EQ(persist::EncodeShardsSection(*shards_back), shard_bytes);

  auto schema = Schema::Make({{"Age", AttributeKind::kInterval},
                              {"City", AttributeKind::kNominal},
                              {"Salary", AttributeKind::kInterval}});
  ASSERT_TRUE(schema.ok());
  const std::string schema_bytes = persist::EncodeSchemaSection(*schema);
  EXPECT_EQ(testutil::Hex(schema_bytes),
            "0300000003000000416765000400000043697479010600000053616c61727900");
  auto schema_back = persist::DecodeSchemaSection(schema_bytes);
  ASSERT_TRUE(schema_back.ok()) << schema_back.status();
  EXPECT_EQ(persist::EncodeSchemaSection(*schema_back), schema_bytes);
}

TEST(CodecTest, PinnedResultsBytesWithTreeStats) {
  Phase1Result phase1;
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "x"}};
  phase1.layout = layout;
  phase1.clusters = ClusterSet(layout, {});
  for (int t = 1; t <= 2; ++t) {
    AcfTreeStats stats;
    stats.num_nodes = 10 * t + 1;
    stats.num_leaf_entries = 10 * t + 2;
    stats.num_outliers = 10 * t + 3;
    stats.rebuild_count = 10 * t + 4;
    stats.threshold = 0.5 * t;
    stats.approx_bytes = 1000 * t + 5;
    stats.points_inserted = 10 * t + 6;
    stats.split_count = 10 * t + 7;
    stats.height = t + 1;
    phase1.tree_stats.push_back(stats);
  }
  phase1.raw_cluster_counts = {4};
  phase1.effective_d0 = {2.0};
  phase1.frequency_threshold = 3;
  phase1.seconds = 0.25;
  Phase2Result phase2;
  phase2.seconds = 0.5;
  const std::string bytes =
      persist::EncodeResultsSection(9, 123, phase1, phase2);
  EXPECT_EQ(testutil::Hex(bytes),
            "09000000000000007b0000000000000001000000010000000000000000010000"
            "007800000000020000000b000000000000000c000000000000000d0000000000"
            "00000e000000000000000000e03fed0300000000000010000000000000001100"
            "0000000000000200000015000000000000001600000000000000170000000000"
            "000018000000000000000000f03fd5070000000000001a000000000000001b00"
            "0000000000000300000000000000010000000400000000000000010000000000"
            "0000000000400300000000000000000000000000d03f00000000000000000000"
            "00000000000000000000000000000000000000000000e03f");
  auto back = persist::DecodeResultsSection(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(persist::EncodeResultsSection(back->generation,
                                          back->rows_ingested, back->phase1,
                                          back->phase2),
            bytes);
}

TEST(CodecTest, ResultsRefuseACliqueIdAsItIsRead) {
  // An id outside the cluster set is refused as soon as it is read, before
  // a truncation in a later clique is reached.
  Phase1Result phase1;
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "x"}};
  phase1.layout = layout;
  phase1.clusters = ClusterSet(layout, {});
  Phase2Result phase2;
  phase2.cliques = {{5}, {7}};
  const std::string bytes = persist::EncodeResultsSection(1, 1, phase1, phase2);
  // The second clique's count and id; cut inside the id.
  const std::string second("\x01\0\0\0\x07\0\0\0\0\0\0\0", 12);
  const size_t at = bytes.find(second);
  ASSERT_NE(at, std::string::npos);
  auto back =
      persist::DecodeResultsSection(std::string_view(bytes).substr(0, at + 8));
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsInvalidArgument()) << back.status();
}

TEST(CodecTest, TreeWithNonFiniteMomentOrHistogramKeyIsRefused) {
  // One tuple in a tree over a Euclidean and a discrete part. Its values
  // appear nowhere else in the encoding, so their bytes locate each
  // image's [ls | ss | min | max] block and the histogram key.
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "x"},
                   {1, MetricKind::kDiscrete, "c"}};
  AcfTree tree(layout, 0, AcfTreeOptions{});
  ASSERT_TRUE(tree.InsertPoint({{5.25}, {3.5}}).ok());
  WireWriter w;
  persist::EncodeTree(tree, w);
  const std::string intact = w.bytes();
  auto f64 = [](double v) {
    WireWriter one;
    one.F64(v);
    return one.bytes();
  };
  std::vector<size_t> patches;  // byte offsets of the values to corrupt
  for (const double v : {5.25, 3.5}) {
    const size_t ls = intact.find(f64(v));
    ASSERT_NE(ls, std::string::npos);
    ASSERT_EQ(intact.substr(ls + 8, 24), f64(v * v) + f64(v) + f64(v));
    for (size_t k = 0; k < 4; ++k) patches.push_back(ls + 8 * k);
  }
  // The discrete block is followed by its histogram: u32 count 1, the key
  // 3.5, then its count.
  const size_t key = patches.back() + 8 + 4;
  ASSERT_EQ(intact.substr(key, 8), f64(3.5));
  {
    WireReader r(intact);
    ASSERT_TRUE(persist::DecodeTree(r, layout, 0).ok());
  }
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (const size_t at : patches) {
    for (const double bad : kBad) {
      std::string bytes = intact;
      bytes.replace(at, 8, f64(bad));
      WireReader r(bytes);
      const auto decoded = persist::DecodeTree(r, layout, 0);
      ASSERT_FALSE(decoded.ok()) << "offset " << at << " value " << bad;
      EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
    }
  }
  std::string bytes = intact;
  bytes.replace(key, 8, f64(kBad[0]));
  WireReader r(bytes);
  const auto decoded = persist::DecodeTree(r, layout, 0);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
}

// ---------------------------------------------------------------------------
// Stream checkpoint end-to-end: save, restore, re-mine, fault-inject.

PlantedDataset TestData() {
  PlantedDataSpec spec = WbcdLikeSpec(/*num_attrs=*/3, /*clusters_per_attr=*/3,
                                      /*outlier_fraction=*/0.05, /*seed=*/77);
  auto data = GeneratePlanted(spec, 1500, 78);
  EXPECT_TRUE(data.ok()) << data.status();
  return *std::move(data);
}

DarConfig TestConfig() {
  DarConfig config;
  config.frequency_fraction = 0.05;
  config.initial_diameters.assign(3, 80.0);
  config.degree_threshold = 150.0;
  return config;
}

Result<Session> TestSession(int threads = 1) {
  return Session::Builder()
      .WithConfig(TestConfig())
      .WithThreads(threads)
      .Build();
}

// Cadence disabled: tests publish explicitly via Remine().
StreamConfig ManualRemine() {
  StreamConfig sc;
  sc.remine_every_rows = 0;
  return sc;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void ExpectSameRules(const std::vector<DistanceRule>& a,
                     const std::vector<DistanceRule>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].antecedent, b[i].antecedent);
    EXPECT_EQ(a[i].consequent, b[i].consequent);
    EXPECT_EQ(a[i].degree, b[i].degree);  // bitwise
    EXPECT_EQ(a[i].cooccurrence_slack, b[i].cooccurrence_slack);
  }
}

// Builds a stream over the test data, ingests everything, publishes one
// snapshot and saves a checkpoint; returns the checkpoint path.
std::string MakeCheckpoint(const Session& session, const PlantedDataset& data,
                           const std::string& name) {
  auto stream = session.OpenStream(data.relation.schema(), data.partition,
                                   ManualRemine());
  EXPECT_TRUE(stream.ok()) << stream.status();
  EXPECT_TRUE((*stream)->Ingest(data.relation).ok());
  EXPECT_TRUE((*stream)->Remine().ok());
  const std::string path = testutil::TempPath(name);
  EXPECT_TRUE((*stream)->SaveCheckpoint(path).ok());
  return path;
}

TEST(StreamCheckpointTest, SaveRestoreSaveIsByteIdentical) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  const std::string path = MakeCheckpoint(*session, data, "roundtrip.ckpt");

  auto restored = session->RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->stream->rows_ingested(),
            static_cast<int64_t>(data.relation.num_rows()));
  EXPECT_EQ(restored->stream->generation(), 1u);
  ASSERT_NE(StreamTestPeer::Snapshot(*restored->stream), nullptr);
  EXPECT_TRUE(restored->schema == data.relation.schema());

  // The restored stream's state re-serializes to the exact same bytes: the
  // decode-encode cycle loses nothing.
  const std::string path2 = testutil::TempPath("roundtrip2.ckpt");
  ASSERT_TRUE(restored->stream->SaveCheckpoint(path2).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(path2));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(StreamCheckpointTest, RestoredStreamQueriesWithoutReingesting) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  const std::string path = MakeCheckpoint(*session, data, "query.ckpt");

  auto restored = session->RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  // The republished snapshot serves point queries immediately.
  auto hits =
      StreamTestPeer::Query(*restored->stream, data.relation.Row(0));
  ASSERT_TRUE(hits.ok()) << hits.status();
  std::remove(path.c_str());
}

TEST(StreamCheckpointTest, RemineAfterRestoreIsBitIdenticalAtAnyThreadCount) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    ManualRemine());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  auto original = (*stream)->Remine();
  ASSERT_TRUE(original.ok());
  ASSERT_GT((*original)->rules().size(), 0u);
  const std::string path = testutil::TempPath("threads.ckpt");
  ASSERT_TRUE((*stream)->SaveCheckpoint(path).ok());

  for (int threads : {1, 4}) {
    auto other = TestSession(threads);
    ASSERT_TRUE(other.ok());
    auto restored = other->RestoreCheckpoint(path);
    ASSERT_TRUE(restored.ok()) << restored.status();
    auto remined = restored->stream->Remine();
    ASSERT_TRUE(remined.ok()) << remined.status();
    ExpectSameRules((*remined)->rules(), (*original)->rules());
    EXPECT_EQ((*remined)->phase1().effective_d0,
              (*original)->phase1().effective_d0);
    EXPECT_EQ((*remined)->phase2().cliques, (*original)->phase2().cliques);
  }
  std::remove(path.c_str());
}

TEST(StreamCheckpointTest, WarmRemineUnderNewThresholdsNeedsNoData) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  const std::string path = MakeCheckpoint(*session, data, "warm.ckpt");

  // Restore under a *stricter* frequency threshold: the summaries are
  // pre-filter, so the new threshold applies without any data access.
  DarConfig warm_config = TestConfig();
  warm_config.frequency_fraction = 0.25;
  auto warm_session =
      Session::Builder().WithConfig(warm_config).Build();
  ASSERT_TRUE(warm_session.ok());
  auto restored = warm_session->RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  // The saved config is reported so callers can tell they diverged.
  EXPECT_EQ(restored->saved_config.frequency_fraction, 0.05);

  auto remined = restored->stream->Remine();
  ASSERT_TRUE(remined.ok()) << remined.status();
  const int64_t rows = restored->stream->rows_ingested();
  EXPECT_EQ((*remined)->phase1().frequency_threshold,
            static_cast<int64_t>(std::ceil(0.25 * double(rows))));
  std::remove(path.c_str());
}

TEST(StreamCheckpointTest, CheckpointWithoutSnapshotRestores) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    ManualRemine());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  // No Remine: generation 0, nothing published.
  const std::string path = testutil::TempPath("nosnap.ckpt");
  ASSERT_TRUE((*stream)->SaveCheckpoint(path).ok());
  auto restored = session->RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->stream->generation(), 0u);
  EXPECT_EQ(StreamTestPeer::Snapshot(*restored->stream), nullptr);
  // But the trees are live: an immediate Remine works.
  EXPECT_TRUE(restored->stream->Remine().ok());
  std::remove(path.c_str());
}

TEST(StreamCheckpointTest, DictionariesTravelWithTheCheckpoint) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    ManualRemine());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  std::vector<Dictionary> dicts(1);
  dicts[0].Encode("alpha");
  dicts[0].Encode("beta");
  const std::string path = testutil::TempPath("dicts.ckpt");
  ASSERT_TRUE(session->SaveCheckpoint(**stream, path, dicts).ok());
  auto restored = session->RestoreCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->dictionaries.size(), 1u);
  EXPECT_EQ(restored->dictionaries[0].Decode(1.0).ValueOrDie(), "beta");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault injection: every corruption is a clean, descriptive Status.

// Full restore attempt over possibly-corrupt bytes; must never crash.
Status TryRestore(const std::string& bytes) {
  const std::string path = testutil::TempPath("fault_injected.ckpt");
  WriteFileBytes(path, bytes);
  auto restored = StreamingMiner::RestoreFromFile(
      path, TestConfig(), /*executor=*/nullptr, /*registry=*/nullptr);
  std::remove(path.c_str());
  return restored.ok() ? Status::OK() : restored.status();
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new PlantedDataset(TestData());
    auto session = TestSession();
    ASSERT_TRUE(session.ok());
    const std::string path =
        MakeCheckpoint(*session, *data_, "fault_base.ckpt");
    bytes_ = new std::string(ReadFileBytes(path));
    std::remove(path.c_str());
    ASSERT_GT(bytes_->size(), 1000u);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete bytes_;
    data_ = nullptr;
    bytes_ = nullptr;
  }
  static PlantedDataset* data_;
  static std::string* bytes_;
};

PlantedDataset* FaultInjectionTest::data_ = nullptr;
std::string* FaultInjectionTest::bytes_ = nullptr;

TEST_F(FaultInjectionTest, IntactBaselineRestores) {
  EXPECT_TRUE(TryRestore(*bytes_).ok());
}

TEST_F(FaultInjectionTest, TruncationsAtEveryLayerFailCleanly) {
  const size_t n = bytes_->size();
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{19}, size_t{20},
                     size_t{21}, n / 4, n / 2, n - 100, n - 1}) {
    Status s = TryRestore(bytes_->substr(0, len));
    EXPECT_FALSE(s.ok()) << "truncation to " << len << " bytes must fail";
    EXPECT_FALSE(s.message().empty());
  }
}

TEST_F(FaultInjectionTest, BitFlipsAnywhereFailCleanly) {
  // A flip in any payload byte trips that section's CRC; a flip in the
  // framing (magic, header, ids, lengths, the CRCs themselves) trips the
  // framing checks. Sample the whole file with a prime stride.
  for (size_t pos = 0; pos < bytes_->size(); pos += 131) {
    for (int bit : {0, 7}) {
      std::string corrupt = *bytes_;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      Status s = TryRestore(corrupt);
      EXPECT_FALSE(s.ok()) << "flip at byte " << pos << " bit " << bit
                           << " must be detected";
    }
  }
}

TEST_F(FaultInjectionTest, BadMagicNamesTheProblem) {
  std::string corrupt = *bytes_;
  corrupt[0] = 'X';
  Status s = TryRestore(corrupt);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s;
}

TEST_F(FaultInjectionTest, FutureFormatVersionIsRefusedWithUpgradeHint) {
  // Raise format_version to 99 and fix up the header CRC so only the
  // version check can object.
  std::string corrupt = *bytes_;
  corrupt[8] = 99;
  const uint32_t crc = persist::Crc32(std::string_view(corrupt).substr(0, 16));
  for (int i = 0; i < 4; ++i) {
    corrupt[16 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  Status s = TryRestore(corrupt);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("newer"), std::string::npos) << s;
}

TEST_F(FaultInjectionTest, TrailingGarbageIsRefused)
{
  Status s = TryRestore(*bytes_ + std::string(13, 'z'));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("trailing"), std::string::npos) << s;
}

TEST_F(FaultInjectionTest, MissingSectionIsRefused) {
  // Rebuild the container without the builder section: framing is valid,
  // CRCs all pass, but the restore must notice the missing section.
  auto reader = CheckpointReader::Parse(*bytes_);
  ASSERT_TRUE(reader.ok());
  CheckpointWriter writer;
  for (uint32_t id : reader->section_ids()) {
    if (id == static_cast<uint32_t>(SectionId::kBuilder)) continue;
    writer.AddSection(static_cast<SectionId>(id),
                      std::string(reader->Section(static_cast<SectionId>(id))
                                      .ValueOrDie()));
  }
  Status s = TryRestore(writer.Serialize());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("builder"), std::string::npos) << s;
}

TEST_F(FaultInjectionTest, SwappedSectionPayloadsAreRefused) {
  // Put the schema payload in the partition slot and vice versa: every CRC
  // is valid, so only the content decoders can (and must) object.
  auto reader = CheckpointReader::Parse(*bytes_);
  ASSERT_TRUE(reader.ok());
  CheckpointWriter writer;
  for (uint32_t id : reader->section_ids()) {
    SectionId sid = static_cast<SectionId>(id);
    SectionId source = sid;
    if (sid == SectionId::kSchema) source = SectionId::kPartition;
    if (sid == SectionId::kPartition) source = SectionId::kSchema;
    writer.AddSection(sid,
                      std::string(reader->Section(source).ValueOrDie()));
  }
  EXPECT_FALSE(TryRestore(writer.Serialize()).ok());
}

// Rebuilds the container `bytes` with section `id` carrying `payload`
// (appended when `bytes` has no such section) and every CRC recomputed, so
// only the section decoders can object.
std::string WithSection(const std::string& bytes, SectionId id,
                        std::string payload) {
  auto reader = CheckpointReader::Parse(bytes);
  EXPECT_TRUE(reader.ok()) << reader.status();
  CheckpointWriter writer;
  bool replaced = false;
  for (uint32_t sid : reader->section_ids()) {
    if (sid == static_cast<uint32_t>(id)) {
      writer.AddSection(id, payload);
      replaced = true;
    } else {
      writer.AddSection(static_cast<SectionId>(sid),
                        std::string(*reader->Section(
                            static_cast<SectionId>(sid))));
    }
  }
  if (!replaced) writer.AddSection(id, std::move(payload));
  return writer.Serialize();
}

TEST_F(FaultInjectionTest, OversizedScoreMeasureCountIsRefused) {
  // A stream state whose score-measure count claims 2^32 - 1 names that
  // the payload does not hold.
  const auto rows = static_cast<int64_t>(data_->relation.num_rows());
  WireWriter w;
  w.U64(1);     // generation
  w.I64(rows);  // rows_ingested
  w.I64(rows);  // rows_at_snapshot
  w.I64(rows);  // rows_at_checkpoint
  w.I64(0);     // remine_every_rows
  w.U8(1);      // build_rule_index
  w.I64(0);     // checkpoint_every_rows
  w.Str("");    // checkpoint_path
  w.U32(0xFFFFFFFFu);
  Status s = TryRestore(
      WithSection(*bytes_, SectionId::kStreamState, std::move(w).Take()));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("stream state"), std::string::npos) << s;
}

TEST_F(FaultInjectionTest, OversizedRetainedRowCountIsRefused) {
  // Retained-row counts of 2^40 and 2^62 in front of one real row: the
  // first would need terabytes, the second overflows rows * cols * 8.
  const std::vector<double> row = data_->relation.Row(0);
  for (uint64_t rows : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    WireWriter w;
    w.U64(rows);
    w.U64(row.size());
    for (double value : row) w.F64(value);
    Status s = TryRestore(
        WithSection(*bytes_, SectionId::kRetainedRows, std::move(w).Take()));
    ASSERT_FALSE(s.ok()) << rows << " rows";
    EXPECT_NE(s.message().find("retained rows"), std::string::npos) << s;
  }
}

TEST_F(FaultInjectionTest, TreeOptionsOutOfRangeAreRefused) {
  // Each option of part 0's tree blob, patched out of range with every CRC
  // recomputed, is InvalidArgument naming the option. The builder section
  // is an i64 row count, a u32 part count and a u64 blob length; the
  // blob's options follow its u32 part (the tree blob layout in codec.cc).
  auto reader = CheckpointReader::Parse(*bytes_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const std::string builder(*reader->Section(SectionId::kBuilder));
  constexpr size_t kOptions = 8 + 4 + 8 + 4;
  const auto bytes = [](auto write) {
    WireWriter w;
    write(w);
    return w.Take();
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* option;
    size_t offset;  // within the options
    std::string value;
  } kCases[] = {
      {"branching_factor", 0, bytes([](WireWriter& w) { w.I32(1); })},
      {"leaf_capacity", 4, bytes([](WireWriter& w) { w.I32(0); })},
      {"initial_threshold", 8, bytes([](WireWriter& w) { w.F64(-0.5); })},
      {"initial_threshold", 8, bytes([&](WireWriter& w) { w.F64(nan); })},
      {"memory_budget_bytes", 16, bytes([](WireWriter& w) { w.U64(0); })},
      {"threshold_growth", 24, bytes([](WireWriter& w) { w.F64(1.0); })},
      {"threshold_growth", 24, bytes([&](WireWriter& w) { w.F64(nan); })},
      {"outlier_entry_min_n", 32, bytes([](WireWriter& w) { w.I64(-1); })},
      {"max_rebuilds_per_insert", 40,
       bytes([](WireWriter& w) { w.I32(0); })},
  };
  for (const auto& c : kCases) {
    std::string patched = builder;
    patched.replace(kOptions + c.offset, c.value.size(), c.value);
    const Status s =
        TryRestore(WithSection(*bytes_, SectionId::kBuilder, patched));
    EXPECT_TRUE(s.IsInvalidArgument()) << c.option << ": " << s;
    EXPECT_NE(s.message().find(c.option), std::string::npos) << s;
  }
}

// The config of WriteNineSectionCheckpoint: support counting retains rows.
DarConfig NineSectionConfig() {
  DarConfig config = TestConfig();
  config.count_rule_support = true;
  return config;
}

// Saves a checkpoint carrying all nine sections to `path`: support counting
// retains rows, the stream scores, prunes and diffs, and the save carries
// dictionaries and a shard id.
void WriteNineSectionCheckpoint(const std::string& path) {
  PlantedDataSpec spec = WbcdLikeSpec(/*num_attrs=*/3, /*clusters_per_attr=*/3,
                                      /*outlier_fraction=*/0.05, /*seed=*/77);
  auto data = GeneratePlanted(spec, 120, 79);
  ASSERT_TRUE(data.ok()) << data.status();
  auto session = Session::Builder().WithConfig(NineSectionConfig()).Build();
  ASSERT_TRUE(session.ok()) << session.status();
  StreamConfig stream_config = ManualRemine();
  stream_config.score_measures = {"support", "confidence", "lift"};
  stream_config.prune_redundant = true;
  stream_config.diff_snapshots = true;
  stream_config.shard_id = 7;
  auto stream = session->OpenStream(data->relation.schema(), data->partition,
                                    stream_config);
  ASSERT_TRUE(stream.ok()) << stream.status();
  ASSERT_TRUE((*stream)->Ingest(data->relation).ok());
  ASSERT_TRUE((*stream)->Remine().ok());
  std::vector<Dictionary> dictionaries(1);
  dictionaries[0].Encode("alpha");
  dictionaries[0].Encode("beta");
  ASSERT_TRUE(session->SaveCheckpoint(**stream, path, dictionaries).ok());
}

TEST(CheckpointIoTest, StreamedFileEqualsSerializedImage) {
  // WriteToFile streams header and sections to disk; its bytes must be
  // Serialize()'s, section for section, on a checkpoint with all nine.
  const std::string path = testutil::TempPath("nine.ckpt");
  WriteNineSectionCheckpoint(path);
  const std::string saved = ReadFileBytes(path);
  auto reader = CheckpointReader::Parse(saved);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->section_ids().size(), 9u);
  CheckpointWriter writer;
  for (uint32_t id : reader->section_ids()) {
    const auto section = static_cast<SectionId>(id);
    writer.AddSection(section, std::string(*reader->Section(section)));
  }
  const std::string image = writer.Serialize();
  EXPECT_EQ(image, saved);
  size_t bytes = 0;
  ASSERT_TRUE(writer.WriteToFile(path, &bytes).ok());
  EXPECT_EQ(bytes, image.size());
  EXPECT_EQ(ReadFileBytes(path), image);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, CrcValidCorruptionsReturnCleanly) {
  // Restore, merge and DescribeCheckpoint over checkpoints whose payloads
  // were corrupted *behind* valid CRCs. The base checkpoint carries all
  // nine sections.
  const DarConfig config = NineSectionConfig();
  const std::string path = testutil::TempPath("sweep.ckpt");
  WriteNineSectionCheckpoint(path);
  if (HasFatalFailure()) return;
  const std::string bytes = ReadFileBytes(path);
  auto reader = CheckpointReader::Parse(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->section_ids().size(), 9u);

  // XOR one payload byte at a time: every byte of the small sections,
  // every 7th of the large ones (7 is coprime to the 8-byte values, so the
  // stride still reaches every byte position within them).
  size_t trials = 0, restored = 0;
  for (uint32_t id : reader->section_ids()) {
    const auto section = static_cast<SectionId>(id);
    const std::string payload(*reader->Section(section));
    const size_t stride = section == SectionId::kBuilder ||
                                  section == SectionId::kSnapshot ||
                                  section == SectionId::kRetainedRows
                              ? 7
                              : 1;
    for (size_t pos = 0; pos < payload.size(); pos += stride) {
      for (int mask : {0x01, 0x80, 0xFF}) {
        std::string mutated = payload;
        mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
        const std::string corrupt =
            WithSection(bytes, section, std::move(mutated));
        WriteFileBytes(path, corrupt);
        // Returning at all is the assertion: OK or a Status, never a crash.
        auto stream_or = StreamingMiner::RestoreFromFile(
            path, config, /*executor=*/nullptr, /*registry=*/nullptr);
        auto merged_or = persist::MergeCheckpoints({&path, 1});
        auto described_or = persist::DescribeCheckpoint(
            CheckpointReader::Parse(corrupt).ValueOrDie(), true);
        restored += stream_or.ok() ? 1 : 0;
        (void)merged_or;
        (void)described_or;
        ++trials;
      }
    }
  }
  std::remove(path.c_str());
  // Some flips land in values any bit pattern is valid for, others in
  // structure the decoders refuse: the sweep must see both.
  EXPECT_GT(restored, 0u);
  EXPECT_LT(restored, trials);
}

// Byte offsets, within a builder-section payload, of three CF masses: the
// own-part and the next part's image of the first ACF on the wire, and the
// first internal child CF. Walks the codec's layout (codec.cc); interval
// parts only.
struct MassFields {
  size_t own = 0;
  size_t foreign = 0;
  size_t internal = 0;
};

MassFields FindMassFields(const std::string& payload) {
  WireReader r(payload);
  MassFields fields;
  bool have_acf = false, have_internal = false;
  auto cf = [&]() -> size_t {  // offset of the CF's mass
    EXPECT_NE(*r.U8(), static_cast<uint8_t>(MetricKind::kDiscrete));
    const uint32_t dim = *r.U32();
    const size_t mass_at = payload.size() - r.remaining();
    (void)r.I64();
    for (uint32_t k = 0; k < 4 * dim; ++k) (void)r.F64();
    return mass_at;
  };
  auto acf = [&] {
    const uint32_t own = *r.U32();
    const uint32_t images = *r.U32();
    for (uint32_t p = 0; p < images; ++p) {
      const size_t mass_at = cf();
      if (have_acf) continue;
      if (p == own) fields.own = mass_at;
      if (p == (own + 1) % images) fields.foreign = mass_at;
    }
    have_acf = true;
  };
  std::function<void()> node = [&] {
    const bool leaf = *r.U8() != 0;
    const uint32_t count = *r.U32();
    for (uint32_t i = 0; i < count; ++i) {
      if (leaf) {
        acf();
        continue;
      }
      const size_t mass_at = cf();
      if (!have_internal) fields.internal = mass_at;
      have_internal = true;
      node();
    }
  };
  (void)r.I64();  // rows_added
  const uint32_t trees = *r.U32();
  for (uint32_t t = 0; t < trees; ++t) {
    // Blob length, then the 92 bytes of options and counters.
    (void)r.U64();
    for (int i = 0; i < 92; ++i) (void)r.U8();
    // The paged-out and the confirmed outliers, then the root.
    for (int buffer = 0; buffer < 2; ++buffer) {
      const uint32_t count = *r.U32();
      for (uint32_t i = 0; i < count; ++i) acf();
    }
    node();
  }
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(have_acf && have_internal);
  return fields;
}

TEST_F(FaultInjectionTest, ZeroAndUnequalMassesAreRefused) {
  // Behind valid CRCs: an ACF whose own mass is 0, an ACF whose foreign
  // image is one tuple heavier than its own part, and an internal CF of
  // mass 0. Each used to restore, then abort the process in the first
  // distance computed from it.
  auto reader = CheckpointReader::Parse(*bytes_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const std::string builder(*reader->Section(SectionId::kBuilder));
  const MassFields fields = FindMassFields(builder);
  if (HasFailure()) return;
  auto with_mass = [&](size_t at, int64_t mass) {
    WireWriter w;
    w.I64(mass);
    std::string mutated = builder;
    mutated.replace(at, 8, w.bytes());
    return WithSection(*bytes_, SectionId::kBuilder, std::move(mutated));
  };
  auto mass_at = [&](size_t at) {
    WireReader r(std::string_view(builder).substr(at, 8));
    return *r.I64();
  };
  const std::string path = testutil::TempPath("mass.ckpt");
  for (const std::string& corrupt :
       {with_mass(fields.own, 0),
        with_mass(fields.foreign, mass_at(fields.foreign) + 1),
        with_mass(fields.internal, 0)}) {
    WriteFileBytes(path, corrupt);
    auto restored = StreamingMiner::RestoreFromFile(
        path, TestConfig(), /*executor=*/nullptr, /*registry=*/nullptr);
    ASSERT_FALSE(restored.ok());
    EXPECT_TRUE(restored.status().IsInvalidArgument()) << restored.status();
    EXPECT_NE(restored.status().message().find("mass"), std::string::npos)
        << restored.status();
    auto merged = persist::MergeCheckpoints({&path, 1});
    ASSERT_FALSE(merged.ok());
    EXPECT_TRUE(merged.status().IsInvalidArgument()) << merged.status();
    EXPECT_NE(merged.status().message().find("mass"), std::string::npos)
        << merged.status();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dar
