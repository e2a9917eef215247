// The checkpoint inspector (persist::DescribeCheckpoint, printed by
// tools/dar_ckpt): its text over a deterministic fixture must match the
// golden file byte for byte, it must show the sections only some
// checkpoints carry (merged, quality, unknown ids, format version 1), and
// every corruption must surface as a Status naming the problem.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "persist/checkpoint_io.h"
#include "persist/codec.h"
#include "persist/merge.h"
#include "persist/wire.h"
#include "stream/streaming_miner.h"
#include "test_util.h"

namespace dar {
namespace {

using persist::CheckpointReader;
using persist::CheckpointWriter;
using persist::SectionId;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// The fixture is tiny and integer-valued: two planted co-occurrence
// patterns, 32 tuples each, over two interval attributes and one nominal
// one — (X near 0, Y near 64, low) and (X near 64, Y near 0, high). Every
// serialized double is then an exact binary value, so the checkpoint's
// structure (cluster counts, tree shapes, rule counts) is identical on
// every IEEE-754 platform.
struct Fixture {
  Schema schema;
  AttributePartition partition;
  std::vector<Dictionary> dictionaries;
  Relation relation;
};

Fixture MakeFixture() {
  Fixture f;
  f.schema = Schema::Make({{"X", AttributeKind::kInterval},
                           {"Y", AttributeKind::kInterval},
                           {"Color", AttributeKind::kNominal}})
                 .ValueOrDie();
  f.partition = AttributePartition::Make(
                    f.schema, {{{"X"}, MetricKind::kEuclidean},
                               {{"Y"}, MetricKind::kEuclidean},
                               {{"Color"}, MetricKind::kDiscrete}})
                    .ValueOrDie();
  // "low"/"high" encode to 0.0/1.0; the dictionary rides along in the
  // checkpoint so its section is non-empty.
  f.dictionaries.resize(1);
  const double low = f.dictionaries[0].Encode("low");
  const double high = f.dictionaries[0].Encode("high");
  f.relation = Relation(f.schema);
  for (int i = 0; i < 32; ++i) {
    const double jitter = i % 4;
    EXPECT_TRUE(f.relation.AppendRow({jitter, 64.0 + jitter, low}).ok());
    EXPECT_TRUE(f.relation.AppendRow({64.0 + jitter, jitter, high}).ok());
  }
  return f;
}

DarConfig FixtureConfig() {
  DarConfig config;
  config.frequency_fraction = 0.25;
  config.initial_diameters = {8.0, 8.0, 0.5};
  config.degree_threshold = 16.0;
  return config;
}

// Streams fixture rows [begin, end) under `config`, publishes one snapshot
// when `remine` is set, and saves a checkpoint carrying the dictionaries.
std::string SaveFixture(const std::string& name, const DarConfig& config,
                        StreamConfig stream_config, bool remine = true,
                        size_t begin = 0, size_t end = 64) {
  const Fixture f = MakeFixture();
  auto session = Session::Builder().WithConfig(config).Build();
  EXPECT_TRUE(session.ok()) << session.status();
  stream_config.remine_every_rows = 0;  // publish manually below
  auto stream = session->OpenStream(f.schema, f.partition, stream_config);
  EXPECT_TRUE(stream.ok()) << stream.status();
  for (size_t r = begin; r < end; ++r) {
    EXPECT_TRUE((*stream)->IngestRow(f.relation.Row(r)).ok());
  }
  if (remine) {
    EXPECT_TRUE((*stream)->Remine().ok());
  }
  const std::string path = testutil::TempPath(name);
  EXPECT_TRUE(session->SaveCheckpoint(**stream, path, f.dictionaries).ok());
  return path;
}

// The golden fixture: shard id 3 pins the shards section.
std::string SaveGoldenFixture() {
  StreamConfig stream_config;
  stream_config.shard_id = 3;
  return SaveFixture("golden.darckpt", FixtureConfig(), stream_config);
}

Result<std::string> Describe(const std::string& bytes, bool show_floats) {
  DAR_ASSIGN_OR_RETURN(CheckpointReader reader,
                       CheckpointReader::Parse(bytes));
  return persist::DescribeCheckpoint(reader, show_floats);
}

std::string Golden() { return ReadFile(DAR_CKPT_GOLDEN); }

TEST(DarCkptTest, GoldenFixtureOutput) {
  const std::string path = SaveGoldenFixture();
  auto reader = CheckpointReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto text = persist::DescribeCheckpoint(*reader, /*show_floats=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(*text, Golden());
  std::remove(path.c_str());
}

TEST(DarCkptTest, FloatsPrintInShortestRoundTripForm) {
  const std::string path = SaveGoldenFixture();
  auto text = Describe(ReadFile(path), /*show_floats=*/true);
  ASSERT_TRUE(text.ok()) << text.status();
  for (const char* line :
       {"  frequency_fraction: 0.25\n",
        "  initial_diameters: [8.0, 8.0, 0.5]\n", "  degree_threshold: 16.0\n",
        "  prune_min_overlap: 0.5\n", "  drift_degree_tolerance: 0.05\n"}) {
    EXPECT_NE(text->find(line), std::string::npos) << line << *text;
  }
  std::remove(path.c_str());
}

TEST(DarCkptTest, MergedCheckpointHasOneShardPerInputAndNoStreamState) {
  std::vector<std::string> shards;
  for (int64_t s = 0; s < 2; ++s) {
    StreamConfig stream_config;
    stream_config.shard_id = s;
    shards.push_back(SaveFixture("shard" + std::to_string(s) + ".darckpt",
                                 FixtureConfig(), stream_config,
                                 /*remine=*/false, 32 * s, 32 * (s + 1)));
  }
  auto merged = persist::MergeCheckpoints(shards);
  ASSERT_TRUE(merged.ok()) << merged.status();
  const std::string path = testutil::TempPath("merged.darckpt");
  ASSERT_TRUE(persist::WriteMergedCheckpoint(*merged, path).ok());

  auto text = Describe(ReadFile(path), /*show_floats=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(text->find("section stream_state"), std::string::npos) << *text;
  EXPECT_EQ(text->find("section snapshot"), std::string::npos) << *text;
  EXPECT_NE(text->find("  rows_added: 64\n"), std::string::npos) << *text;
  EXPECT_NE(text->find("  shards: 2\n    [0] id=0 rows=32\n"
                       "    [1] id=1 rows=32\n"),
            std::string::npos)
      << *text;
  EXPECT_TRUE(text->ends_with("\nok\n"));
  for (const std::string& shard : shards) std::remove(shard.c_str());
  std::remove(path.c_str());
}

TEST(DarCkptTest, QualityCheckpointShowsRetainedRowsAndMeasures) {
  DarConfig config = FixtureConfig();
  config.count_rule_support = true;
  StreamConfig stream_config;
  stream_config.score_measures = {"support", "lift"};
  stream_config.prune_redundant = true;
  stream_config.diff_snapshots = true;
  const std::string path =
      SaveFixture("quality.darckpt", config, stream_config);

  auto text = Describe(ReadFile(path), /*show_floats=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("  count_rule_support: True\n"), std::string::npos);
  EXPECT_NE(text->find("  score_measures: ['support', 'lift']\n"
                       "  prune_redundant: True\n"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("  diff_snapshots: True\n"), std::string::npos);
  EXPECT_NE(text->find("section retained_rows (id=9, 1552 bytes)\n"
                       "  rows: 64\n  cols: 3\n"),
            std::string::npos)
      << *text;
  std::remove(path.c_str());
}

TEST(DarCkptTest, UnknownSectionIsListedAsSkipped) {
  const std::string path = SaveGoldenFixture();
  auto reader = CheckpointReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  CheckpointWriter writer;
  for (uint32_t id : reader->section_ids()) {
    const auto section = static_cast<SectionId>(id);
    writer.AddSection(section, std::string(*reader->Section(section)));
  }
  writer.AddSection(static_cast<SectionId>(42), "future");

  auto text = Describe(writer.Serialize(), /*show_floats=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  std::string expected = Golden();
  expected.replace(expected.find("sections: 8"), 11, "sections: 9");
  expected.insert(expected.size() - 3,
                  "section unknown (id=42, 6 bytes)\n"
                  "  (unknown section, skipped)\n");
  EXPECT_EQ(*text, expected);
  std::remove(path.c_str());
}

TEST(DarCkptTest, FormatVersion1ContainerStillReads) {
  // Version 1 framing: the section CRC covers the payload bytes only.
  const std::string path = SaveGoldenFixture();
  auto reader = CheckpointReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  persist::WireWriter w;
  w.Raw(std::string_view(persist::kCheckpointMagic,
                         sizeof(persist::kCheckpointMagic)));
  w.U32(1);
  w.U32(static_cast<uint32_t>(reader->section_ids().size()));
  w.U32(persist::Crc32(std::string_view(w.bytes()).substr(0, 16)));
  for (uint32_t id : reader->section_ids()) {
    const std::string_view payload =
        *reader->Section(static_cast<SectionId>(id));
    w.U32(id);
    w.U64(payload.size());
    w.Raw(payload);
    w.U32(persist::Crc32(payload));
  }

  auto text = Describe(std::move(w).Take(), /*show_floats=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  std::string expected = Golden();
  expected.replace(0, std::string("format_version: 2").size(),
                   "format_version: 1");
  EXPECT_EQ(*text, expected);
  std::remove(path.c_str());
}

TEST(DarCkptTest, CorruptFilesNameTheProblem) {
  // The tool's failure exits: a flipped byte trips a CRC, a truncated file
  // is an error, and a file that is not a checkpoint fails its magic.
  const std::string path = SaveGoldenFixture();
  const std::string bytes = ReadFile(path);
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  const std::pair<std::string, std::string> cases[] = {
      {flipped, "CRC"},
      {bytes.substr(0, bytes.size() - 10), ""},
      {"this is a text file, not a DAR checkpoint\n", "magic"}};
  for (const auto& [corrupt, reason] : cases) {
    WriteFile(path, corrupt);
    auto reader = CheckpointReader::Open(path);
    ASSERT_FALSE(reader.ok()) << reason;
    EXPECT_NE(reader.status().message().find(reason), std::string::npos)
        << reader.status();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dar
