#include "persist/checkpoint_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "persist/wire.h"

namespace dar::persist {

std::string_view SectionName(uint32_t id) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kConfig:
      return "config";
    case SectionId::kSchema:
      return "schema";
    case SectionId::kPartition:
      return "partition";
    case SectionId::kDictionaries:
      return "dictionaries";
    case SectionId::kStreamState:
      return "stream_state";
    case SectionId::kBuilder:
      return "builder";
    case SectionId::kSnapshot:
      return "snapshot";
    case SectionId::kShards:
      return "shards";
    case SectionId::kRetainedRows:
      return "retained_rows";
  }
  return "unknown";
}

void CheckpointWriter::AddSection(SectionId id, std::string payload) {
  sections_.push_back({static_cast<uint32_t>(id), std::move(payload)});
}

void CheckpointWriter::Emit(
    const std::function<void(std::string_view)>& sink) const {
  WireWriter header;
  header.Raw(std::string_view(kCheckpointMagic, sizeof(kCheckpointMagic)));
  header.U32(kFormatVersion);
  header.U32(static_cast<uint32_t>(sections_.size()));
  header.U32(Crc32(header.bytes()));
  sink(header.bytes());
  for (const Section& s : sections_) {
    // The section CRC (format v2) covers the serialized id + length header
    // and the payload, so corruption of the framing itself is detected —
    // not just payload bit flips.
    WireWriter frame;
    frame.U32(s.id);
    frame.U64(s.payload.size());
    const uint32_t crc = Crc32(s.payload, Crc32(frame.bytes()));
    sink(frame.bytes());
    sink(s.payload);
    frame.Clear();
    frame.U32(crc);
    sink(frame.bytes());
  }
}

std::string CheckpointWriter::Serialize() const {
  std::string bytes;
  Emit([&bytes](std::string_view piece) { bytes.append(piece); });
  return bytes;
}

Status CheckpointWriter::WriteToFile(const std::string& path,
                                     size_t* bytes_written) const {
  const std::string tmp = path + ".tmp";
  size_t size = 0;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open '" + tmp + "' for writing");
    }
    Emit([&](std::string_view piece) {
      out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
      size += piece.size();
    });
    out.close();
    if (!out.good()) {
      std::remove(tmp.c_str());
      return Status::IOError("write to '" + tmp + "' failed");
    }
  }
  // rename(2) within a filesystem is atomic: readers observe either the
  // previous checkpoint or the complete new one, never a prefix.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  if (bytes_written != nullptr) *bytes_written = size;
  return Status::OK();
}

Result<CheckpointReader> CheckpointReader::Parse(std::string bytes) {
  CheckpointReader reader;
  reader.bytes_ = std::move(bytes);
  const std::string_view data = reader.bytes_;

  if (data.size() < kHeaderBytes) {
    return Status::InvalidArgument(
        "not a DAR checkpoint: " + std::to_string(data.size()) +
        " bytes is shorter than the " + std::to_string(kHeaderBytes) +
        "-byte header");
  }
  if (data.substr(0, sizeof(kCheckpointMagic)) !=
      std::string_view(kCheckpointMagic, sizeof(kCheckpointMagic))) {
    return Status::InvalidArgument("not a DAR checkpoint (bad magic)");
  }

  WireReader header(data.substr(sizeof(kCheckpointMagic),
                                kHeaderBytes - sizeof(kCheckpointMagic)));
  DAR_ASSIGN_OR_RETURN(uint32_t version, header.U32());
  DAR_ASSIGN_OR_RETURN(uint32_t section_count, header.U32());
  DAR_ASSIGN_OR_RETURN(uint32_t header_crc, header.U32());
  if (Crc32(data.substr(0, 16)) != header_crc) {
    return Status::InvalidArgument(
        "checkpoint header CRC mismatch (corrupted header)");
  }
  if (version > kFormatVersion) {
    return Status::InvalidArgument(
        "checkpoint format_version " + std::to_string(version) +
        " is newer than supported version " + std::to_string(kFormatVersion) +
        " — upgrade the library to read this file");
  }
  if (version == 0) {
    return Status::InvalidArgument("checkpoint format_version 0 is invalid");
  }
  reader.format_version_ = version;

  WireReader body(data.substr(kHeaderBytes));
  size_t offset = kHeaderBytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t section_start = offset;
    DAR_ASSIGN_OR_RETURN(uint32_t id, body.U32());
    DAR_ASSIGN_OR_RETURN(uint64_t len, body.U64());
    offset += 12;
    if (len > body.remaining()) {
      return Status::InvalidArgument(
          "checkpoint truncated: section " + std::to_string(id) + " (" +
          std::string(SectionName(id)) + ") claims " + std::to_string(len) +
          " payload bytes but only " + std::to_string(body.remaining()) +
          " remain");
    }
    DAR_ASSIGN_OR_RETURN(WireReader payload,
                         body.Slice(static_cast<size_t>(len)));
    (void)payload;
    DAR_ASSIGN_OR_RETURN(uint32_t crc, body.U32());
    // Format v2 guards the section header (id + length) too; v1 covered
    // the payload only, so a flipped id bit could demote a known section
    // to an ignorable unknown one without tripping any check.
    const std::string_view crc_bytes =
        version >= 2
            ? data.substr(section_start, 12 + static_cast<size_t>(len))
            : data.substr(offset, static_cast<size_t>(len));
    if (Crc32(crc_bytes) != crc) {
      return Status::InvalidArgument(
          "checkpoint section " + std::to_string(id) + " (" +
          std::string(SectionName(id)) + ") failed its CRC check "
          "(corrupted section)");
    }
    for (uint32_t seen : reader.section_ids_) {
      if (seen == id) {
        return Status::InvalidArgument(
            "checkpoint contains duplicate section " + std::to_string(id) +
            " (" + std::string(SectionName(id)) + ")");
      }
    }
    reader.section_ids_.push_back(id);
    reader.spans_.emplace_back(offset, static_cast<size_t>(len));
    offset += static_cast<size_t>(len) + 4;
  }
  if (body.remaining() != 0) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(body.remaining()) +
        " trailing bytes after the last section");
  }
  return reader;
}

Result<CheckpointReader> CheckpointReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open checkpoint '" + path +
                           "' for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read of checkpoint '" + path + "' failed");
  }
  auto parsed = Parse(std::move(buf).str());
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  "'" + path + "': " + parsed.status().message());
  }
  return parsed;
}

bool CheckpointReader::HasSection(SectionId id) const {
  for (uint32_t seen : section_ids_) {
    if (seen == static_cast<uint32_t>(id)) return true;
  }
  return false;
}

Result<std::string_view> CheckpointReader::Section(SectionId id) const {
  for (size_t i = 0; i < section_ids_.size(); ++i) {
    if (section_ids_[i] == static_cast<uint32_t>(id)) {
      return std::string_view(bytes_).substr(spans_[i].first,
                                             spans_[i].second);
    }
  }
  return Status::NotFound("checkpoint has no '" +
                          std::string(SectionName(static_cast<uint32_t>(id))) +
                          "' section");
}

}  // namespace dar::persist
