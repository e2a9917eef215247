#include "persist/wire.h"

#include <array>
#include <cstring>

namespace dar::persist {

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

Status WireReader::Need(size_t n, const char* what) const {
  if (remaining() < n) {
    return Status::OutOfRange(
        std::string("short read: need ") + std::to_string(n) + " bytes for " +
        what + ", have " + std::to_string(remaining()));
  }
  return Status::OK();
}

Result<uint8_t> WireReader::U8() {
  DAR_RETURN_IF_ERROR(Need(1, "u8"));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> WireReader::U32() {
  DAR_RETURN_IF_ERROR(Need(4, "u32"));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> WireReader::U64() {
  DAR_RETURN_IF_ERROR(Need(8, "u64"));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int32_t> WireReader::I32() {
  DAR_ASSIGN_OR_RETURN(uint32_t v, U32());
  return static_cast<int32_t>(v);
}

Result<int64_t> WireReader::I64() {
  DAR_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> WireReader::F64() {
  DAR_ASSIGN_OR_RETURN(uint64_t v, U64());
  return std::bit_cast<double>(v);
}

Result<std::string> WireReader::Str() {
  DAR_ASSIGN_OR_RETURN(uint32_t len, U32());
  DAR_RETURN_IF_ERROR(Need(len, "string body"));
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

Result<size_t> WireReader::Count(size_t min_bytes_each, const char* what,
                                 uint32_t cap) {
  DAR_ASSIGN_OR_RETURN(const uint32_t count, U32());
  if (count > cap) {
    return Status::InvalidArgument(std::string(what) + " count " +
                                   std::to_string(count) +
                                   " exceeds the cap of " +
                                   std::to_string(cap));
  }
  if (static_cast<uint64_t>(count) * min_bytes_each > remaining()) {
    return Status::OutOfRange(
        std::string(what) + " count " + std::to_string(count) +
        " cannot fit in the " + std::to_string(remaining()) +
        " remaining bytes");
  }
  return static_cast<size_t>(count);
}

Result<WireReader> WireReader::Slice(size_t len) {
  DAR_RETURN_IF_ERROR(Need(len, "sub-block"));
  WireReader sub(data_.substr(pos_, len));
  pos_ += len;
  return sub;
}

Status WireReader::ExpectEnd(std::string_view what) const {
  if (remaining() != 0) {
    return Status::InvalidArgument(
        std::string(what) + ": " + std::to_string(remaining()) +
        " trailing bytes after the last field");
  }
  return Status::OK();
}

Status FieldReader::End(std::string_view what) const {
  if (!status_.ok()) {
    return {status_.code(), std::string(what) + ": " + status_.message()};
  }
  return r_.ExpectEnd(what);
}

namespace {

// Table-driven CRC-32 (reflected 0xEDB88320, init/xorout 0xFFFFFFFF) —
// matches zlib's crc32(), so standard tools can verify checkpoint CRCs.
std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t crc) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  crc ^= 0xFFFFFFFFu;
  for (char ch : data) {
    crc = kTable[(crc ^ static_cast<uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace dar::persist
