#ifndef DAR_PERSIST_WIRE_H_
#define DAR_PERSIST_WIRE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace dar::persist {

/// Little-endian append-only encoder for the checkpoint wire format.
///
/// Every multi-byte value is written least-significant byte first,
/// independent of host endianness, so a checkpoint written on any machine
/// reads back on any other. Doubles are written as the raw IEEE-754 bit
/// pattern (via bit_cast to uint64_t): a round-trip reproduces the exact
/// bits, which is what makes restored summaries re-mine to bit-identical
/// rules (Thm 6.1 holds for the *exact* CF sums, not approximations).
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  /// u32 byte length followed by the raw bytes.
  void Str(std::string_view s);
  /// Raw bytes, no length prefix (for pre-encoded sub-blobs).
  void Raw(std::string_view s) { buf_.append(s); }

  /// Sizes the buffer for `n` bytes up front, for encoders that know
  /// their output size.
  void Reserve(size_t n) { buf_.reserve(n); }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] size_t size() const { return buf_.size(); }
  [[nodiscard]] std::string Take() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, so one writer can encode
  /// a stream of messages (e.g. dar::serve response frames) without
  /// reallocating per message.
  void Clear() { buf_.clear(); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range.
///
/// Every read returns a Result and fails with OutOfRange instead of
/// reading past the end — a truncated or bit-flipped checkpoint must
/// surface as a clean Status, never as UB. The underlying bytes must
/// outlive the reader.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int32_t> I32();
  Result<int64_t> I64();
  Result<double> F64();
  /// Reads a u32 length prefix, then that many bytes.
  Result<std::string> Str();

  /// Reads a u32 element count and refuses counts that could not fit in
  /// the remaining bytes (each element needs >= `min_bytes_each`), so a
  /// corrupt count can never trigger a huge allocation. Fails OutOfRange
  /// naming `what`.
  Result<size_t> Count(size_t min_bytes_each, const char* what);

  /// Splits off a sub-reader over the next `len` bytes and advances past
  /// them; fails when fewer than `len` bytes remain.
  Result<WireReader> Slice(size_t len);

  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }

  /// Fails with InvalidArgument naming `what` when bytes remain — catches
  /// payloads with trailing garbage that still pass their CRC length.
  [[nodiscard]] Status ExpectEnd(std::string_view what) const;

 private:
  // OutOfRange unless `n` more bytes are available.
  [[nodiscard]] Status Need(size_t n, const char* what) const;

  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant), implemented
/// locally so dar_persist has no external dependency. `crc` continues a
/// running CRC, as zlib's crc32() does: Crc32(b, Crc32(a)) == Crc32(a + b),
/// so a container can be checksummed piece by piece as it is written.
[[nodiscard]] uint32_t Crc32(std::string_view data, uint32_t crc = 0);

}  // namespace dar::persist

#endif  // DAR_PERSIST_WIRE_H_
