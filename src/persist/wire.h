#ifndef DAR_PERSIST_WIRE_H_
#define DAR_PERSIST_WIRE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

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

  /// Reads a u32 element count and refuses counts above `cap`
  /// (InvalidArgument) or that could not fit in the remaining bytes (each
  /// element needs >= `min_bytes_each`; OutOfRange), so a corrupt count can
  /// never trigger a huge allocation. A refusal names `what`.
  Result<size_t> Count(size_t min_bytes_each, const char* what,
                       uint32_t cap = std::numeric_limits<uint32_t>::max());

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

// ---------------------------------------------------------------------------
// Field lists. A flat record's layout is one function template that names
// each field once, in wire order, and hands it to a visitor:
//
//   template <class V, class S>  // S: ShardInfo, const when encoding
//   void ShardFields(V&& v, S& s) {
//     v("shard_id", s.shard_id);
//     v("rows", s.rows);
//   }
//
// FieldWriter walks a list to encode one record, FieldReader to decode one;
// codecs add visitors that print one. A list that two records walk at once,
// to compare them, takes a pack (`C&... c`, `c.field...`). A field's C++
// type picks its wire form, written by WriteField and read by ReadField:
//   bool, enum E   u8 in [0, WireEnum<E>::value], so 0 or 1 for a bool;
//                  any other byte is InvalidArgument
//   integers       u8 (unsigned), u32 or u64 by width; size_t is u64
//   double         f64, the IEEE-754 bits;   std::string  Str
//   std::vector    u32 count, refused past the bytes left (Count), then
//                  the elements
// `v.Records(what, bound, records, each)` is a u32 count, bounded on decode
// by `bound`, then each record through `each`, its own short list.
// `if (!v.Tail()) return;` starts fields older writers lack: always
// written, read only while bytes remain.

static_assert(sizeof(size_t) == 8, "records carry size_t fields as u64");

/// Specialized for each enum a record carries, as
/// std::integral_constant<E, its last enumerator>; the first is 0.
template <class E>
struct WireEnum;
template <>
struct WireEnum<bool> : std::true_type {};

template <class T>
void WriteField(WireWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    w.F64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.Str(v);
  } else if constexpr (std::is_enum_v<T> || sizeof(T) == 1) {
    w.U8(static_cast<uint8_t>(v));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
    w.U32(static_cast<uint32_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    w.U64(static_cast<uint64_t>(v));
  } else {
    w.U32(static_cast<uint32_t>(v.size()));
    for (const auto& element : v) WriteField(w, element);
  }
}

/// Reads one field into `out`; a refusal names `name`.
template <class T>
Status ReadField(WireReader& r, const char* name, T& out) {
  if constexpr (std::is_same_v<T, double>) {
    DAR_ASSIGN_OR_RETURN(out, r.F64());
  } else if constexpr (std::is_same_v<T, std::string>) {
    DAR_ASSIGN_OR_RETURN(out, r.Str());
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    constexpr auto kLast = static_cast<uint8_t>(WireEnum<T>::value);
    DAR_ASSIGN_OR_RETURN(const uint8_t raw, r.U8());
    if (raw > kLast) {
      return Status::InvalidArgument(std::string(name) + ": byte " +
                                     std::to_string(raw) + " is not in [0, " +
                                     std::to_string(kLast) + "]");
    }
    out = static_cast<T>(raw);
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
    DAR_ASSIGN_OR_RETURN(out, r.U8());
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
    DAR_ASSIGN_OR_RETURN(const uint32_t raw, r.U32());
    out = static_cast<T>(raw);
  } else if constexpr (std::is_integral_v<T>) {
    DAR_ASSIGN_OR_RETURN(const uint64_t raw, r.U64());
    out = static_cast<T>(raw);
  } else {
    // A number's floor is its width, a string's or vector's its prefix.
    using Element = typename T::value_type;
    constexpr size_t kMinBytes =
        std::is_enum_v<Element> || std::is_same_v<Element, bool>
            ? 1
            : (std::is_arithmetic_v<Element> ? sizeof(Element) : 4);
    DAR_ASSIGN_OR_RETURN(const size_t count, r.Count(kMinBytes, name));
    out.clear();
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      DAR_RETURN_IF_ERROR(ReadField(r, name, out.emplace_back()));
    }
  }
  return Status::OK();
}

/// Bounds a record count on decode, before anything is reserved: by `cap`
/// (InvalidArgument), then by the bytes left at `min_bytes_each` per record
/// (OutOfRange). Both always apply; a list without a page cap keeps the
/// widest one, which no u32 count exceeds.
struct CountBound {
  size_t min_bytes_each;
  uint32_t cap = std::numeric_limits<uint32_t>::max();
};

/// Encodes one record: `Fields(FieldWriter(w), record)`.
class FieldWriter {
 public:
  explicit FieldWriter(WireWriter& w) : w_(w) {}

  template <class T>
  void operator()(const char* /*name*/, const T& field) {
    WriteField(w_, field);
  }
  template <class Seq, class Each>
  void Records(const char* /*what*/, CountBound /*bound*/, const Seq& records,
               Each&& each) {
    w_.U32(static_cast<uint32_t>(records.size()));
    for (const auto& record : records) each(record);
  }
  static bool Tail() { return true; }

 private:
  WireWriter& w_;
};

/// Decodes one record: `Fields(reader, record)`, then status() or End().
/// The first refusal is kept and every later field skipped, so a list
/// needs no error handling of its own. Records are cleared and refilled,
/// reusing their capacity.
class FieldReader {
 public:
  explicit FieldReader(WireReader& r) : r_(r) {}

  template <class T>
  void operator()(const char* name, T& field) {
    if (status_.ok()) status_ = ReadField(r_, name, field);
  }
  template <class Seq, class Each>
  void Records(const char* what, CountBound bound, Seq& records,
               Each&& each) {
    records.clear();
    if (!status_.ok()) return;
    const Result<size_t> count =
        r_.Count(bound.min_bytes_each, what, bound.cap);
    status_ = count.status();
    if (!status_.ok()) return;
    records.reserve(*count);
    for (size_t i = 0; i < *count && status_.ok(); ++i) {
      each(records.emplace_back());
    }
  }
  /// True, and remembered by read_tail(), while no refusal and bytes left.
  bool Tail() { return read_tail_ = status_.ok() && r_.remaining() > 0; }
  [[nodiscard]] bool read_tail() const { return read_tail_; }

  [[nodiscard]] const Status& status() const { return status_; }
  /// The first refusal, "what: " in front of its message; else
  /// ExpectEnd(what).
  [[nodiscard]] Status End(std::string_view what) const;

 private:
  WireReader& r_;
  Status status_;
  bool read_tail_ = false;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant), implemented
/// locally so dar_persist has no external dependency. `crc` continues a
/// running CRC, as zlib's crc32() does: Crc32(b, Crc32(a)) == Crc32(a + b),
/// so a container can be checksummed piece by piece as it is written.
[[nodiscard]] uint32_t Crc32(std::string_view data, uint32_t crc = 0);

}  // namespace dar::persist

#endif  // DAR_PERSIST_WIRE_H_
