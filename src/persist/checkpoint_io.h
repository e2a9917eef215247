#ifndef DAR_PERSIST_CHECKPOINT_IO_H_
#define DAR_PERSIST_CHECKPOINT_IO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dar::persist {

/// Checkpoint container format, version 2 (all integers little-endian):
///
///     offset 0   8 bytes   magic "DARCKPT\0"
///     offset 8   u32       format_version
///     offset 12  u32       section_count
///     offset 16  u32       CRC-32 of bytes [0, 16)   (header CRC)
///     offset 20  sections, back to back:
///                  u32  section id
///                  u64  payload length
///                  ...  payload bytes
///                  u32  CRC-32 of the section — the 12 header bytes
///                       (id + length, as serialized) followed by the
///                       payload bytes
///
/// Version 1 differed only in the section CRC: it covered the payload
/// bytes alone, leaving the id and length fields unguarded — a bit flip
/// in an optional section's id could silently turn it into an unknown
/// (skipped) section. Version-1 files are still read; new files are
/// always written as version 2.
///
/// Sections are independently CRC-guarded and length-prefixed, so a reader
/// can verify and skip sections it does not understand; ids it has never
/// heard of are tolerated (forward-compatible additions), but a
/// format_version above the library's is refused outright (the framing
/// itself may have changed).
///
/// Threading: CheckpointWriter and CheckpointReader are deliberately
/// lock-free by CONFINEMENT — each instance belongs to one thread (the
/// stream's writer thread, or whoever calls Open). They hold no mutex and
/// no guarded state, so the thread-safety analysis has nothing to check
/// here; sharing an instance across threads without external
/// synchronization is a caller bug, not a supported mode.
inline constexpr char kCheckpointMagic[8] = {'D', 'A', 'R', 'C',
                                             'K', 'P', 'T', '\0'};
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr size_t kHeaderBytes = 20;

/// Well-known section ids. Values are part of the on-disk format — never
/// renumber; add new ids for new content.
enum class SectionId : uint32_t {
  kConfig = 1,        // DarConfig the checkpoint was taken under
  kSchema = 2,        // relation schema (attribute names + kinds)
  kPartition = 3,     // attribute partitioning (columns + metrics)
  kDictionaries = 4,  // nominal-column label dictionaries
  kStreamState = 5,   // StreamingMiner counters + StreamConfig
  kBuilder = 6,       // Phase1Builder state: per-part ACF-trees
  kSnapshot = 7,      // last published RuleSnapshot (optional)
  kShards = 8,        // shard provenance: (shard_id, rows) per input shard
  kRetainedRows = 9,  // tuples retained for the support post-scan (optional)
};

[[nodiscard]] std::string_view SectionName(uint32_t id);

/// Accumulates sections and writes the container atomically: the bytes go
/// to `<path>.tmp` first and are renamed over `path` only after a clean
/// close, so a crash mid-write never leaves a half-written checkpoint
/// where a reader expects a valid one.
class CheckpointWriter {
 public:
  /// Appends one section. Ids may repeat across calls only by caller
  /// error; CheckpointReader refuses duplicate ids.
  void AddSection(SectionId id, std::string payload);

  /// The complete container image (header + sections).
  [[nodiscard]] std::string Serialize() const;

  /// Writes the same bytes as Serialize() atomically (write tmp,
  /// fsync-free rename). The header and each section go straight to the
  /// file, so no second copy of the payloads is built in memory.
  /// `bytes_written`, when non-null, receives the container size.
  [[nodiscard]] Status WriteToFile(const std::string& path,
                                   size_t* bytes_written = nullptr) const;

 private:
  struct Section {
    uint32_t id;
    std::string payload;
  };

  // Hands the container image to `sink` piece by piece, in file order.
  void Emit(const std::function<void(std::string_view)>& sink) const;

  std::vector<Section> sections_;
};

/// Parses and verifies a checkpoint container. Every corruption mode —
/// truncation, bit flips, bad magic, future version, duplicate or
/// oversized sections, trailing bytes — is a descriptive error Status;
/// a CheckpointReader that parsed successfully guarantees every section
/// payload matched its CRC. The section *contents* are still untrusted
/// (a CRC protects against accidental corruption, not encoding bugs), so
/// the per-type decoders bounds-check everything again.
class CheckpointReader {
 public:
  /// Parses an in-memory container image (takes ownership of the bytes).
  static Result<CheckpointReader> Parse(std::string bytes);

  /// Reads and parses `path`.
  static Result<CheckpointReader> Open(const std::string& path);

  [[nodiscard]] uint32_t format_version() const { return format_version_; }

  [[nodiscard]] bool HasSection(SectionId id) const;

  /// The verified payload of section `id`; NotFound when absent. The view
  /// borrows from this reader and is invalidated with it.
  [[nodiscard]] Result<std::string_view> Section(SectionId id) const;

  /// Ids in file order (duplicates impossible after a successful Parse).
  [[nodiscard]] const std::vector<uint32_t>& section_ids() const {
    return section_ids_;
  }

  [[nodiscard]] size_t total_bytes() const { return bytes_.size(); }

 private:
  CheckpointReader() = default;

  std::string bytes_;
  uint32_t format_version_ = 0;
  std::vector<uint32_t> section_ids_;  // file order
  // Parallel to section_ids_: (offset, length) of each verified payload.
  std::vector<std::pair<size_t, size_t>> spans_;
};

}  // namespace dar::persist

#endif  // DAR_PERSIST_CHECKPOINT_IO_H_
