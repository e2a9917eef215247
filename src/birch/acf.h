#ifndef DAR_BIRCH_ACF_H_
#define DAR_BIRCH_ACF_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "birch/cf.h"
#include "common/result.h"
#include "relation/metric.h"

namespace dar {

/// Shape of one attribute set in an ACF layout.
struct PartSpec {
  size_t dim = 1;
  MetricKind metric = MetricKind::kEuclidean;
  std::string label;
};

/// The shapes of all attribute sets X_1..X_m of the user partitioning, shared
/// by every ACF of a mining run.
///
/// A tuple reaches the ACFs as one *flat row*: part 0's values, then part
/// 1's, and so on, each part's values in the order of its partition
/// columns ("layout order"). Part p's values start at offset(p) and take
/// parts[p].dim slots; the row holds row_width() values in all. Both are
/// computed from `parts`, so a layout is fully described by its parts.
struct AcfLayout {
  std::vector<PartSpec> parts;

  [[nodiscard]] size_t num_parts() const { return parts.size(); }

  /// Offset of part `p`'s values in a flat row; offset(num_parts()) is
  /// row_width().
  [[nodiscard]] size_t offset(size_t p) const;

  /// Values in a flat row: the sum of the part dimensions.
  [[nodiscard]] size_t row_width() const { return offset(parts.size()); }

  /// The bytes the ACF-tree's memory budget charges for one ACF under this
  /// layout (birch/budget.h; histogram sizes are estimated).
  [[nodiscard]] size_t ApproxAcfBytes() const;
};

/// True when two layouts describe the same shape: equal part counts and,
/// per part, equal dimension and metric (labels are cosmetic and ignored).
/// Summaries built under structurally equivalent layouts are additive even
/// when the layout objects live in different processes.
[[nodiscard]] bool LayoutsEquivalent(const AcfLayout& a, const AcfLayout& b);

/// A tuple projected per attribute set: values[i] are the tuple's
/// coordinates on part i. The convenient form for literals; the insert
/// paths take it as a one-row RowBlock.
using PartedRow = std::vector<std::vector<double>>;

/// Rows checked for the ACFs of one layout, the one form in which rows
/// reach them (AcfTree::InsertRows, Acf::AddRow): one pointer per flat-row
/// slot (AcfLayout), in layout order, each to a column whose values are
/// indexed by row, and the rows [begin(), end()) of those columns.
///
/// Only Make and FromPartedRow build a RowBlock, and they are the one
/// place where rows are checked: a RowBlock holds row_width() columns of
/// its layout, at most 2^32 rows (the ACFs queue row offsets as 32-bit
/// values) and values of magnitude at most 2^448 only (no NaN, no
/// infinity). The bound keeps every CF moment finite, so whatever a tree
/// absorbs its checkpoint restores (persist::DecodeTree refuses a
/// non-finite moment). A caller checks a batch once and hands the block
/// to every tree. The block points into the caller's columns
/// (and, for FromPartedRow, its pointer storage), which must outlive it
/// and stay unchanged while it is used.
class RowBlock {
 public:
  /// The rows [begin, end) of `columns`. InvalidArgument, and no block,
  /// when the column count is not layout.row_width(), the range is
  /// reversed or spans more than 2^32 rows, or a value is NaN or of
  /// magnitude above 2^448; the last names the part and row of the first
  /// such value, scanning the columns in layout order and each column by
  /// row.
  static Result<RowBlock> Make(const AcfLayout& layout,
                               std::span<const double* const> columns,
                               size_t begin, size_t end);

  /// The one-row block (row 0) of `row`: writes a pointer to each of its
  /// values, in layout order, to `storage` and checks them as Make does.
  /// InvalidArgument also when the part count or a part's dimension
  /// differs from the layout.
  static Result<RowBlock> FromPartedRow(const AcfLayout& layout,
                                        const PartedRow& row,
                                        std::vector<const double*>& storage);

  [[nodiscard]] std::span<const double* const> columns() const {
    return columns_;
  }
  [[nodiscard]] size_t begin() const { return begin_; }
  [[nodiscard]] size_t end() const { return end_; }

 private:
  RowBlock(std::span<const double* const> columns, size_t begin, size_t end)
      : columns_(columns), begin_(begin), end_(end) {}

  std::span<const double* const> columns_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

/// Association Clustering Feature (§6.1): the summary of a cluster *defined
/// on* one attribute set (`own_part`), extended with CF summaries of the
/// cluster's *image* on every other attribute set (Eq. 7). ACFs are additive
/// like CFs, and by the ACF Representativity Theorem (Thm 6.1) every
/// inter-cluster distance needed in Phase II — `D(C_Y[Y], C_X[Y])` for any
/// parts X, Y — is computable from ACFs alone, without rescanning data.
class Acf {
 public:
  Acf() = default;
  Acf(std::shared_ptr<const AcfLayout> layout, size_t own_part);

  [[nodiscard]] const AcfLayout& layout() const { return *layout_; }
  [[nodiscard]] std::shared_ptr<const AcfLayout> layout_ptr() const { return layout_; }
  [[nodiscard]] size_t own_part() const { return own_part_; }

  /// Number of tuples summarized.
  [[nodiscard]] int64_t n() const { return images_.empty() ? 0 : cf().n(); }

  /// The clustering feature on the cluster's own attribute set (Eq. 3).
  [[nodiscard]] const CfVector& cf() const { return images_[own_part_]; }

  /// The CF of the cluster's image on part `p` (Eq. 7); `p == own_part()`
  /// returns cf().
  [[nodiscard]] const CfVector& image(size_t p) const { return images_.at(p); }

  /// Adds a tuple. `row[i]` must match part i's dimension and hold values
  /// within the row bound (RowBlock::FromPartedRow; a refused row aborts).
  /// Adds it as AcfTree::InsertRows adds a row: absorbed, queued and
  /// flushed.
  void AddRow(const PartedRow& row);

  /// Additivity: absorbs another ACF with the same layout and own part.
  void Merge(const Acf& other);

  /// Copy of this ACF whose layout pointer is `layout`, which must be
  /// structurally equivalent (LayoutsEquivalent) to the current one. Used
  /// when merging summaries decoded in another process, where equal layouts
  /// are distinct heap objects but the tree requires pointer identity.
  [[nodiscard]] Acf WithLayout(std::shared_ptr<const AcfLayout> layout) const;

  /// Centroid on the own part.
  [[nodiscard]] std::vector<double> Centroid() const { return cf().Centroid(); }

  /// Diameter on the own part (the cluster-quality measure of Dfn 4.2).
  [[nodiscard]] double Diameter() const { return cf().Diameter(); }

  /// Smallest bounding box of the image on part `p`: (lo, hi) per
  /// dimension. §7.2 uses this as the user-facing cluster description.
  [[nodiscard]] std::vector<std::pair<double, double>> BoundingBox(size_t p) const;

  [[nodiscard]] std::string ToString() const;

 private:
  // Test-only backdoor so invariant tests can plant corruptions.
  friend struct InvariantTestPeer;
  // Serialization backdoor for dar::persist (persist/persist_peer.h).
  friend struct PersistPeer;
  // The tree absorbs and flushes the rows of checked blocks.
  friend class AcfTree;

  // Rows reach an ACF in checked blocks (RowBlock). A row is absorbed in
  // two steps. AbsorbRow adds its own values to cf() at once, because the
  // descent, the threshold tests and splits read cf(), and queues the
  // row's offset in the block. FlushQueue adds every queued row to every
  // other image, in queue order, and empties the queue. Each image element
  // thus sees the same additions in the same order as when each row went
  // to every image at once, so the sums are bit-identical; only when they
  // are made changes. The tree flushes every entry before a rebuild (which
  // merges whole ACFs) and at the end of each block, so no ACF holds
  // queued rows between tree calls.

  // Adds `own` (the own part's dim values of the row at `offset` in the
  // block) to cf() and queues the offset for the other images.
  void AbsorbRow(const double* own, uint32_t offset) {
    images_[own_part_].Accumulate(own);
    queue_.push_back(offset);
  }

  // Adds the queued rows of `block` to every image but cf(), then empties
  // the queue and keeps its capacity. One pass over the queue serves four
  // (image, dimension) elements of the images' moment blocks
  // (CfVector::AccumulateLanes), whatever the layout; a last group of
  // fewer than four is padded with lanes that write to a local spare.
  void FlushQueue(const RowBlock& block);

  std::shared_ptr<const AcfLayout> layout_;
  size_t own_part_ = 0;
  std::vector<CfVector> images_;
  // Offsets in the current block of the rows cf() holds and the other
  // images do not yet; empty outside AcfTree::InsertRows.
  std::vector<uint32_t> queue_;
};

}  // namespace dar

#endif  // DAR_BIRCH_ACF_H_
