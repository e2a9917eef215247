#include "birch/acf.h"

#include <cmath>
#include <sstream>

#include "birch/budget.h"
#include "common/logging.h"

namespace dar {

size_t AcfLayout::offset(size_t p) const {
  DAR_CHECK_LE(p, parts.size());
  size_t off = 0;
  for (size_t i = 0; i < p; ++i) off += parts[i].dim;
  return off;
}

size_t AcfLayout::ApproxAcfBytes() const {
  size_t bytes = kBudgetAcfBytes;
  for (const auto& p : parts) {
    bytes += kBudgetCfBytes + 4 * p.dim * sizeof(double);
    if (p.metric == MetricKind::kDiscrete) {
      // Histograms grow with distinct values; assume a modest nominal
      // domain.
      bytes += p.dim * 16 * (sizeof(double) + sizeof(int64_t) + 48);
    }
  }
  return bytes;
}

bool LayoutsEquivalent(const AcfLayout& a, const AcfLayout& b) {
  if (a.parts.size() != b.parts.size()) return false;
  for (size_t i = 0; i < a.parts.size(); ++i) {
    if (a.parts[i].dim != b.parts[i].dim ||
        a.parts[i].metric != b.parts[i].metric) {
      return false;
    }
  }
  return true;
}

Acf::Acf(std::shared_ptr<const AcfLayout> layout, size_t own_part)
    : layout_(std::move(layout)), own_part_(own_part) {
  DAR_CHECK(layout_ != nullptr);
  DAR_CHECK_LT(own_part_, layout_->num_parts());
  images_.reserve(layout_->num_parts());
  for (const auto& p : layout_->parts) {
    images_.emplace_back(p.dim, p.metric);
  }
}

Result<RowBlock> RowBlock::Make(const AcfLayout& layout,
                                 std::span<const double* const> columns,
                                 size_t begin, size_t end) {
  if (columns.size() != layout.row_width()) {
    return Status::InvalidArgument(
        "block has " + std::to_string(columns.size()) +
        " columns, the layout's rows have " +
        std::to_string(layout.row_width()));
  }
  // Offsets in the block are queued as 32-bit values.
  if (begin > end || end - begin > (uint64_t{1} << 32)) {
    return Status::InvalidArgument(
        "block rows [" + std::to_string(begin) + ", " + std::to_string(end) +
        ") are reversed or span more than 2^32 rows");
  }
  // |x| <= 2^448 keeps x^2 <= 2^896, so under 2^63 tuples every moment
  // and every product of two moments (n * ss, ls * ls) stays finite, and a
  // tree's checkpoint always restores. The compare also refuses NaN.
  constexpr double kMaxMagnitude = 0x1p448;
  for (size_t k = 0; k < columns.size(); ++k) {
    size_t r = begin;
    while (r < end && std::fabs(columns[k][r]) <= kMaxMagnitude) ++r;
    if (r == end) continue;
    size_t part = 0;
    while (layout.offset(part + 1) <= k) ++part;
    return Status::InvalidArgument(
        "value out of range in part " + std::to_string(part) + " ('" +
        layout.parts[part].label + "'), row " + std::to_string(r) +
        "; CF summaries require finite coordinates of magnitude <= 2^448");
  }
  return RowBlock(columns, begin, end);
}

Result<RowBlock> RowBlock::FromPartedRow(const AcfLayout& layout,
                                         const PartedRow& row,
                                         std::vector<const double*>& storage) {
  if (row.size() != layout.num_parts()) {
    return Status::InvalidArgument(
        "parted row has " + std::to_string(row.size()) + " parts, expected " +
        std::to_string(layout.num_parts()));
  }
  storage.clear();
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].size() != layout.parts[i].dim) {
      return Status::InvalidArgument(
          "part " + std::to_string(i) + " has " +
          std::to_string(row[i].size()) + " values, its dimension is " +
          std::to_string(layout.parts[i].dim));
    }
    for (const double& v : row[i]) storage.push_back(&v);
  }
  return Make(layout, storage, 0, 1);
}

void Acf::AddRow(const PartedRow& row) {
  std::vector<const double*> storage;
  const Result<RowBlock> block =
      RowBlock::FromPartedRow(*layout_, row, storage);
  DAR_CHECK(block.ok()) << block.status();
  AbsorbRow(row[own_part_].data(), 0);
  FlushQueue(*block);
}

void Acf::FlushQueue(const RowBlock& block) {
  if (queue_.empty()) return;
  DAR_DCHECK_EQ(block.columns().size(), layout_->row_width());
  CfVector::Lane lanes[4];
  size_t filled = 0;
  const double* const* column = block.columns().data();
  for (size_t p = 0; p < images_.size(); ++p) {
    CfVector& image = images_[p];
    if (p != own_part_) {
      for (size_t d = 0; d < image.dim(); ++d) {
        lanes[filled++] = image.LaneOf(d, column[d] + block.begin());
        if (filled == 4) {
          CfVector::AccumulateLanes(lanes, queue_);
          filled = 0;
        }
      }
      image.CountRows(column, block.begin(), queue_);
    }
    column += image.dim();
  }
  if (filled > 0) {
    // Lanes past the last real one read its column and write to `spare`.
    double spare[4][4] = {};
    for (size_t j = filled; j < 4; ++j) {
      lanes[j] = {spare[j], 1, lanes[filled - 1].x};
    }
    CfVector::AccumulateLanes(lanes, queue_);
  }
  queue_.clear();
}

void Acf::Merge(const Acf& other) {
  DAR_CHECK_EQ(own_part_, other.own_part_);
  DAR_CHECK_EQ(images_.size(), other.images_.size());
  DAR_DCHECK(queue_.empty() && other.queue_.empty());
  for (size_t i = 0; i < images_.size(); ++i) {
    images_[i].Merge(other.images_[i]);
  }
}

Acf Acf::WithLayout(std::shared_ptr<const AcfLayout> layout) const {
  DAR_CHECK(layout != nullptr);
  DAR_CHECK(layout_ != nullptr);
  DAR_CHECK(LayoutsEquivalent(*layout_, *layout));
  Acf out = *this;
  out.layout_ = std::move(layout);
  return out;
}

std::vector<std::pair<double, double>> Acf::BoundingBox(size_t p) const {
  const CfVector& img = image(p);
  std::vector<std::pair<double, double>> box(img.dim());
  for (size_t d = 0; d < img.dim(); ++d) {
    box[d] = {img.min()[d], img.max()[d]};
  }
  return box;
}

std::string Acf::ToString() const {
  std::ostringstream os;
  os << "ACF{part=" << layout_->parts[own_part_].label << ", n=" << n()
     << ", box=[";
  auto box = BoundingBox(own_part_);
  for (size_t d = 0; d < box.size(); ++d) {
    if (d > 0) os << " x ";
    os << "[" << box[d].first << ", " << box[d].second << "]";
  }
  os << "]}";
  return os.str();
}

}  // namespace dar
