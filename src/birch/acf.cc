#include "birch/acf.h"

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
      // domain. The tree recomputes exact sizes during rebuilds.
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

void Acf::AddRow(const PartedRow& row) {
  DAR_CHECK_EQ(row.size(), images_.size());
  std::vector<const double*> columns;  // a one-row block
  for (size_t i = 0; i < images_.size(); ++i) {
    DAR_CHECK_EQ(row[i].size(), images_[i].dim());
    for (const double& v : row[i]) columns.push_back(&v);
  }
  AbsorbRow(row[own_part_].data(), 0);
  FlushQueue(columns, 0);
}

void Acf::FlushQueue(std::span<const double* const> columns, size_t begin) {
  if (queue_.empty()) return;
  DAR_DCHECK_EQ(columns.size(), layout_->row_width());
  const double* const* column = columns.data();
  for (size_t p = 0; p < images_.size(); ++p) {
    if (p != own_part_) images_[p].AccumulateRows(column, begin, queue_);
    column += images_[p].dim();
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

size_t Acf::ApproxBytes() const {
  size_t bytes = kBudgetAcfBytes;
  for (const auto& img : images_) bytes += img.ApproxBytes();
  return bytes;
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
