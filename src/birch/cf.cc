#include "birch/cf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace dar {

CfVector::CfVector(size_t dim, MetricKind metric)
    : metric_(metric), block_(4 * dim, 0.0) {
  std::fill(block_.begin() + 2 * dim, block_.begin() + 3 * dim,
            std::numeric_limits<double>::infinity());
  std::fill(block_.begin() + 3 * dim, block_.end(),
            -std::numeric_limits<double>::infinity());
  if (metric_ == MetricKind::kDiscrete) hist_.resize(dim);
}

void CfVector::Merge(const CfVector& other) {
  DAR_CHECK_EQ(dim(), other.dim());
  DAR_CHECK(metric_ == other.metric_);
  n_ += other.n_;
  const size_t dim = this->dim();
  double* block = block_.data();
  const double* add = other.block_.data();
  for (size_t k = 0; k < 2 * dim; ++k) block[k] += add[k];  // ls, ss
  for (size_t k = 2 * dim; k < 3 * dim; ++k) {
    block[k] = std::min(block[k], add[k]);
  }
  for (size_t k = 3 * dim; k < 4 * dim; ++k) {
    block[k] = std::max(block[k], add[k]);
  }
  if (has_histogram()) {
    for (size_t d = 0; d < hist_.size(); ++d) {
      for (const auto& [v, c] : other.hist_[d]) hist_[d][v] += c;
    }
  }
}

std::vector<double> CfVector::Centroid() const {
  DAR_CHECK_GT(n_, 0);
  std::vector<double> c(dim());
  for (size_t d = 0; d < c.size(); ++d) c[d] = ls()[d] / n_;
  return c;
}

double CfVector::SsSum() const {
  double s = 0;
  for (double v : ss()) s += v;
  return s;
}

double CfVector::LsSquaredNorm() const {
  double s = 0;
  for (double v : ls()) s += v * v;
  return s;
}

double CfVector::Radius() const {
  if (n_ < 1) return 0.0;
  // R^2 = SS/N - ||LS/N||^2
  double r2 = SsSum() / n_ - LsSquaredNorm() / (static_cast<double>(n_) * n_);
  return std::sqrt(std::max(0.0, r2));
}

double CfVector::DiameterFromMoments(int64_t n, double ss_sum,
                                     double ls_sq_norm) const {
  if (n < 2) return 0.0;
  // Sum over all ordered pairs (i != j) of ||t_i - t_j||^2 equals
  // 2*N*SS - 2*||LS||^2; divide by N(N-1) and take the root.
  double d2 = (2.0 * n * ss_sum - 2.0 * ls_sq_norm) /
              (static_cast<double>(n) * (n - 1));
  return std::sqrt(std::max(0.0, d2));
}

double CfVector::Diameter() const {
  if (n_ < 2) return 0.0;
  if (has_histogram()) {
    // Exact average pairwise mismatch count: per dimension, the number of
    // ordered mismatching pairs is N^2 - sum_v h(v)^2 (self-pairs match).
    double total = 0;
    for (const auto& h : hist_) {
      double same = 0;
      for (const auto& [v, c] : h) same += static_cast<double>(c) * c;
      total += static_cast<double>(n_) * n_ - same;
    }
    return total / (static_cast<double>(n_) * (n_ - 1));
  }
  return DiameterFromMoments(n_, SsSum(), LsSquaredNorm());
}

double CfVector::DiameterWithPoint(std::span<const double> x) const {
  DAR_CHECK_EQ(x.size(), dim());
  int64_t n = n_ + 1;
  if (n < 2) return 0.0;
  if (has_histogram()) {
    double total = 0;
    for (size_t d = 0; d < hist_.size(); ++d) {
      double same = 0;
      for (const auto& [v, c] : hist_[d]) same += static_cast<double>(c) * c;
      // Incrementing h(x[d]) changes sum h^2 by 2*h(x[d]) + 1.
      auto it = hist_[d].find(x[d]);
      int64_t hx = it == hist_[d].end() ? 0 : it->second;
      same += 2.0 * hx + 1.0;
      total += static_cast<double>(n) * n - same;
    }
    return total / (static_cast<double>(n) * (n - 1));
  }
  double ss_sum = SsSum();
  double ls_sq = 0;
  const std::span<const double> sums = ls();
  for (size_t d = 0; d < x.size(); ++d) {
    ss_sum += x[d] * x[d];
    double l = sums[d] + x[d];
    ls_sq += l * l;
  }
  return DiameterFromMoments(n, ss_sum, ls_sq);
}

double CfVector::DiameterWithMerge(const CfVector& other) const {
  DAR_CHECK_EQ(dim(), other.dim());
  int64_t n = n_ + other.n_;
  if (n < 2) return 0.0;
  if (has_histogram()) {
    double total = 0;
    for (size_t d = 0; d < hist_.size(); ++d) {
      double same = 0;
      // Merge the two histograms for this dimension on the fly.
      const auto& ha = hist_[d];
      const auto& hb = other.hist_[d];
      for (const auto& [v, c] : ha) {
        auto it = hb.find(v);
        double merged = c + (it == hb.end() ? 0 : it->second);
        same += merged * merged;
      }
      for (const auto& [v, c] : hb) {
        if (ha.find(v) == ha.end()) same += static_cast<double>(c) * c;
      }
      total += static_cast<double>(n) * n - same;
    }
    return total / (static_cast<double>(n) * (n - 1));
  }
  double ss_sum = SsSum() + other.SsSum();
  double ls_sq = 0;
  const std::span<const double> a = ls();
  const std::span<const double> b = other.ls();
  for (size_t d = 0; d < a.size(); ++d) {
    double l = a[d] + b[d];
    ls_sq += l * l;
  }
  return DiameterFromMoments(n, ss_sum, ls_sq);
}

std::string CfVector::ToString() const {
  std::ostringstream os;
  os << "CF{n=" << n_ << ", ls=[";
  for (size_t d = 0; d < dim(); ++d) {
    if (d > 0) os << ", ";
    os << ls()[d];
  }
  os << "], d=" << Diameter() << "}";
  return os.str();
}

}  // namespace dar
