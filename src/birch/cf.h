#ifndef DAR_BIRCH_CF_H_
#define DAR_BIRCH_CF_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "relation/metric.h"

namespace dar {

struct InvariantTestPeer;
struct PersistPeer;

/// A Clustering Feature (BIRCH; Eq. 3 of the paper): the summary
/// `(N, sum t_i, sum t_i^2)` of a set of points projected on one attribute
/// set, extended with
///
///  - per-dimension minima/maxima, so clusters can be *described* by their
///    smallest bounding box (§7.2 chooses the bounding box over the centroid
///    as the user-facing description), and
///  - for attribute sets under the discrete 0/1 metric, a per-dimension
///    value histogram, which makes the §5.1 nominal-data distances (average
///    pairwise mismatch) exactly computable from the summary.
///
/// CfVectors are additive (BIRCH's Additivity Theorem): `Merge` of the
/// summaries of two point sets equals the summary of their union. All
/// cluster statistics used by the mining algorithms (centroid, radius,
/// diameter, inter-cluster distances) derive from this summary alone.
///
/// Note on the diameter: Dfn 4.1 defines the diameter as the *average
/// pairwise distance*. For the Euclidean metric the CF-computable form is
/// the root-mean-square pairwise distance
/// `sqrt(sum_ij ||t_i - t_j||^2 / (N(N-1)))` — this is what BIRCH (and
/// therefore the paper's implementation) uses, and what `Diameter()`
/// returns for kEuclidean/kManhattan parts. For kDiscrete parts the exact
/// average pairwise mismatch count is computable from the histograms and is
/// returned instead.
///
/// Storage: the four moment vectors live in one block of 4 * dim() doubles,
/// `[ls | ss | min | max]`, which is also their order on the checkpoint
/// wire. Discrete histograms sit beside the block. The summation order is
/// part of the determinism contract: every add and merge updates each
/// element with `ls += x`, `ss += x * x`, `min` and `max` in point order,
/// so summaries are bit-identical across storage layouts, thread counts
/// and restored checkpoints.
class CfVector {
 public:
  CfVector() = default;
  CfVector(size_t dim, MetricKind metric);

  [[nodiscard]] size_t dim() const { return block_.size() / 4; }
  [[nodiscard]] MetricKind metric() const { return metric_; }
  [[nodiscard]] int64_t n() const { return n_; }

  /// Linear sum per dimension.
  [[nodiscard]] std::span<const double> ls() const { return Section(0); }
  /// Sum of squares per dimension.
  [[nodiscard]] std::span<const double> ss() const { return Section(1); }
  /// Per-dimension minima/maxima (meaningless when n() == 0).
  [[nodiscard]] std::span<const double> min() const { return Section(2); }
  [[nodiscard]] std::span<const double> max() const { return Section(3); }

  [[nodiscard]] bool has_histogram() const { return metric_ == MetricKind::kDiscrete; }
  /// Value -> count histogram for dimension `d` (discrete parts only).
  [[nodiscard]] const std::map<double, int64_t>& histogram(size_t d) const {
    return hist_.at(d);
  }

  /// Adds one point (length must equal dim()).
  void AddPoint(std::span<const double> x) {
    DAR_CHECK_EQ(x.size(), dim());
    Accumulate(x.data());
  }

  /// Additivity: absorbs `other` (summaries of disjoint point sets).
  void Merge(const CfVector& other);

  /// Centroid `LS / N` (Eq. 4). Requires n() > 0.
  [[nodiscard]] std::vector<double> Centroid() const;

  /// RMS distance of points to the centroid; 0 when n() < 2.
  [[nodiscard]] double Radius() const;

  /// Average pairwise distance (Dfn 4.1); see class comment for the exact
  /// form per metric. 0 when n() < 2.
  [[nodiscard]] double Diameter() const;

  /// Diameter of this summary after hypothetically adding point `x`,
  /// without mutating the summary. Used by the CF-tree absorption test.
  [[nodiscard]] double DiameterWithPoint(std::span<const double> x) const;

  /// Diameter of the hypothetical merge of this summary and `other`.
  [[nodiscard]] double DiameterWithMerge(const CfVector& other) const;

  /// Sum over dimensions of ss (||t||^2 summed over points).
  [[nodiscard]] double SsSum() const;
  /// Squared Euclidean norm of the LS vector.
  [[nodiscard]] double LsSquaredNorm() const;

  /// The bytes the memory budget charges for this summary
  /// (birch/budget.h), not its heap size.
  [[nodiscard]] size_t ApproxBytes() const;

  [[nodiscard]] std::string ToString() const;

 private:
  // Test-only backdoor so invariant tests can plant corruptions.
  friend struct InvariantTestPeer;
  // Serialization backdoor for dar::persist (persist/persist_peer.h).
  friend struct PersistPeer;
  // Acf adds the rows its tree already checked through Accumulate and
  // AccumulateRows.
  friend class Acf;

  // Moment vector `k` of the block: 0 ls, 1 ss, 2 min, 3 max.
  [[nodiscard]] std::span<const double> Section(size_t k) const {
    return {block_.data() + k * dim(), dim()};
  }

  // AddPoint without the width check: `x` points at dim() values.
  void Accumulate(const double* x) {
    const size_t dim = this->dim();
    double* ls = block_.data();
    double* ss = ls + dim;
    double* lo = ss + dim;
    double* hi = lo + dim;
    ++n_;
    for (size_t d = 0; d < dim; ++d) {
      ls[d] += x[d];
      ss[d] += x[d] * x[d];
      lo[d] = std::min(lo[d], x[d]);
      hi[d] = std::max(hi[d], x[d]);
    }
    if (has_histogram()) {
      for (size_t d = 0; d < dim; ++d) ++hist_[d][x[d]];
    }
  }

  // Accumulate for the rows `begin + rows[i]` of `columns` (dim() column
  // pointers), in the order of `rows`. Each element keeps its one
  // accumulator chain and sees the values in that order, so the result is
  // bit-identical to calling Accumulate row by row.
  void AccumulateRows(const double* const* columns, size_t begin,
                      std::span<const uint32_t> rows) {
    const size_t dim = this->dim();
    double* ls = block_.data();
    double* ss = ls + dim;
    double* lo = ss + dim;
    double* hi = lo + dim;
    n_ += static_cast<int64_t>(rows.size());
    for (size_t d = 0; d < dim; ++d) {
      const double* x = columns[d] + begin;
      double l = ls[d], s = ss[d], a = lo[d], b = hi[d];
      for (const uint32_t r : rows) {
        const double v = x[r];
        l += v;
        s += v * v;
        a = std::min(a, v);
        b = std::max(b, v);
      }
      ls[d] = l;
      ss[d] = s;
      lo[d] = a;
      hi[d] = b;
    }
    if (has_histogram()) {
      for (size_t d = 0; d < dim; ++d) {
        for (const uint32_t r : rows) ++hist_[d][columns[d][begin + r]];
      }
    }
  }

  double DiameterFromMoments(int64_t n, double ss_sum,
                             double ls_sq_norm) const;

  MetricKind metric_ = MetricKind::kEuclidean;
  int64_t n_ = 0;
  // [ls | ss | min | max], dim() doubles each.
  std::vector<double> block_;
  std::vector<std::map<double, int64_t>> hist_;  // only for kDiscrete
};

}  // namespace dar

#endif  // DAR_BIRCH_CF_H_
