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
/// and restored checkpoints. An ACF's queue flush adds its queued rows to
/// four elements per pass over the queue, of one summary or of several
/// (AccumulateLanes); each element still sees the rows in queue order.
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

  [[nodiscard]] std::string ToString() const;

 private:
  // Test-only backdoor so invariant tests can plant corruptions.
  friend struct InvariantTestPeer;
  // Serialization backdoor for dar::persist (persist/persist_peer.h).
  friend struct PersistPeer;
  // Acf adds the rows of a checked block through Accumulate, LaneOf,
  // AccumulateLanes and CountRows.
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

  // One element of a summary's moment block fed from one column: its ls
  // at `ls`, its ss, min and max `stride` doubles further on each, and the
  // column `x`, read at the queued row offsets.
  struct Lane {
    double* ls;
    size_t stride;
    const double* x;
  };

  // Dimension `d` of this summary fed from the column `x`.
  Lane LaneOf(size_t d, const double* x) {
    return {block_.data() + d, dim(), x};
  }

  // Adds x[r] for every r of `rows`, in that order, to the moments of each
  // of four lanes: one pass over `rows` runs sixteen independent
  // accumulator chains. Each element sees the values in the order of
  // `rows` with Accumulate's expressions, so its sums are bit-identical to
  // adding the rows one by one. The lanes must be distinct elements.
  static void AccumulateLanes(const Lane (&lanes)[4],
                              std::span<const uint32_t> rows) {
    double l[4], s[4], a[4], b[4];
    const double* x[4];
    for (int j = 0; j < 4; ++j) {
      const size_t k = lanes[j].stride;
      l[j] = lanes[j].ls[0];
      s[j] = lanes[j].ls[k];
      a[j] = lanes[j].ls[2 * k];
      b[j] = lanes[j].ls[3 * k];
      x[j] = lanes[j].x;
    }
    for (const uint32_t r : rows) {
      // Unrolled, so that -O2 builds keep the sums in registers as well.
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) {
        const double v = x[j][r];
        l[j] += v;
        s[j] += v * v;
        a[j] = std::min(a[j], v);
        b[j] = std::max(b[j], v);
      }
    }
    for (int j = 0; j < 4; ++j) {
      const size_t k = lanes[j].stride;
      lanes[j].ls[0] = l[j];
      lanes[j].ls[k] = s[j];
      lanes[j].ls[2 * k] = a[j];
      lanes[j].ls[3 * k] = b[j];
    }
  }

  // The rest of adding the rows `begin + rows[i]` of `columns` (dim()
  // column pointers) once AccumulateLanes has added their moments: the
  // count and, on a discrete part, the histograms, in the order of `rows`.
  void CountRows(const double* const* columns, size_t begin,
                 std::span<const uint32_t> rows) {
    n_ += static_cast<int64_t>(rows.size());
    if (!has_histogram()) return;
    for (size_t d = 0; d < dim(); ++d) {
      for (const uint32_t r : rows) ++hist_[d][columns[d][begin + r]];
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
