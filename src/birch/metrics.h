#ifndef DAR_BIRCH_METRICS_H_
#define DAR_BIRCH_METRICS_H_

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

#include "birch/cf.h"

namespace dar {

/// Inter-cluster distance metrics computable from CF summaries (§5, Eqs. 5-6;
/// the D0-D4 family is from BIRCH [ZRL96]).
///
/// For summaries of attribute sets under the discrete 0/1 metric, D0/D1/D2
/// all evaluate the exact average pairwise mismatch between the two point
/// sets — the only statistically meaningful inter-cluster distance for
/// nominal data, and the one Theorem 5.2 relies on. Centroids of dictionary
/// codes are meaningless, so the centroid-based forms intentionally
/// degenerate to the average form there.
enum class ClusterMetric : int {
  /// Euclidean distance between centroids (BIRCH D0).
  kD0Centroid = 0,
  /// Manhattan distance between centroids (Eq. 5; BIRCH D1).
  kD1CentroidManhattan = 1,
  /// Average inter-cluster distance (Eq. 6; BIRCH D2). RMS form
  /// `sqrt(sum_ij ||a_i - b_j||^2 / (N1 N2))` for interval parts; exact
  /// average mismatch count for discrete parts.
  kD2AvgInter = 2,
  /// Average intra-cluster distance of the merged cluster (BIRCH D3), i.e.
  /// the diameter of the union.
  kD3AvgIntra = 3,
  /// Variance increase of the merge (BIRCH D4).
  kD4VarIncrease = 4,
};

/// Stable name ("D0".."D4").
const char* ClusterMetricToString(ClusterMetric m);

/// Distance between two cluster summaries over the *same* attribute set.
/// Both summaries must have equal dimension and metric kind and be
/// non-empty.
double ClusterDistance(const CfVector& a, const CfVector& b, ClusterMetric m);

/// Distance from a single point to a cluster summary: the distance from the
/// point to the centroid under the part's metric for interval parts; the
/// expected per-dimension mismatch probability for discrete parts. Used to
/// steer CF-tree descent and nearest-cluster assignment. This is the
/// definition: it never calls the kernel below.
double PointClusterDistance(std::span<const double> x, const CfVector& c);

/// The nearest-centroid kernel, shared by the ACF-tree's point descent and
/// the post-scan's CentroidTable: WriteCentroid fills a table, and
/// FindNearestCentroid scans it. On an interval (Euclidean or Manhattan)
/// part they pick the lowest index at which PointClusterDistance is least,
/// at the same distance bit for bit. Discrete parts call
/// PointClusterDistance instead.
///
/// WriteCentroid writes the centroid `ls[d] / n` of non-empty `c` to
/// `out[0, c.dim())`: PointClusterDistance's division, n converted to
/// double.
void WriteCentroid(const CfVector& c, double* out);

/// FindNearestCentroid's answer: an index into the table and its distance.
struct NearestCentroid {
  size_t index = 0;
  double distance = std::numeric_limits<double>::infinity();
};

/// The centroid among `count` rows of `dim` values at `centroids` that is
/// nearest to the point whose d-th value is `x(d)`, under the interval
/// metric `metric`. The scan runs in index order with a strict `<`, so the
/// first index wins a tie, and it returns {0, inf} when no distance is
/// below infinity (a NaN point, say).
///
/// A one-dimensional part takes a shorter path. The scan first compares
/// m_i = |x - c_i|, with no square and no root. A Manhattan distance is
/// m_i itself, so that answer stands. A Euclidean distance is sqrt(d * d)
/// with d = x - c_i. In binary64 with round-to-nearest this equals |d|
/// bit for bit whenever d * d neither underflows nor overflows (S. Boldo,
/// "Stupid is as stupid does: taking the square root of the square of a
/// floating-point number", 2015), which holds for |d| in [2^-511, 2^511].
/// So when the least m_i, m, lies in that range:
///  - every index with m_i = m has Euclidean distance m;
///  - every index with m_i > m has a larger one: its |d|, or infinity
///    where d * d overflows (a NaN distance never wins on either path);
/// and the first index with m_i = m is PointClusterDistance's first
/// argmin, at the same distance bits. Otherwise the part is rescanned
/// with the general loop: on an exact hit (m = 0), an m below 2^-511
/// (whose square underflows and can tie a larger one), an m above 2^511,
/// or a NaN or infinite point.
///
/// The general loop is the only path for dim > 1. It is
/// PointClusterDistance's arithmetic, term for term: the summation order
/// over d and, for Euclidean parts, the square root (two sums can round
/// to one root, and the comparison must see what PointClusterDistance
/// returns).
template <typename Point>
NearestCentroid FindNearestCentroid(const double* centroids, size_t count,
                                    size_t dim, MetricKind metric,
                                    const Point& x) {
  const bool manhattan = metric == MetricKind::kManhattan;
  NearestCentroid best;
  if (dim == 1) {
    const double v = x(0);
    for (size_t i = 0; i < count; ++i) {
      const double dist = std::fabs(v - centroids[i]);
      if (dist < best.distance) best = {i, dist};
    }
    if (manhattan || (best.distance >= 0x1p-511 && best.distance <= 0x1p511)) {
      return best;
    }
    best = {};
  }
  const double* centroid = centroids;
  for (size_t i = 0; i < count; ++i, centroid += dim) {
    double s = 0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = x(d) - centroid[d];
      s += manhattan ? std::fabs(diff) : diff * diff;
    }
    const double dist = manhattan ? s : std::sqrt(s);
    if (dist < best.distance) best = {i, dist};
  }
  return best;
}

}  // namespace dar

#endif  // DAR_BIRCH_METRICS_H_
