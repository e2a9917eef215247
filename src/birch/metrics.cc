#include "birch/metrics.h"

#include <cmath>

#include "common/logging.h"

namespace dar {

namespace {

// Average pairwise mismatch count between two discrete-part summaries:
// sum over dimensions of 1 - P(match) with
// P(match) = sum_v h1(v) * h2(v) / (N1 * N2).
double DiscreteAvgInter(const CfVector& a, const CfVector& b) {
  double total = 0;
  double n1n2 = static_cast<double>(a.n()) * b.n();
  for (size_t d = 0; d < a.dim(); ++d) {
    double same = 0;
    const auto& ha = a.histogram(d);
    const auto& hb = b.histogram(d);
    // Iterate the smaller histogram.
    const auto& small = ha.size() <= hb.size() ? ha : hb;
    const auto& large = ha.size() <= hb.size() ? hb : ha;
    for (const auto& [v, c] : small) {
      auto it = large.find(v);
      if (it != large.end()) same += static_cast<double>(c) * it->second;
    }
    total += 1.0 - same / n1n2;
  }
  return total;
}

// sum over points of ||t - centroid||^2 = SS - ||LS||^2 / N.
double ScatterAboutCentroid(const CfVector& c) {
  return c.SsSum() - c.LsSquaredNorm() / c.n();
}

}  // namespace

const char* ClusterMetricToString(ClusterMetric m) {
  switch (m) {
    case ClusterMetric::kD0Centroid:
      return "D0";
    case ClusterMetric::kD1CentroidManhattan:
      return "D1";
    case ClusterMetric::kD2AvgInter:
      return "D2";
    case ClusterMetric::kD3AvgIntra:
      return "D3";
    case ClusterMetric::kD4VarIncrease:
      return "D4";
  }
  return "unknown";
}

double ClusterDistance(const CfVector& a, const CfVector& b, ClusterMetric m) {
  DAR_CHECK_EQ(a.dim(), b.dim());
  DAR_CHECK_GT(a.n(), 0);
  DAR_CHECK_GT(b.n(), 0);
  bool discrete = a.has_histogram() && b.has_histogram();
  switch (m) {
    case ClusterMetric::kD0Centroid: {
      if (discrete) return DiscreteAvgInter(a, b);
      double s = 0;
      for (size_t d = 0; d < a.dim(); ++d) {
        double diff = a.ls()[d] / a.n() - b.ls()[d] / b.n();
        s += diff * diff;
      }
      return std::sqrt(s);
    }
    case ClusterMetric::kD1CentroidManhattan: {
      if (discrete) return DiscreteAvgInter(a, b);
      double s = 0;
      for (size_t d = 0; d < a.dim(); ++d) {
        s += std::fabs(a.ls()[d] / a.n() - b.ls()[d] / b.n());
      }
      return s;
    }
    case ClusterMetric::kD2AvgInter: {
      if (discrete) return DiscreteAvgInter(a, b);
      // sum_ij ||a_i - b_j||^2 = N2*SS1 + N1*SS2 - 2 * LS1 . LS2
      double dot = 0;
      for (size_t d = 0; d < a.dim(); ++d) dot += a.ls()[d] * b.ls()[d];
      double d2 = (b.n() * a.SsSum() + a.n() * b.SsSum() - 2.0 * dot) /
                  (static_cast<double>(a.n()) * b.n());
      return std::sqrt(std::max(0.0, d2));
    }
    case ClusterMetric::kD3AvgIntra: {
      return a.DiameterWithMerge(b);
    }
    case ClusterMetric::kD4VarIncrease: {
      if (discrete) return DiscreteAvgInter(a, b);
      CfVector merged = a;
      merged.Merge(b);
      double inc = ScatterAboutCentroid(merged) - ScatterAboutCentroid(a) -
                   ScatterAboutCentroid(b);
      return std::sqrt(std::max(0.0, inc));
    }
  }
  return 0;
}

double PointClusterDistance(std::span<const double> x, const CfVector& c) {
  DAR_CHECK_EQ(x.size(), c.dim());
  DAR_CHECK_GT(c.n(), 0);
  if (c.has_histogram()) {
    double total = 0;
    for (size_t d = 0; d < x.size(); ++d) {
      const auto& h = c.histogram(d);
      auto it = h.find(x[d]);
      double match = it == h.end() ? 0.0 : static_cast<double>(it->second);
      total += 1.0 - match / c.n();
    }
    return total;
  }
  switch (c.metric()) {
    case MetricKind::kManhattan: {
      double s = 0;
      for (size_t d = 0; d < x.size(); ++d) {
        s += std::fabs(x[d] - c.ls()[d] / c.n());
      }
      return s;
    }
    case MetricKind::kEuclidean:
    case MetricKind::kDiscrete: {
      double s = 0;
      for (size_t d = 0; d < x.size(); ++d) {
        double diff = x[d] - c.ls()[d] / c.n();
        s += diff * diff;
      }
      return std::sqrt(s);
    }
  }
  return 0;
}

void WriteCentroid(const CfVector& c, double* out) {
  const double n = static_cast<double>(c.n());
  for (size_t d = 0; d < c.dim(); ++d) out[d] = c.ls()[d] / n;
}

}  // namespace dar
