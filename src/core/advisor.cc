#include "core/advisor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>
#include <sstream>

#include "common/random.h"
#include "relation/metric.h"

namespace dar {

namespace {

// The advice's fixed settings (advisor.h): rows sampled and the sampler's
// seed, the fallback Phase-I diameter in median nearest-neighbour
// distances, and the Phase-II thresholds as a fraction of the RMS spread.
constexpr size_t kSampleRows = 1000;
constexpr uint64_t kSampleSeed = 7;
constexpr double kNnMultiplier = 4.0;
constexpr double kSpreadFraction = 0.8;

// Uniform sample of row indices without replacement.
std::vector<size_t> SampleRows(size_t num_rows, size_t sample_size,
                               Rng& rng) {
  if (sample_size >= num_rows) {
    std::vector<size_t> all(num_rows);
    for (size_t i = 0; i < num_rows; ++i) all[i] = i;
    return all;
  }
  // Floyd's algorithm.
  std::vector<size_t> out;
  out.reserve(sample_size);
  std::vector<bool> chosen(num_rows, false);
  for (size_t j = num_rows - sample_size; j < num_rows; ++j) {
    size_t t = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(j)));
    if (chosen[t]) t = j;
    chosen[t] = true;
    out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

namespace {

// Greedy leader clustering of `points` at radius `t`: every point joins the
// first leader within distance t, else becomes a new leader. Returns the
// number of leaders holding at least 1% of the points (noise-robust count).
size_t LeaderCount(const std::vector<std::vector<double>>& points,
                   MetricKind metric, double t) {
  std::vector<std::vector<double>> leaders;
  std::vector<size_t> mass;
  for (const auto& p : points) {
    bool assigned = false;
    for (size_t l = 0; l < leaders.size(); ++l) {
      if (PointDistance(metric, p, leaders[l]) <= t) {
        ++mass[l];
        assigned = true;
        break;
      }
    }
    if (!assigned) {
      leaders.push_back(p);
      mass.push_back(1);
    }
  }
  // 2% of the sample: suppresses leaders formed by scattered outliers.
  size_t min_mass = std::max<size_t>(2, points.size() / 50);
  size_t count = 0;
  for (size_t m : mass) {
    if (m >= min_mass) ++count;
  }
  return count;
}

// Threshold-persistence estimate of the within-cluster scale: sweep a
// geometric ladder of candidate thresholds and return the middle of the
// widest plateau where the (leader-)cluster count is stable and > 1.
// Returns 0 when no plateau exists (no multi-cluster structure detected).
double PersistentThreshold(const std::vector<std::vector<double>>& points,
                           MetricKind metric, double lo, double hi) {
  if (lo <= 0 || hi <= lo) return 0;
  constexpr int kRungs = 14;
  std::vector<double> ts(kRungs);
  std::vector<size_t> counts(kRungs);
  for (int k = 0; k < kRungs; ++k) {
    ts[k] = lo * std::pow(hi / lo, static_cast<double>(k) / (kRungs - 1));
    counts[k] = LeaderCount(points, metric, ts[k]);
  }
  // Widest run of rungs with a stable count. Strict equality first: a
  // tolerance of +-1 can chain together a slow drift at a fine scale into
  // a pseudo-plateau. Only when no strict plateau exists (scattered
  // outliers flickering the count by one) fall back to the tolerant scan.
  // Ties prefer the smaller cluster count — the coarser interpretation.
  auto widest = [&](int tolerance) {
    int best_start = -1, best_len = 0;
    for (int start = 0; start < kRungs; ++start) {
      if (counts[start] < 2) continue;
      int len = 1;
      while (start + len < kRungs && counts[start + len] >= 2 &&
             std::llabs(static_cast<long long>(counts[start + len]) -
                        static_cast<long long>(counts[start])) <=
                 tolerance) {
        ++len;
      }
      bool better =
          len > best_len ||
          (len == best_len && best_start >= 0 &&
           counts[start] < counts[best_start]);
      if (better) {
        best_len = len;
        best_start = start;
      }
    }
    return std::pair<int, int>(best_start, best_len);
  };
  auto [best_start, best_len] = widest(0);
  if (best_len < 2) std::tie(best_start, best_len) = widest(1);
  if (best_start < 0 || best_len < 2) return 0;
  // Geometric middle of the plateau.
  return std::sqrt(ts[best_start] * ts[best_start + best_len - 1]);
}

}  // namespace

Result<ThresholdAdvice> SuggestThresholds(
    const Relation& rel, const AttributePartition& partition) {
  if (rel.num_rows() < 2) {
    return Status::InvalidArgument("need at least 2 rows to advise");
  }
  Rng rng(kSampleSeed);
  std::vector<size_t> rows = SampleRows(rel.num_rows(), kSampleRows, rng);

  ThresholdAdvice advice;
  advice.initial_diameters.resize(partition.num_parts());
  advice.density_thresholds.resize(partition.num_parts());
  std::ostringstream rationale;
  double degree_sum = 0;
  size_t degree_terms = 0;

  std::vector<std::vector<double>> points(rows.size());
  std::vector<double> buf;
  for (size_t p = 0; p < partition.num_parts(); ++p) {
    const AttributeSet& part = partition.part(p);
    if (part.metric == MetricKind::kDiscrete) {
      // Theorems 5.1/5.2: diameter 0 keeps clusters single-valued; any
      // density/degree threshold below 1 distinguishes equal from unequal.
      advice.initial_diameters[p] = 0.0;
      advice.density_thresholds[p] = 0.5;
      rationale << part.label << ": discrete metric -> d0=0, density=0.5\n";
      continue;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      rel.ProjectRow(rows[i], part.columns, buf);
      points[i] = buf;
    }
    // Median nearest-neighbour distance (the sampling-density floor of the
    // threshold ladder).
    std::vector<double> nn(rows.size(),
                           std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t j = i + 1; j < rows.size(); ++j) {
        double d = PointDistance(part.metric, points[i], points[j]);
        nn[i] = std::min(nn[i], d);
        nn[j] = std::min(nn[j], d);
      }
    }
    size_t mid = nn.size() / 2;
    std::nth_element(nn.begin(), nn.begin() + mid, nn.end());
    double median_nn = nn[mid];

    // RMS spread about the sample centroid.
    std::vector<double> centroid(part.dimension(), 0.0);
    for (const auto& pt : points) {
      for (size_t d = 0; d < centroid.size(); ++d) centroid[d] += pt[d];
    }
    for (auto& v : centroid) v /= static_cast<double>(points.size());
    double spread2 = 0;
    for (const auto& pt : points) {
      spread2 += SquaredEuclidean(pt, centroid);
    }
    double spread = std::sqrt(spread2 / points.size());

    // Phase-I diameter: the threshold-persistence estimate — the middle of
    // the widest range of thresholds over which the sample's cluster count
    // is stable. (Nearest-neighbour distances alone shrink with sample
    // density, so they only set the ladder's floor.)
    // The ladder's leader clustering is O(S * leaders) per rung; a few
    // hundred points estimate the plateau just as well.
    std::vector<std::vector<double>> ladder_points(
        points.begin(),
        points.begin() + std::min<size_t>(points.size(), 300));
    double diameter = PersistentThreshold(
        ladder_points, part.metric,
        std::max(median_nn, 1e-9 * (spread + 1e-12)),
        spread > 0 ? spread : 1.0);
    bool from_plateau = diameter > 0;
    if (diameter <= 0) {
      // No multi-cluster structure detected: fall back to the
      // nearest-neighbour scale, floored by a sliver of the spread.
      diameter = std::max(kNnMultiplier * median_nn, 0.01 * spread);
      if (diameter <= 0) diameter = 1.0;
    }
    double density = kSpreadFraction * spread;
    advice.initial_diameters[p] = diameter;
    advice.density_thresholds[p] = std::max(density, diameter);
    degree_sum += advice.density_thresholds[p];
    ++degree_terms;
    rationale << part.label << ": median NN dist=" << median_nn
              << ", RMS spread=" << spread << " -> d0=" << diameter
              << (from_plateau ? " (plateau)" : " (fallback)")
              << ", density=" << advice.density_thresholds[p] << "\n";
  }

  advice.degree_thresholds = advice.density_thresholds;
  advice.degree_threshold =
      degree_terms > 0 ? degree_sum / degree_terms : 0.5;
  rationale << "degree threshold D0 = mean density = "
            << advice.degree_threshold << "\n";
  advice.rationale = rationale.str();
  return advice;
}

}  // namespace dar
