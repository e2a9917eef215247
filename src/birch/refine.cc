#include "birch/refine.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/logging.h"

namespace dar {

namespace {

struct Candidate {
  double distance;
  size_t a;
  size_t b;
  // Versions guard against stale heap entries after merges.
  uint64_t version_a;
  uint64_t version_b;

  bool operator>(const Candidate& other) const {
    return distance > other.distance;
  }
};

}  // namespace

std::vector<Acf> RefineClusters(std::vector<Acf> clusters,
                                double diameter_threshold) {
  if (clusters.size() < 2 || diameter_threshold <= 0) {
    return clusters;
  }
  for (size_t i = 1; i < clusters.size(); ++i) {
    DAR_CHECK_EQ(clusters[i].own_part(), clusters[0].own_part());
  }

  std::vector<bool> alive(clusters.size(), true);
  std::vector<uint64_t> version(clusters.size(), 0);
  std::priority_queue<Candidate, std::vector<Candidate>,
                      std::greater<Candidate>>
      heap;

  auto centroid_distance = [&](size_t a, size_t b) {
    return ClusterDistance(clusters[a].cf(), clusters[b].cf(),
                           ClusterMetric::kD0Centroid);
  };
  auto push_if_mergeable = [&](size_t a, size_t b) {
    double d = centroid_distance(a, b);
    if (d > diameter_threshold) return;
    if (clusters[a].cf().DiameterWithMerge(clusters[b].cf()) >
        diameter_threshold) {
      return;
    }
    heap.push({d, a, b, version[a], version[b]});
  };

  for (size_t i = 0; i < clusters.size(); ++i) {
    for (size_t j = i + 1; j < clusters.size(); ++j) {
      push_if_mergeable(i, j);
    }
  }

  size_t merges = 0;
  while (!heap.empty()) {
    Candidate c = heap.top();
    heap.pop();
    if (!alive[c.a] || !alive[c.b] || version[c.a] != c.version_a ||
        version[c.b] != c.version_b) {
      continue;  // stale
    }
    // Re-check the merge condition (versions make this redundant, but the
    // invariant is cheap to assert).
    if (clusters[c.a].cf().DiameterWithMerge(clusters[c.b].cf()) >
        diameter_threshold) {
      continue;
    }
    clusters[c.a].Merge(clusters[c.b]);
    alive[c.b] = false;
    ++version[c.a];
    ++merges;
    for (size_t j = 0; j < clusters.size(); ++j) {
      if (j != c.a && alive[j]) push_if_mergeable(c.a, j);
    }
  }

  std::vector<Acf> out;
  out.reserve(clusters.size() - merges);
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (alive[i]) out.push_back(std::move(clusters[i]));
  }
  return out;
}

}  // namespace dar
