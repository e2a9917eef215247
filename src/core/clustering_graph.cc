#include "core/clustering_graph.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "telemetry/trace.h"

namespace dar {

namespace {

// Radius of the image of cluster `c` on part `p`: a lower bound on any D2
// distance involving that image (D2(A,B)^2 = R_A^2 + R_B^2 + ||cA - cB||^2).
double ImageRadius(const FoundCluster& c, size_t p) {
  return c.acf.image(p).Radius();
}

// Splits the outer-loop rows [0, n) of the strictly-upper-triangular pair
// sweep into at most `max_shards` contiguous ranges with roughly equal
// *pair* counts (row i carries n-1-i pairs, so equal row ranges would be
// badly skewed). Returns the shard boundaries, bounds[s]..bounds[s+1].
std::vector<size_t> PairShardBounds(size_t n, size_t max_shards) {
  std::vector<size_t> bounds = {0};
  if (n == 0) {
    bounds.push_back(0);
    return bounds;
  }
  size_t shards = std::max<size_t>(1, std::min(max_shards, n));
  double total = 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
  double per_shard = total / static_cast<double>(shards);
  double acc = 0;
  for (size_t i = 0; i < n && bounds.size() < shards; ++i) {
    acc += static_cast<double>(n - 1 - i);
    if (acc >= per_shard * static_cast<double>(bounds.size())) {
      bounds.push_back(i + 1);
    }
  }
  while (bounds.size() < shards + 1) bounds.push_back(n);
  bounds.back() = n;
  return bounds;
}

}  // namespace

ClusteringGraph::ClusteringGraph(const ClusterSet& clusters,
                                 const ClusteringGraphOptions& options)
    : observer_(options.observer) {
  size_t n = clusters.size();
  DAR_CHECK_EQ(options.d0.size(), clusters.num_parts());

  bool can_prune = options.prune_low_density_images &&
                   options.metric == ClusterMetric::kD2AvgInter;

  // Precompute the pruning predicate per (cluster, part): true when the
  // cluster's image on that part is too diffuse to satisfy the threshold.
  std::vector<std::vector<bool>> image_too_diffuse;
  if (can_prune) {
    image_too_diffuse.assign(n, std::vector<bool>(clusters.num_parts()));
    for (size_t i = 0; i < n; ++i) {
      for (size_t p = 0; p < clusters.num_parts(); ++p) {
        image_too_diffuse[i][p] =
            ImageRadius(clusters.cluster(i), p) > options.d0[p];
      }
    }
  }

  // Shard the pair sweep over contiguous outer-row ranges. Every pair is
  // evaluated exactly once by a pure predicate, each shard appends its
  // edges (in (i, j) order) to its own buffer, and the buffers are merged
  // in shard order below — so edges, counters, and adjacency are
  // bit-identical to the serial sweep for any executor and thread count.
  Executor& executor = ResolveExecutor(options.executor);
  std::vector<size_t> bounds =
      PairShardBounds(n, static_cast<size_t>(executor.parallelism()));
  size_t num_shards = bounds.size() - 1;
  struct Shard {
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    int64_t made = 0;
    int64_t skipped = 0;
  };
  std::vector<Shard> shards(num_shards);

  // Resolved once on the coordinator; per-shard Record calls are
  // lock-free and may fire concurrently.
  telemetry::Histogram* shard_hist = options.telemetry.GetHistogram(
      "phase2.shard_seconds", telemetry::Histogram::LatencyBounds());
  auto sweep_shard = [&](size_t s) -> Status {
    const telemetry::TraceSpan span(shard_hist);
    Shard& shard = shards[s];
    for (size_t i = bounds[s]; i < bounds[s + 1]; ++i) {
      const FoundCluster& a = clusters.cluster(i);
      for (size_t j = i + 1; j < n; ++j) {
        const FoundCluster& b = clusters.cluster(j);
        if (a.part == b.part) continue;  // clusters on one part are exclusive
        if (can_prune) {
          // Edge needs D(a[a.part], b[a.part]) <= d0[a.part]; under D2 the
          // distance is at least the radius of either image.
          if (image_too_diffuse[j][a.part] || image_too_diffuse[i][b.part]) {
            ++shard.skipped;
            continue;
          }
        }
        ++shard.made;
        double d_on_a = ClusterDistance(a.acf.image(a.part),
                                        b.acf.image(a.part), options.metric);
        if (d_on_a > options.d0[a.part]) continue;
        double d_on_b = ClusterDistance(a.acf.image(b.part),
                                        b.acf.image(b.part), options.metric);
        if (d_on_b > options.d0[b.part]) continue;
        shard.edges.emplace_back(static_cast<uint32_t>(i),
                                 static_cast<uint32_t>(j));
      }
    }
    return Status::OK();
  };
  // sweep_shard cannot fail; the Status plumbing exists for ParallelFor.
  (void)executor.ParallelFor(num_shards, sweep_shard);

  // Deterministic merge: shard s covers rows before shard s+1, so visiting
  // buffers in shard order replays the serial (i, j) edge order exactly.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (const Shard& shard : shards) {
    comparisons_made_ += shard.made;
    comparisons_skipped_ += shard.skipped;
    for (const auto& [i, j] : shard.edges) {
      edges.emplace_back(i, j);
      if (observer_ != nullptr) observer_->OnGraphEdge(i, j);
    }
  }
  graph_ = graph::Graph::FromEdges(n, edges);
}

graph::CliqueResult ClusteringGraph::EnumerateCliques(
    graph::CliqueOptions options) const {
  graph::CliqueResult result = graph::EnumerateMaximalCliques(graph_, options);
  if (observer_ != nullptr) {
    std::vector<size_t> clique;
    for (const auto& c : result.cliques) {
      clique.assign(c.begin(), c.end());
      observer_->OnCliqueFound(clique);
    }
  }
  return result;
}

}  // namespace dar
