#ifndef DAR_CORE_CLUSTERING_GRAPH_H_
#define DAR_CORE_CLUSTERING_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "birch/metrics.h"
#include "common/executor.h"
#include "core/model.h"
#include "core/observer.h"
#include "graph/clique.h"
#include "graph/graph.h"
#include "telemetry/context.h"

namespace dar {

/// Construction parameters for the clustering graph (Dfn 6.1).
struct ClusteringGraphOptions {
  /// Inter-cluster metric D.
  ClusterMetric metric = ClusterMetric::kD2AvgInter;
  /// Per-part density thresholds d0^X (already multiplied by the Phase-II
  /// leniency factor by the caller).
  std::vector<double> d0;
  /// §6.2 pruning heuristic (see DarConfig::prune_low_density_images).
  bool prune_low_density_images = true;
  /// Optional executor for the edge-evaluation sweep and the clique
  /// search (not owned, may be null = serial). Cluster-pair ranges are
  /// sharded statically and the per-shard edge buffers merged in
  /// cluster-id order; the clique engine fans connected components the
  /// same way — so both the graph and its cliques are bit-identical for
  /// every executor.
  Executor* executor = nullptr;
  /// Optional observer (not owned, may be null). OnGraphEdge and
  /// OnCliqueFound fire from the coordinating thread, serially and in
  /// deterministic order.
  MiningObserver* observer = nullptr;
  /// Optional recording context (default: disabled). The pair sweep
  /// records per-shard wall times into the "phase2.shard_seconds"
  /// histogram and the clique engine its graph.* metrics; the
  /// deterministic phase2.* counters (evaluations, pruned pairs, edges)
  /// are recorded by the Phase-II runner from the accessors.
  telemetry::TelemetryContext telemetry;
};

/// The clustering graph of Dfn 6.1: one node per frequent cluster, and an
/// undirected edge between clusters C_X (on part X) and C_Y (on part Y != X)
/// iff both `D(C_X[X], C_Y[X]) <= d0^X` and `D(C_X[Y], C_Y[Y]) <= d0^Y` —
/// i.e. the two clusters' tuple sets co-occur in both projections. Cliques
/// of this graph are the "large itemsets" of distance-based rules.
///
/// Storage is a flat CSR dar::graph::Graph built once from the sharded
/// edge sweep; maximal-clique enumeration delegates to
/// graph::EnumerateMaximalCliques (degeneracy-ordered iterative
/// Bron-Kerbosch, per-component executor parallelism).
class ClusteringGraph {
 public:
  /// Builds the graph from the Phase-I cluster set. By the ACF
  /// Representativity Theorem (Thm 6.1) this touches only ACFs. The
  /// O(n^2/2) pair evaluation runs on options.executor when given; each
  /// pair's edge test is a pure function of the two ACFs, so the edge set
  /// does not depend on the schedule.
  ClusteringGraph(const ClusterSet& clusters,
                  const ClusteringGraphOptions& options);

  [[nodiscard]] size_t num_nodes() const { return graph_.num_nodes(); }
  [[nodiscard]] size_t num_edges() const { return graph_.num_edges(); }

  [[nodiscard]] bool HasEdge(size_t a, size_t b) const {
    return graph_.HasEdge(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
  }
  [[nodiscard]] std::span<const uint32_t> Neighbors(size_t node) const {
    return graph_.Neighbors(static_cast<uint32_t>(node));
  }

  /// The underlying CSR graph (valid as long as this object lives).
  [[nodiscard]] const graph::Graph& graph() const { return graph_; }

  /// Number of candidate pairs whose distances were actually evaluated,
  /// and number skipped by the density-image pruning heuristic. For the
  /// ablation bench.
  [[nodiscard]] int64_t comparisons_made() const { return comparisons_made_; }
  [[nodiscard]] int64_t comparisons_skipped() const { return comparisons_skipped_; }

  /// The graph's maximal cliques: budgets, backend tuning, and executor
  /// come from `options` (the constructor's executor/telemetry are *not*
  /// implied — pass them again if wanted). The pipeline's budget mapping
  /// (DarConfig::max_cliques and its step budget) lives in
  /// RunPhase2OnSummaries. Fires OnCliqueFound per kept clique, in
  /// canonical order, from the calling thread.
  [[nodiscard]] graph::CliqueResult EnumerateCliques(
      graph::CliqueOptions options) const;

 private:
  graph::Graph graph_;
  int64_t comparisons_made_ = 0;
  int64_t comparisons_skipped_ = 0;
  MiningObserver* observer_ = nullptr;  // not owned; may be null
};

}  // namespace dar

#endif  // DAR_CORE_CLUSTERING_GRAPH_H_
