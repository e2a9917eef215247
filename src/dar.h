#ifndef DAR_DAR_H_
#define DAR_DAR_H_

/// Umbrella header: the full public API of the distance-based
/// association-rule library. Include this (and link the `dar` CMake
/// target) to get everything; individual headers remain available for
/// finer-grained dependencies.
///
/// API stability tiers (mirrored in README.md):
///
///   Stable — semantics and signatures only change with a deprecation
///   cycle: Session/DarConfig/MiningReport, the relation layer (Schema,
///   Relation, AttributePartition, CSV), the rule model (ClusterSet,
///   DistanceRule), Status/Result, Executor, telemetry registries, the
///   streaming miner's ingest/remine/checkpoint surface, QueryService
///   and the serve protocol, and the checkpoint container format
///   (persist/checkpoint_io.h — versioned independently of the library).
///
///   Experimental — may change signature or semantics without notice:
///   the distributed mining layer (Session::MineFromCheckpoints,
///   Phase1Builder::MergeFrom, MergeCheckpoints in persist/merge.h), the
///   quality layer (src/quality: interestingness measures, redundancy
///   pruning, snapshot diffing), the clique engine (src/graph: CSR Graph,
///   EnumerateMaximalCliques), the advisor, and the generalized-QAR
///   bridge.
///
/// Deprecated symbols are removed at the next minor release; the tree
/// carries none outside the deprecation machinery itself (enforced by
/// tools/dar_lint.py rule `no-lingering-deprecated`).

#include "apriori/apriori.h"     // IWYU pragma: export
#include "apriori/itemset.h"     // IWYU pragma: export
#include "birch/acf.h"           // IWYU pragma: export
#include "birch/acf_tree.h"      // IWYU pragma: export
#include "birch/cf.h"            // IWYU pragma: export
#include "birch/metrics.h"       // IWYU pragma: export
#include "birch/refine.h"        // IWYU pragma: export
#include "common/executor.h"     // IWYU pragma: export
#include "common/random.h"       // IWYU pragma: export
#include "common/result.h"       // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "common/stopwatch.h"    // IWYU pragma: export
#include "core/advisor.h"        // IWYU pragma: export
#include "core/clustering_graph.h"  // IWYU pragma: export
#include "core/config.h"         // IWYU pragma: export
#include "core/generalized_qar.h"   // IWYU pragma: export
#include "core/miner_result.h"   // IWYU pragma: export
#include "core/mining_report.h"  // IWYU pragma: export
#include "core/model.h"          // IWYU pragma: export
#include "core/observer.h"       // IWYU pragma: export
#include "core/phase1_builder.h"    // IWYU pragma: export
#include "core/session.h"        // IWYU pragma: export
#include "core/report.h"         // IWYU pragma: export
#include "core/rule_gen.h"       // IWYU pragma: export
#include "core/rules.h"          // IWYU pragma: export
#include "datagen/fixtures.h"    // IWYU pragma: export
#include "datagen/graphs.h"      // IWYU pragma: export
#include "datagen/planted.h"     // IWYU pragma: export
#include "graph/clique.h"        // IWYU pragma: export
#include "graph/graph.h"         // IWYU pragma: export
#include "persist/checkpoint_io.h"  // IWYU pragma: export
#include "persist/codec.h"       // IWYU pragma: export
#include "persist/merge.h"       // IWYU pragma: export
#include "qar/equidepth.h"       // IWYU pragma: export
#include "qar/qar_miner.h"       // IWYU pragma: export
#include "quality/diff.h"        // IWYU pragma: export
#include "quality/interval_match.h" // IWYU pragma: export
#include "quality/measure.h"     // IWYU pragma: export
#include "quality/prune.h"       // IWYU pragma: export
#include "quality/scored_rules.h"   // IWYU pragma: export
#include "relation/csv.h"        // IWYU pragma: export
#include "relation/metric.h"     // IWYU pragma: export
#include "relation/partition.h"  // IWYU pragma: export
#include "relation/relation.h"   // IWYU pragma: export
#include "relation/schema.h"     // IWYU pragma: export
#include "serve/admission.h"     // IWYU pragma: export
#include "serve/client.h"        // IWYU pragma: export
#include "serve/http_adapter.h"  // IWYU pragma: export
#include "serve/protocol.h"      // IWYU pragma: export
#include "serve/query_api.h"     // IWYU pragma: export
#include "serve/query_service.h"    // IWYU pragma: export
#include "serve/server.h"        // IWYU pragma: export
#include "stream/rule_index.h"   // IWYU pragma: export
#include "stream/rule_snapshot.h"   // IWYU pragma: export
#include "stream/stream_config.h"   // IWYU pragma: export
#include "stream/streaming_miner.h" // IWYU pragma: export
#include "telemetry/context.h"   // IWYU pragma: export
#include "telemetry/json.h"      // IWYU pragma: export
#include "telemetry/metrics.h"   // IWYU pragma: export
#include "telemetry/trace.h"     // IWYU pragma: export

#endif  // DAR_DAR_H_
