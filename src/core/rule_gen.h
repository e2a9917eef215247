#ifndef DAR_CORE_RULE_GEN_H_
#define DAR_CORE_RULE_GEN_H_

#include <vector>

#include "birch/metrics.h"
#include "core/clustering_graph.h"
#include "core/model.h"
#include "core/rules.h"

namespace dar {

/// Parameters of the clique-pair rule enumeration (§6.2).
struct RuleGenOptions {
  ClusterMetric metric = ClusterMetric::kD2AvgInter;
  /// Degree-of-association threshold D0.
  double degree_threshold = 1.0;
  /// Optional per-part override of D0, keyed by the consequent cluster's
  /// part (see DarConfig::degree_thresholds).
  std::vector<double> degree_thresholds;
  size_t max_antecedent = 3;
  size_t max_consequent = 2;
  size_t max_rules = 100000;
};

/// Rule-generation output plus diagnostics.
struct RuleGenResult {
  std::vector<DistanceRule> rules;
  /// True when max_rules stopped enumeration early (never silent).
  bool truncated = false;
  /// Number of assoc-set distance evaluations performed.
  int64_t degree_evaluations = 0;
};

/// Emits all DARs from the maximal cliques of the clustering graph,
/// following §6.2: for every ordered pair of cliques (Q1, Q2) — including
/// Q1 == Q2 — and every consequent subset C_Y' of Q2, emit
/// `C_X' => C_Y'` for every antecedent subset C_X' of the intersection of
/// `assoc(C_Yj) = {C_X in Q1 : D(C_Yj[Yj], C_X[Yj]) <= D0}` over C_Y',
/// with all attribute sets pairwise disjoint. Duplicate rules arising from
/// overlapping cliques are emitted once, with arity bounded by the options.
///
/// Each clique lists distinct cluster ids of `clusters` in ascending order,
/// as graph::EnumerateCliques returns them. The work follows the output:
///  - One degree table. Every cross-part degree D(C_Y[Y], C_X[Y]) between
///    clustered ids is evaluated once, in ascending (C_Y, C_X) order, and
///    assoc(C_Y) is kept as the sorted (C_X, degree) pairs within D0.
///  - Partner cliques. For each Q2, only the Q1 that hold a member of some
///    assoc(C_Y), C_Y in Q2, are visited, in ascending index order; every
///    other pair emits nothing.
///  - First-owner dedup. `X => Y` arises exactly at the pairs with
///    Q2 ⊇ Y and Q1 ⊇ X, so it is emitted only at the first clique
///    containing Y paired with the first clique containing X.
///
/// Emission order is a contract: pairs by ascending (Q2, Q1) index, then
/// consequents, then antecedents, each in the lexicographic order of their
/// ascending ids (a subset before its extensions). This is the sequence of
/// the all-pairs definition above, so an unstable sort by degree alone
/// (RunPhase2OnSummaries) orders ties the same way and `max_rules` cuts at
/// the same rule. `degree_evaluations` counts the table, which is every
/// cross-part pair even when `max_rules` stops the enumeration early.
RuleGenResult GenerateDistanceRules(
    const ClusterSet& clusters,
    const std::vector<std::vector<size_t>>& cliques,
    const RuleGenOptions& options);

/// The degree of association of a concrete rule `antecedent => consequent`
/// under metric `m`: max over pairs of D(C_Yj[Yj], C_Xi[Yj]). Exposed for
/// tests and for evaluating user-specified rules (Figure 2 / Figure 4
/// scenarios).
double DegreeOfAssociation(const ClusterSet& clusters,
                           const std::vector<size_t>& antecedent,
                           const std::vector<size_t>& consequent,
                           ClusterMetric m);

}  // namespace dar

#endif  // DAR_CORE_RULE_GEN_H_
