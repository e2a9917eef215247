#ifndef DAR_CORE_CONFIG_H_
#define DAR_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "birch/metrics.h"
#include "common/status.h"

namespace dar {

/// All knobs of the two-phase DAR mining algorithm (§6).
struct DarConfig {
  // --- Phase I (clustering) ---
  // The paper's four settings (§4.3.1, §7.2); Phase1Builder derives every
  // ACF-tree option it sets from them.

  /// Total memory budget for all ACF-trees together, split evenly across
  /// the attribute-set trees (the paper's 5 MB Phase-I limit, §7.2).
  size_t memory_budget_bytes = 5u << 20;

  /// Frequency threshold s0 as a fraction of the relation size: clusters
  /// supported by fewer tuples are not passed to Phase II (Dfn 4.2; §7.2
  /// uses 3%).
  double frequency_fraction = 0.03;

  /// Clusters smaller than `outlier_fraction * s0` tuples are paged out as
  /// outlier candidates during tree rebuilds (§4.3.1: "significantly
  /// smaller than the frequency threshold"). 0 disables outlier paging.
  double outlier_fraction = 0.25;

  /// Optional per-part initial diameter thresholds d0^X for the trees.
  /// Empty, or 0 for a part, means start at 0 and let memory pressure
  /// adapt the threshold (BIRCH behaviour).
  std::vector<double> initial_diameters;

  /// When true, a global refinement pass (BIRCH's agglomerative phase,
  /// birch/refine.h) merges fragmented leaf clusters per part after the
  /// scan, using the part's final diameter threshold. Off by default to
  /// match the paper's two-phase algorithm exactly; bench/ablation_refine
  /// quantifies the effect.
  bool refine_clusters = false;

  // --- Phase II (rule formation) ---

  /// Inter-cluster distance metric D used for the degree of association and
  /// the clustering-graph conditions. D2 (Eq. 6) is the paper's primary
  /// choice and the one its theorems use.
  ClusterMetric metric = ClusterMetric::kD2AvgInter;

  /// Degree-of-association threshold D0 (Dfn 5.1/5.3): a rule holds when
  /// every antecedent-to-consequent image distance is <= this.
  double degree_threshold = 1.0;

  /// Optional per-part degree thresholds: the degree test for a consequent
  /// cluster on part Y uses degree_thresholds[Y] when set (non-empty).
  /// Degrees are measured on the consequent part's scale, so a single
  /// global D0 is only meaningful when the parts share a scale — the
  /// standardization problem the paper discusses in Sec 5.2. Empty means
  /// use the scalar degree_threshold for every part.
  std::vector<double> degree_thresholds;

  /// Optional per-part density thresholds d0^X used by the clustering
  /// graph (Dfn 6.1). A part with no override (empty vector or 0) uses
  /// max(final tree threshold, median diameter of that part's frequent
  /// clusters).
  std::vector<double> density_thresholds;

  /// Multiplier on the d0^X thresholds for Phase-II graph edges. §6.2:
  /// "using a more lenient (higher) threshold in Phase II produces a better
  /// set of rules".
  double phase2_leniency = 2.0;

  /// Enables the §6.2 comparison-pruning heuristic: image clusters whose
  /// radius already exceeds the density threshold cannot contribute an edge
  /// under D2 (D2(A,B) >= max(R_A, R_B)), so those pairs are skipped
  /// without computing distances. Only applied when `metric` is D2.
  bool prune_low_density_images = true;

  /// Arity caps for emitted rules (antecedent / consequent cluster counts).
  size_t max_antecedent = 3;
  size_t max_consequent = 2;

  /// Hard cap on emitted rules; exceeding it sets `rules_truncated` in the
  /// result rather than silently dropping work.
  size_t max_rules = 100000;

  /// Hard cap on enumerated maximal cliques (0 = unbounded). Over-lenient
  /// thresholds can make the clustering graph dense, whose clique count is
  /// exponential; the cap sets `cliques_truncated` instead of exhausting
  /// memory.
  size_t max_cliques = 100000;

  /// When true, Phase II is followed by one data rescan that counts, for
  /// every emitted rule, the tuples assigned to all of its clusters
  /// (§6.2's optional post-processing step).
  bool count_rule_support = false;

  /// Checks every knob for sanity: rejects zero memory budget,
  /// `frequency_fraction` outside (0, 1], negative or NaN thresholds and
  /// fractions, `phase2_leniency < 1`, zero rule arities, and per-part
  /// vectors (`initial_diameters`, `degree_thresholds`,
  /// `density_thresholds`) whose non-empty sizes disagree with each other.
  /// Session::Builder::Build and Phase1Builder::Make refuse to construct on
  /// any violation; the returned Status names the offending knob.
  [[nodiscard]] Status Validate() const;
};

}  // namespace dar

#endif  // DAR_CORE_CONFIG_H_
