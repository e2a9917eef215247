#ifndef DAR_CORE_ADVISOR_H_
#define DAR_CORE_ADVISOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace dar {

/// Suggested mining parameters with a human-readable rationale.
struct ThresholdAdvice {
  std::vector<double> initial_diameters;   // per part (Phase I, d0^X)
  std::vector<double> density_thresholds;  // per part (Phase II graph)
  /// Per-part D0 (degrees live on the consequent part's scale).
  std::vector<double> degree_thresholds;
  double degree_threshold = 0;  // scalar fallback (mean of the above)
  std::string rationale;
};

/// Suggests per-part thresholds from a sample of 1,000 rows (uniform
/// without replacement at a fixed seed, so the advice is deterministic;
/// the whole relation when smaller).
///
/// The paper notes (§1) that classical association-rule mining gives the
/// user "no guidance on selecting the confidence or support thresholds";
/// distance-based mining adds *more* knobs (d0^X per part, D0). This
/// advisor derives starting points from two robust scale statistics per
/// attribute set:
///
///  - the median nearest-neighbour distance (the within-cluster scale) for
///    the Phase-I diameter threshold: the middle of the widest plateau of a
///    threshold ladder that starts there, or 4x the distance when the
///    sample shows no multi-cluster structure (clusters should absorb
///    neighbours, not bridge gaps), and
///  - the RMS spread (the between-cluster/image scale) for the Phase-II
///    density and degree thresholds: 0.8 of it, and no less than the
///    diameter (inter-cluster image distances live on the spread scale
///    once clusters absorb any outliers; see EXPERIMENTS.md).
///
/// Discrete-metric parts get the exact thresholds the theorems prescribe
/// (diameter 0, density/degree below 1). Suggestions are heuristics — a
/// starting point for the sensitivity sweeps in bench/, not an oracle.
Result<ThresholdAdvice> SuggestThresholds(const Relation& rel,
                                          const AttributePartition& partition);

}  // namespace dar

#endif  // DAR_CORE_ADVISOR_H_
