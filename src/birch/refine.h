#ifndef DAR_BIRCH_REFINE_H_
#define DAR_BIRCH_REFINE_H_

#include <vector>

#include "birch/acf.h"
#include "birch/metrics.h"

namespace dar {

/// Agglomeratively merges a flat set of cluster summaries: repeatedly joins
/// the closest pair (by centroid distance on the own part) while both their
/// centroid distance and the merged diameter stay within
/// `diameter_threshold`. A threshold of 0 or below merges nothing.
///
/// This is BIRCH's global-clustering phase adapted to ACFs. The insertion
/// order sensitivity of the CF-tree routinely *fragments* a natural cluster
/// into several leaf entries (the paper attributes its ~4% centroid drift
/// to "the use of a non-optimal clustering strategy"); a refinement pass
/// over the extracted summaries repairs most fragmentation at
/// O(C^2 log C) cost in the number of clusters — cheap relative to the
/// scan, since C is memory-bounded.
///
/// All input summaries must share the same layout and own part.
std::vector<Acf> RefineClusters(std::vector<Acf> clusters,
                                double diameter_threshold);

}  // namespace dar

#endif  // DAR_BIRCH_REFINE_H_
