#ifndef DAR_CORE_REPORT_H_
#define DAR_CORE_REPORT_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "core/miner_result.h"
#include "relation/partition.h"

namespace dar {

/// Serializes a mining result as compact JSON for downstream tools: the
/// run's thresholds, every frequent cluster (part, size, centroid, bounding
/// box, diameter) and every rule (cluster ids, degree, optional support).
/// Clusters are referenced by id from the rules, so the output is
/// self-contained. Written through telemetry::JsonWriter: numbers carry the
/// shortest digits that parse back to the exact double (a non-finite one
/// is null), and strings are escaped, control characters included.
std::string MiningResultToJson(const DarMiningResult& result,
                               const Schema& schema,
                               const AttributePartition& partition);

/// Writes MiningResultToJson to `out`, followed by a newline.
Status WriteMiningReport(const DarMiningResult& result, const Schema& schema,
                         const AttributePartition& partition,
                         std::ostream& out);

/// Plain-text summary (counts, thresholds, the strongest rules) for logs
/// and CLIs. `max_rules` bounds the rule listing.
std::string MiningResultSummary(const DarMiningResult& result,
                                const Schema& schema,
                                const AttributePartition& partition,
                                size_t max_rules = 20);

}  // namespace dar

#endif  // DAR_CORE_REPORT_H_
