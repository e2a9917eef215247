#include "stream/rule_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace dar {

RuleIndex RuleIndex::Build(const ClusterSet& clusters,
                           const std::vector<DistanceRule>& rules,
                           const AttributePartition& partition) {
  RuleIndex index;
  index.parts_.resize(partition.num_parts());

  for (size_t p = 0; p < partition.num_parts(); ++p) {
    PartIndex& part = index.parts_[p];
    part.columns = partition.part(p).columns;
    part.label = partition.part(p).label;
    for (size_t col : part.columns) {
      index.min_row_width_ = std::max(index.min_row_width_, col + 1);
    }
    if (p < clusters.num_parts()) {
      const std::vector<size_t>& on_part = clusters.ClustersOnPart(p);
      part.ids.assign(on_part.begin(), on_part.end());
    }
    // Sort by the box's lower bound on the part's first dimension, ties by
    // id, so the layout is a pure function of the cluster set.
    std::vector<std::vector<Interval>> boxes(part.ids.size());
    for (size_t i = 0; i < part.ids.size(); ++i) {
      const auto bb = clusters.cluster(part.ids[i]).acf.BoundingBox(p);
      boxes[i].reserve(bb.size());
      for (const auto& [lo, hi] : bb) boxes[i].push_back({lo, hi});
    }
    std::vector<size_t> order(part.ids.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const double la = boxes[a].empty() ? 0 : boxes[a][0].lo;
      const double lb = boxes[b].empty() ? 0 : boxes[b][0].lo;
      if (la != lb) return la < lb;
      return part.ids[a] < part.ids[b];
    });
    std::vector<size_t> sorted_ids;
    sorted_ids.reserve(order.size());
    part.lo0.reserve(order.size());
    part.prefix_max_hi.reserve(order.size());
    part.boxes.reserve(order.size());
    double running_max = -std::numeric_limits<double>::infinity();
    for (size_t i : order) {
      sorted_ids.push_back(part.ids[i]);
      part.lo0.push_back(boxes[i].empty() ? 0 : boxes[i][0].lo);
      running_max =
          std::max(running_max, boxes[i].empty() ? 0 : boxes[i][0].hi);
      part.prefix_max_hi.push_back(running_max);
      part.boxes.push_back(std::move(boxes[i]));
    }
    part.ids = std::move(sorted_ids);
  }

  // Records hold rule and cluster ids as uint32.
  DAR_CHECK_LE(clusters.size(), std::numeric_limits<uint32_t>::max());
  DAR_CHECK_LE(rules.size(), std::numeric_limits<uint32_t>::max());
  const size_t num_clusters = clusters.size();
  index.num_rules_ = rules.size();
  index.records_.resize(num_clusters);
  for (size_t k = 0; k < rules.size(); ++k) {
    const DistanceRule& rule = rules[k];
    size_t anchor = num_clusters;
    bool in_range = true;
    for (const auto* side : {&rule.antecedent, &rule.consequent}) {
      for (size_t id : *side) {
        in_range = in_range && id < num_clusters;
        anchor = std::min(anchor, id);
      }
    }
    // Naming no cluster, or one that does not exist: it can never fire.
    if (!in_range || anchor == num_clusters) continue;
    std::vector<uint32_t>& out = index.records_[anchor];
    out.push_back(static_cast<uint32_t>(k));
    const size_t n_at = out.size();
    out.push_back(0);
    for (const auto* side : {&rule.antecedent, &rule.consequent}) {
      for (size_t id : *side) {
        if (id != anchor) out.push_back(static_cast<uint32_t>(id));
      }
    }
    // n counts the ids written, so repeated ids still parse.
    out[n_at] = static_cast<uint32_t>(out.size() - n_at - 1);
  }
  return index;
}

Result<RuleIndex::Hits> RuleIndex::Query(std::span<const double> row,
                                         QueryScratch& scratch) const {
  if (row.size() < min_row_width_) {
    return Status::InvalidArgument(
        "query tuple has " + std::to_string(row.size()) +
        " values; the partitioning references column " +
        std::to_string(min_row_width_ - 1));
  }
  // A NaN compares false against every box edge, so it would sit inside
  // every box on its part; reject non-finite values outright.
  for (const PartIndex& part : parts_) {
    for (size_t col : part.columns) {
      if (!std::isfinite(row[col])) {
        return Status::InvalidArgument(
            "query tuple value at column " + std::to_string(col) +
            " (part \"" + part.label + "\") is " + std::to_string(row[col]) +
            "; point queries need finite values");
      }
    }
  }
  scratch.clusters.clear();
  scratch.rules.clear();
  scratch.touched.clear();

  for (const PartIndex& part : parts_) {
    if (part.ids.empty()) continue;
    const double v0 = row[part.columns[0]];
    // Candidates must have lo0 <= v0; walk left from the upper bound while
    // some candidate's dim-0 interval can still reach v0.
    auto it = std::upper_bound(part.lo0.begin(), part.lo0.end(), v0);
    for (size_t i = static_cast<size_t>(it - part.lo0.begin()); i-- > 0;) {
      if (part.prefix_max_hi[i] < v0) break;  // nothing earlier reaches v0
      const std::vector<Interval>& box = part.boxes[i];
      bool contains = true;
      for (size_t d = 0; d < box.size(); ++d) {
        const double v = row[part.columns[d]];
        if (v < box[d].lo || v > box[d].hi) {
          contains = false;
          break;
        }
      }
      if (contains) scratch.clusters.push_back(part.ids[i]);
    }
  }
  std::sort(scratch.clusters.begin(), scratch.clusters.end());

  // A rule fires iff every one of its clusters contains the tuple, so
  // only the records anchored at a containing cluster can fire. Mark the
  // containing clusters, test each candidate's other ids against the
  // marks, and collect firing ids in the bitmap.
  std::vector<uint8_t>& contains = scratch.contains;
  std::vector<uint64_t>& firing = scratch.firing;
  const size_t words = (num_rules_ + 63) / 64;
  if (contains.size() < records_.size()) contains.resize(records_.size());
  if (firing.size() < words) firing.resize(words);
  for (size_t id : scratch.clusters) contains[id] = 1;
  for (size_t id : scratch.clusters) {
    const std::vector<uint32_t>& records = records_[id];
    for (size_t i = 0; i < records.size();) {
      const uint32_t k = records[i];
      const uint32_t n = records[i + 1];
      const uint32_t* others = records.data() + i + 2;
      scratch.touched.push_back(k);
      bool fires = true;
      for (uint32_t j = 0; j < n && fires; ++j) fires = contains[others[j]];
      if (fires) firing[k / 64] |= uint64_t{1} << (k % 64);
      i += 2 + n;
    }
  }
  for (size_t id : scratch.clusters) contains[id] = 0;
  // Read the bitmap back in ascending order, clearing it as it is read.
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = firing[w]; bits != 0; bits &= bits - 1) {
      scratch.rules.push_back(w * 64 + std::countr_zero(bits));
    }
    firing[w] = 0;
  }
  return Hits{std::span<const size_t>(scratch.clusters),
              std::span<const size_t>(scratch.rules)};
}

}  // namespace dar
