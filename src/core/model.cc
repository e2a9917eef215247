#include "core/model.h"

#include <limits>
#include <sstream>

#include "birch/metrics.h"
#include "common/logging.h"
#include "common/str_util.h"

namespace dar {

ClusterSet::ClusterSet(std::shared_ptr<const AcfLayout> layout,
                       std::vector<FoundCluster> clusters)
    : layout_(std::move(layout)), clusters_(std::move(clusters)) {
  DAR_CHECK(layout_ != nullptr);
  by_part_.resize(layout_->num_parts());
  for (size_t i = 0; i < clusters_.size(); ++i) {
    DAR_CHECK_EQ(clusters_[i].id, i);
    by_part_.at(clusters_[i].part).push_back(i);
  }
}

Result<size_t> ClusterSet::AssignToCluster(
    size_t p, std::span<const double> values) const {
  if (p >= by_part_.size()) {
    return Status::InvalidArgument("part " + std::to_string(p) +
                                   " is outside the " +
                                   std::to_string(by_part_.size()) +
                                   "-part cluster set");
  }
  if (values.size() != layout_->parts[p].dim) {
    return Status::InvalidArgument(
        "point has " + std::to_string(values.size()) + " values, part " +
        std::to_string(p) + " has dimension " +
        std::to_string(layout_->parts[p].dim));
  }
  const std::vector<size_t>& ids = by_part_[p];
  if (ids.empty()) {
    return Status::NotFound("part " + std::to_string(p) +
                            " has no frequent clusters");
  }
  size_t best = ids[0];
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t id : ids) {
    double d = PointClusterDistance(values, clusters_[id].acf.cf());
    if (d < best_d) {
      best_d = d;
      best = id;
    }
  }
  return best;
}

Result<CentroidTable> CentroidTable::Make(const Relation& rel,
                                          const AttributePartition& partition,
                                          const ClusterSet& clusters) {
  if (partition.num_parts() != clusters.num_parts()) {
    return Status::InvalidArgument(
        "partition has " + std::to_string(partition.num_parts()) +
        " parts but the cluster set has " +
        std::to_string(clusters.num_parts()));
  }
  CentroidTable table;
  table.clusters_ = &clusters;
  table.parts_.resize(partition.num_parts());
  for (size_t p = 0; p < partition.num_parts(); ++p) {
    const AttributeSet& set = partition.part(p);
    const PartSpec& spec = clusters.layout().parts[p];
    if (set.dimension() != spec.dim) {
      return Status::InvalidArgument(
          "part " + std::to_string(p) + " has " +
          std::to_string(set.dimension()) + " columns but its clusters are " +
          std::to_string(spec.dim) + "-dimensional");
    }
    Part& part = table.parts_[p];
    part.ids = clusters.ClustersOnPart(p);
    part.dim = spec.dim;
    part.metric = spec.metric;
    part.first_column = table.columns_.size();
    for (const size_t col : set.columns) {
      if (col >= rel.num_columns()) {
        return Status::InvalidArgument(
            "part " + std::to_string(p) + " reads column " +
            std::to_string(col) + " but the relation has " +
            std::to_string(rel.num_columns()) + " columns");
      }
      table.columns_.push_back(rel.column(col).data());
    }
    part.first_centroid = table.centroids_.size();
    if (part.metric == MetricKind::kDiscrete) continue;
    table.centroids_.resize(part.first_centroid + part.ids.size() * part.dim);
    double* centroid = table.centroids_.data() + part.first_centroid;
    for (const size_t id : part.ids) {
      const CfVector& cf = clusters.cluster(id).acf.cf();
      DAR_CHECK(cf.metric() == part.metric);
      DAR_CHECK_EQ(cf.dim(), part.dim);
      DAR_CHECK_GT(cf.n(), 0);
      WriteCentroid(cf, centroid);
      centroid += part.dim;
    }
  }
  return table;
}

int64_t CentroidTable::Assign(size_t p, size_t row,
                              std::vector<double>& scratch) const {
  const Part& part = parts_[p];
  if (part.ids.empty()) return -1;
  const double* const* cols = columns_.data() + part.first_column;
  if (part.metric == MetricKind::kDiscrete) {
    scratch.resize(part.dim);
    for (size_t d = 0; d < part.dim; ++d) scratch[d] = cols[d][row];
    return static_cast<int64_t>(*clusters_->AssignToCluster(p, scratch));
  }
  // AssignToCluster's scan, over ascending ids: the first cluster wins a
  // tie, and the first when nothing is less than infinity.
  const NearestCentroid nearest = FindNearestCentroid(
      centroids_.data() + part.first_centroid, part.ids.size(), part.dim,
      part.metric, [cols, row](size_t d) { return cols[d][row]; });
  return static_cast<int64_t>(part.ids[nearest.index]);
}

std::string ClusterSet::Describe(size_t id, const Schema& schema,
                                 const AttributePartition& partition) const {
  const FoundCluster& c = cluster(id);
  const AttributeSet& part = partition.part(c.part);
  auto box = c.acf.BoundingBox(c.part);
  std::ostringstream os;
  for (size_t d = 0; d < box.size(); ++d) {
    if (d > 0) os << ", ";
    const std::string& name = schema.attribute(part.columns[d]).name;
    if (box[d].first == box[d].second) {
      os << name << " = " << FormatDouble(box[d].first);
    } else {
      os << name << " in [" << FormatDouble(box[d].first) << ", "
         << FormatDouble(box[d].second) << "]";
    }
  }
  os << " (n=" << c.acf.n() << ")";
  return os.str();
}

}  // namespace dar
