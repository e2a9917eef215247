#include "birch/acf_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "birch/budget.h"
#include "common/logging.h"
#include "common/str_util.h"

namespace dar {

namespace {

constexpr double kMinThreshold = 1e-12;

// Relative tolerance when comparing floating-point summary sums that were
// accumulated in different association orders (incremental AddPoint along
// the insert path vs. a bottom-up re-merge).
constexpr double kCfCompareTolerance = 1e-6;

bool ApproxEqual(double a, double b) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kCfCompareTolerance * scale;
}

// The tree's one leaf walk: calls fn(leaf) for every leaf under `node`,
// left to right, which is the order of ExtractClusters. `NodeT` is a tree
// node type, const or not.
template <typename NodeT, typename Fn>
void ForEachLeaf(NodeT& node, const Fn& fn) {
  if (node.is_leaf) {
    fn(node);
    return;
  }
  for (auto& c : node.children) ForEachLeaf<NodeT>(*c.child, fn);
}

// The smallest merged diameter over the pairs of the `count` ACFs `at(i)`,
// pairs taken in (i, j) order.
template <typename At>
double ClosestMergeDiameter(size_t count, const At& at) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      best = std::min(best, at(i).cf().DiameterWithMerge(at(j).cf()));
    }
  }
  return best;
}

}  // namespace

// When built with -DDAR_VALIDATE_INVARIANTS, every mutating operation
// re-validates the whole tree before returning (skipped mid-rebuild, when
// the tree is transiently inconsistent by design).
#ifdef DAR_VALIDATE_INVARIANTS
#define DAR_VALIDATE_TREE()                                  \
  do {                                                       \
    if (!in_rebuild_) DAR_RETURN_IF_ERROR(ValidateInvariants()); \
  } while (false)
#else
#define DAR_VALIDATE_TREE() \
  do {                      \
  } while (false)
#endif

Status AcfTreeOptions::Validate() const {
  const struct {
    bool ok;
    const char* rule;
    double value;
  } kChecks[] = {
      {branching_factor >= 2, "branching_factor must be >= 2",
       static_cast<double>(branching_factor)},
      {leaf_capacity >= 1, "leaf_capacity must be >= 1",
       static_cast<double>(leaf_capacity)},
      {initial_threshold >= 0, "initial_threshold must be >= 0",
       initial_threshold},
      {memory_budget_bytes > 0, "memory_budget_bytes must be > 0", 0},
      {threshold_growth > 1, "threshold_growth must be > 1", threshold_growth},
      {outlier_entry_min_n >= 0, "outlier_entry_min_n must be >= 0",
       static_cast<double>(outlier_entry_min_n)},
      {max_rebuilds_per_insert >= 1, "max_rebuilds_per_insert must be >= 1",
       static_cast<double>(max_rebuilds_per_insert)},
  };
  for (const auto& check : kChecks) {
    if (!check.ok) {
      return Status::InvalidArgument(std::string("tree option ") +
                                     check.rule + ", got " +
                                     FormatDouble(check.value));
    }
  }
  return Status::OK();
}

AcfTree::AcfTree(std::shared_ptr<const AcfLayout> layout, size_t own_part,
                 AcfTreeOptions options)
    : layout_(std::move(layout)),
      own_part_(own_part),
      options_(options),
      threshold_(options.initial_threshold),
      root_(std::make_unique<Node>()) {
  DAR_CHECK(layout_ != nullptr);
  DAR_CHECK_LT(own_part_, layout_->num_parts());
  own_offset_ = layout_->offset(own_part_);
  row_width_ = layout_->row_width();
  own_.resize(layout_->parts[own_part_].dim);
  DAR_CHECK_GE(options_.branching_factor, 2);
  DAR_CHECK_GE(options_.leaf_capacity, 1);
  acf_bytes_estimate_ = layout_->ApproxAcfBytes();
}

std::unique_ptr<AcfTree::Node> AcfTree::CloneNode(const Node& node) const {
  auto copy = std::make_unique<Node>();
  copy->is_leaf = node.is_leaf;
  copy->entries = node.entries;  // Acf is value-copyable (shared layout)
  copy->centroids = node.centroids;
  copy->children.reserve(node.children.size());
  for (const ChildRef& ref : node.children) {
    copy->children.push_back(ChildRef{ref.cf, CloneNode(*ref.child)});
  }
  return copy;
}

std::unique_ptr<AcfTree> AcfTree::Clone() const {
  auto copy = std::make_unique<AcfTree>(layout_, own_part_, options_);
  copy->on_rebuild_ = on_rebuild_;
  copy->threshold_ = threshold_;
  copy->root_ = CloneNode(*root_);
  copy->outlier_buffer_ = outlier_buffer_;
  copy->outliers_ = outliers_;
  copy->rebuild_count_ = rebuild_count_;
  copy->split_count_ = split_count_;
  copy->points_inserted_ = points_inserted_;
  copy->num_nodes_ = num_nodes_;
  copy->num_leaf_entries_ = num_leaf_entries_;
  return copy;
}

Status AcfTree::InsertPoint(const PartedRow& row) {
  DAR_ASSIGN_OR_RETURN(const RowBlock block,
                       RowBlock::FromPartedRow(*layout_, row, row_columns_));
  return InsertRows(block);
}

Status AcfTree::InsertRows(const RowBlock& block) {
  if (block.columns().size() != row_width_) {
    return Status::InvalidArgument(
        "block has " + std::to_string(block.columns().size()) +
        " columns, the layout's rows have " + std::to_string(row_width_));
  }
  const double* const* own_columns = block.columns().data() + own_offset_;
  for (size_t r = block.begin(); r < block.end(); ++r) {
    for (size_t d = 0; d < own_.size(); ++d) own_[d] = own_columns[d][r];
    InsertOutcome out = InsertRowRec(root_.get(), own_.data(),
                                     static_cast<uint32_t>(r - block.begin()));
    if (out.split) GrowRoot(std::move(out.sibling));
    ++points_inserted_;
    if (ApproxBytesNow() > options_.memory_budget_bytes) {
      // A rebuild merges whole ACFs, so every image must hold its rows.
      FlushQueues(block);
      int rebuilds = 0;
      while (ApproxBytesNow() > options_.memory_budget_bytes) {
        if (++rebuilds > options_.max_rebuilds_per_insert) {
          return Status::ResourceExhausted(
              "ACF-tree cannot fit in " +
              std::to_string(options_.memory_budget_bytes) + " bytes after " +
              std::to_string(rebuilds - 1) + " rebuilds");
        }
        DAR_RETURN_IF_ERROR(Rebuild());
      }
    }
#ifdef DAR_VALIDATE_INVARIANTS
    FlushQueues(block);
    DAR_VALIDATE_TREE();
#endif
  }
  FlushQueues(block);
  return Status::OK();
}

void AcfTree::FlushQueues(const RowBlock& block) {
  for (Node* leaf : queued_leaves_) {
    for (Acf& entry : leaf->entries) entry.FlushQueue(block);
    leaf->queued = false;
  }
  queued_leaves_.clear();
}

Status AcfTree::InsertSummary(Acf acf) {
  if (acf.layout_ptr().get() != layout_.get() ||
      acf.own_part() != own_part_) {
    return Status::InvalidArgument(
        "summary layout/part does not match this tree");
  }
  if (acf.n() <= 0) {
    return Status::InvalidArgument("cannot insert an empty summary");
  }
  int64_t mass = acf.n();
  InsertOutcome out = InsertSummaryRec(root_.get(), std::move(acf));
  if (out.split) GrowRoot(std::move(out.sibling));
  points_inserted_ += in_rebuild_ ? 0 : mass;

  if (in_rebuild_) return Status::OK();
  int rebuilds = 0;
  while (ApproxBytesNow() > options_.memory_budget_bytes) {
    if (++rebuilds > options_.max_rebuilds_per_insert) {
      return Status::ResourceExhausted("ACF-tree over memory budget");
    }
    DAR_RETURN_IF_ERROR(Rebuild());
  }
  DAR_VALIDATE_TREE();
  return Status::OK();
}

void AcfTree::Node::SetCentroid(size_t i) {
  const CfVector& cf = SlotCf(i);
  centroids.resize(size() * cf.dim());
  WriteCentroid(cf, centroids.data() + i * cf.dim());
}

void AcfTree::Node::SetCentroids() {
  centroids.clear();
  for (size_t i = 0; i < size(); ++i) SetCentroid(i);
}

NearestCentroid AcfTree::NearestSlot(const Node& node,
                                     const double* own) const {
  const PartSpec& spec = layout_->parts[own_part_];
  if (spec.metric != MetricKind::kDiscrete) {
    return FindNearestCentroid(node.centroids.data(), node.size(), spec.dim,
                               spec.metric,
                               [own](size_t d) { return own[d]; });
  }
  NearestCentroid best;
  for (size_t i = 0; i < node.size(); ++i) {
    const double d = PointClusterDistance({own, spec.dim}, node.SlotCf(i));
    if (d < best.distance) best = {i, d};
  }
  return best;
}

NearestCentroid AcfTree::NearestSlot(const Node& node,
                                     const CfVector& cf) const {
  NearestCentroid best;
  for (size_t i = 0; i < node.size(); ++i) {
    const double d =
        ClusterDistance(cf, node.SlotCf(i), ClusterMetric::kD0Centroid);
    if (d < best.distance) best = {i, d};
  }
  return best;
}

bool AcfTree::AbsorbsSummary(const Node& leaf, const NearestCentroid& nearest,
                             const CfVector& cf) const {
  return !leaf.entries.empty() && nearest.distance <= threshold_ &&
         leaf.entries[nearest.index].cf().DiameterWithMerge(cf) <= threshold_;
}

AcfTree::InsertOutcome AcfTree::InsertRowRec(Node* node, const double* own,
                                             uint32_t offset) {
  const NearestCentroid nearest = NearestSlot(*node, own);
  const std::span<const double> point(own, own_.size());
  if (node->is_leaf) {
    // Absorb only if the point is within the threshold of the centroid AND
    // the merged diameter stays within the threshold. The first condition
    // guards against mass dilution: for a heavy cluster the average
    // pairwise diameter moves by only O(D^2/N) when one point at distance D
    // is added, so the diameter test alone would let large clusters swallow
    // arbitrarily distant points. Otherwise start a new cluster.
    size_t slot = nearest.index;
    if (node->entries.empty() || !(nearest.distance <= threshold_) ||
        !(node->entries[slot].cf().DiameterWithPoint(point) <= threshold_)) {
      node->entries.emplace_back(layout_, own_part_);
      slot = node->entries.size() - 1;
      ++num_leaf_entries_;
    }
    node->entries[slot].AbsorbRow(own, offset);
    node->SetCentroid(slot);
    if (!node->queued) {
      node->queued = true;
      queued_leaves_.push_back(node);
    }
    return SplitIfOverfull(node);
  }

  // Internal node: descend into the closest child.
  const size_t best = nearest.index;
  InsertOutcome below =
      InsertRowRec(node->children[best].child.get(), own, offset);
  if (below.split) return AdoptSibling(node, best, std::move(below.sibling));
  node->children[best].cf.AddPoint(point);
  node->SetCentroid(best);
  return {};
}

AcfTree::InsertOutcome AcfTree::InsertSummaryRec(Node* node, Acf&& acf) {
  const NearestCentroid nearest = NearestSlot(*node, acf.cf());
  const size_t best = nearest.index;
  if (node->is_leaf) {
    // Same dual test as for points (diameter + centroid distance), so
    // reinsertion during rebuilds cannot dilute heavy clusters either.
    if (AbsorbsSummary(*node, nearest, acf.cf())) {
      node->entries[best].Merge(acf);
      node->SetCentroid(best);
      return {};
    }
    node->entries.push_back(std::move(acf));
    node->SetCentroid(node->entries.size() - 1);
    ++num_leaf_entries_;
    return SplitIfOverfull(node);
  }

  const CfVector acf_cf = acf.cf();  // keep a copy; acf may be moved below
  InsertOutcome below =
      InsertSummaryRec(node->children[best].child.get(), std::move(acf));
  if (below.split) return AdoptSibling(node, best, std::move(below.sibling));
  node->children[best].cf.Merge(acf_cf);
  node->SetCentroid(best);
  return {};
}

AcfTree::InsertOutcome AcfTree::AdoptSibling(Node* node, size_t slot,
                                             std::unique_ptr<Node> sibling) {
  node->children[slot].cf = ComputeNodeCf(*node->children[slot].child);
  node->SetCentroid(slot);
  node->children.push_back(
      ChildRef{ComputeNodeCf(*sibling), std::move(sibling)});
  node->SetCentroid(node->children.size() - 1);
  return SplitIfOverfull(node);
}

AcfTree::InsertOutcome AcfTree::SplitIfOverfull(Node* node) {
  const int capacity =
      node->is_leaf ? options_.leaf_capacity : options_.branching_factor;
  if (node->size() <= static_cast<size_t>(capacity)) return {};
  return {true, SplitNode(node)};
}

std::unique_ptr<AcfTree::Node> AcfTree::SplitNode(Node* node) {
  // Seed with the farthest pair of slot centroids, then send every other
  // slot to the closer seed; a tie keeps it.
  const size_t n = node->size();
  DAR_CHECK_GE(n, 2u);
  size_t sa = 0, sb = 1;
  double best = -1;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double d = ClusterDistance(node->SlotCf(i), node->SlotCf(j),
                                 ClusterMetric::kD0Centroid);
      if (d > best) {
        best = d;
        sa = i;
        sb = j;
      }
    }
  }
  std::vector<bool> moves(n);
  for (size_t i = 0; i < n; ++i) {
    if (i == sa || i == sb) {
      moves[i] = i == sb;
      continue;
    }
    const CfVector& cf = node->SlotCf(i);
    const double da =
        ClusterDistance(cf, node->SlotCf(sa), ClusterMetric::kD0Centroid);
    const double db =
        ClusterDistance(cf, node->SlotCf(sb), ClusterMetric::kD0Centroid);
    moves[i] = !(da <= db);
  }
  // Both halves keep the slots' order.
  const auto move_slots = [&moves](auto& slots, auto& out) {
    std::remove_reference_t<decltype(slots)> keep;
    for (size_t i = 0; i < slots.size(); ++i) {
      (moves[i] ? out : keep).push_back(std::move(slots[i]));
    }
    slots = std::move(keep);
  };

  auto sibling = std::make_unique<Node>();
  sibling->is_leaf = node->is_leaf;
  ++num_nodes_;
  ++split_count_;
  if (node->is_leaf) {
    move_slots(node->entries, sibling->entries);
    if (node->queued) {  // moved entries may hold queued rows
      sibling->queued = true;
      queued_leaves_.push_back(sibling.get());
    }
  } else {
    move_slots(node->children, sibling->children);
  }
  node->SetCentroids();
  sibling->SetCentroids();
  return sibling;
}

CfVector AcfTree::ComputeNodeCf(const Node& node) const {
  const PartSpec& spec = layout_->parts[own_part_];
  CfVector cf(spec.dim, spec.metric);
  for (size_t i = 0; i < node.size(); ++i) cf.Merge(node.SlotCf(i));
  return cf;
}

void AcfTree::GrowRoot(std::unique_ptr<Node> sibling) {
  auto new_root = std::make_unique<Node>();
  new_root->is_leaf = false;
  ChildRef left{ComputeNodeCf(*root_), std::move(root_)};
  ChildRef right{ComputeNodeCf(*sibling), std::move(sibling)};
  new_root->children.push_back(std::move(left));
  new_root->children.push_back(std::move(right));
  new_root->SetCentroids();
  root_ = std::move(new_root);
  ++num_nodes_;
}

double AcfTree::NextThreshold() const {
  // Within each leaf, the cheapest merge is between the closest pair of
  // entries; take the median of those over all leaves so a substantial
  // fraction of clusters merge after the rebuild (BIRCH §4.2 heuristic).
  // The median does not depend on the order of the leaves.
  std::vector<double> candidates;
  ForEachLeaf(*root_, [&candidates](const Node& leaf) {
    if (leaf.entries.size() < 2) return;
    candidates.push_back(ClosestMergeDiameter(
        leaf.entries.size(),
        [&leaf](size_t i) -> const Acf& { return leaf.entries[i]; }));
  });
  double data_driven = 0;
  if (!candidates.empty()) {
    size_t mid = candidates.size() / 2;
    std::nth_element(candidates.begin(), candidates.begin() + mid,
                     candidates.end());
    data_driven = candidates[mid];
  } else {
    // Degenerate tree shapes (e.g. leaf capacity 1) never co-locate two
    // entries in a leaf; sample the first 48 entries globally so the
    // threshold still jumps to the data scale instead of crawling up by
    // the growth factor alone.
    std::vector<const Acf*> sample;
    ForEachLeaf(*root_, [&sample](const Node& leaf) {
      for (const Acf& e : leaf.entries) {
        if (sample.size() < 48) sample.push_back(&e);
      }
    });
    if (sample.size() >= 2) {
      data_driven = ClosestMergeDiameter(
          sample.size(),
          [&sample](size_t i) -> const Acf& { return *sample[i]; });
    }
  }
  return std::max({threshold_ * options_.threshold_growth, data_driven,
                   kMinThreshold});
}

Status AcfTree::Rebuild() {
  DAR_DCHECK(queued_leaves_.empty());  // the old nodes are about to go
  double next = NextThreshold();
  std::vector<Acf> entries;
  ForEachLeaf(*root_, [&entries](Node& leaf) {
    for (Acf& e : leaf.entries) entries.push_back(std::move(e));
  });

  threshold_ = next;
  root_ = std::make_unique<Node>();
  num_nodes_ = 1;
  num_leaf_entries_ = 0;
  ++rebuild_count_;

  in_rebuild_ = true;
  Status status = Status::OK();
  for (auto& e : entries) {
    if (options_.outlier_entry_min_n > 0 &&
        e.n() < options_.outlier_entry_min_n) {
      outlier_buffer_.push_back(std::move(e));
      continue;
    }
    status = InsertSummary(std::move(e));
    if (!status.ok()) break;
  }
  in_rebuild_ = false;
  if (!status.ok()) return status;
  DAR_VALIDATE_TREE();
  if (on_rebuild_) on_rebuild_(rebuild_count_, threshold_);
  return status;
}

Status AcfTree::FinishScan() {
  std::vector<Acf> pending = std::move(outlier_buffer_);
  outlier_buffer_.clear();
  for (auto& acf : pending) {
    // Walk down to the most promising leaf; absorb only if the merge keeps
    // the diameter within the threshold, else the cluster is a confirmed
    // outlier.
    Node* node = root_.get();
    std::vector<std::pair<Node*, size_t>> path;  // (parent, child slot)
    while (!node->is_leaf) {
      const size_t slot = NearestSlot(*node, acf.cf()).index;
      path.emplace_back(node, slot);
      node = node->children[slot].child.get();
    }
    const NearestCentroid nearest = NearestSlot(*node, acf.cf());
    if (AbsorbsSummary(*node, nearest, acf.cf())) {
      node->entries[nearest.index].Merge(acf);
      node->SetCentroid(nearest.index);
      for (auto [parent, slot] : path) {
        parent->children[slot].cf.Merge(acf.cf());
        parent->SetCentroid(slot);
      }
    } else {
      outliers_.push_back(std::move(acf));
    }
  }
  DAR_VALIDATE_TREE();
  return Status::OK();
}

Status AcfTree::MergeFrom(const AcfTree& other) {
  if (&other == this) {
    return Status::InvalidArgument(
        "cannot merge an ACF-tree into itself: its tuples are not disjoint "
        "from its own");
  }
  if (own_part_ != other.own_part_) {
    return Status::InvalidArgument(
        "cannot merge ACF-trees over different attribute sets (part " +
        std::to_string(own_part_) + " vs " +
        std::to_string(other.own_part_) + ")");
  }
  if (!LayoutsEquivalent(*layout_, *other.layout_)) {
    return Status::InvalidArgument(
        "cannot merge ACF-trees with structurally different layouts");
  }
  const bool rehome = other.layout_.get() != layout_.get();

  // Merge under the looser of the two thresholds so clusters that either
  // shard considered coherent stay absorbable; re-insertion below may raise
  // it further through the usual rebuild loop.
  threshold_ = std::max(threshold_, other.threshold_);

  Status status = Status::OK();
  ForEachLeaf(*other.root_, [&](const Node& leaf) {
    for (const Acf& e : leaf.entries) {
      if (!status.ok()) return;
      status = InsertSummary(rehome ? e.WithLayout(layout_) : e);
    }
  });
  DAR_RETURN_IF_ERROR(status);
  // Outliers (paged-out and confirmed alike) get a fresh FinishScan chance
  // under the merged threshold. InsertSummary accounts inserted mass into
  // points_inserted_; the buffered outliers bypass it, so account manually
  // to keep TotalMass() == points inserted.
  for (const std::vector<Acf>* src : {&other.outlier_buffer_, &other.outliers_}) {
    for (const Acf& acf : *src) {
      points_inserted_ += acf.n();
      outlier_buffer_.push_back(rehome ? acf.WithLayout(layout_) : acf);
    }
  }
  rebuild_count_ += other.rebuild_count_;
  split_count_ += other.split_count_;
  DAR_VALIDATE_TREE();
  return Status::OK();
}

std::vector<Acf> AcfTree::ExtractClusters() const& {
  std::vector<Acf> out;
  out.reserve(num_leaf_entries_);
  ForEachLeaf(*root_, [&out](const Node& leaf) {
    out.insert(out.end(), leaf.entries.begin(), leaf.entries.end());
  });
  return out;
}

std::vector<Acf> AcfTree::ExtractClusters() && {
  std::vector<Acf> out;
  out.reserve(num_leaf_entries_);
  ForEachLeaf(*root_, [&out](Node& leaf) {
    for (Acf& e : leaf.entries) out.push_back(std::move(e));
  });
  root_ = std::make_unique<Node>();
  num_nodes_ = 1;
  num_leaf_entries_ = 0;
  return out;
}

size_t AcfTree::ApproxBytesNow() const {
  const PartSpec& spec = layout_->parts[own_part_];
  size_t internal_entry = kBudgetChildRefBytes + kBudgetCfBytes +
                          4 * spec.dim * sizeof(double);
  size_t node_bytes =
      kBudgetNodeBytes + options_.branching_factor * internal_entry;
  // The outlier buffer is conceptually paged out to disk (§4.3.1) and does
  // not count against the in-memory budget.
  return num_nodes_ * node_bytes + num_leaf_entries_ * acf_bytes_estimate_;
}

int64_t AcfTree::TotalMass() const {
  int64_t mass = 0;
  ForEachLeaf(*root_, [&mass](const Node& leaf) {
    for (const Acf& e : leaf.entries) mass += e.n();
  });
  for (const auto& e : outlier_buffer_) mass += e.n();
  for (const auto& e : outliers_) mass += e.n();
  return mass;
}

Status AcfTree::ValidateCfSummary(const CfVector& cf, size_t expect_dim,
                                  MetricKind expect_metric,
                                  const std::string& path) const {
  if (cf.dim() != expect_dim) {
    return Status::Internal(path + ": CF has dim " +
                            std::to_string(cf.dim()) + ", expected " +
                            std::to_string(expect_dim));
  }
  if (cf.metric() != expect_metric) {
    return Status::Internal(path + ": CF metric does not match its part");
  }
  if (cf.n() < 0) {
    return Status::Internal(path + ": negative tuple count " +
                            std::to_string(cf.n()));
  }
  for (size_t d = 0; d < cf.dim(); ++d) {
    if (cf.ss()[d] < 0) {
      return Status::Internal(path + ": negative squared-sum term ss[" +
                              std::to_string(d) +
                              "] = " + std::to_string(cf.ss()[d]));
    }
  }
  if (cf.n() > 0) {
    for (size_t d = 0; d < cf.dim(); ++d) {
      if (cf.min()[d] > cf.max()[d]) {
        return Status::Internal(path + ": min > max on dimension " +
                                std::to_string(d));
      }
      double centroid = cf.ls()[d] / static_cast<double>(cf.n());
      double span =
          kCfCompareTolerance *
          std::max({1.0, std::fabs(cf.min()[d]), std::fabs(cf.max()[d])});
      if (centroid < cf.min()[d] - span || centroid > cf.max()[d] + span) {
        return Status::Internal(path + ": centroid " +
                                std::to_string(centroid) +
                                " outside bounding box on dimension " +
                                std::to_string(d));
      }
    }
    // Cauchy-Schwarz on the moments: N * sum(ss) >= |LS|^2. A violation
    // means the summary cannot describe any real point set, so every
    // diameter/radius derived from it is garbage.
    double lhs = static_cast<double>(cf.n()) * cf.SsSum();
    double rhs = cf.LsSquaredNorm();
    if (lhs < rhs && !ApproxEqual(lhs, rhs)) {
      return Status::Internal(path + ": moment inequality violated (N*SS = " +
                              std::to_string(lhs) + " < |LS|^2 = " +
                              std::to_string(rhs) + ")");
    }
  }
  if (cf.has_histogram()) {
    for (size_t d = 0; d < cf.dim(); ++d) {
      int64_t total = 0;
      for (const auto& [value, count] : cf.histogram(d)) {
        if (count < 0) {
          return Status::Internal(path + ": negative histogram count on " +
                                  "dimension " + std::to_string(d));
        }
        total += count;
      }
      if (total != cf.n()) {
        return Status::Internal(
            path + ": histogram mass " + std::to_string(total) +
            " != N = " + std::to_string(cf.n()) + " on dimension " +
            std::to_string(d));
      }
    }
  }
  return Status::OK();
}

Status AcfTree::ValidateAcfEntry(const Acf& acf,
                                 const std::string& path) const {
  if (acf.layout_ptr().get() != layout_.get()) {
    return Status::Internal(path + ": entry layout differs from the tree's");
  }
  if (acf.own_part() != own_part_) {
    return Status::Internal(path + ": entry own_part " +
                            std::to_string(acf.own_part()) +
                            " != tree part " + std::to_string(own_part_));
  }
  if (acf.n() <= 0) {
    return Status::Internal(path + ": entry summarizes no tuples");
  }
  // Cross-attribute consistency (Eq. 7): every image must summarize exactly
  // the tuples of the cluster, on the dimensions of its part.
  for (size_t p = 0; p < layout_->num_parts(); ++p) {
    const std::string img_path = path + "/img" + std::to_string(p);
    DAR_RETURN_IF_ERROR(ValidateCfSummary(
        acf.image(p), layout_->parts[p].dim, layout_->parts[p].metric,
        img_path));
    if (acf.image(p).n() != acf.cf().n()) {
      return Status::Internal(
          img_path + ": cross-attribute mass " +
          std::to_string(acf.image(p).n()) + " != own mass " +
          std::to_string(acf.cf().n()));
    }
  }
  return Status::OK();
}

Status AcfTree::ValidateNodeRec(const Node& node, const std::string& path,
                                bool is_root, size_t* nodes,
                                size_t* leaf_entries) const {
  ++*nodes;
  if (node.is_leaf) {
    if (!node.children.empty()) {
      return Status::Internal(path + ": leaf node has internal children");
    }
    if (node.entries.size() > static_cast<size_t>(options_.leaf_capacity)) {
      return Status::Internal(path + ": leaf holds " +
                              std::to_string(node.entries.size()) +
                              " entries, capacity is " +
                              std::to_string(options_.leaf_capacity));
    }
    if (!is_root && node.entries.empty()) {
      return Status::Internal(path + ": non-root leaf is empty");
    }
    *leaf_entries += node.entries.size();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      DAR_RETURN_IF_ERROR(
          ValidateAcfEntry(node.entries[i], path + "/e" + std::to_string(i)));
    }
    return Status::OK();
  }

  if (!node.entries.empty()) {
    return Status::Internal(path + ": internal node holds leaf entries");
  }
  if (node.children.empty()) {
    return Status::Internal(path + ": internal node has no children");
  }
  if (node.children.size() >
      static_cast<size_t>(options_.branching_factor)) {
    return Status::Internal(path + ": internal node fan-out " +
                            std::to_string(node.children.size()) +
                            " exceeds branching factor " +
                            std::to_string(options_.branching_factor));
  }
  const PartSpec& own = layout_->parts[own_part_];
  for (size_t i = 0; i < node.children.size(); ++i) {
    const std::string child_path = path + "/c" + std::to_string(i);
    const ChildRef& ref = node.children[i];
    if (ref.child == nullptr) {
      return Status::Internal(child_path + ": null child pointer");
    }
    DAR_RETURN_IF_ERROR(
        ValidateCfSummary(ref.cf, own.dim, own.metric, child_path));
    // CF additivity (BIRCH Additivity Theorem): the entry CF must equal the
    // bottom-up merge of its subtree. N, min and max are exact under both
    // accumulation orders; LS/SS are float sums and get a tolerance.
    CfVector recomputed = ComputeNodeCf(*ref.child);
    if (ref.cf.n() != recomputed.n()) {
      return Status::Internal(
          child_path + ": CF additivity violated: entry N = " +
          std::to_string(ref.cf.n()) + ", subtree N = " +
          std::to_string(recomputed.n()));
    }
    for (size_t d = 0; d < own.dim; ++d) {
      if (!ApproxEqual(ref.cf.ls()[d], recomputed.ls()[d])) {
        return Status::Internal(
            child_path + ": CF additivity violated: ls[" +
            std::to_string(d) + "] = " + std::to_string(ref.cf.ls()[d]) +
            ", subtree sum = " + std::to_string(recomputed.ls()[d]));
      }
      if (!ApproxEqual(ref.cf.ss()[d], recomputed.ss()[d])) {
        return Status::Internal(
            child_path + ": CF additivity violated: ss[" +
            std::to_string(d) + "] = " + std::to_string(ref.cf.ss()[d]) +
            ", subtree sum = " + std::to_string(recomputed.ss()[d]));
      }
      if (recomputed.n() > 0 &&
          (ref.cf.min()[d] != recomputed.min()[d] ||
           ref.cf.max()[d] != recomputed.max()[d])) {
        return Status::Internal(child_path +
                                ": CF additivity violated: bounding box "
                                "differs from subtree on dimension " +
                                std::to_string(d));
      }
    }
    DAR_RETURN_IF_ERROR(
        ValidateNodeRec(*ref.child, child_path, false, nodes, leaf_entries));
  }
  return Status::OK();
}

Status AcfTree::ValidateInvariants() const {
  if (root_ == nullptr) {
    return Status::Internal("tree has no root node");
  }
  size_t nodes = 0;
  size_t leaf_entries = 0;
  DAR_RETURN_IF_ERROR(
      ValidateNodeRec(*root_, "root", /*is_root=*/true, &nodes,
                      &leaf_entries));
  if (nodes != num_nodes_) {
    return Status::Internal("cached node count " +
                            std::to_string(num_nodes_) + " != recount " +
                            std::to_string(nodes));
  }
  if (leaf_entries != num_leaf_entries_) {
    return Status::Internal("cached leaf-entry count " +
                            std::to_string(num_leaf_entries_) +
                            " != recount " + std::to_string(leaf_entries));
  }
  for (size_t i = 0; i < outlier_buffer_.size(); ++i) {
    DAR_RETURN_IF_ERROR(ValidateAcfEntry(
        outlier_buffer_[i], "outlier_buffer/e" + std::to_string(i)));
  }
  for (size_t i = 0; i < outliers_.size(); ++i) {
    DAR_RETURN_IF_ERROR(
        ValidateAcfEntry(outliers_[i], "outliers/e" + std::to_string(i)));
  }
  // Mass conservation: no tuple is lost or double-counted by absorption,
  // splits, rebuilds, or outlier paging.
  if (TotalMass() != points_inserted_) {
    return Status::Internal("total mass " + std::to_string(TotalMass()) +
                            " != points inserted " +
                            std::to_string(points_inserted_));
  }
  return ValidateTablesRec(*root_, "root");
}

Status AcfTree::ValidateTablesRec(const Node& node,
                                  const std::string& path) const {
  const size_t dim = own_.size();
  if (node.centroids.size() != node.size() * dim) {
    return Status::Internal(path + ": centroid table holds " +
                            std::to_string(node.centroids.size()) +
                            " values for " + std::to_string(node.size()) +
                            " slots of dimension " + std::to_string(dim));
  }
  const char* slot_kind = node.is_leaf ? "/e" : "/c";
  std::vector<double> want(dim);
  for (size_t i = 0; i < node.size(); ++i) {
    WriteCentroid(node.SlotCf(i), want.data());
    for (size_t d = 0; d < dim; ++d) {
      if (std::bit_cast<uint64_t>(node.centroids[i * dim + d]) !=
          std::bit_cast<uint64_t>(want[d])) {
        return Status::Internal(path + slot_kind + std::to_string(i) +
                                ": cached centroid differs from ls / n on "
                                "dimension " + std::to_string(d));
      }
    }
  }
  if (node.is_leaf) {
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (!node.entries[i].queue_.empty()) {
        return Status::Internal(
            path + "/e" + std::to_string(i) + ": entry holds " +
            std::to_string(node.entries[i].queue_.size()) +
            " queued rows outside InsertRows");
      }
    }
    return Status::OK();
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    DAR_RETURN_IF_ERROR(ValidateTablesRec(*node.children[i].child,
                                          path + "/c" + std::to_string(i)));
  }
  return Status::OK();
}

AcfTreeStats AcfTree::Stats() const {
  AcfTreeStats s;
  s.num_nodes = num_nodes_;
  s.num_leaf_entries = num_leaf_entries_;
  s.num_outliers = outlier_buffer_.size() + outliers_.size();
  s.rebuild_count = rebuild_count_;
  s.threshold = threshold_;
  s.approx_bytes = ApproxBytesNow();
  s.points_inserted = points_inserted_;
  s.split_count = split_count_;
  // The tree is height-balanced, so the leftmost root-to-leaf path has the
  // common length.
  const Node* node = root_.get();
  while (node != nullptr) {
    ++s.height;
    node = node->is_leaf || node->children.empty()
               ? nullptr
               : node->children.front().child.get();
  }
  return s;
}

}  // namespace dar
