#include "persist/codec.h"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <span>
#include <type_traits>
#include <utility>

#include "common/str_util.h"
#include "persist/persist_peer.h"

namespace dar {
namespace persist {

template <>
struct WireEnum<MetricKind>
    : std::integral_constant<MetricKind, MetricKind::kDiscrete> {};
template <>
struct WireEnum<AttributeKind>
    : std::integral_constant<AttributeKind, AttributeKind::kNominal> {};
template <>
struct WireEnum<ClusterMetric>
    : std::integral_constant<ClusterMetric, ClusterMetric::kD4VarIncrease> {};

}  // namespace persist

namespace {

using persist::FieldReader;
using persist::FieldWriter;
using persist::ReadField;
using persist::WireReader;
using persist::WireWriter;
using persist::WriteField;

// Reads `count` raw doubles (no length prefix; the caller knows the count).
Status ReadF64s(WireReader& r, size_t count, std::vector<double>& out,
                const char* what) {
  if (r.remaining() < 8 * count) {
    return Status::OutOfRange(std::string(what) + " truncated: need " +
                              std::to_string(8 * count) + " bytes, have " +
                              std::to_string(r.remaining()));
  }
  out.resize(count);
  for (size_t i = 0; i < count; ++i) {
    DAR_ASSIGN_OR_RETURN(out[i], r.F64());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Field lists (persist/wire.h): each flat record's fields, once, in wire
// order.

// Whether the visitor `V` encodes or decodes, rather than compares or
// prints.
template <class V>
constexpr bool kOnTheWire =
    std::is_same_v<std::remove_cvref_t<V>, FieldWriter> ||
    std::is_same_v<std::remove_cvref_t<V>, FieldReader>;

// A tree's options.
template <class V, class O>
void TreeOptionFields(V&& v, O& o) {
  v("branching_factor", o.branching_factor);
  v("leaf_capacity", o.leaf_capacity);
  v("initial_threshold", o.initial_threshold);
  v("memory_budget_bytes", o.memory_budget_bytes);
  v("threshold_growth", o.threshold_growth);
  v("outlier_entry_min_n", o.outlier_entry_min_n);
  v("max_rebuilds_per_insert", o.max_rebuilds_per_insert);
}

template <class V, class... C>
void ConfigFields(V&& v, C&... c) {
  v("memory_budget_bytes", c.memory_budget_bytes...);
  v("frequency_fraction", c.frequency_fraction...);
  v("outlier_fraction", c.outlier_fraction...);
  v("initial_diameters", c.initial_diameters...);
  // Seven retired slots, where configs carried tree options until
  // Phase1Builder derived them all: AcfTreeOptions{} on the wire, dropped
  // on read, neither compared nor printed.
  if constexpr (kOnTheWire<V>) {
    AcfTreeOptions retired;
    TreeOptionFields(v, retired);
  }
  v("refine_clusters", c.refine_clusters...);
  v("metric", c.metric...);
  v("degree_threshold", c.degree_threshold...);
  v("degree_thresholds", c.degree_thresholds...);
  v("density_thresholds", c.density_thresholds...);
  v("phase2_leniency", c.phase2_leniency...);
  v("prune_low_density_images", c.prune_low_density_images...);
  v("max_antecedent", c.max_antecedent...);
  v("max_consequent", c.max_consequent...);
  v("max_rules", c.max_rules...);
  v("max_cliques", c.max_cliques...);
  v("count_rule_support", c.count_rule_support...);
}

template <class V, class S>
void StreamStateFields(V&& v, S& s) {
  v("generation", s.generation);
  v("rows_ingested", s.rows_ingested);
  v("rows_at_snapshot", s.rows_at_snapshot);
  v("rows_at_checkpoint", s.rows_at_checkpoint);
  v("remine_every_rows", s.stream_config.remine_every_rows);
  v("build_rule_index", s.stream_config.build_rule_index);
  v("checkpoint_every_rows", s.stream_config.checkpoint_every_rows);
  v("checkpoint_path", s.stream_config.checkpoint_path);
  // Quality knobs: an appended tail, so sections written before the
  // quality layer existed still decode.
  if (!v.Tail()) return;
  v("score_measures", s.stream_config.score_measures);
  v("prune_redundant", s.stream_config.prune_redundant);
  v("prune_min_overlap", s.stream_config.prune_min_overlap);
  v("diff_snapshots", s.stream_config.diff_snapshots);
  v("drift_interval_tolerance", s.stream_config.drift_interval_tolerance);
  v("drift_degree_tolerance", s.stream_config.drift_degree_tolerance);
}

template <class V, class A>
void SchemaFields(V&& v, A& attrs) {
  v.Records("attribute", {.min_bytes_each = 5}, attrs, [&v](auto& a) {
    v("name", a.name);
    v("kind", a.kind);
  });
}

template <class V, class S>
void ShardFields(V&& v, S& shards) {
  v.Records("shard", {.min_bytes_each = 16}, shards, [&v](auto& s) {
    v("shard_id", s.shard_id);
    v("rows", s.rows);
  });
}

template <class V, class T>
void TreeStatsFields(V&& v, T& stats) {
  v.Records("tree stats", {.min_bytes_each = 64}, stats, [&v](auto& s) {
    v("num_nodes", s.num_nodes);
    v("num_leaf_entries", s.num_leaf_entries);
    v("num_outliers", s.num_outliers);
    v("rebuild_count", s.rebuild_count);
    v("threshold", s.threshold);
    v("approx_bytes", s.approx_bytes);
    v("points_inserted", s.points_inserted);
    v("split_count", s.split_count);
    v("height", s.height);
  });
}

// Per-Acf floor on the wire: own_part u32 + image-count u32 + per image at
// least a CF header (metric u8 + dim u32 + n i64).
constexpr size_t kMinAcfBytes = 4 + 4 + 13;

}  // namespace

// ---------------------------------------------------------------------------
// PersistPeer: CfVector
// ---------------------------------------------------------------------------

void PersistPeer::EncodeCf(const CfVector& cf, WireWriter& w) {
  WriteField(w, cf.metric_);
  w.U32(static_cast<uint32_t>(cf.dim()));
  w.I64(cf.n_);
  // The block's order, ls | ss | min | max, is the wire order.
  for (double v : cf.block_) w.F64(v);
  if (cf.metric_ == MetricKind::kDiscrete) {
    // std::map iterates keys in ascending order, so the histogram encoding
    // (and therefore the whole checkpoint) is canonical for a given state.
    for (const auto& hist : cf.hist_) {
      w.U32(static_cast<uint32_t>(hist.size()));
      for (const auto& [value, count] : hist) {
        w.F64(value);
        w.I64(count);
      }
    }
  }
}

Result<CfVector> PersistPeer::DecodeCf(WireReader& r) {
  MetricKind metric;
  DAR_RETURN_IF_ERROR(ReadField(r, "CF metric", metric));
  DAR_ASSIGN_OR_RETURN(uint32_t dim, r.U32());
  DAR_ASSIGN_OR_RETURN(int64_t n, r.I64());
  if (n < 0) {
    return Status::InvalidArgument("CF tuple count " + std::to_string(n) +
                                   " is negative");
  }
  // The four moment vectors alone need 32*dim bytes; checking before the
  // CfVector(dim, ...) constructor allocates keeps a corrupt dim from
  // requesting gigabytes.
  if (r.remaining() < 32ull * dim) {
    return Status::OutOfRange("CF of dimension " + std::to_string(dim) +
                              " truncated: need " + std::to_string(32ull * dim) +
                              " bytes, have " + std::to_string(r.remaining()));
  }
  CfVector cf(dim, metric);
  cf.n_ = n;
  DAR_RETURN_IF_ERROR(ReadF64s(r, 4ull * dim, cf.block_, "CF moments"));
  // An empty CF holds an infinite min and max, and the encoder never
  // writes one; any other non-finite moment would reach the tree past the
  // finiteness check every row path keeps (RowBlock).
  if (n > 0) {
    for (const double v : cf.block_) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("CF of " + std::to_string(n) +
                                       " tuples has a non-finite moment");
      }
    }
  }
  if (metric == MetricKind::kDiscrete) {
    for (size_t d = 0; d < dim; ++d) {
      DAR_ASSIGN_OR_RETURN(size_t entries, r.Count(16, "CF histogram entry"));
      auto& hist = cf.hist_[d];
      for (size_t i = 0; i < entries; ++i) {
        DAR_ASSIGN_OR_RETURN(double value, r.F64());
        DAR_ASSIGN_OR_RETURN(int64_t count, r.I64());
        // A NaN key would break the ordering std::map relies on.
        if (!std::isfinite(value)) {
          return Status::InvalidArgument("CF histogram key is not finite");
        }
        if (count < 0) {
          return Status::InvalidArgument("CF histogram count " +
                                         std::to_string(count) +
                                         " is negative");
        }
        hist[value] = count;
      }
      if (hist.size() != entries) {
        return Status::InvalidArgument(
            "CF histogram has duplicate value keys");
      }
    }
  }
  return cf;
}

// ---------------------------------------------------------------------------
// PersistPeer: Acf
// ---------------------------------------------------------------------------

void PersistPeer::EncodeAcf(const Acf& acf, WireWriter& w) {
  w.U32(static_cast<uint32_t>(acf.own_part_));
  w.U32(static_cast<uint32_t>(acf.images_.size()));
  for (const CfVector& image : acf.images_) EncodeCf(image, w);
}

Result<Acf> PersistPeer::DecodeAcf(WireReader& r,
                                   std::shared_ptr<const AcfLayout> layout) {
  DAR_ASSIGN_OR_RETURN(uint32_t own_part, r.U32());
  DAR_ASSIGN_OR_RETURN(uint32_t num_images, r.U32());
  if (own_part >= layout->num_parts()) {
    return Status::InvalidArgument(
        "ACF own_part " + std::to_string(own_part) + " is outside the " +
        std::to_string(layout->num_parts()) + "-part layout");
  }
  if (num_images != layout->num_parts()) {
    return Status::InvalidArgument(
        "ACF has " + std::to_string(num_images) + " images, layout has " +
        std::to_string(layout->num_parts()) + " parts");
  }
  std::vector<CfVector> images;
  images.reserve(num_images);
  for (uint32_t p = 0; p < num_images; ++p) {
    DAR_ASSIGN_OR_RETURN(CfVector image, DecodeCf(r));
    const PartSpec& spec = layout->parts[p];
    if (image.dim() != spec.dim || image.metric() != spec.metric) {
      return Status::InvalidArgument(
          "ACF image " + std::to_string(p) + " has dim " +
          std::to_string(image.dim()) + "/metric " +
          std::to_string(static_cast<int>(image.metric())) +
          ", layout expects dim " + std::to_string(spec.dim) + "/metric " +
          std::to_string(static_cast<int>(spec.metric)));
    }
    images.push_back(std::move(image));
  }
  // Every image summarizes the cluster's tuples (Eq. 7), and every encoder
  // writes clusters of at least one tuple. A zero mass would pass here and
  // abort the process in the first distance computed from it.
  const int64_t mass = images[own_part].n();
  if (mass < 1) {
    return Status::InvalidArgument("ACF own mass " + std::to_string(mass) +
                                   " is below 1");
  }
  for (uint32_t p = 0; p < num_images; ++p) {
    if (images[p].n() != mass) {
      return Status::InvalidArgument(
          "ACF image " + std::to_string(p) + " has mass " +
          std::to_string(images[p].n()) + ", the own part has mass " +
          std::to_string(mass));
    }
  }
  Acf acf(std::move(layout), own_part);
  acf.images_ = std::move(images);
  return acf;
}

// ---------------------------------------------------------------------------
// PersistPeer: AcfTree nodes (preorder structural walk)
// ---------------------------------------------------------------------------

template <typename Node>
void PersistPeer::EncodeNode(const Node& node, WireWriter& w) {
  WriteField(w, node.is_leaf);
  if (node.is_leaf) {
    w.U32(static_cast<uint32_t>(node.entries.size()));
    for (const Acf& entry : node.entries) EncodeAcf(entry, w);
  } else {
    w.U32(static_cast<uint32_t>(node.children.size()));
    for (const auto& child : node.children) {
      EncodeCf(child.cf, w);
      EncodeNode(*child.child, w);
    }
  }
}

template <typename Node>
Result<std::unique_ptr<Node>> PersistPeer::DecodeNode(
    WireReader& r, const std::shared_ptr<const AcfLayout>& layout,
    size_t own_part, int depth, size_t& num_nodes,
    size_t& num_leaf_entries) {
  // The tree is height-balanced; a depth beyond any plausible height means
  // the bytes are corrupt (or adversarial) and recursing further would
  // only risk stack exhaustion.
  if (depth > 64) {
    return Status::InvalidArgument(
        "tree node nesting exceeds 64 levels — corrupt checkpoint");
  }
  bool is_leaf = false;
  DAR_RETURN_IF_ERROR(ReadField(r, "node is_leaf flag", is_leaf));
  auto node = std::make_unique<Node>();
  node->is_leaf = is_leaf;
  ++num_nodes;
  if (is_leaf) {
    DAR_ASSIGN_OR_RETURN(size_t entries, r.Count(kMinAcfBytes, "leaf entry"));
    node->entries.reserve(entries);
    for (size_t i = 0; i < entries; ++i) {
      DAR_ASSIGN_OR_RETURN(Acf entry, DecodeAcf(r, layout));
      if (entry.own_part() != own_part) {
        return Status::InvalidArgument(
            "leaf entry belongs to part " + std::to_string(entry.own_part()) +
            ", tree clusters part " + std::to_string(own_part));
      }
      node->entries.push_back(std::move(entry));
    }
    num_leaf_entries += entries;
  } else {
    DAR_ASSIGN_OR_RETURN(size_t children, r.Count(14, "internal child"));
    if (children == 0) {
      return Status::InvalidArgument(
          "internal tree node with zero children — corrupt checkpoint");
    }
    node->children.reserve(children);
    const PartSpec& own_spec = layout->parts[own_part];
    for (size_t i = 0; i < children; ++i) {
      DAR_ASSIGN_OR_RETURN(CfVector cf, DecodeCf(r));
      if (cf.dim() != own_spec.dim || cf.metric() != own_spec.metric) {
        return Status::InvalidArgument(
            "internal child CF has dim " + std::to_string(cf.dim()) +
            "/metric " + std::to_string(static_cast<int>(cf.metric())) +
            ", tree's own part expects dim " + std::to_string(own_spec.dim) +
            "/metric " + std::to_string(static_cast<int>(own_spec.metric)));
      }
      if (cf.n() < 1) {
        return Status::InvalidArgument("internal child CF mass " +
                                       std::to_string(cf.n()) +
                                       " is below 1");
      }
      DAR_ASSIGN_OR_RETURN(
          std::unique_ptr<Node> child,
          DecodeNode<Node>(r, layout, own_part, depth + 1, num_nodes,
                           num_leaf_entries));
      typename std::remove_reference_t<decltype(node->children)>::value_type
          ref;
      ref.cf = std::move(cf);
      ref.child = std::move(child);
      node->children.push_back(std::move(ref));
    }
  }
  node->SetCentroids();  // the centroid table is not on the wire
  return node;
}

// ---------------------------------------------------------------------------
// PersistPeer: AcfTree
// ---------------------------------------------------------------------------

// Tree blob layout (byte offsets):
//   0   u32  own_part
//   4   i32  branching_factor        |
//   8   i32  leaf_capacity            |
//   12  f64  initial_threshold        |
//   20  u64  memory_budget_bytes      |  AcfTreeOptions
//   28  f64  threshold_growth         |
//   36  i64  outlier_entry_min_n      |
//   44  i32  max_rebuilds_per_insert /
//   48  f64  threshold
//   56  i32  rebuild_count
//   60  i64  split_count
//   68  i64  points_inserted
//   76  u64  num_nodes
//   84  u64  num_leaf_entries
//   92  outlier_buffer (u32 count + ACFs), outliers (u32 count + ACFs),
//       then the root node walk.
void PersistPeer::EncodeTree(const AcfTree& tree, WireWriter& w) {
  w.U32(static_cast<uint32_t>(tree.own_part_));
  TreeOptionFields(FieldWriter(w), tree.options_);
  w.F64(tree.threshold_);
  w.I32(tree.rebuild_count_);
  w.I64(tree.split_count_);
  w.I64(tree.points_inserted_);
  w.U64(tree.num_nodes_);
  w.U64(tree.num_leaf_entries_);
  w.U32(static_cast<uint32_t>(tree.outlier_buffer_.size()));
  for (const Acf& acf : tree.outlier_buffer_) EncodeAcf(acf, w);
  w.U32(static_cast<uint32_t>(tree.outliers_.size()));
  for (const Acf& acf : tree.outliers_) EncodeAcf(acf, w);
  EncodeNode(*tree.root_, w);
}

Result<std::unique_ptr<AcfTree>> PersistPeer::DecodeTree(
    WireReader& r, std::shared_ptr<const AcfLayout> layout,
    size_t expect_part) {
  if (layout == nullptr || expect_part >= layout->num_parts()) {
    return Status::InvalidArgument(
        "DecodeTree: expect_part " + std::to_string(expect_part) +
        " is outside the layout");
  }
  DAR_ASSIGN_OR_RETURN(uint32_t own_part, r.U32());
  if (own_part != expect_part) {
    return Status::InvalidArgument(
        "tree clusters part " + std::to_string(own_part) + ", expected part " +
        std::to_string(expect_part));
  }
  AcfTreeOptions options;
  FieldReader read_options(r);
  TreeOptionFields(read_options, options);
  DAR_RETURN_IF_ERROR(read_options.status());
  DAR_RETURN_IF_ERROR(options.Validate());

  double threshold;
  int rebuild_count;
  int64_t split_count, points_inserted;
  uint64_t num_nodes, num_leaf_entries;
  DAR_ASSIGN_OR_RETURN(threshold, r.F64());
  DAR_ASSIGN_OR_RETURN(rebuild_count, r.I32());
  DAR_ASSIGN_OR_RETURN(split_count, r.I64());
  DAR_ASSIGN_OR_RETURN(points_inserted, r.I64());
  DAR_ASSIGN_OR_RETURN(num_nodes, r.U64());
  DAR_ASSIGN_OR_RETURN(num_leaf_entries, r.U64());
  if (!(threshold >= 0) || rebuild_count < 0 || split_count < 0 ||
      points_inserted < 0) {
    return Status::InvalidArgument(
        "tree counters out of range: threshold " + std::to_string(threshold) +
        ", rebuilds " + std::to_string(rebuild_count) + ", splits " +
        std::to_string(split_count) + ", points " +
        std::to_string(points_inserted));
  }

  // Public constructor first: the tree below is always fully formed (empty
  // root, correct layout byte estimate); decoded state replaces its parts
  // only after every byte has been read and validated.
  auto tree = std::make_unique<AcfTree>(layout, expect_part, options);

  DAR_ASSIGN_OR_RETURN(size_t buffered,
                       r.Count(kMinAcfBytes, "outlier-buffer entry"));
  std::vector<Acf> outlier_buffer;
  outlier_buffer.reserve(buffered);
  for (size_t i = 0; i < buffered; ++i) {
    DAR_ASSIGN_OR_RETURN(Acf acf, DecodeAcf(r, layout));
    outlier_buffer.push_back(std::move(acf));
  }
  DAR_ASSIGN_OR_RETURN(size_t confirmed,
                       r.Count(kMinAcfBytes, "outlier entry"));
  std::vector<Acf> outliers;
  outliers.reserve(confirmed);
  for (size_t i = 0; i < confirmed; ++i) {
    DAR_ASSIGN_OR_RETURN(Acf acf, DecodeAcf(r, layout));
    outliers.push_back(std::move(acf));
  }

  size_t counted_nodes = 0, counted_leaf_entries = 0;
  DAR_ASSIGN_OR_RETURN(
      std::unique_ptr<AcfTree::Node> root,
      DecodeNode<AcfTree::Node>(r, layout, expect_part, 0, counted_nodes,
                                counted_leaf_entries));
  // The cached counters drive memory budgeting and stats; a mismatch with
  // the actual structure means the blob is internally inconsistent.
  if (counted_nodes != num_nodes || counted_leaf_entries != num_leaf_entries) {
    return Status::InvalidArgument(
        "tree counter mismatch: header claims " + std::to_string(num_nodes) +
        " nodes/" + std::to_string(num_leaf_entries) + " leaf entries, walk "
        "found " + std::to_string(counted_nodes) + "/" +
        std::to_string(counted_leaf_entries));
  }

  tree->threshold_ = threshold;
  tree->rebuild_count_ = rebuild_count;
  tree->split_count_ = split_count;
  tree->points_inserted_ = points_inserted;
  tree->num_nodes_ = counted_nodes;
  tree->num_leaf_entries_ = counted_leaf_entries;
  tree->outlier_buffer_ = std::move(outlier_buffer);
  tree->outliers_ = std::move(outliers);
  tree->root_ = std::move(root);
  return tree;
}

// ---------------------------------------------------------------------------
// PersistPeer: Phase1Builder
// ---------------------------------------------------------------------------

void PersistPeer::EncodeBuilder(const Phase1Builder& builder, WireWriter& w) {
  w.I64(builder.rows_added_);
  w.U32(static_cast<uint32_t>(builder.trees_.size()));
  for (const auto& tree : builder.trees_) {
    WireWriter blob;
    EncodeTree(*tree, blob);
    w.U64(blob.size());
    w.Raw(blob.bytes());
  }
}

Result<Phase1Builder> PersistPeer::DecodeBuilder(
    WireReader& r, const DarConfig& config, const Schema& schema,
    const AttributePartition& partition, Executor* executor,
    MiningObserver* observer, telemetry::TelemetryContext telemetry) {
  DAR_ASSIGN_OR_RETURN(int64_t rows_added, r.I64());
  DAR_ASSIGN_OR_RETURN(uint32_t num_parts, r.U32());
  if (rows_added < 0) {
    return Status::InvalidArgument("builder rows_added " +
                                   std::to_string(rows_added) +
                                   " is negative");
  }
  if (num_parts != partition.num_parts()) {
    return Status::InvalidArgument(
        "checkpoint builder has " + std::to_string(num_parts) +
        " part trees, the partition has " +
        std::to_string(partition.num_parts()) + " parts");
  }

  // One shared layout for the builder and every tree/ACF under it: the
  // summary classes compare layouts by pointer identity, so decode must
  // thread a single shared_ptr through everything it constructs.
  std::shared_ptr<const AcfLayout> layout = Phase1Builder::LayoutOf(partition);
  std::vector<std::unique_ptr<AcfTree>> trees;
  trees.reserve(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    DAR_ASSIGN_OR_RETURN(uint64_t blob_len, r.U64());
    DAR_ASSIGN_OR_RETURN(WireReader blob,
                         r.Slice(static_cast<size_t>(blob_len)));
    auto tree = persist::DecodeTree(blob, layout, p);
    if (!tree.ok()) {
      return Status(tree.status().code(), "part " + std::to_string(p) +
                                              " tree: " +
                                              tree.status().message());
    }
    DAR_RETURN_IF_ERROR(
        blob.ExpectEnd("part " + std::to_string(p) + " tree blob"));
    trees.push_back(std::move(*tree));
  }
  DAR_RETURN_IF_ERROR(r.ExpectEnd("builder section"));

  Phase1Builder builder(config, partition, std::move(layout),
                        std::move(trees), schema.num_attributes(), executor,
                        observer, telemetry);
  builder.rows_added_ = rows_added;
  return builder;
}

std::vector<std::string> PersistPeer::DescribeTrees(
    const Phase1Builder& builder) {
  std::vector<std::string> lines;
  for (size_t p = 0; p < builder.trees_.size(); ++p) {
    const AcfTree& tree = *builder.trees_[p];
    lines.push_back(
        "tree[" + std::to_string(p) + "] part=" +
        std::to_string(tree.own_part_) +
        " nodes=" + std::to_string(tree.num_nodes_) +
        " leaf_entries=" + std::to_string(tree.num_leaf_entries_) +
        " outlier_buffer=" + std::to_string(tree.outlier_buffer_.size()) +
        " outliers=" + std::to_string(tree.outliers_.size()) +
        " points=" + std::to_string(tree.points_inserted_) +
        " rebuilds=" + std::to_string(tree.rebuild_count_) +
        " splits=" + std::to_string(tree.split_count_) +
        " branching=" + std::to_string(tree.options_.branching_factor) +
        " leaf_capacity=" + std::to_string(tree.options_.leaf_capacity));
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Public section codecs
// ---------------------------------------------------------------------------

namespace persist {

void EncodeTree(const AcfTree& tree, WireWriter& w) {
  PersistPeer::EncodeTree(tree, w);
}

Result<std::unique_ptr<AcfTree>> DecodeTree(
    WireReader& r, std::shared_ptr<const AcfLayout> layout,
    size_t expect_part) {
  DAR_ASSIGN_OR_RETURN(
      std::unique_ptr<AcfTree> tree,
      PersistPeer::DecodeTree(r, std::move(layout), expect_part));
#ifdef DAR_VALIDATE_INVARIANTS
  // A CRC catches flipped bits, not semantically wrong (e.g. version-
  // skewed) trees: under validation builds every decoded tree must also
  // pass the full structural/arithmetic invariant walk, which names the
  // offending node path on failure.
  if (Status s = tree->ValidateInvariants(); !s.ok()) {
    return Status(s.code(),
                  "decoded tree failed invariant validation: " + s.message());
  }
#endif
  return tree;
}

std::string EncodeSchemaSection(const Schema& schema) {
  WireWriter w;
  SchemaFields(FieldWriter(w), schema.attributes());
  return std::move(w).Take();
}

Result<Schema> DecodeSchemaSection(std::string_view bytes) {
  WireReader r(bytes);
  std::vector<Attribute> attributes;
  FieldReader read(r);
  SchemaFields(read, attributes);
  DAR_RETURN_IF_ERROR(read.End("schema section"));
  return Schema::Make(std::move(attributes));
}

std::string EncodeDictionariesSection(
    std::span<const Dictionary> dictionaries) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(dictionaries.size()));
  for (const Dictionary& dict : dictionaries) {
    w.U32(static_cast<uint32_t>(dict.size()));
    for (size_t code = 0; code < dict.size(); ++code) {
      // Decode(code) cannot fail for codes the dictionary itself reports.
      w.Str(dict.Decode(static_cast<double>(code)).ValueOrDie());
    }
  }
  return std::move(w).Take();
}

Result<std::vector<Dictionary>> DecodeDictionariesSection(
    std::string_view bytes) {
  WireReader r(bytes);
  DAR_ASSIGN_OR_RETURN(size_t count, r.Count(4, "dictionary"));
  std::vector<Dictionary> dictionaries(count);
  for (size_t i = 0; i < count; ++i) {
    DAR_ASSIGN_OR_RETURN(size_t labels, r.Count(4, "dictionary label"));
    for (size_t code = 0; code < labels; ++code) {
      DAR_ASSIGN_OR_RETURN(std::string label, r.Str());
      // Encode assigns codes 0,1,2,... in insertion order, so feeding the
      // labels back in code order reproduces the exact mapping.
      const double assigned = dictionaries[i].Encode(label);
      if (assigned != static_cast<double>(code)) {
        return Status::InvalidArgument(
            "dictionary " + std::to_string(i) + " has duplicate label '" +
            label + "'");
      }
    }
  }
  DAR_RETURN_IF_ERROR(r.ExpectEnd("dictionaries section"));
  return dictionaries;
}

std::string EncodeShardsSection(std::span<const ShardInfo> shards) {
  WireWriter w;
  ShardFields(FieldWriter(w), shards);
  return std::move(w).Take();
}

Result<std::vector<ShardInfo>> DecodeShardsSection(std::string_view bytes) {
  WireReader r(bytes);
  std::vector<ShardInfo> shards;
  FieldReader read(r);
  ShardFields(read, shards);
  DAR_RETURN_IF_ERROR(read.End("shards section"));
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].rows < 0) {
      return Status::InvalidArgument(
          "shard " + std::to_string(i) + " claims negative row count " +
          std::to_string(shards[i].rows));
    }
  }
  return shards;
}

std::string EncodePartitionSection(const AttributePartition& partition) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(partition.num_parts()));
  for (const AttributeSet& part : partition.parts()) {
    WriteField(w, part.metric);
    WriteField(w, part.columns);
  }
  return std::move(w).Take();
}

Result<AttributePartition> DecodePartitionSection(std::string_view bytes,
                                                  const Schema& schema) {
  WireReader r(bytes);
  DAR_ASSIGN_OR_RETURN(size_t num_parts, r.Count(5, "partition part"));
  std::vector<std::pair<std::vector<std::string>, MetricKind>> parts;
  parts.reserve(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    MetricKind metric;
    DAR_RETURN_IF_ERROR(ReadField(r, "partition part metric", metric));
    DAR_ASSIGN_OR_RETURN(size_t cols, r.Count(8, "partition column"));
    std::vector<std::string> names;
    names.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      DAR_ASSIGN_OR_RETURN(uint64_t col, r.U64());
      if (col >= schema.num_attributes()) {
        return Status::InvalidArgument(
            "partition part " + std::to_string(p) + " references column " +
            std::to_string(col) + " outside the " +
            std::to_string(schema.num_attributes()) + "-attribute schema");
      }
      names.push_back(schema.attribute(static_cast<size_t>(col)).name);
    }
    parts.emplace_back(std::move(names), metric);
  }
  DAR_RETURN_IF_ERROR(r.ExpectEnd("partition section"));
  return AttributePartition::Make(schema, parts);
}

std::string EncodeConfigSection(const DarConfig& config) {
  WireWriter w;
  ConfigFields(FieldWriter(w), config);
  return std::move(w).Take();
}

Result<DarConfig> DecodeConfigSection(std::string_view bytes) {
  WireReader r(bytes);
  DarConfig config;
  FieldReader read(r);
  ConfigFields(read, config);
  DAR_RETURN_IF_ERROR(read.End("config section"));
  DAR_RETURN_IF_ERROR(config.Validate());
  return config;
}

std::string FirstConfigDiff(const DarConfig& a, const DarConfig& b) {
  const char* first = "";
  ConfigFields(
      [&first](const char* name, const auto& x, const auto& y) {
        if (*first == '\0' && x != y) first = name;
      },
      a, b);
  return first;
}

std::string EncodeBuilderSection(const Phase1Builder& builder) {
  WireWriter w;
  PersistPeer::EncodeBuilder(builder, w);
  return std::move(w).Take();
}

Result<Phase1Builder> DecodeBuilderSection(
    std::string_view bytes, const DarConfig& config, const Schema& schema,
    const AttributePartition& partition, Executor* executor,
    MiningObserver* observer, telemetry::TelemetryContext telemetry) {
  WireReader r(bytes);
  return PersistPeer::DecodeBuilder(r, config, schema, partition, executor,
                                    observer, telemetry);
}

namespace {

// Reads a u32-counted list of cluster ids, refusing each id outside the
// `bound`-cluster set as it is read.
Status ReadIds(WireReader& r, size_t bound, const char* what,
               std::vector<size_t>& ids) {
  DAR_ASSIGN_OR_RETURN(const size_t count, r.Count(8, what));
  ids.resize(count);
  for (size_t& id : ids) {
    DAR_RETURN_IF_ERROR(ReadField(r, what, id));
    if (id >= bound) {
      return Status::InvalidArgument(
          std::string(what) + " references cluster " + std::to_string(id) +
          " outside the " + std::to_string(bound) + "-cluster set");
    }
  }
  return Status::OK();
}

}  // namespace

std::string EncodeResultsSection(uint64_t generation, int64_t rows_ingested,
                                 const Phase1Result& phase1,
                                 const Phase2Result& phase2) {
  WireWriter w;
  w.U64(generation);
  w.I64(rows_ingested);

  // Phase1Result.
  w.U32(static_cast<uint32_t>(phase1.layout->num_parts()));
  for (const PartSpec& spec : phase1.layout->parts) {
    w.U64(spec.dim);
    WriteField(w, spec.metric);
    w.Str(spec.label);
  }
  w.U32(static_cast<uint32_t>(phase1.clusters.size()));
  for (const FoundCluster& cluster : phase1.clusters.clusters()) {
    w.U64(cluster.id);
    w.U64(cluster.part);
    PersistPeer::EncodeAcf(cluster.acf, w);
  }
  TreeStatsFields(FieldWriter(w), phase1.tree_stats);
  w.U32(static_cast<uint32_t>(phase1.outliers.size()));
  for (const Acf& acf : phase1.outliers) PersistPeer::EncodeAcf(acf, w);
  WriteField(w, phase1.raw_cluster_counts);
  WriteField(w, phase1.effective_d0);
  w.I64(phase1.frequency_threshold);
  w.F64(phase1.seconds);

  // Phase2Result.
  WriteField(w, phase2.cliques);
  w.U64(phase2.num_nontrivial_cliques);
  WriteField(w, phase2.cliques_truncated);
  w.U64(phase2.graph_edges);
  w.U32(static_cast<uint32_t>(phase2.rules.size()));
  for (const DistanceRule& rule : phase2.rules) {
    WriteField(w, rule.antecedent);
    WriteField(w, rule.consequent);
    w.F64(rule.degree);
    w.F64(rule.cooccurrence_slack);
    w.I64(rule.support_count);
  }
  WriteField(w, phase2.rules_truncated);
  w.F64(phase2.seconds);
  return std::move(w).Take();
}

Result<DecodedResults> DecodeResultsSection(std::string_view bytes) {
  WireReader r(bytes);
  DecodedResults out;
  DAR_ASSIGN_OR_RETURN(out.generation, r.U64());
  DAR_ASSIGN_OR_RETURN(out.rows_ingested, r.I64());

  // Phase1Result. As everywhere in decode, one shared layout object is
  // threaded through the ClusterSet and every ACF.
  DAR_ASSIGN_OR_RETURN(size_t num_parts, r.Count(13, "layout part"));
  auto layout = std::make_shared<AcfLayout>();
  layout->parts.reserve(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    PartSpec spec;
    DAR_RETURN_IF_ERROR(ReadField(r, "layout part dim", spec.dim));
    DAR_RETURN_IF_ERROR(ReadField(r, "layout part metric", spec.metric));
    DAR_ASSIGN_OR_RETURN(spec.label, r.Str());
    layout->parts.push_back(std::move(spec));
  }
  out.phase1.layout = layout;

  DAR_ASSIGN_OR_RETURN(size_t num_clusters,
                       r.Count(16 + kMinAcfBytes, "cluster"));
  std::vector<FoundCluster> clusters;
  clusters.reserve(num_clusters);
  for (size_t i = 0; i < num_clusters; ++i) {
    FoundCluster cluster;
    DAR_ASSIGN_OR_RETURN(uint64_t id, r.U64());
    DAR_ASSIGN_OR_RETURN(uint64_t part, r.U64());
    // ClusterSet's constructor DAR_CHECKs id density and part bounds;
    // validate here first so corrupt bytes fail with a Status, not a crash.
    if (id != i) {
      return Status::InvalidArgument(
          "cluster ids are not dense: cluster " + std::to_string(i) +
          " has id " + std::to_string(id));
    }
    if (part >= num_parts) {
      return Status::InvalidArgument(
          "cluster " + std::to_string(i) + " is on part " +
          std::to_string(part) + " of a " + std::to_string(num_parts) +
          "-part layout");
    }
    cluster.id = static_cast<size_t>(id);
    cluster.part = static_cast<size_t>(part);
    DAR_ASSIGN_OR_RETURN(cluster.acf, PersistPeer::DecodeAcf(r, layout));
    if (cluster.acf.own_part() != cluster.part) {
      return Status::InvalidArgument(
          "cluster " + std::to_string(i) + " ACF is on part " +
          std::to_string(cluster.acf.own_part()) + ", cluster claims part " +
          std::to_string(cluster.part));
    }
    clusters.push_back(std::move(cluster));
  }
  out.phase1.clusters = ClusterSet(layout, std::move(clusters));

  FieldReader read_stats(r);
  TreeStatsFields(read_stats, out.phase1.tree_stats);
  DAR_RETURN_IF_ERROR(read_stats.status());
  DAR_ASSIGN_OR_RETURN(size_t num_outliers, r.Count(kMinAcfBytes, "outlier"));
  out.phase1.outliers.reserve(num_outliers);
  for (size_t i = 0; i < num_outliers; ++i) {
    DAR_ASSIGN_OR_RETURN(Acf acf, PersistPeer::DecodeAcf(r, layout));
    out.phase1.outliers.push_back(std::move(acf));
  }
  DAR_RETURN_IF_ERROR(ReadField(r, "raw cluster count",
                                out.phase1.raw_cluster_counts));
  DAR_RETURN_IF_ERROR(
      ReadField(r, "effective_d0", out.phase1.effective_d0));
  DAR_ASSIGN_OR_RETURN(out.phase1.frequency_threshold, r.I64());
  DAR_ASSIGN_OR_RETURN(out.phase1.seconds, r.F64());

  // Phase2Result.
  DAR_ASSIGN_OR_RETURN(size_t num_cliques, r.Count(4, "clique"));
  out.phase2.cliques.resize(num_cliques);
  for (std::vector<size_t>& clique : out.phase2.cliques) {
    DAR_RETURN_IF_ERROR(ReadIds(r, num_clusters, "clique", clique));
  }
  DAR_RETURN_IF_ERROR(ReadField(r, "nontrivial cliques",
                                out.phase2.num_nontrivial_cliques));
  DAR_RETURN_IF_ERROR(
      ReadField(r, "cliques_truncated", out.phase2.cliques_truncated));
  DAR_RETURN_IF_ERROR(ReadField(r, "graph edges", out.phase2.graph_edges));
  DAR_ASSIGN_OR_RETURN(size_t num_rules, r.Count(32, "rule"));
  out.phase2.rules.reserve(num_rules);
  for (size_t i = 0; i < num_rules; ++i) {
    DistanceRule rule;
    DAR_RETURN_IF_ERROR(
        ReadIds(r, num_clusters, "rule antecedent", rule.antecedent));
    DAR_RETURN_IF_ERROR(
        ReadIds(r, num_clusters, "rule consequent", rule.consequent));
    DAR_ASSIGN_OR_RETURN(rule.degree, r.F64());
    DAR_ASSIGN_OR_RETURN(rule.cooccurrence_slack, r.F64());
    DAR_ASSIGN_OR_RETURN(rule.support_count, r.I64());
    out.phase2.rules.push_back(std::move(rule));
  }
  DAR_RETURN_IF_ERROR(
      ReadField(r, "rules_truncated", out.phase2.rules_truncated));
  DAR_ASSIGN_OR_RETURN(out.phase2.seconds, r.F64());
  DAR_RETURN_IF_ERROR(r.ExpectEnd("results section"));
  return out;
}

std::string EncodeStreamStateSection(const StreamState& state) {
  WireWriter w;
  StreamStateFields(FieldWriter(w), state);
  return std::move(w).Take();
}

namespace {

// `has_quality_tail` reports whether the section carried the quality knobs
// (DescribeCheckpoint prints them only then).
Result<StreamState> DecodeStreamState(std::string_view bytes,
                                      bool& has_quality_tail) {
  WireReader r(bytes);
  StreamState s;
  FieldReader read(r);
  StreamStateFields(read, s);
  DAR_RETURN_IF_ERROR(read.End("stream state section"));
  has_quality_tail = read.read_tail();
  DAR_RETURN_IF_ERROR(s.stream_config.Validate());
  if (s.rows_ingested < 0 || s.rows_at_snapshot < 0 ||
      s.rows_at_checkpoint < 0 || s.rows_at_snapshot > s.rows_ingested ||
      s.rows_at_checkpoint > s.rows_ingested) {
    return Status::InvalidArgument(
        "stream state counters out of range: rows_ingested " +
        std::to_string(s.rows_ingested) + ", rows_at_snapshot " +
        std::to_string(s.rows_at_snapshot) + ", rows_at_checkpoint " +
        std::to_string(s.rows_at_checkpoint));
  }
  return s;
}

}  // namespace

Result<StreamState> DecodeStreamStateSection(std::string_view bytes) {
  bool has_quality_tail = false;
  return DecodeStreamState(bytes, has_quality_tail);
}

std::string EncodeRetainedRowsSection(const Relation& rows) {
  std::vector<std::span<const double>> columns;
  for (size_t c = 0; c < rows.num_columns(); ++c) {
    columns.push_back(rows.column(c));
  }
  WireWriter w;
  w.Reserve(16 + 8 * rows.num_rows() * columns.size());
  w.U64(rows.num_rows());
  w.U64(columns.size());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    for (std::span<const double> column : columns) w.F64(column[r]);
  }
  return std::move(w).Take();
}

Result<Relation> DecodeRetainedRowsSection(std::string_view bytes,
                                           const Schema& schema) {
  WireReader r(bytes);
  DAR_ASSIGN_OR_RETURN(uint64_t rows, r.U64());
  DAR_ASSIGN_OR_RETURN(uint64_t cols, r.U64());
  Relation rel(schema);
  if (cols != rel.num_columns()) {
    return Status::InvalidArgument(
        "retained rows section has " + std::to_string(cols) +
        " columns, schema has " + std::to_string(rel.num_columns()));
  }
  // The values must fill the rest of the payload exactly. Dividing rather
  // than multiplying keeps a corrupt row count from overflowing the check.
  const uint64_t row_bytes = 8 * cols;
  const bool fits = row_bytes == 0
                        ? rows == 0 && r.remaining() == 0
                        : r.remaining() % row_bytes == 0 &&
                              r.remaining() / row_bytes == rows;
  if (!fits) {
    return Status::InvalidArgument(
        "retained rows section claims " + std::to_string(rows) + " rows of " +
        std::to_string(cols) + " columns, but " +
        std::to_string(r.remaining()) + " value bytes remain");
  }
  rel.Reserve(static_cast<size_t>(rows));
  std::vector<double> row(static_cast<size_t>(cols));
  for (uint64_t i = 0; i < rows; ++i) {
    DAR_RETURN_IF_ERROR(ReadF64s(r, row.size(), row, "retained row"));
    DAR_RETURN_IF_ERROR(rel.AppendRow(row));
  }
  return rel;
}

Result<CheckpointMeta> DecodeCheckpointMeta(const CheckpointReader& reader) {
  CheckpointMeta meta;
  DAR_ASSIGN_OR_RETURN(std::string_view config_bytes,
                       reader.Section(SectionId::kConfig));
  DAR_ASSIGN_OR_RETURN(meta.config, DecodeConfigSection(config_bytes));
  DAR_ASSIGN_OR_RETURN(std::string_view schema_bytes,
                       reader.Section(SectionId::kSchema));
  DAR_ASSIGN_OR_RETURN(meta.schema, DecodeSchemaSection(schema_bytes));
  DAR_ASSIGN_OR_RETURN(std::string_view partition_bytes,
                       reader.Section(SectionId::kPartition));
  DAR_ASSIGN_OR_RETURN(meta.partition,
                       DecodePartitionSection(partition_bytes, meta.schema));
  if (reader.HasSection(SectionId::kDictionaries)) {
    DAR_ASSIGN_OR_RETURN(std::string_view dict_bytes,
                         reader.Section(SectionId::kDictionaries));
    DAR_ASSIGN_OR_RETURN(meta.dictionaries,
                         DecodeDictionariesSection(dict_bytes));
  }
  if (reader.HasSection(SectionId::kShards)) {
    DAR_ASSIGN_OR_RETURN(std::string_view shard_bytes,
                         reader.Section(SectionId::kShards));
    DAR_ASSIGN_OR_RETURN(meta.shards, DecodeShardsSection(shard_bytes));
  }
  return meta;
}

void AddCommonSections(CheckpointWriter& writer, const DarConfig& config,
                       const Schema& schema,
                       const AttributePartition& partition,
                       std::span<const Dictionary> dictionaries,
                       const StreamState* stream_state,
                       const Phase1Builder& builder,
                       std::span<const ShardInfo> shards) {
  writer.AddSection(SectionId::kConfig, EncodeConfigSection(config));
  writer.AddSection(SectionId::kSchema, EncodeSchemaSection(schema));
  writer.AddSection(SectionId::kPartition, EncodePartitionSection(partition));
  if (!dictionaries.empty()) {
    writer.AddSection(SectionId::kDictionaries,
                      EncodeDictionariesSection(dictionaries));
  }
  if (stream_state != nullptr) {
    writer.AddSection(SectionId::kStreamState,
                      EncodeStreamStateSection(*stream_state));
  }
  writer.AddSection(SectionId::kBuilder, EncodeBuilderSection(builder));
  writer.AddSection(SectionId::kShards, EncodeShardsSection(shards));
}

// ---------------------------------------------------------------------------
// DescribeCheckpoint
// ---------------------------------------------------------------------------

namespace {

std::string Lit(bool value) { return value ? "True" : "False"; }

template <std::integral T>
std::string Lit(T value) {
  return std::to_string(value);
}

// The shortest digits that read back exactly, with ".0" after an integer
// so that the text still reads as a float.
std::string Lit(double value) {
  std::string text = FormatDoubleExact(value);
  if (text.find_first_not_of("-0123456789") == std::string::npos) {
    text += ".0";
  }
  return text;
}

// Python's repr of a str: single quotes unless the text holds a single
// quote and no double quote; backslash escapes for that quote, backslash
// and control characters.
std::string Lit(std::string_view s) {
  const char quote = s.find('\'') != std::string_view::npos &&
                             s.find('"') == std::string_view::npos
                         ? '"'
                         : '\'';
  std::string out(1, quote);
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == quote || c == '\\') {
      out += {'\\', c};
    } else if (c == '\n' || c == '\r' || c == '\t') {
      out += {'\\', c == '\n' ? 'n' : c == '\r' ? 'r' : 't'};
    } else if (byte < 0x20 || byte == 0x7F) {
      constexpr char kHex[] = "0123456789abcdef";
      out += {'\\', 'x', kHex[byte >> 4], kHex[byte & 0xF]};
    } else {
      out += c;
    }
  }
  return out + quote;
}

constexpr const char* kMetricNames[] = {"euclidean", "manhattan",
                                       "discrete"};

struct Summary {
  bool show_floats;
  std::string text;

  void Line(int indent, std::string_view line) {
    text.append(2 * static_cast<size_t>(indent), ' ').append(line) += '\n';
  }
  // "name: value" one level in.
  void Field(std::string_view name, std::string_view value) {
    Line(1, std::string(name) + ": " + std::string(value));
  }
  // A field's value as a literal: floats as `_` unless shown, the cluster
  // metric as "D2", a vector as "[a, b]".
  template <typename T>
  [[nodiscard]] std::string Value(const T& value) const {
    if constexpr (std::is_same_v<T, double>) {
      return show_floats ? Lit(value) : "_";
    } else if constexpr (std::is_same_v<T, ClusterMetric>) {
      return "D" + Lit(static_cast<int>(value));
    } else if constexpr (requires { value.begin(); } &&
                         !std::is_same_v<T, std::string>) {
      std::string items;
      for (const auto& item : value) {
        items += (items.empty() ? "" : ", ") + Value(item);
      }
      return "[" + items + "]";
    } else {
      return Lit(value);
    }
  }
};

// Prints each field of a list as "name: value"; `tail` says whether the
// record's appended tail was on the wire.
struct FieldPrinter {
  Summary& out;
  bool tail = true;
  template <typename T>
  void operator()(const char* name, const T& value) {
    out.Field(name, out.Value(value));
  }
  [[nodiscard]] bool Tail() const { return tail; }
};

Status DescribeStreamState(Summary& out, std::string_view bytes) {
  bool has_quality_tail = false;
  DAR_ASSIGN_OR_RETURN(StreamState s,
                       DecodeStreamState(bytes, has_quality_tail));
  StreamStateFields(FieldPrinter{out, has_quality_tail}, s);
  return Status::OK();
}

Status DescribeSnapshot(Summary& out, std::string_view bytes) {
  DAR_ASSIGN_OR_RETURN(DecodedResults results, DecodeResultsSection(bytes));
  const Phase1Result& p1 = results.phase1;
  const Phase2Result& p2 = results.phase2;
  std::vector<size_t> per_part(p1.layout->num_parts(), 0);
  for (const FoundCluster& cluster : p1.clusters.clusters()) {
    ++per_part[cluster.part];
  }
  std::vector<size_t> sizes;
  for (const auto& clique : p2.cliques) sizes.push_back(clique.size());
  std::sort(sizes.rbegin(), sizes.rend());
  out.Field("generation", Lit(results.generation));
  out.Field("rows_ingested", Lit(results.rows_ingested));
  out.Field("layout_parts", Lit(p1.layout->num_parts()));
  out.Field("clusters", Lit(p1.clusters.size()) +
                            " per_part=" + out.Value(per_part));
  out.Field("tree_stats", Lit(p1.tree_stats.size()));
  out.Field("outliers", Lit(p1.outliers.size()));
  out.Field("raw_cluster_counts", out.Value(p1.raw_cluster_counts));
  out.Field("effective_d0", out.Value(p1.effective_d0));
  out.Field("frequency_threshold", Lit(p1.frequency_threshold));
  out.Field("cliques", Lit(p2.cliques.size()) + " nontrivial=" +
                           Lit(p2.num_nontrivial_cliques) +
                           " sizes=" + out.Value(sizes));
  out.Field("cliques_truncated", Lit(p2.cliques_truncated));
  out.Field("graph_edges", Lit(p2.graph_edges));
  out.Field("rules", Lit(p2.rules.size()));
  out.Field("rules_truncated", Lit(p2.rules_truncated));
  return Status::OK();
}

// Prints one section's block; `meta` holds the sections decoded up front.
Status DescribeSection(Summary& out, uint32_t id, std::string_view bytes,
                       const CheckpointMeta& meta) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kConfig:
      ConfigFields(FieldPrinter{out}, meta.config);
      return Status::OK();
    case SectionId::kSchema:
      out.Field("attributes", Lit(meta.schema.num_attributes()));
      for (size_t i = 0; i < meta.schema.num_attributes(); ++i) {
        const Attribute& attr = meta.schema.attribute(i);
        out.Line(2, "[" + Lit(i) + "] " + attr.name + ": " +
                        (attr.kind == AttributeKind::kNominal ? "nominal"
                                                              : "interval"));
      }
      return Status::OK();
    case SectionId::kPartition:
      out.Field("parts", Lit(meta.partition.num_parts()));
      for (size_t p = 0; p < meta.partition.num_parts(); ++p) {
        const AttributeSet& part = meta.partition.part(p);
        out.Line(2, "[" + Lit(p) + "] metric=" +
                        kMetricNames[static_cast<int>(part.metric)] +
                        " columns=" + out.Value(part.columns));
      }
      return Status::OK();
    case SectionId::kDictionaries:
      out.Field("dictionaries", Lit(meta.dictionaries.size()));
      for (size_t i = 0; i < meta.dictionaries.size(); ++i) {
        out.Line(2, "[" + Lit(i) + "] " + Lit(meta.dictionaries[i].size()) +
                        " labels");
      }
      return Status::OK();
    case SectionId::kStreamState:
      return DescribeStreamState(out, bytes);
    case SectionId::kBuilder: {
      DAR_ASSIGN_OR_RETURN(
          Phase1Builder builder,
          DecodeBuilderSection(bytes, meta.config, meta.schema,
                               meta.partition));
      const std::vector<std::string> trees =
          PersistPeer::DescribeTrees(builder);
      out.Field("rows_added", Lit(builder.rows_added()));
      out.Field("trees", Lit(trees.size()));
      for (const std::string& tree : trees) out.Line(2, tree);
      return Status::OK();
    }
    case SectionId::kSnapshot:
      return DescribeSnapshot(out, bytes);
    case SectionId::kShards:
      out.Field("shards", Lit(meta.shards->size()));
      for (size_t i = 0; i < meta.shards->size(); ++i) {
        const ShardInfo& shard = (*meta.shards)[i];
        out.Line(2, "[" + Lit(i) + "] " +
                        (shard.shard_id == -1 ? "anonymous"
                                              : "id=" + Lit(shard.shard_id)) +
                        " rows=" + Lit(shard.rows));
      }
      return Status::OK();
    case SectionId::kRetainedRows: {
      DAR_ASSIGN_OR_RETURN(Relation rows,
                           DecodeRetainedRowsSection(bytes, meta.schema));
      out.Field("rows", Lit(rows.num_rows()));
      out.Field("cols", Lit(rows.num_columns()));
      return Status::OK();
    }
  }
  out.Line(1, "(unknown section, skipped)");
  return Status::OK();
}

}  // namespace

Result<std::string> DescribeCheckpoint(const CheckpointReader& reader,
                                       bool show_floats) {
  DAR_ASSIGN_OR_RETURN(CheckpointMeta meta, DecodeCheckpointMeta(reader));
  Summary out{show_floats, ""};
  out.Line(0, "format_version: " + Lit(reader.format_version()));
  out.Line(0, "sections: " + Lit(reader.section_ids().size()));
  for (uint32_t id : reader.section_ids()) {
    DAR_ASSIGN_OR_RETURN(std::string_view bytes,
                         reader.Section(static_cast<SectionId>(id)));
    const std::string name(SectionName(id));
    out.Line(0, "section " + name + " (id=" + Lit(id) + ", " +
                    Lit(bytes.size()) + " bytes)");
    if (Status s = DescribeSection(out, id, bytes, meta); !s.ok()) {
      return Status(s.code(), name + " section: " + s.message());
    }
  }
  out.Line(0, "ok");
  return std::move(out.text);
}

}  // namespace persist
}  // namespace dar
