#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "birch/acf.h"
#include "birch/acf_tree.h"
#include "birch/cf.h"

namespace dar {

/// Reaches into AcfTree/Acf/CfVector internals so tests can plant precise
/// corruptions that no public API can produce. Befriended by all three.
struct InvariantTestPeer {
  using Node = AcfTree::Node;
  using ChildRef = AcfTree::ChildRef;

  static Node* Root(AcfTree& tree) { return tree.root_.get(); }
  static std::vector<Acf>& Entries(Node* node) { return node->entries; }
  static std::vector<ChildRef>& Children(Node* node) {
    return node->children;
  }
  static Node* FirstLeaf(AcfTree& tree) {
    Node* node = tree.root_.get();
    while (!node->is_leaf) node = node->children.front().child.get();
    return node;
  }
  static CfVector& Image(Acf& acf, size_t part) { return acf.images_[part]; }
  static std::span<double> Ls(CfVector& cf) {
    return std::span<double>(cf.block_).first(cf.dim());
  }
  static std::span<double> Ss(CfVector& cf) {
    return std::span<double>(cf.block_).subspan(cf.dim(), cf.dim());
  }
  static int64_t& N(CfVector& cf) { return cf.n_; }
  static std::vector<double>& Centroids(Node* node) { return node->centroids; }
  static std::vector<uint32_t>& Queue(Acf& acf) { return acf.queue_; }
};

namespace {

std::shared_ptr<const AcfLayout> TwoPartLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "x"},
                   {1, MetricKind::kEuclidean, "y"}};
  return layout;
}

AcfTreeOptions SmallNodeOptions() {
  AcfTreeOptions options;
  options.branching_factor = 3;
  options.leaf_capacity = 2;
  options.initial_threshold = 0.0;
  options.memory_budget_bytes = 64u << 20;  // never rebuild in these tests
  return options;
}

// Builds a tree deep enough (>= 2 levels) that every leaf has an internal
// parent whose ChildRef CF the additivity check compares against.
std::unique_ptr<AcfTree> MakeDeepTree(
    const std::shared_ptr<const AcfLayout>& layout) {
  auto tree = std::make_unique<AcfTree>(layout, /*own_part=*/0,
                                        SmallNodeOptions());
  for (int i = 0; i < 40; ++i) {
    PartedRow row = {{static_cast<double>(i)}, {static_cast<double>(2 * i)}};
    Status st = tree->InsertPoint(row);
    EXPECT_TRUE(st.ok()) << st;
  }
  return tree;
}

TEST(ValidateInvariantsTest, CleanTreeValidates) {
  auto layout = TwoPartLayout();
  auto tree_ptr = MakeDeepTree(layout);
  AcfTree& tree = *tree_ptr;
  ASSERT_FALSE(InvariantTestPeer::Root(tree)->is_leaf)
      << "fixture must build a multi-level tree";
  Status st = tree.ValidateInvariants();
  EXPECT_TRUE(st.ok()) << st;
}

TEST(ValidateInvariantsTest, CleanTreeValidatesAfterFinishScan) {
  auto layout = TwoPartLayout();
  auto tree_ptr = MakeDeepTree(layout);
  AcfTree& tree = *tree_ptr;
  ASSERT_TRUE(tree.FinishScan().ok());
  Status st = tree.ValidateInvariants();
  EXPECT_TRUE(st.ok()) << st;
}

TEST(ValidateInvariantsTest, DetectsCorruptedLinearSum) {
  auto layout = TwoPartLayout();
  auto tree_ptr = MakeDeepTree(layout);
  AcfTree& tree = *tree_ptr;
  // Shift one leaf cluster's own-part linear sum: the parent's ChildRef CF
  // no longer equals the merge of the leaf's entries.
  auto* leaf = InvariantTestPeer::FirstLeaf(tree);
  Acf& entry = InvariantTestPeer::Entries(leaf).front();
  InvariantTestPeer::Ls(InvariantTestPeer::Image(entry, 0))[0] += 1000.0;

  Status st = tree.ValidateInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.message().find("CF additivity violated"), std::string::npos)
      << st;
  EXPECT_EQ(st.message().rfind("root/c", 0), 0u)
      << "message should start with the offending node path: " << st;
}

TEST(ValidateInvariantsTest, DetectsCorruptedCrossAttributeMass) {
  auto layout = TwoPartLayout();
  auto tree_ptr = MakeDeepTree(layout);
  AcfTree& tree = *tree_ptr;
  // Break Eq. 7: the image on part 1 claims to summarize a different number
  // of tuples than the cluster's own CF.
  auto* leaf = InvariantTestPeer::FirstLeaf(tree);
  Acf& entry = InvariantTestPeer::Entries(leaf).front();
  InvariantTestPeer::N(InvariantTestPeer::Image(entry, 1)) += 1;

  Status st = tree.ValidateInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cross-attribute mass"), std::string::npos)
      << st;
  EXPECT_NE(st.message().find("/img1"), std::string::npos)
      << "message should name the offending image path: " << st;
}

TEST(ValidateInvariantsTest, DetectsCorruptedCrossAttributeSum) {
  auto layout = TwoPartLayout();
  auto tree_ptr = MakeDeepTree(layout);
  AcfTree& tree = *tree_ptr;
  // Shift the part-1 image's linear sum far outside its bounding box; the
  // own-part CFs all still agree, so only the per-image summary check can
  // catch this.
  auto* leaf = InvariantTestPeer::FirstLeaf(tree);
  Acf& entry = InvariantTestPeer::Entries(leaf).front();
  InvariantTestPeer::Ls(InvariantTestPeer::Image(entry, 1))[0] += 1e6;

  Status st = tree.ValidateInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("outside bounding box"), std::string::npos)
      << st;
  EXPECT_NE(st.message().find("/img1"), std::string::npos) << st;
}

TEST(ValidateInvariantsTest, DetectsNegativeSquaredSum) {
  auto layout = TwoPartLayout();
  auto tree_ptr = MakeDeepTree(layout);
  AcfTree& tree = *tree_ptr;
  auto* leaf = InvariantTestPeer::FirstLeaf(tree);
  Acf& entry = InvariantTestPeer::Entries(leaf).front();
  InvariantTestPeer::Ss(InvariantTestPeer::Image(entry, 1))[0] = -4.0;

  Status st = tree.ValidateInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("negative squared-sum"), std::string::npos)
      << st;
}

TEST(ValidateInvariantsTest, DetectsOverfullLeaf) {
  auto layout = TwoPartLayout();
  // Depth-1 tree: the root leaf's occupancy is checked directly, before any
  // additivity comparison could fire.
  AcfTreeOptions options = SmallNodeOptions();
  options.leaf_capacity = 4;
  AcfTree tree(layout, /*own_part=*/0, options);
  for (int i = 0; i < 3; ++i) {
    PartedRow row = {{static_cast<double>(i)}, {static_cast<double>(i)}};
    ASSERT_TRUE(tree.InsertPoint(row).ok());
  }
  auto* root = InvariantTestPeer::Root(tree);
  ASSERT_TRUE(root->is_leaf);
  // Duplicate entries until the leaf exceeds its capacity.
  auto& entries = InvariantTestPeer::Entries(root);
  entries.push_back(entries.front());
  entries.push_back(entries.front());

  Status st = tree.ValidateInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("leaf holds 5 entries"), std::string::npos)
      << st;
  EXPECT_EQ(st.message().rfind("root:", 0), 0u) << st;
}

TEST(ValidateInvariantsTest, DetectsMissingChild) {
  auto layout = TwoPartLayout();
  auto tree_ptr = MakeDeepTree(layout);
  AcfTree& tree = *tree_ptr;
  auto* root = InvariantTestPeer::Root(tree);
  ASSERT_FALSE(root->is_leaf);
  // Drop an entire subtree: the cached node/entry counters and the total
  // mass no longer match a recount.
  InvariantTestPeer::Children(root).pop_back();

  Status st = tree.ValidateInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("!= recount"), std::string::npos) << st;
}

TEST(ValidateInvariantsTest, DetectsStaleCentroidTable) {
  auto layout = TwoPartLayout();
  auto tree_ptr = MakeDeepTree(layout);
  AcfTree& tree = *tree_ptr;
  auto* root = InvariantTestPeer::Root(tree);
  ASSERT_FALSE(root->is_leaf);
  // One ulp off child 1's cached centroid: every CF still agrees, and the
  // descent would compare against a value PointClusterDistance never sees.
  std::vector<double>& table = InvariantTestPeer::Centroids(root);
  ASSERT_EQ(table.size(), InvariantTestPeer::Children(root).size());
  table[1] = std::nextafter(table[1], std::numeric_limits<double>::infinity());

  Status st = tree.ValidateInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.message().find("cached centroid differs from ls / n"),
            std::string::npos)
      << st;
  EXPECT_EQ(st.message().rfind("root/c1:", 0), 0u) << st;
}

TEST(ValidateInvariantsTest, DetectsQueuedRowsOutsideInsertRows) {
  auto layout = TwoPartLayout();
  auto tree_ptr = MakeDeepTree(layout);
  AcfTree& tree = *tree_ptr;
  // A row the own CF holds and the other images never received.
  auto* leaf = InvariantTestPeer::FirstLeaf(tree);
  Acf& entry = InvariantTestPeer::Entries(leaf).front();
  InvariantTestPeer::Queue(entry).push_back(0);

  Status st = tree.ValidateInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.message().find("1 queued rows outside InsertRows"),
            std::string::npos)
      << st;
  EXPECT_EQ(st.message().rfind("root/c0", 0), 0u) << st;
  EXPECT_NE(st.message().find("/e0:"), std::string::npos) << st;
}

#ifdef DAR_VALIDATE_INVARIANTS
// When the build validates automatically, a corruption planted between
// operations surfaces as an error from the *next* mutation — no explicit
// ValidateInvariants() call needed.
TEST(ValidateInvariantsTest, AutoValidationCatchesCorruptionOnNextInsert) {
  auto layout = TwoPartLayout();
  auto tree_ptr = MakeDeepTree(layout);
  AcfTree& tree = *tree_ptr;
  auto* leaf = InvariantTestPeer::FirstLeaf(tree);
  Acf& entry = InvariantTestPeer::Entries(leaf).front();
  InvariantTestPeer::Ls(InvariantTestPeer::Image(entry, 0))[0] += 1000.0;

  PartedRow row = {{1e3}, {2e3}};
  Status st = tree.InsertPoint(row);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("CF additivity violated"), std::string::npos)
      << st;
}
#endif  // DAR_VALIDATE_INVARIANTS

}  // namespace
}  // namespace dar
