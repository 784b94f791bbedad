#include "clustering/parent_pointer_forest.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace adalsh {
namespace {

TEST(ForestTest, MakeTreeSingleLeaf) {
  ParentPointerForest forest;
  NodeId leaf = kInvalidNode;
  NodeId root = forest.MakeTree(7, /*producer=*/2, &leaf);
  EXPECT_TRUE(forest.IsRoot(root));
  EXPECT_EQ(forest.LeafCount(root), 1u);
  EXPECT_EQ(forest.Producer(root), 2);
  EXPECT_EQ(forest.RecordAt(leaf), 7u);
  EXPECT_EQ(forest.FindRoot(leaf), root);
  EXPECT_EQ(forest.Leaves(root), (std::vector<RecordId>{7}));
}

TEST(ForestTest, AddLeafGrowsChain) {
  ParentPointerForest forest;
  NodeId root = forest.MakeTree(1, 0);
  forest.AddLeaf(root, 2);
  NodeId leaf3 = forest.AddLeaf(root, 3);
  EXPECT_EQ(forest.LeafCount(root), 3u);
  EXPECT_EQ(forest.Leaves(root), (std::vector<RecordId>{1, 2, 3}));
  EXPECT_EQ(forest.FindRoot(leaf3), root);
}

TEST(ForestTest, MergeConcatenatesLeafChains) {
  ParentPointerForest forest;
  NodeId a = forest.MakeTree(1, 0);
  forest.AddLeaf(a, 2);
  forest.AddLeaf(a, 3);
  NodeId b = forest.MakeTree(4, 0);
  forest.AddLeaf(b, 5);
  NodeId merged = forest.Merge(a, b);
  EXPECT_EQ(merged, a);  // union by size: larger root survives
  EXPECT_EQ(forest.LeafCount(merged), 5u);
  std::vector<RecordId> leaves = forest.Leaves(merged);
  EXPECT_EQ(leaves, (std::vector<RecordId>{1, 2, 3, 4, 5}));
}

TEST(ForestTest, MergePicksLargerRoot) {
  ParentPointerForest forest;
  NodeId small = forest.MakeTree(1, 0);
  NodeId big = forest.MakeTree(2, 0);
  forest.AddLeaf(big, 3);
  EXPECT_EQ(forest.Merge(small, big), big);
}

TEST(ForestTest, FindRootAfterChainedMerges) {
  ParentPointerForest forest;
  std::vector<NodeId> leaves(8);
  std::vector<NodeId> roots;
  for (int i = 0; i < 8; ++i) {
    roots.push_back(forest.MakeTree(i, 0, &leaves[i]));
  }
  // Merge pairwise, then the pairs, then the quads.
  NodeId r01 = forest.Merge(roots[0], roots[1]);
  NodeId r23 = forest.Merge(roots[2], roots[3]);
  NodeId r45 = forest.Merge(roots[4], roots[5]);
  NodeId r67 = forest.Merge(roots[6], roots[7]);
  NodeId r03 = forest.Merge(r01, r23);
  NodeId r47 = forest.Merge(r45, r67);
  NodeId all = forest.Merge(r03, r47);
  EXPECT_EQ(forest.LeafCount(all), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(forest.FindRoot(leaves[i]), all);
  }
  std::vector<RecordId> collected = forest.Leaves(all);
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected,
            (std::vector<RecordId>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ForestTest, ProducerTagSurvivesMerge) {
  ParentPointerForest forest;
  NodeId a = forest.MakeTree(1, 3);
  forest.AddLeaf(a, 2);
  NodeId b = forest.MakeTree(3, 3);
  EXPECT_EQ(forest.Producer(forest.Merge(a, b)), 3);
}

TEST(ForestDeathTest, MergeWithSelfAborts) {
  ParentPointerForest forest;
  NodeId root = forest.MakeTree(1, 0);
  EXPECT_DEATH(forest.Merge(root, root), "itself");
}

TEST(ForestDeathTest, NonRootOperationsAbort) {
  ParentPointerForest forest;
  NodeId leaf = kInvalidNode;
  forest.MakeTree(1, 0, &leaf);
  EXPECT_DEATH(forest.LeafCount(leaf), "");
  EXPECT_DEATH(forest.AddLeaf(leaf, 2), "root");
}

TEST(ForestTest, UnionBySizeKeepsChainsLogarithmic) {
  // The O(log |C_r|) root-finding claim of Appendix B.2: after n-1 merges in
  // the worst (pairwise, balanced-adversarial) order, no parent chain
  // exceeds ~log2(n) + a small constant.
  constexpr int kRecords = 4096;
  ParentPointerForest forest;
  std::vector<NodeId> leaf(kRecords);
  for (int r = 0; r < kRecords; ++r) forest.MakeTree(r, 0, &leaf[r]);
  // Balanced tournament merging — the adversarial pattern for union-by-size
  // (every merge joins equal-size trees, growing depth each round).
  for (int span = 1; span < kRecords; span *= 2) {
    for (int r = 0; r + span < kRecords; r += 2 * span) {
      forest.Merge(forest.FindRoot(leaf[r]), forest.FindRoot(leaf[r + span]));
    }
  }
  // Longest parent chain across all leaves stays logarithmic.
  size_t longest = 0;
  for (int r = 0; r < kRecords; ++r) {
    longest = std::max(longest, forest.DepthForTest(leaf[r]));
  }
  EXPECT_LE(longest, 14u);  // log2(4096) = 12, plus slack
  // Structural check: 2n nodes total (one root + one leaf per original
  // tree; union-by-size allocates nothing on merge).
  EXPECT_EQ(forest.num_nodes(), static_cast<size_t>(2 * kRecords));
  EXPECT_EQ(forest.LeafCount(forest.FindRoot(leaf[0])),
            static_cast<uint32_t>(kRecords));
}

/// Property test: random unions behave exactly like a reference union-find —
/// leaf chains always enumerate the current partition.
TEST(ForestPropertyTest, RandomMergesMatchReferencePartition) {
  constexpr int kRecords = 200;
  Rng rng(77);
  ParentPointerForest forest;
  std::vector<NodeId> leaf(kRecords);
  std::vector<int> reference(kRecords);  // reference: naive component ids
  for (int r = 0; r < kRecords; ++r) {
    forest.MakeTree(r, 0, &leaf[r]);
    reference[r] = r;
  }
  for (int step = 0; step < 300; ++step) {
    int a = static_cast<int>(rng.NextBelow(kRecords));
    int b = static_cast<int>(rng.NextBelow(kRecords));
    NodeId ra = forest.FindRoot(leaf[a]);
    NodeId rb = forest.FindRoot(leaf[b]);
    if (ra != rb) {
      forest.Merge(ra, rb);
      int old_id = reference[b], new_id = reference[a];
      for (int& id : reference) {
        if (id == old_id) id = new_id;
      }
    }
    // Spot-check: the component of `a` matches the reference component.
    NodeId root = forest.FindRoot(leaf[a]);
    std::vector<RecordId> members = forest.Leaves(root);
    std::set<RecordId> expected;
    for (int r = 0; r < kRecords; ++r) {
      if (reference[r] == reference[a]) expected.insert(r);
    }
    EXPECT_EQ(members.size(), expected.size());
    for (RecordId m : members) EXPECT_TRUE(expected.count(m)) << m;
  }
}

}  // namespace
}  // namespace adalsh
