#include "clustering/parent_pointer_forest.h"

#include <algorithm>
#include <cstddef>
#include <map>
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

TEST(ForestTest, CompactKeepsListedTreesFlattened) {
  ParentPointerForest forest;
  NodeId leaf1 = kInvalidNode;
  NodeId a = forest.MakeTree(1, /*producer=*/2, &leaf1);
  forest.AddLeaf(a, 2);
  NodeId b = forest.MakeTree(3, 2);
  forest.AddLeaf(b, 4);
  forest.AddLeaf(b, 5);
  NodeId merged = forest.Merge(a, b);  // b's chain first: it is larger
  forest.MakeTree(6, 1);               // abandoned
  NodeId c = forest.MakeTree(7, kProducerPairwise);
  const std::vector<NodeId> remap = forest.Compact({c, merged, c});
  EXPECT_EQ(forest.num_nodes(), 2u + 6u);  // two roots, six leaves
  const NodeId new_merged = remap[merged];
  ASSERT_NE(new_merged, kInvalidNode);
  EXPECT_EQ(forest.Leaves(new_merged),
            (std::vector<RecordId>{3, 4, 5, 1, 2}));
  EXPECT_EQ(forest.Producer(new_merged), 2);
  EXPECT_EQ(forest.FindRoot(remap[leaf1]), new_merged);
  EXPECT_EQ(forest.DepthForTest(remap[leaf1]), 1u);
  EXPECT_EQ(remap[a], kInvalidNode);  // a merged-away root is not kept
  EXPECT_EQ(forest.Producer(remap[c]), kProducerPairwise);
  EXPECT_EQ(forest.Leaves(remap[c]), (std::vector<RecordId>{7}));
}

/// Property test: a compacted forest and an uncompacted twin fed the same
/// MakeTree/AddLeaf/Merge calls (the compacted one through remapped ids)
/// hold the same trees at every step: partitions, leaf chains, leaf counts
/// and producers agree, and every remapped leaf finds its remapped root.
TEST(ForestPropertyTest, CompactedForestTracksUncompactedTwin) {
  struct Tree {
    NodeId twin;       // root in the uncompacted forest
    NodeId compacted;  // root in the compacted forest
  };
  struct Leaf {
    NodeId twin;
    NodeId compacted;
  };
  Rng rng(2024);
  ParentPointerForest twin;
  ParentPointerForest compacted;
  std::vector<Tree> trees;
  std::vector<Leaf> leaves;
  RecordId next_record = 0;

  auto check = [&] {
    std::map<NodeId, NodeId> compacted_of;
    for (const Tree& tree : trees) {
      ASSERT_TRUE(twin.IsRoot(tree.twin));
      ASSERT_TRUE(compacted.IsRoot(tree.compacted));
      EXPECT_EQ(twin.Leaves(tree.twin), compacted.Leaves(tree.compacted));
      EXPECT_EQ(twin.LeafCount(tree.twin),
                compacted.LeafCount(tree.compacted));
      EXPECT_EQ(twin.Producer(tree.twin), compacted.Producer(tree.compacted));
      compacted_of[tree.twin] = tree.compacted;
    }
    for (const Leaf& leaf : leaves) {
      EXPECT_EQ(twin.RecordAt(leaf.twin), compacted.RecordAt(leaf.compacted));
      const auto it = compacted_of.find(twin.FindRoot(leaf.twin));
      ASSERT_NE(it, compacted_of.end());
      EXPECT_EQ(compacted.FindRoot(leaf.compacted), it->second);
    }
  };
  // One random call, applied to both forests. Records repeat across trees,
  // as a record's level-1 and refinement trees do in the resident engine.
  auto step = [&] {
    const uint64_t op = trees.size() < 2 ? 0 : rng.NextBelow(4);
    if (op == 0) {
      const RecordId r = next_record++ % 50;
      const int producer = static_cast<int>(rng.NextBelow(3));
      Leaf leaf;
      const NodeId root_twin = twin.MakeTree(r, producer, &leaf.twin);
      const NodeId root_compacted =
          compacted.MakeTree(r, producer, &leaf.compacted);
      trees.push_back({root_twin, root_compacted});
      leaves.push_back(leaf);
    } else if (op == 1) {
      const Tree& tree = trees[rng.NextBelow(trees.size())];
      const RecordId r = next_record++ % 50;
      leaves.push_back({twin.AddLeaf(tree.twin, r),
                        compacted.AddLeaf(tree.compacted, r)});
    } else {
      const size_t i = rng.NextBelow(trees.size());
      size_t j = rng.NextBelow(trees.size() - 1);
      if (j >= i) ++j;
      const Tree merged{twin.Merge(trees[i].twin, trees[j].twin),
                        compacted.Merge(trees[i].compacted,
                                        trees[j].compacted)};
      trees.erase(trees.begin() + static_cast<std::ptrdiff_t>(std::max(i, j)));
      trees[std::min(i, j)] = merged;
    }
  };

  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 150; ++i) {
      step();
      check();
    }
    // Keep a random half of the trees (one listed twice); the rest are
    // abandoned in both forests.
    std::vector<Tree> kept;
    std::vector<NodeId> roots;
    for (const Tree& tree : trees) {
      if (rng.NextBelow(2) == 0) continue;
      kept.push_back(tree);
      roots.push_back(tree.compacted);
    }
    if (!roots.empty()) roots.push_back(roots.front());
    size_t kept_leaves = 0;
    std::set<NodeId> kept_twin_roots;
    for (const Tree& tree : kept) {
      kept_leaves += twin.LeafCount(tree.twin);
      kept_twin_roots.insert(tree.twin);
    }
    const std::vector<NodeId> remap = compacted.Compact(roots);
    EXPECT_EQ(compacted.num_nodes(), kept.size() + kept_leaves);
    EXPECT_LT(compacted.num_nodes(), twin.num_nodes());
    for (Tree& tree : kept) tree.compacted = remap[tree.compacted];
    trees = kept;
    std::vector<Leaf> kept_leaf_ids;
    for (const Leaf& leaf : leaves) {
      if (kept_twin_roots.count(twin.FindRoot(leaf.twin)) == 0) continue;
      ASSERT_NE(remap[leaf.compacted], kInvalidNode);
      kept_leaf_ids.push_back({leaf.twin, remap[leaf.compacted]});
    }
    leaves = kept_leaf_ids;
    EXPECT_EQ(leaves.size(), kept_leaves);
    check();
  }
}

}  // namespace
}  // namespace adalsh
