#ifndef ADALSH_TESTS_TEST_UTIL_H_
#define ADALSH_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "clustering/parent_pointer_forest.h"
#include "core/pairwise.h"
#include "datagen/generated_dataset.h"
#include "distance/rule.h"
#include "record/dataset.h"
#include "util/rng.h"

namespace adalsh {
namespace test {

/// Scoped PairwiseComputer::OverrideParallelCutoffForTest: the equivalence
/// suites run few-hundred-record sweeps, which real Apply calls now route
/// to the serial path — forcing the tiled path keeps them covering the
/// stripe/tile/replay machinery they were written for. Restores the prior
/// override on destruction.
class ScopedParallelCutoff {
 public:
  explicit ScopedParallelCutoff(size_t cutoff)
      : previous_(PairwiseComputer::OverrideParallelCutoffForTest(cutoff)) {}
  ~ScopedParallelCutoff() {
    PairwiseComputer::OverrideParallelCutoffForTest(previous_);
  }
  ScopedParallelCutoff(const ScopedParallelCutoff&) = delete;
  ScopedParallelCutoff& operator=(const ScopedParallelCutoff&) = delete;

 private:
  size_t previous_;
};

/// Builds a planted-cluster token-set dataset: `cluster_sizes[e]` records per
/// entity, each sharing a large entity-specific core of tokens and differing
/// in a small noise fraction, so within-entity Jaccard similarity is ~0.8 and
/// cross-entity similarity is ~0. Single field; matched by Leaf(0, 0.5).
inline GeneratedDataset MakePlantedDataset(
    const std::vector<size_t>& cluster_sizes, uint64_t seed,
    double rule_threshold = 0.5) {
  Rng rng(DeriveSeed(seed, 0x7e57));
  Dataset dataset("planted");
  uint64_t next_token = 1;
  for (size_t e = 0; e < cluster_sizes.size(); ++e) {
    // 40-token core per entity.
    std::vector<uint64_t> core;
    for (int t = 0; t < 40; ++t) core.push_back(next_token++);
    for (size_t r = 0; r < cluster_sizes[e]; ++r) {
      std::vector<uint64_t> tokens = core;
      // Drop two core tokens and add two fresh noise tokens (~0.82 sim).
      tokens[rng.NextBelow(tokens.size())] = next_token++;
      tokens[rng.NextBelow(tokens.size())] = next_token++;
      std::vector<Field> fields;
      fields.push_back(Field::TokenSet(std::move(tokens)));
      dataset.AddRecord(
          Record(std::move(fields),
                 "e" + std::to_string(e) + "r" + std::to_string(r)),
          static_cast<EntityId>(e));
    }
  }
  return GeneratedDataset(std::move(dataset),
                          MatchRule::Leaf(0, rule_threshold));
}

/// Sorted record ids of a clustering's cluster `i` (clusters are emitted in
/// leaf-chain order, tests usually want set semantics).
inline std::vector<RecordId> SortedCluster(
    const std::vector<RecordId>& cluster) {
  std::vector<RecordId> sorted = cluster;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// Everything a caller can observe of the tree rooted at `root`: whether it
/// is still a root, its producer, its leaf count and its (record, leaf node)
/// chain. The resident engine's level-1 trees rely on refinement passes
/// leaving all of it unchanged.
struct TreeShape {
  bool is_root = false;
  int producer = 0;
  uint32_t leaf_count = 0;
  std::vector<std::pair<RecordId, NodeId>> chain;

  bool operator==(const TreeShape&) const = default;
};

inline TreeShape ShapeOf(const ParentPointerForest& forest, NodeId root) {
  TreeShape shape;
  shape.is_root = forest.IsRoot(root);
  shape.producer = forest.Producer(root);
  shape.leaf_count = forest.LeafCount(root);
  forest.ForEachLeafNode(root, [&](RecordId r, NodeId leaf) {
    shape.chain.emplace_back(r, leaf);
  });
  return shape;
}

/// A producer-0 tree over `records` (at least two), built the way the
/// resident engine's arrivals build a level-1 tree: each half grows by
/// AddLeaf, then the halves Merge.
inline NodeId MakeLevel1Tree(const std::vector<RecordId>& records,
                             ParentPointerForest* forest) {
  const size_t half = records.size() / 2;
  NodeId roots[2];
  for (size_t part = 0; part < 2; ++part) {
    const size_t begin = part == 0 ? 0 : half;
    const size_t end = part == 0 ? half : records.size();
    roots[part] = forest->MakeTree(records[begin], /*producer=*/0);
    for (size_t i = begin + 1; i < end; ++i) {
      forest->AddLeaf(roots[part], records[i]);
    }
  }
  return forest->Merge(roots[0], roots[1]);
}

}  // namespace test
}  // namespace adalsh

#endif  // ADALSH_TESTS_TEST_UTIL_H_
