#include "core/pairwise.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/numeric.h"
#include "util/rng.h"
#include "util/run_controller.h"
#include "util/thread_pool.h"

namespace adalsh {
namespace {

/// Clusters of an Apply run in root order, each as the root's leaf chain —
/// the full observable output of P (order included).
struct ApplyResult {
  std::vector<std::vector<RecordId>> clusters;
  uint64_t total_similarities;

  bool operator==(const ApplyResult&) const = default;
};

ApplyResult RunApply(const GeneratedDataset& generated,
                     const std::vector<RecordId>& records, ThreadPool* pool) {
  PairwiseComputer pairwise(generated.dataset, generated.rule, pool);
  ParentPointerForest forest;
  std::vector<NodeId> roots = pairwise.Apply(records, &forest);
  ApplyResult result;
  for (NodeId root : roots) result.clusters.push_back(forest.Leaves(root));
  result.total_similarities = pairwise.total_similarities();
  return result;
}

/// A ~500-record workload spanning many row stripes and column tiles:
/// a few large clusters, mid-size clusters straddling stripe boundaries,
/// and a singleton tail.
GeneratedDataset StripeCrossingDataset(uint64_t seed) {
  Rng rng(DeriveSeed(seed, 0x5741));
  std::vector<size_t> sizes = {90, 70, 50};
  for (int c = 0; c < 8; ++c) sizes.push_back(5 + rng.NextBelow(25));
  while (true) {
    size_t total = 0;
    for (size_t s : sizes) total += s;
    if (total >= 500) break;
    sizes.push_back(1);
  }
  return test::MakePlantedDataset(sizes, seed);
}

TEST(PairwiseTest, RecoversExactClusters) {
  GeneratedDataset generated = test::MakePlantedDataset({8, 5, 3, 1}, 3);
  PairwiseComputer pairwise(generated.dataset, generated.rule);
  ParentPointerForest forest;
  std::vector<NodeId> roots =
      pairwise.Apply(generated.dataset.AllRecordIds(), &forest);
  std::vector<size_t> sizes;
  for (NodeId root : roots) sizes.push_back(forest.LeafCount(root));
  std::sort(sizes.rbegin(), sizes.rend());
  EXPECT_EQ(sizes, (std::vector<size_t>{8, 5, 3, 1}));
}

TEST(PairwiseTest, ProducerIsPairwise) {
  GeneratedDataset generated = test::MakePlantedDataset({3, 2}, 5);
  PairwiseComputer pairwise(generated.dataset, generated.rule);
  ParentPointerForest forest;
  std::vector<NodeId> roots =
      pairwise.Apply(generated.dataset.AllRecordIds(), &forest);
  for (NodeId root : roots) {
    EXPECT_EQ(forest.Producer(root), kProducerPairwise);
  }
}

TEST(PairwiseTest, TransitiveClosureSkipsPairs) {
  // With clusters present, skipped same-tree pairs reduce the similarity
  // count below C(n, 2).
  GeneratedDataset generated = test::MakePlantedDataset({10, 10}, 7);
  PairwiseComputer pairwise(generated.dataset, generated.rule);
  ParentPointerForest forest;
  pairwise.Apply(generated.dataset.AllRecordIds(), &forest);
  uint64_t all_pairs = PairCount(20);
  EXPECT_LT(pairwise.total_similarities(), all_pairs);
  EXPECT_GT(pairwise.total_similarities(), 0u);
}

TEST(PairwiseTest, SingletonInput) {
  GeneratedDataset generated = test::MakePlantedDataset({1}, 9);
  PairwiseComputer pairwise(generated.dataset, generated.rule);
  ParentPointerForest forest;
  std::vector<NodeId> roots = pairwise.Apply({0}, &forest);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(forest.LeafCount(roots[0]), 1u);
  EXPECT_EQ(pairwise.total_similarities(), 0u);
}

TEST(PairwiseTest, SubsetApplication) {
  GeneratedDataset generated = test::MakePlantedDataset({4, 4}, 11);
  PairwiseComputer pairwise(generated.dataset, generated.rule);
  ParentPointerForest forest;
  // Mix two records of each entity.
  std::vector<NodeId> roots = pairwise.Apply({0, 1, 4, 5}, &forest);
  std::vector<size_t> sizes;
  for (NodeId root : roots) sizes.push_back(forest.LeafCount(root));
  std::sort(sizes.rbegin(), sizes.rend());
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 2}));
}

TEST(PairwiseTest, ApplyLeavesTheRefinedTreeUnchanged) {
  // P refines the leaves of an existing tree (the resident engine's level-1
  // tree among them) into fresh trees: neither a completed sweep nor one a
  // budget stops after its first stripe may modify the refined tree.
  GeneratedDataset generated = test::MakePlantedDataset({70, 50, 30}, 13);
  ParentPointerForest forest;
  const NodeId root =
      test::MakeLevel1Tree(generated.dataset.AllRecordIds(), &forest);
  const test::TreeShape before = test::ShapeOf(forest, root);

  PairwiseComputer complete(generated.dataset, generated.rule);
  std::vector<NodeId> roots = complete.Apply(forest.Leaves(root), &forest);
  ASSERT_FALSE(complete.last_apply_interrupted());
  EXPECT_EQ(roots.size(), 3u);
  EXPECT_TRUE(test::ShapeOf(forest, root) == before);

  RunBudget budget;
  budget.max_pairwise = 10;
  RunController controller(budget);
  PairwiseComputer stopped(generated.dataset, generated.rule, /*pool=*/nullptr,
                           Instrumentation{}, &controller);
  stopped.Apply(forest.Leaves(root), &forest);
  ASSERT_TRUE(stopped.last_apply_interrupted());
  EXPECT_GT(stopped.total_similarities(), budget.max_pairwise);
  EXPECT_TRUE(test::ShapeOf(forest, root) == before);
}

TEST(PairwiseTest, ParallelSweepMatchesSerialOnStripeCrossingInput) {
  // The tiled engine must reproduce the serial sweep bit for bit — same
  // clusters, same leaf-chain order, same root order, same similarity
  // count — on an input large enough to span many stripes and tiles.
  test::ScopedParallelCutoff force_tiled(1);
  for (uint64_t seed : {1, 2, 3}) {
    GeneratedDataset generated = StripeCrossingDataset(seed);
    std::vector<RecordId> records = generated.dataset.AllRecordIds();
    ASSERT_GE(records.size(), 500u);
    ApplyResult serial = RunApply(generated, records, nullptr);
    for (int threads : {2, 8}) {
      ThreadPool pool(threads);
      EXPECT_EQ(RunApply(generated, records, &pool), serial)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(PairwiseTest, ParallelSweepMatchesSerialOnSubsetOrder) {
  // Apply sees records in caller order, not id order; the equivalence must
  // hold for shuffled subsets too.
  test::ScopedParallelCutoff force_tiled(1);
  GeneratedDataset generated = StripeCrossingDataset(9);
  std::vector<RecordId> records = generated.dataset.AllRecordIds();
  Rng rng(DeriveSeed(9, 0x5u));
  for (size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.NextBelow(i)]);
  }
  records.resize(300);
  ApplyResult serial = RunApply(generated, records, nullptr);
  ThreadPool pool(8);
  EXPECT_EQ(RunApply(generated, records, &pool), serial);
}

TEST(PairwiseTest, PureClusterEvaluatesExactlyNMinusOnePairs) {
  // One 200-record entity: row 0 merges everything as it sweeps, so the
  // closure skip reduces C(200, 2) evaluations to exactly 199 — in the
  // serial sweep and, by the determinism contract, in the tiled sweep.
  test::ScopedParallelCutoff force_tiled(1);
  GeneratedDataset generated = test::MakePlantedDataset({200}, 21);
  std::vector<RecordId> records = generated.dataset.AllRecordIds();
  ApplyResult serial = RunApply(generated, records, nullptr);
  EXPECT_EQ(serial.total_similarities, 199u);
  ASSERT_EQ(serial.clusters.size(), 1u);
  EXPECT_EQ(serial.clusters[0].size(), 200u);
  ThreadPool pool(8);
  ApplyResult parallel = RunApply(generated, records, &pool);
  EXPECT_EQ(parallel, serial);
}

TEST(PairwiseTest, CountsAccumulateAcrossInvocations) {
  GeneratedDataset generated = test::MakePlantedDataset({3, 3}, 13);
  PairwiseComputer pairwise(generated.dataset, generated.rule);
  ParentPointerForest forest;
  pairwise.Apply({0, 1, 2}, &forest);
  uint64_t first = pairwise.total_similarities();
  pairwise.Apply({3, 4, 5}, &forest);
  EXPECT_GT(pairwise.total_similarities(), first);
}

}  // namespace
}  // namespace adalsh
