#include "core/transitive_hash_function.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/scheme_optimizer.h"
#include "test_util.h"

namespace adalsh {
namespace {

struct HasherFixture {
  GeneratedDataset generated;
  RuleHashStructure structure;

  explicit HasherFixture(std::vector<size_t> sizes, uint64_t seed = 5)
      : generated(test::MakePlantedDataset(sizes, seed)),
        structure(CompileRuleForHashing(generated.rule).value()) {}

  SchemePlan PlanForBudget(int budget) {
    OptimizerConfig config;
    return BuildPlan(structure,
                     OptimizeComposite(structure, budget, config, nullptr));
  }
};

TEST(TransitiveHasherTest, ClustersPlantedEntities) {
  HasherFixture setup({20, 10, 5, 1, 1});
  HashEngine engine(setup.generated.dataset, setup.structure, 7);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  SchemePlan plan = setup.PlanForBudget(640);
  std::vector<NodeId> roots =
      hasher.Apply(setup.generated.dataset.AllRecordIds(), plan, 0);

  // With a generous budget, the output should be (nearly) the ground truth:
  // 5 clusters with the planted sizes.
  std::vector<size_t> sizes;
  for (NodeId root : roots) sizes.push_back(forest.LeafCount(root));
  std::sort(sizes.rbegin(), sizes.rend());
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_EQ(sizes[0], 20u);
  EXPECT_EQ(sizes[1], 10u);
  EXPECT_EQ(sizes[2], 5u);
}

TEST(TransitiveHasherTest, ConservativeEvaluation) {
  // Property 1: ground-truth clusters should (almost) never split, even for
  // small budgets — they may merge with others.
  HasherFixture setup({15, 15, 8});
  HashEngine engine(setup.generated.dataset, setup.structure, 11);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  SchemePlan plan = setup.PlanForBudget(40);
  std::vector<NodeId> roots =
      hasher.Apply(setup.generated.dataset.AllRecordIds(), plan, 0);
  GroundTruth truth = setup.generated.dataset.BuildGroundTruth();
  // Count how many output clusters each ground-truth entity spans.
  for (size_t rank = 0; rank < truth.num_entities(); ++rank) {
    std::set<NodeId> spanned;
    for (NodeId root : roots) {
      for (RecordId r : forest.Leaves(root)) {
        if (truth.entity_of(r) == truth.entity_at_rank(rank)) {
          spanned.insert(root);
        }
      }
    }
    EXPECT_LE(spanned.size(), 2u) << "entity rank " << rank << " split";
  }
}

TEST(TransitiveHasherTest, OutputPartitionsInput) {
  HasherFixture setup({9, 4, 2, 1});
  HashEngine engine(setup.generated.dataset, setup.structure, 13);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  std::vector<RecordId> input = setup.generated.dataset.AllRecordIds();
  std::vector<NodeId> roots = hasher.Apply(input, setup.PlanForBudget(80), 0);
  std::vector<RecordId> covered;
  for (NodeId root : roots) {
    for (RecordId r : forest.Leaves(root)) covered.push_back(r);
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, input);  // every record exactly once
}

TEST(TransitiveHasherTest, ProducerTagApplied) {
  HasherFixture setup({3, 2});
  HashEngine engine(setup.generated.dataset, setup.structure, 17);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  std::vector<NodeId> roots =
      hasher.Apply(setup.generated.dataset.AllRecordIds(),
                   setup.PlanForBudget(40), 3);
  for (NodeId root : roots) EXPECT_EQ(forest.Producer(root), 3);
}

TEST(TransitiveHasherTest, SubsetInvocationOnlyTouchesSubset) {
  HasherFixture setup({6, 6});
  HashEngine engine(setup.generated.dataset, setup.structure, 19);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  // Apply to the first entity's records only.
  std::vector<RecordId> subset = {0, 1, 2, 3, 4, 5};
  std::vector<NodeId> roots =
      hasher.Apply(subset, setup.PlanForBudget(160), 1);
  size_t total = 0;
  for (NodeId root : roots) total += forest.LeafCount(root);
  EXPECT_EQ(total, subset.size());
}

TEST(TransitiveHasherTest, FreshTablesPerInvocation) {
  // Two invocations over disjoint subsets must not merge across invocations.
  HasherFixture setup({4, 4});
  HashEngine engine(setup.generated.dataset, setup.structure, 23);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  SchemePlan plan = setup.PlanForBudget(160);
  std::vector<NodeId> first = hasher.Apply({0, 1, 2, 3}, plan, 0);
  std::vector<NodeId> second = hasher.Apply({4, 5, 6, 7}, plan, 0);
  for (NodeId root : second) {
    for (RecordId r : forest.Leaves(root)) EXPECT_GE(r, 4u);
  }
  // First invocation's trees still intact.
  size_t first_total = 0;
  for (NodeId root : first) first_total += forest.LeafCount(root);
  EXPECT_EQ(first_total, 4u);
}

TEST(TransitiveHasherTest, IncrementalReuseAcrossPlans) {
  // Applying a small plan then a large one computes only the delta.
  HasherFixture setup({10});
  HashEngine engine(setup.generated.dataset, setup.structure, 29);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  SchemePlan small = setup.PlanForBudget(40);
  SchemePlan large = setup.PlanForBudget(80);
  std::vector<RecordId> all = setup.generated.dataset.AllRecordIds();
  hasher.Apply(all, small, 0);
  uint64_t after_small = engine.total_hashes_computed();
  EXPECT_EQ(after_small, 40u * all.size());
  std::vector<NodeId> reused = hasher.Apply(all, large, 1);
  uint64_t after_large = engine.total_hashes_computed();
  EXPECT_EQ(after_large, 80u * all.size());  // only the 40-hash delta added

  // The incremental-reuse ablation: the large plan recomputes its whole
  // prefix from scratch, and the engine counts it, for the same clusters.
  HashEngine ablated_engine(setup.generated.dataset, setup.structure, 29);
  ParentPointerForest ablated_forest;
  TransitiveHasher ablated(&ablated_engine, &ablated_forest,
                           setup.generated.dataset.num_records());
  ablated.set_reuse_hashes(false);
  ablated.Apply(all, small, 0);
  std::vector<NodeId> recomputed = ablated.Apply(all, large, 1);
  EXPECT_EQ(ablated_engine.total_hashes_computed(), 120u * all.size());
  auto partition = [](const ParentPointerForest& f,
                      const std::vector<NodeId>& roots) {
    std::set<std::vector<RecordId>> clusters;
    for (NodeId root : roots) {
      std::vector<RecordId> leaves = f.Leaves(root);
      std::sort(leaves.begin(), leaves.end());
      clusters.insert(leaves);
    }
    return clusters;
  };
  EXPECT_EQ(partition(ablated_forest, recomputed), partition(forest, reused));
}

}  // namespace
}  // namespace adalsh
