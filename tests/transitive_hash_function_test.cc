#include "core/transitive_hash_function.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/function_sequence.h"
#include "core/scheme_optimizer.h"
#include "datagen/cora_like.h"
#include "test_util.h"
#include "util/run_controller.h"
#include "util/thread_pool.h"

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

TEST(TransitiveHasherTest, ApplyLeavesTheRefinedTreeUnchanged) {
  // The resident engine refines a component's level-1 tree by applying H_i
  // to its leaves and keeps that tree as the component's membership record,
  // so neither a completed nor an interrupted pass may modify it.
  HasherFixture setup({8, 6, 3});
  HashEngine engine(setup.generated.dataset, setup.structure, 31);
  ParentPointerForest forest;
  TransitiveHasher hasher(&engine, &forest,
                          setup.generated.dataset.num_records());
  const NodeId root =
      test::MakeLevel1Tree(setup.generated.dataset.AllRecordIds(), &forest);
  const test::TreeShape before = test::ShapeOf(forest, root);

  std::vector<NodeId> roots =
      hasher.Apply(forest.Leaves(root), setup.PlanForBudget(160), 1);
  ASSERT_FALSE(hasher.last_apply_interrupted());
  ASSERT_GE(roots.size(), 3u);
  EXPECT_TRUE(test::ShapeOf(forest, root) == before);

  RunController controller;
  controller.Cancel();
  hasher.set_controller(&controller);
  roots = hasher.Apply(forest.Leaves(root), setup.PlanForBudget(320), 2);
  hasher.set_controller(nullptr);
  ASSERT_TRUE(hasher.last_apply_interrupted());
  EXPECT_TRUE(roots.empty());
  EXPECT_TRUE(test::ShapeOf(forest, root) == before);
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

// ---------------------------------------------------------------------------
// Differential tests against Appendix B.2's record-major merge.
// ---------------------------------------------------------------------------

/// Appendix B.2's merge as written: fresh std::unordered_map tables per call,
/// each record inserted into every table, in table order, before the next
/// record arrives. Test-only reference for TransitiveHasher's table-major
/// bucket pass. Keys come from the same HashEngine API, so only the bucket
/// and forest bookkeeping is under comparison.
std::vector<NodeId> RecordMajorApply(HashEngine* engine,
                                     ParentPointerForest* forest,
                                     const std::vector<RecordId>& records,
                                     const SchemePlan& plan, int producer) {
  std::vector<std::unordered_map<uint64_t, RecordId>> tables(
      plan.tables.size());
  std::unordered_map<RecordId, NodeId> leaf_of;
  std::vector<uint64_t> keys(plan.tables.size());
  auto make_tree = [&](RecordId r) {
    NodeId leaf = kInvalidNode;
    forest->MakeTree(r, producer, &leaf);
    leaf_of[r] = leaf;
  };
  for (RecordId r : records) {
    engine->EnsureHashes(r, plan);
    engine->TableKeys(r, plan, keys.data());
    for (size_t t = 0; t < plan.tables.size(); ++t) {
      auto [it, inserted] = tables[t].try_emplace(keys[t], r);
      const auto mine = leaf_of.find(r);
      if (inserted) {
        if (mine == leaf_of.end()) make_tree(r);  // cases 1/2
        continue;
      }
      const NodeId other_root = forest->FindRoot(leaf_of.at(it->second));
      if (mine == leaf_of.end()) {
        leaf_of[r] = forest->AddLeaf(other_root, r);  // case 3
      } else {
        const NodeId my_root = forest->FindRoot(mine->second);
        if (my_root != other_root) forest->Merge(my_root, other_root);  // 4
      }
      it->second = r;
    }
    if (leaf_of.count(r) == 0) make_tree(r);  // a plan with no tables
  }
  std::vector<NodeId> roots;
  std::unordered_set<NodeId> seen;
  for (RecordId r : records) {
    const NodeId root = forest->FindRoot(leaf_of.at(r));
    if (seen.insert(root).second) roots.push_back(root);
  }
  return roots;
}

struct Pass {
  std::vector<RecordId> records;
  SchemePlan plan;
  int producer = 0;
};

/// Runs `passes` through one TransitiveHasher at `threads` and through the
/// reference, each over its own engine and forest, and requires every pass
/// to return the same roots in the same order, each with the same leaf
/// chain, leaf count and producer, after the same hash work.
void ExpectMatchesRecordMajor(const Dataset& dataset,
                              const RuleHashStructure& structure,
                              const std::vector<Pass>& passes, int threads) {
  HashEngine engine(dataset, structure, /*seed=*/31);
  HashEngine reference_engine(dataset, structure, /*seed=*/31);
  ParentPointerForest forest;
  ParentPointerForest reference_forest;
  ScopedThreadPool pool(threads);
  TransitiveHasher hasher(&engine, &forest, dataset.num_records(), pool.get());
  for (size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    SCOPED_TRACE(testing::Message() << "pass " << p << " (" << pass.records.size()
                                    << " records, " << pass.plan.tables.size()
                                    << " tables), threads " << threads);
    const std::vector<NodeId> roots =
        hasher.Apply(pass.records, pass.plan, pass.producer);
    const std::vector<NodeId> expected =
        RecordMajorApply(&reference_engine, &reference_forest, pass.records,
                         pass.plan, pass.producer);
    ASSERT_EQ(roots, expected);
    for (NodeId root : roots) {
      ASSERT_EQ(forest.Leaves(root), reference_forest.Leaves(root));
      ASSERT_EQ(forest.LeafCount(root), reference_forest.LeafCount(root));
      ASSERT_EQ(forest.Producer(root), reference_forest.Producer(root));
    }
    ASSERT_EQ(engine.total_hashes_computed(),
              reference_engine.total_hashes_computed());
  }
  EXPECT_EQ(forest.num_nodes(), reference_forest.num_nodes());
}

/// Every plan of `sequence` over all records, in ascending order, then a
/// re-pass of the last plan over cached hashes, a shuffled-subset pass, a
/// one-record pass and a pass with no tables.
std::vector<Pass> SequencePasses(const Dataset& dataset,
                                 const FunctionSequence& sequence) {
  const std::vector<RecordId> all = dataset.AllRecordIds();
  std::vector<Pass> passes;
  for (size_t i = 0; i < sequence.size(); ++i) {
    passes.push_back({all, sequence.plan(i), static_cast<int>(i)});
  }
  const int last = static_cast<int>(sequence.size()) - 1;
  passes.push_back({all, sequence.plan(last), last});
  std::vector<RecordId> subset(all.begin(), all.begin() + all.size() / 2);
  Rng rng(17);
  rng.Shuffle(&subset);
  passes.push_back({subset, sequence.plan(sequence.size() / 2), 1});
  passes.push_back({{all[all.size() / 3]}, sequence.plan(last), last});
  SchemePlan no_tables;
  no_tables.hashes_per_unit.assign(sequence.structure().units.size(), 0);
  passes.push_back({subset, no_tables, 0});
  return passes;
}

FunctionSequence BuildSequence(const GeneratedDataset& generated,
                               int max_budget) {
  SequenceConfig config;
  config.max_budget = max_budget;
  return FunctionSequence::Build(generated.rule, generated.dataset.record(0),
                                 config)
      .value();
}

TEST(TransitiveHasherDifferentialTest, CoraLikeSequenceMatchesRecordMajor) {
  CoraLikeConfig config;
  config.num_entities = 60;
  config.num_records = 500;
  config.seed = 7;
  const GeneratedDataset generated = GenerateCoraLike(config);
  const FunctionSequence sequence = BuildSequence(generated, 1280);
  ASSERT_GE(sequence.size(), 4u);
  const std::vector<Pass> passes = SequencePasses(generated.dataset, sequence);
  for (int threads : {1, 2, 8}) {
    ExpectMatchesRecordMajor(generated.dataset, sequence.structure(), passes,
                             threads);
  }
}

TEST(TransitiveHasherDifferentialTest, PlantedDenseSequenceMatchesRecordMajor) {
  // Large planted entities put many records in each bucket, so most table
  // inserts hit a predecessor and cases 3 and 4 dominate.
  std::vector<size_t> sizes = {120, 80, 40, 20, 10, 5};
  sizes.resize(sizes.size() + 30, 1);
  const GeneratedDataset generated = test::MakePlantedDataset(sizes, 13);
  const FunctionSequence sequence = BuildSequence(generated, 640);
  const std::vector<Pass> passes = SequencePasses(generated.dataset, sequence);
  for (int threads : {1, 2, 8}) {
    ExpectMatchesRecordMajor(generated.dataset, sequence.structure(), passes,
                             threads);
  }
}

TEST(TransitiveHasherDifferentialTest, PassOverSeveralKeyBlocksMatches) {
  // More records than one 8192-record key block, so the key phase forks
  // more than once and the forest phase crosses a block boundary.
  std::vector<size_t> sizes = {5000, 3000, 1000};
  sizes.resize(sizes.size() + 200, 1);
  const GeneratedDataset generated = test::MakePlantedDataset(sizes, 29);
  ASSERT_GT(generated.dataset.num_records(), 8192u);
  const FunctionSequence sequence = BuildSequence(generated, 80);
  const std::vector<RecordId> all = generated.dataset.AllRecordIds();
  std::vector<RecordId> reversed(all.rbegin(), all.rend());
  const std::vector<Pass> passes = {{all, sequence.plan(0), 0},
                                    {reversed, sequence.plan(1), 1}};
  for (int threads : {1, 2, 8}) {
    ExpectMatchesRecordMajor(generated.dataset, sequence.structure(), passes,
                             threads);
  }
}

TEST(TransitiveHasherTest, EpochWrapMatchesFreshHasher) {
  // A long-lived hasher's invocation counter wraps: Apply must restart it
  // rather than abort, and a record stamped before the wrap must not look
  // like it already has a leaf when the counter comes round again.
  HasherFixture setup({8, 6, 4, 1});
  const size_t n = setup.generated.dataset.num_records();
  const SchemePlan plan = setup.PlanForBudget(80);
  HashEngine wrapped_engine(setup.generated.dataset, setup.structure, 37);
  HashEngine fresh_engine(setup.generated.dataset, setup.structure, 37);
  ParentPointerForest wrapped_forest;
  ParentPointerForest fresh_forest;
  TransitiveHasher wrapped(&wrapped_engine, &wrapped_forest, n);
  TransitiveHasher fresh(&fresh_engine, &fresh_forest, n);

  // Pass 0 runs at epoch 1 and stamps records 0-3, 8 and 9. The jump then
  // puts passes 1 and 2, over other records, at the last two epochs before
  // the wrap, so pass 3 runs at epoch 1 again while those stamps still
  // read 1; pass 4 runs at epoch 2.
  const std::vector<RecordId> all = setup.generated.dataset.AllRecordIds();
  const std::vector<std::vector<RecordId>> passes = {
      {0, 1, 2, 3, 8, 9}, {4, 5, 6, 7, 10}, {14, 15, 18}, all, all};
  for (size_t p = 0; p < passes.size(); ++p) {
    if (p == 1) {
      wrapped.set_epoch_for_test(std::numeric_limits<uint32_t>::max() - 2);
    }
    const std::vector<NodeId> got =
        wrapped.Apply(passes[p], plan, static_cast<int>(p));
    const std::vector<NodeId> want =
        fresh.Apply(passes[p], plan, static_cast<int>(p));
    ASSERT_EQ(got, want) << "pass " << p;
    for (NodeId root : got) {
      ASSERT_EQ(wrapped_forest.Leaves(root), fresh_forest.Leaves(root))
          << "pass " << p;
    }
  }
  EXPECT_EQ(wrapped_forest.num_nodes(), fresh_forest.num_nodes());
}

}  // namespace
}  // namespace adalsh
