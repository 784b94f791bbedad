// Property-style certification of the threading model's hard requirement
// (docs/threading.md): for any dataset and seed, running the filtering
// methods with any thread count produces *bit-identical* FilterOutput —
// identical clusters in identical order, identical ranks, identical hash and
// pairwise counts — to the strictly serial path. The serial implementation is
// the oracle; the whole pre-existing test suite therefore keeps validating
// the parallel engine.

#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_lsh.h"
#include "core/hash_engine.h"
#include "core/lsh_blocking.h"
#include "core/pairs_baseline.h"
#include "datagen/cora_like.h"
#include "datagen/generated_dataset.h"
#include "datagen/multimodal.h"
#include "datagen/spotsigs_like.h"
#include "lsh/composite_scheme.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace adalsh {
namespace {

/// The thread counts every scenario is checked at; 1 is the serial oracle.
const int kThreadCounts[] = {1, 2, 8};

/// Everything in FilterOutput that is defined to be deterministic. Timing
/// (filtering_seconds) and timing-derived modeled_cost are excluded; with an
/// injected cost model, modeled_cost is compared too.
struct ComparableOutput {
  std::vector<std::vector<RecordId>> clusters;
  size_t rounds;
  uint64_t pairwise_similarities;
  uint64_t hashes_computed;
  std::vector<size_t> records_last_hashed_at;
  size_t records_finished_by_pairwise;

  bool operator==(const ComparableOutput&) const = default;
};

ComparableOutput Comparable(const FilterOutput& output) {
  return ComparableOutput{output.clusters.clusters,
                          output.stats.rounds,
                          output.stats.pairwise_similarities,
                          output.stats.hashes_computed,
                          output.stats.records_last_hashed_at,
                          output.stats.records_finished_by_pairwise};
}

/// A fixed cost model so jump-to-P decisions do not depend on wall-clock
/// calibration noise (the only nondeterministic input to Algorithm 1). The
/// ratio is representative: one rule evaluation ~ 100 raw hashes.
CostModel FixedCostModel() { return CostModel(1e-8, 1e-6); }

/// A cost model with hashing four orders of magnitude more expensive than a
/// rule evaluation: Algorithm 1 jumps to P almost immediately, so nearly all
/// clustering flows through the parallel pairwise engine (the workload the
/// tiled sweep must keep deterministic).
CostModel PairwiseHeavyCostModel() { return CostModel(1e-5, 1e-9); }

GeneratedDataset SmallCoraLike(uint64_t seed) {
  CoraLikeConfig config;
  config.num_entities = 25;
  config.num_records = 160;
  config.vocabulary_size = 800;
  config.seed = seed;
  return GenerateCoraLike(config);
}

GeneratedDataset SmallSpotSigsLike(uint64_t seed) {
  SpotSigsLikeConfig config;
  config.num_story_entities = 12;
  config.records_in_stories = 90;
  config.num_singletons = 40;
  config.sentences_min = 8;
  config.sentences_max = 16;
  config.vocabulary_size = 1200;
  config.num_sites = 6;
  config.seed = seed;
  return GenerateSpotSigsLike(config);
}

void ExpectAdaptiveLshInvariantToThreads(const GeneratedDataset& generated,
                                         uint64_t seed, int k,
                                         const char* dataset_name,
                                         CostModel cost_model =
                                             FixedCostModel()) {
  // These datasets are a few hundred records — real runs would sweep them
  // serially; force the tiled path so the property actually exercises it.
  test::ScopedParallelCutoff force_tiled(1);
  ComparableOutput reference;
  for (int threads : kThreadCounts) {
    AdaptiveLshConfig config;
    config.sequence.max_budget = 320;
    config.calibration_samples = 5;
    config.seed = seed;
    config.threads = threads;
    AdaptiveLsh adalsh(generated.dataset, generated.rule, config);
    adalsh.set_cost_model(cost_model);
    ComparableOutput output = Comparable(adalsh.Run(k));
    if (threads == 1) {
      reference = output;
      // Sanity: the serial oracle did real work.
      ASSERT_GT(reference.hashes_computed, 0u);
      ASSERT_FALSE(reference.clusters.empty());
    } else {
      EXPECT_EQ(output, reference)
          << dataset_name << " seed " << seed << ": adaLSH with " << threads
          << " threads diverged from the serial run";
    }
  }
}

void ExpectLshBlockingInvariantToThreads(const GeneratedDataset& generated,
                                         uint64_t seed, int k,
                                         const char* dataset_name) {
  test::ScopedParallelCutoff force_tiled(1);
  ComparableOutput reference;
  for (int threads : kThreadCounts) {
    LshBlockingConfig config;
    config.num_hashes = 256;
    config.seed = seed;
    config.threads = threads;
    LshBlocking blocking(generated.dataset, generated.rule, config);
    ComparableOutput output = Comparable(blocking.Run(k));
    if (threads == 1) {
      reference = output;
      ASSERT_GT(reference.hashes_computed, 0u);
    } else {
      EXPECT_EQ(output, reference)
          << dataset_name << " seed " << seed << ": LSH-X with " << threads
          << " threads diverged from the serial run";
    }
  }
}

void ExpectPairsBaselineInvariantToThreads(const GeneratedDataset& generated,
                                           uint64_t seed, int k,
                                           const char* dataset_name) {
  test::ScopedParallelCutoff force_tiled(1);
  ComparableOutput reference;
  for (int threads : kThreadCounts) {
    PairsBaseline pairs(generated.dataset, generated.rule, threads);
    ComparableOutput output = Comparable(pairs.Run(k));
    if (threads == 1) {
      reference = output;
      ASSERT_GT(reference.pairwise_similarities, 0u);
      ASSERT_FALSE(reference.clusters.empty());
    } else {
      EXPECT_EQ(output, reference)
          << dataset_name << " seed " << seed << ": Pairs with " << threads
          << " threads diverged from the serial run";
    }
  }
}

TEST(ParallelEquivalenceTest, AdaptiveLshOnPlantedClusters) {
  // 20 randomized planted datasets: cluster-size profile varies with seed.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(DeriveSeed(seed, 0x5eed5));
    std::vector<size_t> sizes;
    for (int c = 0; c < 5; ++c) {
      sizes.push_back(1 + rng.NextBelow(24));
    }
    for (int s = 0; s < 30; ++s) sizes.push_back(1);
    GeneratedDataset generated = test::MakePlantedDataset(sizes, seed);
    ExpectAdaptiveLshInvariantToThreads(generated, seed, /*k=*/3, "planted");
  }
}

TEST(ParallelEquivalenceTest, AdaptiveLshOnCoraLike) {
  for (uint64_t seed : {101, 102, 103, 104, 105}) {
    GeneratedDataset generated = SmallCoraLike(seed);
    ExpectAdaptiveLshInvariantToThreads(generated, seed, /*k=*/4, "cora-like");
  }
}

TEST(ParallelEquivalenceTest, AdaptiveLshOnSpotSigsLike) {
  for (uint64_t seed : {201, 202, 203}) {
    GeneratedDataset generated = SmallSpotSigsLike(seed);
    ExpectAdaptiveLshInvariantToThreads(generated, seed, /*k=*/4,
                                        "spotsigs-like");
  }
}

TEST(ParallelEquivalenceTest, LshBlockingOnPlantedAndCoraLike) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(DeriveSeed(seed, 0xb10c));
    std::vector<size_t> sizes;
    for (int c = 0; c < 4; ++c) sizes.push_back(1 + rng.NextBelow(18));
    for (int s = 0; s < 20; ++s) sizes.push_back(1);
    GeneratedDataset generated = test::MakePlantedDataset(sizes, seed);
    ExpectLshBlockingInvariantToThreads(generated, seed, /*k=*/3, "planted");
  }
  for (uint64_t seed : {301, 302}) {
    GeneratedDataset generated = SmallCoraLike(seed);
    ExpectLshBlockingInvariantToThreads(generated, seed, /*k=*/3, "cora-like");
  }
}

TEST(ParallelEquivalenceTest, AdaptiveLshPairwiseHeavy) {
  // With P forced to do nearly all the work (see PairwiseHeavyCostModel),
  // the tiled pairwise sweep becomes the dominant parallel path; one large
  // planted cluster pushes it past the serial cutoff into tiling.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(DeriveSeed(seed, 0xfa57));
    std::vector<size_t> sizes;
    sizes.push_back(120 + rng.NextBelow(60));
    for (int c = 0; c < 4; ++c) sizes.push_back(1 + rng.NextBelow(20));
    for (int s = 0; s < 30; ++s) sizes.push_back(1);
    GeneratedDataset generated = test::MakePlantedDataset(sizes, seed);
    ExpectAdaptiveLshInvariantToThreads(generated, seed, /*k=*/3,
                                        "planted-pairwise-heavy",
                                        PairwiseHeavyCostModel());
  }
}

TEST(ParallelEquivalenceTest, PairsBaselineOnPlantedClusters) {
  // 20 randomized planted datasets; the leading cluster spans multiple row
  // stripes so the tiled engine (not just the serial cutoff) is certified.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(DeriveSeed(seed, 0xba5e));
    std::vector<size_t> sizes;
    sizes.push_back(40 + rng.NextBelow(80));
    for (int c = 0; c < 4; ++c) sizes.push_back(1 + rng.NextBelow(24));
    for (int s = 0; s < 60; ++s) sizes.push_back(1);
    GeneratedDataset generated = test::MakePlantedDataset(sizes, seed);
    ExpectPairsBaselineInvariantToThreads(generated, seed, /*k=*/3, "planted");
  }
}

TEST(ParallelEquivalenceTest, PairsBaselineOnGeneratedWorkloads) {
  for (uint64_t seed : {401, 402}) {
    GeneratedDataset generated = SmallCoraLike(seed);
    ExpectPairsBaselineInvariantToThreads(generated, seed, /*k=*/4,
                                          "cora-like");
  }
  for (uint64_t seed : {501}) {
    GeneratedDataset generated = SmallSpotSigsLike(seed);
    ExpectPairsBaselineInvariantToThreads(generated, seed, /*k=*/4,
                                          "spotsigs-like");
  }
  // Multimodal exercises the dense cosine kernel and the OR rule inside the
  // tiled sweep.
  for (uint64_t seed : {601, 602}) {
    MultiModalConfig config;
    config.num_entities = 15;
    config.num_records = 140;
    config.seed = seed;
    GeneratedDataset generated = GenerateMultiModal(config);
    ExpectPairsBaselineInvariantToThreads(generated, seed, /*k=*/4,
                                          "multimodal");
  }
}

TEST(ParallelEquivalenceTest, GlobalPoolDefaultMatchesSerial) {
  // threads = 0 (the production default: whatever the global pool is sized
  // to) must also reproduce the serial output exactly.
  SetGlobalThreadCount(3);
  GeneratedDataset generated = test::MakePlantedDataset({20, 12, 7, 1, 1}, 77);
  ComparableOutput reference;
  for (int threads : {1, 0}) {
    AdaptiveLshConfig config;
    config.sequence.max_budget = 320;
    config.calibration_samples = 5;
    config.seed = 77;
    config.threads = threads;
    AdaptiveLsh adalsh(generated.dataset, generated.rule, config);
    adalsh.set_cost_model(FixedCostModel());
    ComparableOutput output = Comparable(adalsh.Run(3));
    if (threads == 1) {
      reference = output;
    } else {
      EXPECT_EQ(output, reference);
    }
  }
}

TEST(ParallelEquivalenceTest, EnsureHashesParallelMatchesSerialValues) {
  // The batch hashing API computes the exact same cached values and the
  // exact same total hash count as record-at-a-time serial hashing.
  GeneratedDataset generated = test::MakePlantedDataset({10, 8, 6, 4}, 55);
  StatusOr<RuleHashStructure> structure =
      CompileRuleForHashing(generated.rule);
  ASSERT_TRUE(structure.ok());

  SchemePlan plan;
  plan.hashes_per_unit.assign(structure->units.size(), 96);

  HashEngine serial(generated.dataset, *structure, /*seed=*/9);
  std::vector<RecordId> ids = generated.dataset.AllRecordIds();
  for (RecordId r : ids) serial.EnsureHashes(r, plan);

  ThreadPool pool(8);
  HashEngine parallel(generated.dataset, *structure, /*seed=*/9);
  parallel.EnsureHashesParallel(
      std::span<const RecordId>(ids.data(), ids.size()), plan, &pool);

  EXPECT_EQ(parallel.total_hashes_computed(), serial.total_hashes_computed());
  // Spot-check bucket keys over a synthetic one-part table per unit.
  for (size_t u = 0; u < structure->units.size(); ++u) {
    plan.tables.push_back(TablePlan{{TablePart{static_cast<int>(u), 0, 96}}});
  }
  std::vector<uint64_t> parallel_keys(plan.tables.size());
  std::vector<uint64_t> serial_keys(plan.tables.size());
  for (RecordId r : ids) {
    parallel.TableKeys(r, plan, parallel_keys.data());
    serial.TableKeys(r, plan, serial_keys.data());
    ASSERT_EQ(parallel_keys, serial_keys) << "record " << r;
  }
}

}  // namespace
}  // namespace adalsh
