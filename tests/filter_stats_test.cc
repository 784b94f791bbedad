// Asserts the FilterStats field invariants documented in
// core/filter_output.h, for every filtering method and at 1, 2 and 8
// threads. These are the contracts the obs run report and the per-round
// trace depend on.
#include "core/filter_output.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "core/adaptive_lsh.h"
#include "core/lsh_blocking.h"
#include "core/pairs_baseline.h"
#include "engine/resident_engine.h"
#include "engine/sharded_executor.h"
#include "engine_harness.h"
#include "test_util.h"

namespace adalsh {
namespace {

// The first three invariants (round count, per-round sums, bucket count +
// conservation) for a finished run over `records_treated` records, with
// `num_functions` hashing functions available to the method.
void ExpectInvariants(const FilterStats& stats, size_t records_treated,
                      size_t num_functions) {
  EXPECT_EQ(stats.rounds, stats.round_records.size());

  uint64_t hashes = 0;
  uint64_t sims = 0;
  for (size_t i = 0; i < stats.round_records.size(); ++i) {
    const RoundRecord& record = stats.round_records[i];
    EXPECT_EQ(record.round, i + 1) << "round indices are 1-based, in order";
    hashes += record.hashes_computed;
    sims += record.pairwise_similarities;
    EXPECT_GE(record.wall_seconds, 0.0);
    EXPECT_GE(record.wall_seconds,
              record.hash_seconds + record.pairwise_seconds - 1e-9);
  }
  EXPECT_EQ(hashes, stats.hashes_computed);
  EXPECT_EQ(sims, stats.pairwise_similarities);

  EXPECT_EQ(stats.records_last_hashed_at.size(), num_functions);
  size_t accounted = std::accumulate(stats.records_last_hashed_at.begin(),
                                     stats.records_last_hashed_at.end(),
                                     stats.records_finished_by_pairwise);
  EXPECT_EQ(accounted, records_treated);
}

GeneratedDataset MakeDataset() {
  return test::MakePlantedDataset({30, 20, 10, 5, 2, 1, 1, 1}, 7);
}

AdaptiveLshConfig SmallConfig(int threads) {
  AdaptiveLshConfig config;
  config.sequence.max_budget = 640;
  config.calibration_samples = 30;
  config.seed = 3;
  config.threads = threads;
  return config;
}

class FilterStatsTest : public testing::TestWithParam<int> {};

TEST_P(FilterStatsTest, AdaptiveLshHoldsInvariants) {
  GeneratedDataset generated = MakeDataset();
  AdaptiveLsh adalsh(generated.dataset, generated.rule,
                     SmallConfig(GetParam()));
  FilterOutput output = adalsh.Run(3);
  ExpectInvariants(output.stats, generated.dataset.num_records(),
                   adalsh.sequence().size());
  EXPECT_GE(output.stats.rounds, 1u);  // at least the initial H_1 pass
}

TEST_P(FilterStatsTest, LshBlockingHoldsInvariants) {
  GeneratedDataset generated = MakeDataset();
  LshBlockingConfig config;
  config.num_hashes = 320;
  config.seed = 3;
  config.threads = GetParam();
  LshBlocking blocking(generated.dataset, generated.rule, config);
  FilterOutput output = blocking.Run(3);
  ExpectInvariants(output.stats, generated.dataset.num_records(),
                   /*num_functions=*/1);
  // LSH-X verifies with P, so the verified records sit in the P bucket.
  EXPECT_GT(output.stats.records_finished_by_pairwise, 0u);
}

TEST_P(FilterStatsTest, LshBlockingNoPairwiseHoldsInvariants) {
  GeneratedDataset generated = MakeDataset();
  LshBlockingConfig config;
  config.num_hashes = 320;
  config.seed = 3;
  config.threads = GetParam();
  config.apply_pairwise = false;
  LshBlocking blocking(generated.dataset, generated.rule, config);
  FilterOutput output = blocking.Run(3);
  ExpectInvariants(output.stats, generated.dataset.num_records(),
                   /*num_functions=*/1);
  // LSH-X-nP never applies P: exactly one hash round, nothing in the P
  // bucket, every record last hashed by H_1.
  EXPECT_EQ(output.stats.rounds, 1u);
  EXPECT_EQ(output.stats.records_finished_by_pairwise, 0u);
  EXPECT_EQ(output.stats.pairwise_similarities, 0u);
}

TEST_P(FilterStatsTest, PairsBaselineHoldsInvariants) {
  GeneratedDataset generated = MakeDataset();
  PairsBaseline pairs(generated.dataset, generated.rule, GetParam());
  FilterOutput output = pairs.Run(3);
  ExpectInvariants(output.stats, generated.dataset.num_records(),
                   /*num_functions=*/0);
  EXPECT_EQ(output.stats.rounds, 1u);
  EXPECT_EQ(output.stats.records_finished_by_pairwise,
            generated.dataset.num_records());
  EXPECT_EQ(output.stats.hashes_computed, 0u);
}

TEST_P(FilterStatsTest, ResidentEngineHoldsInvariants) {
  // One refinement pass per input: a full ingest, a flush with no new
  // arrivals (which reuses the verified clusters, so its round set may be
  // empty), and a partial ingest on a fresh engine. Every pass treats the
  // engine's live records.
  GeneratedDataset generated = MakeDataset();
  const size_t n = generated.dataset.num_records();
  const size_t half = n / 2;
  auto ingest = [&](ResidentEngine* engine, size_t count) {
    std::vector<Record> records;
    for (RecordId r = 0; r < count; ++r) {
      records.push_back(generated.dataset.record(r));
    }
    StatusOr<EngineMutationResult> result = engine->Ingest(std::move(records));
    EXPECT_TRUE(result.ok());
    return result.value().stats;
  };
  const ResidentEngine::Options options = test::EngineOptions(GetParam(), 3);
  const size_t functions =
      FunctionSequence::Build(generated.rule, generated.dataset.record(0),
                              options.config.sequence)
          .value()
          .size();
  ResidentEngine full(generated.rule, options);
  ExpectInvariants(ingest(&full, n), n, functions);
  ExpectInvariants(full.Flush().value().stats, n, functions);

  ResidentEngine partial(generated.rule, options);
  ExpectInvariants(ingest(&partial, half), half, functions);
}

TEST_P(FilterStatsTest, ShardedBatchHoldsInvariants) {
  // The sharded engine's batch run, one ingest of the whole dataset and one
  // flush: the ingest folds its per-shard passes into one result over every
  // record, and the flush treats every record again (at S >= 2 the
  // cross-shard merge, at S = 1 a pass with nothing left to refine).
  GeneratedDataset generated = MakeDataset();
  const size_t n = generated.dataset.num_records();
  ShardedEngine::Options options;
  options.engine = test::EngineOptions(GetParam(), 3);
  const size_t functions =
      FunctionSequence::Build(generated.rule, generated.dataset.record(0),
                              options.engine.config.sequence)
          .value()
          .size();
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    options.shards = shards;
    ShardedEngine engine(generated.rule, options);
    const test::IngestedAndFlushed run =
        test::IngestAndFlush(&engine, generated.dataset);
    ExpectInvariants(run.ingested.stats, n, functions);
    ExpectInvariants(run.flushed.stats, n, functions);
    EXPECT_GT(run.ingested.stats.rounds, 0u);
    if (shards >= 2) {
      EXPECT_GT(run.flushed.stats.rounds, 0u);
    }
    const std::shared_ptr<const EngineSnapshot> snap = engine.Snapshot();
    EXPECT_EQ(snap->stats.cluster_verification, snap->verification);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, FilterStatsTest, testing::Values(1, 2, 8));

}  // namespace
}  // namespace adalsh
