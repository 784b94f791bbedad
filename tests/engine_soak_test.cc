// Soak test for the resident engines' memory: a constant-size live set is
// churned by ingest plus remove for many rounds, and the engine must hold
// memory in proportion to that live set, not to the work it has done.
// Compaction keeps the parent-pointer forest within
// ResidentEngine::kForestCompactionFactor times the nodes of its live trees,
// a removed record's hash values are freed, and after all of it the
// published snapshot is still the one-batch reference of the live set.

#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/function_sequence.h"
#include "engine/resident_engine.h"
#include "engine/sharded_executor.h"
#include "engine_harness.h"
#include "test_util.h"

namespace adalsh {
namespace {

constexpr size_t kBatch = 12;       // records ingested and removed per round
constexpr size_t kLiveRounds = 4;   // rounds a record stays live
constexpr int kRounds = 80;
constexpr int kTopK = 4;

/// The length of the engine's function sequence for `generated`.
size_t SequenceLength(const GeneratedDataset& generated) {
  const ResidentEngine::Options options = test::EngineOptions(1, kTopK);
  StatusOr<FunctionSequence> sequence = FunctionSequence::Build(
      generated.rule, generated.dataset.record(0), options.config.sequence);
  EXPECT_TRUE(sequence.ok());
  return sequence->size();
}

/// Each live record owns a root and a leaf in at most one tree per distinct
/// node on its refinement path: its level-1 tree, one tree per deeper hash
/// level and a P tree, so at most the sequence length + 1 trees. A
/// compaction keeps no more than that, and the next one runs once the
/// forest exceeds the factor times what the last one kept.
size_t ForestBound(size_t max_live, size_t sequence_length) {
  return ResidentEngine::kForestCompactionFactor * 2 *
         (sequence_length + 1) * max_live;
}

/// The most hash values one live record can hold: the prefix per unit the
/// sequence's last function needs.
size_t MaxHashValuesPerRecord(const GeneratedDataset& generated) {
  const ResidentEngine::Options options = test::EngineOptions(1, kTopK);
  StatusOr<FunctionSequence> sequence = FunctionSequence::Build(
      generated.rule, generated.dataset.record(0), options.config.sequence);
  EXPECT_TRUE(sequence.ok());
  size_t total = 0;
  for (size_t count : sequence->plan(sequence->size() - 1).hashes_per_unit) {
    total += count;
  }
  return total;
}

GeneratedDataset Pool() {
  std::vector<size_t> sizes;
  for (int e = 0; e < 24; ++e) sizes.push_back(1 + (e * 7) % 9);
  return test::MakePlantedDataset(sizes, /*seed=*/11);
}

/// Churns `engine` for kRounds rounds: each ingests the next kBatch pool
/// records (cycling through the pool) and removes the kBatch oldest live
/// ones once kLiveRounds batches are live. `after_op` runs after every
/// mutation with the live map. Returns the final live map.
template <typename Engine, typename AfterOp>
test::LiveMap Churn(Engine* engine, const Dataset& pool, AfterOp after_op) {
  test::LiveMap live;
  size_t next = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Record> records;
    std::vector<size_t> indices;
    for (size_t i = 0; i < kBatch; ++i) {
      records.push_back(pool.record(next));
      indices.push_back(next);
      next = (next + 1) % pool.num_records();
    }
    auto ingested = engine->Ingest(std::move(records));
    EXPECT_TRUE(ingested.ok()) << ingested.status().ToString();
    for (size_t i = 0; i < indices.size(); ++i) {
      live[ingested.value().assigned_ids[i]] = indices[i];
    }
    after_op(round, live);
    if (live.size() > kBatch * kLiveRounds) {
      std::vector<ExternalId> oldest;
      for (auto it = live.begin(); oldest.size() < kBatch; ++it) {
        oldest.push_back(it->first);
      }
      auto removed = engine->Remove(oldest);
      EXPECT_TRUE(removed.ok()) << removed.status().ToString();
      for (ExternalId id : oldest) live.erase(id);
      after_op(round, live);
    }
  }
  return live;
}

/// Removes every live record: with nothing live, no hash value is held.
template <typename Engine>
void RemoveAll(Engine* engine, const test::LiveMap& live) {
  std::vector<ExternalId> ids;
  for (const auto& [id, index] : live) ids.push_back(id);
  auto removed = engine->Remove(ids);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(engine->counters().cached_hash_values, 0u);
}

TEST(EngineSoakTest, ResidentEngineMemoryFollowsTheLiveSet) {
  const GeneratedDataset generated = Pool();
  const size_t per_record = MaxHashValuesPerRecord(generated);
  const size_t sequence_length = SequenceLength(generated);
  ResidentEngine engine(generated.rule, test::EngineOptions(2, kTopK));
  size_t max_live = 0;
  const test::LiveMap live =
      Churn(&engine, generated.dataset,
            [&](int round, const test::LiveMap& now) {
              const EngineCounters counters = engine.counters();
              ASSERT_EQ(counters.live_records, now.size());
              max_live = std::max(max_live, now.size());
              EXPECT_LE(counters.forest_nodes,
                        ForestBound(max_live, sequence_length))
                  << "round " << round;
              EXPECT_LE(counters.cached_hash_values,
                        now.size() * per_record)
                  << "round " << round;
            });
  EXPECT_GT(engine.counters().removed, 10 * max_live);
  EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()),
            test::ReferenceCanonical(generated.dataset, generated.rule, live,
                                     kTopK));
  RemoveAll(&engine, live);
}

TEST(EngineSoakTest, ShardedEngineMemoryFollowsTheLiveSetAcrossFlushes) {
  const GeneratedDataset generated = Pool();
  const size_t per_record = MaxHashValuesPerRecord(generated);
  const size_t sequence_length = SequenceLength(generated);
  ShardedEngine::Options options;
  options.engine = test::EngineOptions(2, kTopK);
  options.shards = 2;
  ShardedEngine engine(generated.rule, options);
  std::vector<size_t> max_live(options.shards, 0);
  const test::LiveMap live = Churn(
      &engine, generated.dataset, [&](int round, const test::LiveMap& now) {
        if (round % 5 == 4) {
          auto flushed = engine.Flush();
          ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
        }
        // Each shard compacts against its own live set.
        const std::vector<EngineCounters> shards = engine.shard_counters();
        size_t live_records = 0;
        for (size_t s = 0; s < shards.size(); ++s) {
          max_live[s] = std::max(max_live[s], shards[s].live_records);
          EXPECT_LE(shards[s].forest_nodes,
                    ForestBound(max_live[s], sequence_length))
              << "round " << round << " shard " << s;
          EXPECT_LE(shards[s].cached_hash_values,
                    shards[s].live_records * per_record)
              << "round " << round << " shard " << s;
          live_records += shards[s].live_records;
        }
        EXPECT_EQ(live_records, now.size());
      });
  auto flushed = engine.Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()),
            test::ReferenceCanonical(generated.dataset, generated.rule, live,
                                     kTopK));
  RemoveAll(&engine, live);
}

}  // namespace
}  // namespace adalsh
