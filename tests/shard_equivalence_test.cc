// Differential harness for sharded execution (docs/sharding.md), mirroring
// engine_equivalence_test: the canonical snapshot produced through S shards —
// batch or any randomized resident mutation history — must be byte-identical
// to the from-scratch single-engine reference for every shard count at every
// thread count. All configurations pin the same cost model; wall-clock
// calibration is the one legitimate source of divergence (engine_harness.h).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/filter_output.h"
#include "engine/resident_engine.h"
#include "engine/sharded_executor.h"
#include "engine_harness.h"
#include "obs/events.h"
#include "test_util.h"

namespace adalsh {
namespace {

constexpr int kShardCounts[] = {1, 2, 4, 8};
constexpr int kThreadCounts[] = {1, 2, 8};

ShardedEngine::Options ShardedOptions(int shards, int threads, int top_k,
                                      uint64_t seed = 3) {
  ShardedEngine::Options options;
  options.engine = test::EngineOptions(threads, top_k, seed);
  options.shards = shards;
  return options;
}

std::vector<size_t> SizesForSeed(uint64_t seed) {
  std::vector<size_t> sizes = {12, 9, 7, 5, 3, 2, 1};
  sizes[seed % sizes.size()] += seed % 4;
  if (seed % 3 == 0) sizes.push_back(1);
  return sizes;
}

/// Identity live map for a whole-dataset batch: test::IngestAndFlush's one
/// ingest assigns external ids equal to record indices.
test::LiveMap WholeDatasetLive(const Dataset& dataset) {
  test::LiveMap live;
  for (size_t r = 0; r < dataset.num_records(); ++r) live[r] = r;
  return live;
}

TEST(ShardEquivalenceTest, BatchIsByteIdenticalAcrossShardAndThreadCounts) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    GeneratedDataset generated =
        test::MakePlantedDataset(SizesForSeed(seed), seed);
    const std::string reference = test::ReferenceCanonical(
        generated.dataset, generated.rule, WholeDatasetLive(generated.dataset),
        /*top_k=*/4);
    for (int shards : kShardCounts) {
      for (int threads : kThreadCounts) {
        ShardedEngine engine(generated.rule,
                             ShardedOptions(shards, threads, 4));
        test::IngestAndFlush(&engine, generated.dataset);
        EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()), reference)
            << "seed " << seed << " shards " << shards << " threads "
            << threads;
      }
    }
  }
}

TEST(ShardEquivalenceTest, RandomizedHistoriesAreConfluentAcrossShards) {
  // The identical deterministic mutation script (engine_harness.h) drives a
  // ShardedEngine at every (shards, threads) combination; after Flush the
  // merged snapshot must equal the from-scratch reference over the surviving
  // records. Thread count 2 is covered by the batch matrix above; here the
  // extremes keep 240 scripts affordable while still crossing the
  // serial/parallel shard-dispatch boundary.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    GeneratedDataset generated =
        test::MakePlantedDataset(SizesForSeed(seed), seed);
    std::string reference;
    test::LiveMap first_live;
    bool have_reference = false;
    for (int shards : kShardCounts) {
      for (int threads : {1, 8}) {
        ShardedEngine engine(generated.rule,
                             ShardedOptions(shards, threads, /*top_k=*/4));
        test::LiveMap live =
            test::RunRandomScript(&engine, generated.dataset, seed);
        auto flushed = engine.Flush();
        ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
        EXPECT_EQ(flushed.value().refinement, TerminationReason::kCompleted);
        if (!have_reference) {
          have_reference = true;
          first_live = live;
          reference = test::ReferenceCanonical(generated.dataset,
                                               generated.rule, live, 4);
        } else {
          // Ids are assigned in batch order regardless of sharding, so every
          // configuration must walk the identical logical history.
          ASSERT_EQ(live, first_live) << "seed " << seed;
        }
        EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()), reference)
            << "seed " << seed << " shards " << shards << " threads "
            << threads;
      }
    }
  }
}

TEST(ShardEquivalenceTest, SkewedMegaClusterStaysIdentical) {
  // One mega-entity plus a long singleton tail: with S >= 2 the mega
  // component is all but guaranteed to span shards, forcing the reopened
  // producer-0 path through a heavily skewed bucket-size distribution.
  for (uint64_t seed : {5, 12}) {
    GeneratedDataset generated = test::MakePlantedDataset(
        {40, 3, 2, 1, 1, 1, 1, 1, 1, 1}, seed);
    const std::string reference = test::ReferenceCanonical(
        generated.dataset, generated.rule, WholeDatasetLive(generated.dataset),
        /*top_k=*/3);
    for (int shards : {1, 4, 8}) {
      for (int threads : {1, 8}) {
        ShardedEngine engine(generated.rule,
                             ShardedOptions(shards, threads, 3));
        test::IngestAndFlush(&engine, generated.dataset);
        const std::shared_ptr<const EngineSnapshot> snap = engine.Snapshot();
        EXPECT_EQ(test::CanonicalSnapshot(*snap), reference)
            << "seed " << seed << " shards " << shards << " threads "
            << threads;
        ASSERT_FALSE(snap->clusters.empty());
        EXPECT_GE(snap->clusters.front().size(), 40u);
      }
    }
  }
}

TEST(ShardEquivalenceTest, ConcurrentWritersConvergeAfterFlush) {
  // The multi-writer claim (and the suite's TSan target): several writer
  // threads mutate concurrently — serializing only on their records' shard
  // locks — while readers poll the merged snapshot. After a final Flush the
  // result must equal the from-scratch reference over the union live set.
  GeneratedDataset generated =
      test::MakePlantedDataset({13, 9, 6, 4, 2, 1, 1}, 19);
  ShardedEngine engine(generated.rule,
                       ShardedOptions(/*shards=*/4, /*threads=*/4,
                                      /*top_k=*/4));
  const size_t total = generated.dataset.num_records();
  constexpr int kWriters = 4;

  // Seed the engine (and the shared cost model) before the writers race.
  test::LiveMap live;
  {
    std::vector<Record> first = {generated.dataset.record(0)};
    auto seeded = engine.Ingest(std::move(first));
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
    live[seeded.value().assigned_ids[0]] = 0;
  }

  std::mutex live_mu;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  auto writer = [&](int w) {
    test::LiveMap mine;
    for (size_t r = 1 + w; r < total; r += kWriters) {
      std::vector<Record> batch = {generated.dataset.record(r)};
      auto ingested = engine.Ingest(std::move(batch));
      if (!ingested.ok()) {
        ++failures;
        return;
      }
      mine[ingested.value().assigned_ids[0]] = r;
    }
    // Each writer removes one of its own ids — removals race only on
    // distinct ids, so per-shard pre-validation stays exact.
    if (!mine.empty()) {
      const ExternalId victim = mine.begin()->first;
      std::vector<ExternalId> ids = {victim};
      auto removed = engine.Remove(ids);
      if (!removed.ok()) {
        ++failures;
        return;
      }
      mine.erase(victim);
    }
    std::lock_guard<std::mutex> lock(live_mu);
    live.insert(mine.begin(), mine.end());
  };
  auto reader = [&] {
    uint64_t last_generation = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const EngineSnapshot> snap = engine.Snapshot();
      if (snap->generation < last_generation) ++failures;
      last_generation = snap->generation;
      if (snap->verification.size() != snap->clusters.size()) ++failures;
    }
  };

  std::thread r1(reader);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) writers.emplace_back(writer, w);
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  r1.join();
  ASSERT_EQ(failures.load(), 0);

  auto flushed = engine.Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_EQ(flushed.value().refinement, TerminationReason::kCompleted);
  EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()),
            test::ReferenceCanonical(generated.dataset, generated.rule, live,
                                     4));
  EXPECT_EQ(engine.counters().live_records, live.size());
}

/// Drives a ResidentEngine and an S=1 ShardedEngine through the identical
/// mutations and checks, after every one, that both report and serve the
/// same generation and canonical snapshot: S=1 certifies continuously, as
/// the resident engine does.
class Lockstep {
 public:
  Lockstep(ResidentEngine* resident, ShardedEngine* sharded)
      : resident_(resident), sharded_(sharded) {}

  StatusOr<EngineMutationResult> Ingest(std::vector<Record> records) {
    StatusOr<EngineMutationResult> expected = resident_->Ingest(records);
    return Check(expected, sharded_->Ingest(std::move(records)));
  }
  StatusOr<EngineMutationResult> Remove(std::span<const ExternalId> ids) {
    StatusOr<EngineMutationResult> expected = resident_->Remove(ids);
    return Check(expected, sharded_->Remove(ids));
  }
  StatusOr<EngineMutationResult> Update(ExternalId id, Record record) {
    StatusOr<EngineMutationResult> expected = resident_->Update(id, record);
    return Check(expected, sharded_->Update(id, std::move(record)));
  }

  size_t mutations() const { return mutations_; }

 private:
  StatusOr<EngineMutationResult> Check(
      const StatusOr<EngineMutationResult>& expected,
      StatusOr<EngineMutationResult> actual) {
    ++mutations_;
    EXPECT_EQ(expected.ok(), actual.ok()) << "mutation " << mutations_;
    if (expected.ok() && actual.ok()) {
      EXPECT_EQ(actual.value().generation, expected.value().generation)
          << "mutation " << mutations_;
      EXPECT_EQ(actual.value().assigned_ids, expected.value().assigned_ids)
          << "mutation " << mutations_;
    }
    const std::shared_ptr<const EngineSnapshot> want = resident_->Snapshot();
    const std::shared_ptr<const EngineSnapshot> got = sharded_->Snapshot();
    EXPECT_EQ(got->generation, want->generation) << "mutation " << mutations_;
    EXPECT_EQ(test::CanonicalSnapshot(*got), test::CanonicalSnapshot(*want))
        << "mutation " << mutations_;
    return actual;
  }

  ResidentEngine* resident_;
  ShardedEngine* sharded_;
  size_t mutations_ = 0;
};

TEST(ShardEquivalenceTest, SingleShardCertifiesLikeResidentEngine) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    GeneratedDataset generated =
        test::MakePlantedDataset(SizesForSeed(seed), seed);
    for (int threads : {1, 8}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      ResidentEngine resident(generated.rule,
                              test::EngineOptions(threads, /*top_k=*/4));
      ShardedEngine sharded(generated.rule,
                            ShardedOptions(/*shards=*/1, threads, 4));
      Lockstep lockstep(&resident, &sharded);
      test::RunRandomScript(&lockstep, generated.dataset, seed);
      EXPECT_GT(lockstep.mutations(), 0u);
      auto flushed = sharded.Flush();
      ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
      auto expected = resident.Flush();
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(flushed.value().generation, expected.value().generation);
      EXPECT_EQ(test::CanonicalSnapshot(*sharded.Snapshot()),
                test::CanonicalSnapshot(*resident.Snapshot()));
    }
  }
}

TEST(ShardEquivalenceTest, FirstIngestRacesWithReaders) {
  // The first ingest builds the shard engines while other threads already
  // query and mutate (the TSan target for lazy shard construction): readers
  // poll counters(), IsLive() and Snapshot() and must see generations that
  // never move backwards, with two writers racing to ingest first.
  GeneratedDataset generated = test::MakePlantedDataset({3, 2, 1}, 4);
  const size_t total = generated.dataset.num_records();
  for (int shards : {1, 4}) {
    for (int round = 0; round < 20; ++round) {
      ShardedEngine engine(generated.rule, ShardedOptions(shards, 2, 2));
      std::atomic<bool> done{false};
      std::atomic<int> failures{0};
      std::thread reader([&] {
        uint64_t last_generation = 0;
        while (!done.load(std::memory_order_acquire)) {
          const EngineCounters counters = engine.counters();
          (void)engine.IsLive(0);
          const std::shared_ptr<const EngineSnapshot> snap = engine.Snapshot();
          if (snap->generation < last_generation ||
              counters.generation < last_generation) {
            ++failures;
          }
          last_generation = snap->generation;
        }
      });
      std::vector<std::thread> writers;
      for (size_t w = 0; w < 2; ++w) {
        writers.emplace_back([&, w] {
          for (size_t r = w; r < total; r += 2) {
            if (!engine.Ingest({generated.dataset.record(r)}).ok()) ++failures;
          }
        });
      }
      for (std::thread& t : writers) t.join();
      done.store(true, std::memory_order_release);
      reader.join();
      ASSERT_EQ(failures.load(), 0) << "shards " << shards;
      ASSERT_TRUE(engine.Flush().ok());
      EXPECT_EQ(engine.Snapshot()->live_records, total) << "shards " << shards;
    }
  }
}

TEST(ShardEquivalenceTest, RejectedIngestWithIdsChangesNoShard) {
  // A batch with one id already live on its shard is rejected whole: the
  // batch's other ids, routed to other shards, must not be ingested either.
  GeneratedDataset generated = test::MakePlantedDataset({3, 2, 2, 1}, 5);
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardedEngine engine(generated.rule, ShardedOptions(shards, 1, 2));
    std::vector<Record> records;
    std::vector<ExternalId> ids;
    for (ExternalId id = 0; id < 8; ++id) {
      records.push_back(generated.dataset.record(id));
      ids.push_back(id);
    }
    ASSERT_TRUE(engine.IngestWithIds(std::move(records), ids).ok());
    ExternalId fresh = 100;
    while (ShardOfExternalId(fresh, shards) == ShardOfExternalId(0, shards)) {
      ++fresh;
    }
    auto live_ids = [&engine] {
      std::vector<ExternalId> live;
      for (const auto& [id, record] : engine.LiveRecords()) {
        live.push_back(id);
      }
      return live;
    };
    const std::vector<ExternalId> live_before = live_ids();
    const uint64_t ingested_before = engine.counters().ingested;
    const uint64_t generation_before = engine.Snapshot()->generation;

    auto rejected = engine.IngestWithIds(
        {generated.dataset.record(0), generated.dataset.record(1)},
        {0, fresh});
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(engine.IsLive(fresh));
    EXPECT_EQ(live_ids(), live_before);
    EXPECT_EQ(engine.counters().ingested, ingested_before);
    EXPECT_EQ(engine.Snapshot()->generation, generation_before);
  }
}

TEST(ShardEquivalenceTest, SnapshotLagDescribesTheServedSnapshot) {
  // `snapshot_lag_batches` counts the batches the served snapshot has not
  // seen. At S=1 every completed mutation publishes, so it stays 0. At S=2
  // the served snapshot advances only at Flush: every shard batch since the
  // last merge is lag, and Flush clears it.
  GeneratedDataset generated = test::MakePlantedDataset({4, 3, 2, 1}, 6);
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardedEngine engine(generated.rule, ShardedOptions(shards, 1, 2));
    for (size_t first : {0, 5}) {
      std::vector<Record> records;
      for (size_t r = first; r < first + 5; ++r) {
        records.push_back(generated.dataset.record(r));
      }
      ASSERT_TRUE(engine.Ingest(std::move(records)).ok());
    }
    const EngineCounters before_flush = engine.counters();
    if (shards == 1) {
      EXPECT_EQ(before_flush.generation, 2u);
      EXPECT_EQ(before_flush.snapshot_lag_batches, 0u);
    } else {
      EXPECT_EQ(before_flush.generation, 0u);
      EXPECT_EQ(before_flush.live_records, 0u);
      EXPECT_GE(before_flush.snapshot_lag_batches, 2u);
      EXPECT_EQ(before_flush.snapshot_lag_batches, before_flush.batches);
    }
    ASSERT_TRUE(engine.Flush().ok());
    EXPECT_EQ(engine.counters().snapshot_lag_batches, 0u);
    ASSERT_TRUE(engine.Update(0, generated.dataset.record(1)).ok());
    EXPECT_EQ(engine.counters().snapshot_lag_batches, shards == 1 ? 0u : 1u);
  }
}

/// The work of one refinement pass, in order: its totals, then each round's
/// action, function index and cluster size.
std::string PassWork(const FilterStats& stats) {
  std::string out = "rounds=" + std::to_string(stats.rounds) +
                    " similarities=" +
                    std::to_string(stats.pairwise_similarities) + "\n";
  for (const RoundRecord& round : stats.round_records) {
    out += round.action == RoundAction::kPairwise ? "P" : "H";
    out += " fn=" + std::to_string(round.function_index) +
           " size=" + std::to_string(round.cluster_size) + "\n";
  }
  return out;
}

/// Flushes `engine` and checks its merge against the one-batch reference: a
/// fresh ResidentEngine with the same options that ingests the live set
/// under the same ids in one batch. Both must run the same rounds on the
/// same clusters, the same P sweeps, tally the same Definition 3 snapshot
/// and publish the same snapshot; only the hashes the merge adopts from its
/// shards are not recomputed.
/// `pairwise_rounds`, when set, gains the merge's P rounds.
void ExpectMergeIsTheOneBatchReference(ShardedEngine* engine,
                                       const MatchRule& rule,
                                       const ResidentEngine::Options& options,
                                       const Dataset& source,
                                       const test::LiveMap& live,
                                       size_t* pairwise_rounds = nullptr) {
  auto flushed = engine->Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  ResidentEngine reference(rule, options);
  std::vector<Record> records;
  std::vector<ExternalId> ids;
  for (const auto& [id, index] : live) {  // std::map: ascending ids
    records.push_back(source.record(index));
    ids.push_back(id);
  }
  auto ingested = reference.IngestWithIds(std::move(records), ids);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  const FilterStats& merged = flushed.value().stats;
  const FilterStats& expected = ingested.value().stats;
  EXPECT_EQ(PassWork(merged), PassWork(expected));
  // Definition 3's tally: a record no merge round treats counts at H_1, as
  // in the reference, not at whatever level its shard refined it to.
  EXPECT_EQ(merged.records_last_hashed_at, expected.records_last_hashed_at);
  EXPECT_EQ(merged.records_finished_by_pairwise,
            expected.records_finished_by_pairwise);
  EXPECT_EQ(test::CanonicalSnapshot(*engine->Snapshot()),
            test::CanonicalSnapshot(*reference.Snapshot()));
  if (pairwise_rounds != nullptr) {
    for (const RoundRecord& round : merged.round_records) {
      if (round.action == RoundAction::kPairwise) ++*pairwise_rounds;
    }
  }
}

TEST(ShardEquivalenceTest, MergeIsTheOneBatchReference) {
  // The merge reopens every component, so it is a one-batch ingest of the
  // live set, however the records are spread over the shards. With every
  // planted entity whole on one shard the shards have already refined each
  // component, and the merge still runs the reference's rounds.
  GeneratedDataset generated = test::MakePlantedDataset(
      {40, 30, 20, 14, 9, 6, 3, 1, 1, 1}, /*seed=*/5);
  const Dataset& dataset = generated.dataset;
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const ShardedEngine::Options options =
        ShardedOptions(shards, 2, /*top_k=*/3);
    ShardedEngine engine(generated.rule, options);
    // The next unused id that routes to `shard`; ids stay ascending.
    ExternalId next_id = 0;
    auto id_on_shard = [&next_id, shards](int shard) {
      while (ShardOfExternalId(next_id, shards) != shard) ++next_id;
      return next_id++;
    };

    test::LiveMap live;
    std::vector<Record> records;
    std::vector<ExternalId> ids;
    for (RecordId r = 0; r < dataset.num_records(); ++r) {
      const EntityId entity = dataset.entity_assignment()[r];
      const ExternalId id = id_on_shard(static_cast<int>(entity % shards));
      records.push_back(dataset.record(r));
      ids.push_back(id);
      live[id] = r;
    }
    ASSERT_TRUE(engine.IngestWithIds(std::move(records), ids).ok());
    ExpectMergeIsTheOneBatchReference(&engine, generated.rule, options.engine,
                                      dataset, live);
    if (HasFatalFailure()) return;

    // Entity 0, the largest, sits on shard 0; a copy of its first record
    // goes to shard 1.
    const ExternalId extra = id_on_shard(1);
    ASSERT_TRUE(engine.IngestWithIds({dataset.record(0)}, {extra}).ok());
    live[extra] = 0;
    ExpectMergeIsTheOneBatchReference(&engine, generated.rule, options.engine,
                                      dataset, live);
    if (HasFatalFailure()) return;
  }

  // Randomized histories over hash-routed ids, under a cost model that makes
  // P cheap, so the merge's P sweeps are compared too.
  size_t pairwise_rounds = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    GeneratedDataset random =
        test::MakePlantedDataset(SizesForSeed(seed), seed);
    for (int shards : {2, 4}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " shards " +
                   std::to_string(shards));
      ShardedEngine::Options options = ShardedOptions(shards, 2, /*top_k=*/4);
      options.engine.cost_model = CostModel(1e-6, 1e-9);
      ShardedEngine engine(random.rule, options);
      const test::LiveMap live =
          test::RunRandomScript(&engine, random.dataset, seed);
      ExpectMergeIsTheOneBatchReference(&engine, random.rule, options.engine,
                                        random.dataset, live,
                                        &pairwise_rounds);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(pairwise_rounds, 0u);
}

TEST(ShardEquivalenceTest, FlushPublishesTheMergeUnderAnAmbientBudget) {
  // An ambient budget of one hash interrupts every shard refinement. At
  // S >= 2 Flush runs only the merge, which takes no SLO: it completes,
  // publishes the next generation, and that generation is the one-batch
  // reference.
  GeneratedDataset generated =
      test::MakePlantedDataset({12, 9, 7, 5, 3, 2, 1}, /*seed=*/8);
  const std::string reference = test::ReferenceCanonical(
      generated.dataset, generated.rule, WholeDatasetLive(generated.dataset),
      /*top_k=*/4);
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardedEngine::Options options = ShardedOptions(shards, 2, /*top_k=*/4);
    options.engine.config.budget.max_hashes = 1;
    ShardedEngine engine(generated.rule, options);
    const test::IngestedAndFlushed run =
        test::IngestAndFlush(&engine, generated.dataset);
    EXPECT_EQ(run.ingested.refinement, TerminationReason::kBudgetExhausted);
    EXPECT_EQ(run.ingested.generation, 0u);
    EXPECT_EQ(run.flushed.refinement, TerminationReason::kCompleted);
    EXPECT_EQ(run.flushed.stats.termination_reason,
              TerminationReason::kCompleted);
    EXPECT_EQ(run.flushed.generation, run.ingested.generation + 1);
    EXPECT_EQ(engine.Snapshot()->generation, run.flushed.generation);
    EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()), reference);

    // A second flush with the shards still interrupted publishes again.
    auto again = engine.Flush();
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value().refinement, TerminationReason::kCompleted);
    EXPECT_EQ(again.value().generation, run.flushed.generation + 1);
    EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()), reference);
  }
}

TEST(ShardEquivalenceTest, SecondFlushReusesTheHashesTheFirstMergeComputed) {
  // The merge borrows each live record's hash slots from its shard and
  // returns them extended by what it computed, so a second flush with no
  // mutation in between finds every hash it needs already cached and
  // publishes the same snapshot.
  GeneratedDataset generated =
      test::MakePlantedDataset({12, 9, 7, 5, 3, 2, 1}, /*seed=*/8);
  const std::string reference = test::ReferenceCanonical(
      generated.dataset, generated.rule, WholeDatasetLive(generated.dataset),
      /*top_k=*/4);
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardedEngine engine(generated.rule, ShardedOptions(shards, 2, 4));
    const test::IngestedAndFlushed run =
        test::IngestAndFlush(&engine, generated.dataset);
    EXPECT_GT(run.flushed.stats.hashes_computed, 0u);
    EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()), reference);
    const uint64_t shard_hashes = engine.counters().total_hashes;

    auto again = engine.Flush();
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value().stats.hashes_computed, 0u);
    EXPECT_EQ(PassWork(again.value().stats), PassWork(run.flushed.stats));
    EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()), reference);
    // The shards count only what they computed themselves.
    EXPECT_EQ(engine.counters().total_hashes, shard_hashes);
  }
}

TEST(ShardEquivalenceTest, PartitionIsDeterministicAndCovering) {
  for (int shards : kShardCounts) {
    std::vector<int> seen(shards, 0);
    for (ExternalId id = 0; id < 1000; ++id) {
      const int s = ShardOfExternalId(id, shards);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, shards);
      EXPECT_EQ(s, ShardOfExternalId(id, shards));  // stable
      ++seen[s];
    }
    // SplitMix64 spreads sequential ids roughly evenly.
    for (int s = 0; s < shards; ++s) {
      EXPECT_GT(seen[s], 1000 / shards / 2)
          << "shard " << s << " of " << shards;
    }
  }
  // shards == 1 bypasses the mix entirely.
  EXPECT_EQ(ShardOfExternalId(12345, 1), 0);
}

TEST(ShardEquivalenceTest, DegenerateLifecycles) {
  GeneratedDataset generated = test::MakePlantedDataset({3, 2, 1}, 7);
  ShardedEngine engine(generated.rule, ShardedOptions(4, 1, /*top_k=*/2));

  // Pre-ingest: queries serve the empty generation-0 snapshot; removals and
  // updates have nothing to route to.
  EXPECT_EQ(engine.Snapshot()->generation, 0u);
  std::vector<ExternalId> none = {0};
  EXPECT_FALSE(engine.Remove(none).ok());
  EXPECT_FALSE(engine.Update(0, generated.dataset.record(0)).ok());
  auto empty_ingest = engine.Ingest({});
  ASSERT_TRUE(empty_ingest.ok());
  EXPECT_TRUE(empty_ingest.value().assigned_ids.empty());
  auto empty_flush = engine.Flush();
  ASSERT_TRUE(empty_flush.ok());
  EXPECT_EQ(empty_flush.value().generation, 0u);

  // Ingest everything, remove everything, flush: the merged snapshot must
  // come back to the empty canonical form.
  std::vector<Record> records;
  for (size_t r = 0; r < generated.dataset.num_records(); ++r) {
    records.push_back(generated.dataset.record(r));
  }
  auto ingested = engine.Ingest(std::move(records));
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  auto flushed = engine.Flush();
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(engine.Snapshot()->live_records,
            generated.dataset.num_records());

  auto removed = engine.Remove(ingested.value().assigned_ids);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  auto reflushed = engine.Flush();
  ASSERT_TRUE(reflushed.ok());
  EXPECT_EQ(engine.Snapshot()->live_records, 0u);
  EXPECT_TRUE(engine.Snapshot()->clusters.empty());

  // Duplicate ids in one removal batch are rejected before any mutation.
  auto dup_ingest = engine.Ingest({generated.dataset.record(0)});
  ASSERT_TRUE(dup_ingest.ok());
  const ExternalId id = dup_ingest.value().assigned_ids[0];
  std::vector<ExternalId> dup = {id, id};
  EXPECT_FALSE(engine.Remove(dup).ok());
  auto single = engine.Cluster(id);
  EXPECT_FALSE(single.ok());  // not merged yet: deferred certification
  ASSERT_TRUE(engine.Flush().ok());
  auto merged = engine.Cluster(id);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value(), std::vector<ExternalId>{id});
}

}  // namespace
}  // namespace adalsh
