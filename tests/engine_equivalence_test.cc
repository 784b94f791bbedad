// The centerpiece differential harness for the resident engine: after ANY
// mutation history — randomized batch boundaries, interleaved removals and
// updates, fault-injected mid-batch cancellation, any thread count — the
// published snapshot must be byte-identical (canonical serialization,
// engine_harness.h) to that of a fresh engine ingesting the surviving records
// in one batch. This is the engine's confluence contract (docs/engine.md).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_lsh.h"
#include "engine/sharded_executor.h"
#include "engine_harness.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/run_controller.h"

namespace adalsh {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

std::vector<size_t> SizesForSeed(uint64_t seed) {
  // Vary the planted shape with the seed: skew, mid-size ties, singletons.
  std::vector<size_t> sizes = {12, 9, 7, 5, 3, 2, 1};
  sizes[seed % sizes.size()] += seed % 4;
  if (seed % 3 == 0) sizes.push_back(1);
  return sizes;
}

TEST(EngineEquivalenceTest, RandomizedHistoriesAreConfluentAcrossThreads) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    GeneratedDataset generated =
        test::MakePlantedDataset(SizesForSeed(seed), seed);
    std::string reference;
    test::LiveMap first_live;
    for (int threads : kThreadCounts) {
      ResidentEngine engine(generated.rule,
                            test::EngineOptions(threads, /*top_k=*/4));
      test::LiveMap live =
          test::RunRandomScript(&engine, generated.dataset, seed);
      const std::string canonical =
          test::CanonicalSnapshot(*engine.Snapshot());
      if (threads == kThreadCounts[0]) {
        // The script is engine-independent and ids are assigned in batch
        // order, so every thread count must walk the identical history.
        first_live = live;
        reference = test::ReferenceCanonical(generated.dataset,
                                             generated.rule, live, 4);
      } else {
        ASSERT_EQ(live, first_live) << "seed " << seed;
      }
      EXPECT_EQ(canonical, reference)
          << "seed " << seed << " threads " << threads;
    }
  }
}

/// A one-batch engine's ranked top-k: its external ids are the source
/// record ids, members ascending.
std::vector<std::vector<RecordId>> RankedClusters(const ResidentEngine& engine,
                                                  int k) {
  const auto top = engine.TopK(k);
  std::vector<std::vector<RecordId>> ranked;
  for (const std::vector<ExternalId>& cluster : top.value()) {
    ranked.emplace_back(cluster.begin(), cluster.end());
  }
  return ranked;
}

TEST(EngineEquivalenceTest, PureIngestHistoryMatchesBatchFilter) {
  // A one-batch ingest of the whole dataset is the engine's view of the
  // offline batch filter, and both drive the one shared round loop under
  // the same order key (external id == record id). So they must agree on
  // the ranked top-k, member by member, and on every round after Run's H_1
  // round (the engine's arrivals take that round's place). The same holds
  // for the whole-run rounds the batch CLI's --shards=1 path reports
  // (RunShardedBatch: the ingest's rounds, then the flush's, which has
  // nothing left to refine). The second shape puts three equal-size
  // clusters across rank k, so the shared tie-break decides which of them
  // makes the cut.
  constexpr int kK = 3;
  const std::vector<std::vector<size_t>> shapes = {
      {14, 9, 6, 3, 1, 1}, {14, 9, 6, 6, 6, 3, 1, 1}};
  for (const std::vector<size_t>& shape : shapes) {
    for (uint64_t seed : {2, 9, 23}) {
      GeneratedDataset generated = test::MakePlantedDataset(shape, seed);
      const GroundTruth truth = generated.dataset.BuildGroundTruth();
      std::vector<Record> all;
      for (RecordId r = 0; r < generated.dataset.num_records(); ++r) {
        all.push_back(generated.dataset.record(r));
      }
      for (int threads : kThreadCounts) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                     std::to_string(threads) + " shape size " +
                     std::to_string(shape.size()));
        AdaptiveLshConfig config = test::EngineOptions(threads, kK).config;
        AdaptiveLsh batch(generated.dataset, generated.rule, config);
        batch.set_cost_model(test::EngineFixedCostModel());
        FilterOutput output = batch.Run(kK);
        EXPECT_EQ(output.clusters.UnionOfTopClusters(kK),
                  truth.TopKRecords(kK));

        const std::vector<RoundRecord>& batch_rounds =
            output.stats.round_records;
        auto expect_rounds_after_h1 =
            [&](const std::vector<RoundRecord>& engine_rounds) {
              ASSERT_EQ(engine_rounds.size() + 1, batch_rounds.size());
              for (size_t i = 0; i < engine_rounds.size(); ++i) {
                const RoundRecord& e = engine_rounds[i];
                const RoundRecord& b = batch_rounds[i + 1];
                EXPECT_EQ(e.cluster_size, b.cluster_size) << "round " << i + 2;
                EXPECT_EQ(e.action, b.action) << "round " << i + 2;
                EXPECT_EQ(e.function_index, b.function_index)
                    << "round " << i + 2;
                EXPECT_EQ(e.hashes_computed, b.hashes_computed)
                    << "round " << i + 2;
                EXPECT_EQ(e.pairwise_similarities, b.pairwise_similarities)
                    << "round " << i + 2;
              }
            };

        ResidentEngine one_batch(generated.rule,
                                 test::EngineOptions(threads, kK));
        auto ingested = one_batch.Ingest(all);
        ASSERT_TRUE(ingested.ok());
        EXPECT_EQ(RankedClusters(one_batch, kK), output.clusters.clusters);
        expect_rounds_after_h1(ingested.value().stats.round_records);

        ShardedEngine::Options sharded;
        sharded.engine = test::EngineOptions(threads, kK);
        sharded.shards = 1;
        auto snap = RunShardedBatch(generated.dataset, generated.rule, sharded);
        ASSERT_TRUE(snap.ok()) << snap.status().ToString();
        expect_rounds_after_h1(snap.value().stats.round_records);
        EXPECT_EQ(snap.value().stats.rounds,
                  snap.value().stats.round_records.size());
      }
    }
  }
}

TEST(EngineEquivalenceTest, CancelledMidBatchConvergesAfterFlush) {
  // A fault-injected Cancel() fired from inside the hashing hot path
  // interrupts the post-ingest refinement. The batch's records must stay
  // ingested, the previous snapshot must stay published, and a later Flush
  // must converge to exactly the from-scratch answer.
  for (uint64_t seed : {3, 11, 17}) {
    GeneratedDataset generated =
        test::MakePlantedDataset({11, 8, 5, 3, 1}, seed);
    for (int threads : kThreadCounts) {
      ResidentEngine engine(generated.rule,
                            test::EngineOptions(threads, /*top_k=*/3));
      const size_t split = generated.dataset.num_records() / 2;
      test::LiveMap live;
      std::vector<Record> first_half;
      for (size_t r = 0; r < split; ++r) {
        first_half.push_back(generated.dataset.record(r));
      }
      auto first = engine.Ingest(std::move(first_half));
      ASSERT_TRUE(first.ok());
      for (size_t i = 0; i < split; ++i) {
        live[first.value().assigned_ids[i]] = i;
      }
      const uint64_t generation_before = engine.Snapshot()->generation;

      std::vector<Record> second_half;
      for (size_t r = split; r < generated.dataset.num_records(); ++r) {
        second_half.push_back(generated.dataset.record(r));
      }
      RunController controller;
      EngineBatchOptions slo;
      slo.controller = &controller;
      {
        FaultInjector injector;
        // The refinement after this ingest must process at least one
        // freshly-opened (producer-0) cluster through a hash round, so the
        // first kHashApply hit always happens and cancellation is
        // deterministic at every thread count.
        injector.CancelAt(FaultSite::kHashApply, 1, &controller);
        ScopedFaultInjector scoped(&injector);
        auto second = engine.Ingest(std::move(second_half), slo);
        ASSERT_TRUE(second.ok());
        EXPECT_EQ(second.value().refinement, TerminationReason::kCancelled);
        EXPECT_EQ(second.value().generation, generation_before);
        for (size_t i = 0; i + split < generated.dataset.num_records(); ++i) {
          live[second.value().assigned_ids[i]] = split + i;
        }
      }
      // The interrupted batch left the previous certified answer in place,
      // and the cancellation is sticky: a mutation under the same
      // controller is refused before it changes anything.
      EXPECT_EQ(engine.Snapshot()->generation, generation_before);
      EXPECT_EQ(engine.Flush(slo).status().code(),
                StatusCode::kFailedPrecondition);

      auto flushed = engine.Flush();
      ASSERT_TRUE(flushed.ok());
      EXPECT_EQ(flushed.value().refinement, TerminationReason::kCompleted);
      EXPECT_GT(flushed.value().generation, generation_before);
      EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()),
                test::ReferenceCanonical(generated.dataset, generated.rule,
                                         live, 3))
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(EngineEquivalenceTest, QueriesDuringIngestSeeOnlyCertifiedSnapshots) {
  // Query threads hammer the read API while the writer runs a full random
  // script. Every observed snapshot must be internally consistent and
  // generations must be monotone per observer — queries never see a
  // half-published state. (This test is the TSan target for the engine.)
  GeneratedDataset generated =
      test::MakePlantedDataset({13, 9, 6, 4, 2, 1}, 19);
  ResidentEngine engine(generated.rule,
                        test::EngineOptions(/*threads=*/2, /*top_k=*/4));
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  auto observer = [&] {
    uint64_t last_generation = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const EngineSnapshot> snap = engine.Snapshot();
      if (snap->generation < last_generation) ++failures;
      last_generation = snap->generation;
      if (snap->verification.size() != snap->clusters.size()) ++failures;
      size_t total_members = 0;
      for (size_t i = 0; i < snap->clusters.size(); ++i) {
        const auto& cluster = snap->clusters[i];
        total_members += cluster.size();
        if (i > 0 && cluster.size() > snap->clusters[i - 1].size()) {
          ++failures;  // canonical order: sizes descending
        }
        for (size_t m = 1; m < cluster.size(); ++m) {
          if (cluster[m - 1] >= cluster[m]) ++failures;  // members ascending
        }
        for (ExternalId member : cluster) {
          auto it = snap->cluster_of.find(member);
          if (it == snap->cluster_of.end() || it->second != i) ++failures;
        }
        auto via_query = engine.Cluster(cluster.front());
        // The engine may have published a newer snapshot in between; the
        // query answer must still be a well-formed cluster, not a torn one.
        if (via_query.ok() && via_query.value().empty()) ++failures;
      }
      // Clusters are disjoint and hold only records live at publication.
      if (total_members > snap->live_records) ++failures;
    }
  };
  std::thread q1(observer);
  std::thread q2(observer);
  test::LiveMap live = test::RunRandomScript(&engine, generated.dataset, 19);
  done.store(true, std::memory_order_release);
  q1.join();
  q2.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(test::CanonicalSnapshot(*engine.Snapshot()),
            test::ReferenceCanonical(generated.dataset, generated.rule, live,
                                     4));
}

}  // namespace
}  // namespace adalsh
