#include "engine/resident_engine.h"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine_report.h"
#include "engine/sharded_executor.h"
#include "engine_harness.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/run_controller.h"

namespace adalsh {
namespace {

std::vector<Record> CopyRecords(const Dataset& dataset, size_t begin,
                                size_t end) {
  std::vector<Record> records;
  for (size_t r = begin; r < end; ++r) records.push_back(dataset.record(r));
  return records;
}

std::vector<Record> AllRecords(const Dataset& dataset) {
  return CopyRecords(dataset, 0, dataset.num_records());
}

TEST(ResidentEngineTest, SingleBatchIngestMatchesGroundTruth) {
  GeneratedDataset generated = test::MakePlantedDataset({12, 8, 5, 2, 1}, 5);
  ResidentEngine engine(generated.rule, test::EngineOptions(1, /*top_k=*/3));
  auto result = engine.Ingest(AllRecords(generated.dataset));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().refinement, TerminationReason::kCompleted);
  EXPECT_EQ(result.value().generation, 1u);
  // Ids are assigned in record order, so external id == source record id.
  std::vector<ExternalId> ids = result.value().assigned_ids;
  ASSERT_EQ(ids.size(), generated.dataset.num_records());
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);

  auto top = engine.TopK(3);
  ASSERT_TRUE(top.ok());
  std::vector<RecordId> flat;
  for (const auto& cluster : top.value()) {
    for (ExternalId member : cluster) {
      flat.push_back(static_cast<RecordId>(member));
    }
  }
  std::sort(flat.begin(), flat.end());
  EXPECT_EQ(flat, generated.dataset.BuildGroundTruth().TopKRecords(3));

  // A pass with no new arrivals reuses every verification: it computes no
  // hashes, runs no round and republishes the same top-k.
  auto flushed = engine.Flush();
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed.value().stats.hashes_computed, 0u);
  EXPECT_EQ(flushed.value().stats.pairwise_similarities, 0u);
  EXPECT_EQ(flushed.value().stats.rounds, 0u);
  EXPECT_EQ(engine.TopK(3).value(), top.value());
}

TEST(ResidentEngineTest, EmptyEngineServesGenerationZero) {
  GeneratedDataset generated = test::MakePlantedDataset({3, 2}, 1);
  ResidentEngine engine(generated.rule, test::EngineOptions(1, 2));
  std::shared_ptr<const EngineSnapshot> snap = engine.Snapshot();
  EXPECT_EQ(snap->generation, 0u);
  EXPECT_EQ(snap->live_records, 0u);
  EXPECT_TRUE(snap->clusters.empty());
  auto top = engine.TopK(2);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(top.value().empty());
  EXPECT_EQ(engine.Cluster(0).status().code(), StatusCode::kNotFound);
  // Empty mutations are valid and still count as batches.
  EXPECT_TRUE(engine.Flush().ok());
  EXPECT_TRUE(engine.Ingest({}).ok());
  EXPECT_EQ(engine.counters().batches, 2u);
}

TEST(ResidentEngineTest, ValidatesMutationsBeforeApplyingThem) {
  GeneratedDataset generated = test::MakePlantedDataset({4, 3}, 2);
  ResidentEngine engine(generated.rule, test::EngineOptions(1, 2));
  ASSERT_TRUE(engine.Ingest(AllRecords(generated.dataset)).ok());

  // Schema drift: a second dense field the engine's schema does not have.
  std::vector<Field> fields;
  fields.push_back(Field::TokenSet({1, 2, 3}));
  fields.push_back(Field::DenseVector({0.5f}));
  auto bad = engine.Ingest({Record(std::move(fields))});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Caller-assigned ids: a repeated id or an id that is already live
  // rejects the whole batch.
  EXPECT_EQ(engine
                .IngestWithIds(CopyRecords(generated.dataset, 0, 2),
                               std::vector<ExternalId>{50, 50})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine
                .IngestWithIds(CopyRecords(generated.dataset, 0, 2),
                               std::vector<ExternalId>{1, 50})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.counters().ingested, generated.dataset.num_records());

  // Remove: unknown id, then a duplicate — both all-or-nothing.
  EXPECT_EQ(engine.Remove(std::vector<ExternalId>{99}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.Remove(std::vector<ExternalId>{1, 1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.counters().removed, 0u);

  EXPECT_EQ(
      engine.Update(99, generated.dataset.record(0)).status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(engine.TopK(0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.counters().live_records,
            generated.dataset.num_records());
}

TEST(ResidentEngineTest, AmbientStickyCancelRejectsMutations) {
  GeneratedDataset generated = test::MakePlantedDataset({3, 2}, 3);
  RunController controller;
  ResidentEngine::Options options = test::EngineOptions(1, 2);
  options.config.controller = &controller;
  ResidentEngine engine(generated.rule, options);
  ASSERT_TRUE(engine.Ingest(CopyRecords(generated.dataset, 0, 3)).ok());
  controller.Cancel();
  EXPECT_EQ(
      engine.Ingest(CopyRecords(generated.dataset, 3, 5)).status().code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Flush().status().code(),
            StatusCode::kFailedPrecondition);
  // A per-request controller overrides the ambient one and works again.
  RunController fresh;
  EngineBatchOptions slo;
  slo.controller = &fresh;
  EXPECT_TRUE(engine.Ingest(CopyRecords(generated.dataset, 3, 5), slo).ok());
  EXPECT_EQ(engine.counters().ingested, 5u);
}

TEST(ResidentEngineTest, UpdateKeepsExternalIdStable) {
  // Entities: 0 -> records 0..5, 1 -> records 6..9. Updating one record of
  // the small entity to the big entity's contents moves it between clusters
  // while its external id stays put.
  GeneratedDataset generated = test::MakePlantedDataset({6, 4}, 7);
  ResidentEngine engine(generated.rule, test::EngineOptions(1, 2));
  ASSERT_TRUE(engine.Ingest(AllRecords(generated.dataset)).ok());
  auto before = engine.Cluster(6);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().size(), 4u);

  auto updated = engine.Update(6, generated.dataset.record(0));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated.value().assigned_ids, std::vector<ExternalId>{6});
  auto after = engine.Cluster(6);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().size(), 7u);
  EXPECT_TRUE(std::find(after.value().begin(), after.value().end(), 0u) !=
              after.value().end());
  EXPECT_EQ(engine.counters().updated, 1u);
  EXPECT_EQ(engine.counters().live_records, 10u);
}

TEST(ResidentEngineTest, RemoveAllRecordsPublishesEmptySnapshot) {
  GeneratedDataset generated = test::MakePlantedDataset({4, 2}, 9);
  ResidentEngine engine(generated.rule, test::EngineOptions(1, 2));
  auto result = engine.Ingest(AllRecords(generated.dataset));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(engine.Remove(result.value().assigned_ids).ok());
  std::shared_ptr<const EngineSnapshot> snap = engine.Snapshot();
  EXPECT_EQ(snap->live_records, 0u);
  EXPECT_TRUE(snap->clusters.empty());
  EXPECT_GT(snap->generation, result.value().generation);
  EXPECT_EQ(engine.Cluster(0).status().code(), StatusCode::kNotFound);
  // The ids are retired for good; re-ingesting assigns fresh ones.
  auto again = engine.Ingest(CopyRecords(generated.dataset, 0, 2));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().assigned_ids[0], 6u);
}

TEST(ResidentEngineTest, TopKTruncatesToTheMaintainedK) {
  GeneratedDataset generated = test::MakePlantedDataset({5, 4, 3, 2}, 11);
  ResidentEngine engine(generated.rule, test::EngineOptions(1, /*top_k=*/2));
  ASSERT_TRUE(engine.Ingest(AllRecords(generated.dataset)).ok());
  auto top = engine.TopK(10);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value().size(), 2u);
  EXPECT_EQ(top.value()[0].size(), 5u);
  EXPECT_EQ(top.value()[1].size(), 4u);
  // A record of a below-top-k cluster is in no snapshot cluster.
  EXPECT_EQ(engine.Cluster(13).status().code(), StatusCode::kNotFound);
}

// Satellite: snapshot isolation. A query holding a snapshot taken before a
// mutation is never affected by it — even a Remove of the very records the
// snapshot's top cluster lists. (engine_equivalence_test.cc exercises the
// racing flavor; under TSan both prove the read path is unsynchronized with
// mutations only through the atomic snapshot swap.)
TEST(ResidentEngineTest, SnapshotIsolationSurvivesRemovalOfItsMembers) {
  GeneratedDataset generated = test::MakePlantedDataset({8, 5, 2}, 13);
  ResidentEngine engine(generated.rule, test::EngineOptions(2, 2));
  ASSERT_TRUE(engine.Ingest(AllRecords(generated.dataset)).ok());

  std::shared_ptr<const EngineSnapshot> held = engine.Snapshot();
  ASSERT_FALSE(held->clusters.empty());
  const std::vector<ExternalId> doomed = held->clusters[0];
  const uint64_t held_generation = held->generation;

  // Concurrent readers of the held snapshot while the removal runs.
  std::thread reader([&] {
    for (int i = 0; i < 1000; ++i) {
      if (held->clusters[0] != doomed) std::abort();
    }
  });
  ASSERT_TRUE(engine.Remove(doomed).ok());
  reader.join();

  // The held snapshot is immutable: same generation, same members.
  EXPECT_EQ(held->generation, held_generation);
  EXPECT_EQ(held->clusters[0], doomed);
  EXPECT_EQ(held->live_records, generated.dataset.num_records());
  // The engine has moved on: new generation, no trace of the removed ids.
  std::shared_ptr<const EngineSnapshot> now = engine.Snapshot();
  EXPECT_GT(now->generation, held_generation);
  EXPECT_EQ(now->live_records, generated.dataset.num_records() - 8);
  EXPECT_EQ(engine.Cluster(doomed[0]).status().code(),
            StatusCode::kNotFound);
}

// Satellite: SLO enforcement via budget. A hash budget of 1 stops the
// refinement pass after its first hash round at every thread count; the
// batch's records stay ingested but the engine keeps serving the previous
// generation until a Flush certifies them. Each budgeted pass gets a fresh
// window (armed at the engine's cumulative totals) and keeps the rounds it
// completed, so repeated budgeted flushes converge too.
TEST(ResidentEngineTest, HashBudgetSloLeavesPreviousGenerationServing) {
  GeneratedDataset generated = test::MakePlantedDataset({9, 6, 3}, 15);
  for (int threads : {1, 2, 8}) {
    ResidentEngine engine(generated.rule, test::EngineOptions(threads, 2));
    ASSERT_TRUE(engine.Ingest(CopyRecords(generated.dataset, 0, 12)).ok());
    const uint64_t generation_before = engine.Snapshot()->generation;
    const auto top_before = engine.TopK(2);
    ASSERT_TRUE(top_before.ok());

    EngineBatchOptions slo;
    slo.budget.max_hashes = 1;
    auto strict = engine.Ingest(
        CopyRecords(generated.dataset, 12, generated.dataset.num_records()),
        slo);
    ASSERT_TRUE(strict.ok());
    EXPECT_EQ(strict.value().refinement,
              TerminationReason::kBudgetExhausted);
    EXPECT_EQ(strict.value().generation, generation_before);
    // Queries still see the previous certified answer, not a partial one.
    EXPECT_EQ(engine.Snapshot()->generation, generation_before);
    auto top_after = engine.TopK(2);
    ASSERT_TRUE(top_after.ok());
    EXPECT_EQ(top_after.value(), top_before.value());

    int budgeted_passes = 1;
    while (engine.Snapshot()->generation == generation_before &&
           budgeted_passes < 200) {
      auto budgeted = engine.Flush(slo);
      ASSERT_TRUE(budgeted.ok());
      ++budgeted_passes;
    }
    EXPECT_GT(engine.Snapshot()->generation, generation_before)
        << "budgeted flushes did not converge";
    EXPECT_GT(budgeted_passes, 2);

    auto flushed = engine.Flush();
    ASSERT_TRUE(flushed.ok());
    EXPECT_EQ(flushed.value().refinement, TerminationReason::kCompleted);
    EXPECT_GT(flushed.value().generation, generation_before);
    EXPECT_EQ(engine.Snapshot()->live_records,
              generated.dataset.num_records());
  }
}

// Satellite: SLO enforcement via deadline, made deterministic by injected
// latency at the hashing fault site (the same sites the robustness suite
// uses): the first hash round sleeps far past the deadline, so the pass
// reliably stops with kDeadline.
TEST(ResidentEngineTest, DeadlineSloInterruptsViaInjectedLatency) {
  GeneratedDataset generated = test::MakePlantedDataset({7, 5, 2}, 17);
  ResidentEngine engine(generated.rule, test::EngineOptions(2, 2));
  ASSERT_TRUE(engine.Ingest(CopyRecords(generated.dataset, 0, 9)).ok());
  const uint64_t generation_before = engine.Snapshot()->generation;

  FaultInjector injector;
  injector.InjectLatency(FaultSite::kHashApply, 20000);
  injector.InjectLatency(FaultSite::kPairwiseTile, 20000);
  {
    ScopedFaultInjector scoped(&injector);
    EngineBatchOptions slo;
    slo.budget.deadline_ms = 1;
    auto slow = engine.Ingest(
        CopyRecords(generated.dataset, 9, generated.dataset.num_records()),
        slo);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(slow.value().refinement, TerminationReason::kDeadline);
    EXPECT_EQ(slow.value().generation, generation_before);
  }
  EXPECT_EQ(engine.Snapshot()->generation, generation_before);

  auto flushed = engine.Flush();
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed.value().refinement, TerminationReason::kCompleted);
  EXPECT_GT(engine.Snapshot()->generation, generation_before);
}

TEST(ResidentEngineTest, CountersTrackTheWholeLife) {
  GeneratedDataset generated = test::MakePlantedDataset({5, 3, 1}, 21);
  ResidentEngine engine(generated.rule, test::EngineOptions(1, 2));
  auto first = engine.Ingest(CopyRecords(generated.dataset, 0, 6));
  ASSERT_TRUE(first.ok());
  // Record 5 is the first arrival of entity 1: a verified singleton.
  EXPECT_EQ(engine.Cluster(5).value(), std::vector<ExternalId>{5});
  ASSERT_TRUE(
      engine.Ingest(CopyRecords(generated.dataset, 6,
                                generated.dataset.num_records()))
          .ok());
  // Its entity's later arrivals reopen the verified cluster, and the pass
  // re-certifies it with its new members.
  EXPECT_EQ(engine.Cluster(5).value(), (std::vector<ExternalId>{5, 6, 7}));
  EXPECT_GE(engine.counters().arrivals_merged, 2u);
  ASSERT_TRUE(engine.Remove(std::vector<ExternalId>{0, 8}).ok());
  ASSERT_TRUE(engine.Update(1, generated.dataset.record(7)).ok());
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.batches, 4u);
  EXPECT_EQ(counters.ingested, 10u);  // 9 ingests + 1 update re-ingest
  EXPECT_EQ(counters.removed, 3u);    // 2 removals + 1 update removal
  EXPECT_EQ(counters.updated, 1u);
  EXPECT_EQ(counters.live_records, 7u);
  EXPECT_EQ(counters.internal_records, 10u);
  EXPECT_EQ(counters.refinements_completed, 4u);
  EXPECT_EQ(counters.refinements_interrupted, 0u);
  EXPECT_EQ(counters.generation, engine.Snapshot()->generation);
  EXPECT_GT(counters.total_hashes, 0u);
}

TEST(ResidentEngineTest, EngineReportCarriesSchemaCountersAndSnapshot) {
  GeneratedDataset generated = test::MakePlantedDataset({4, 2}, 23);
  ResidentEngine engine(generated.rule, test::EngineOptions(1, 2));
  ASSERT_TRUE(engine.Ingest(AllRecords(generated.dataset)).ok());
  const std::string report = WriteEngineReportJson(engine);
  for (const char* needle :
       {"\"schema\":\"adalsh-engine-report-v1\"", "\"counters\"",
        "\"ingested\":6", "\"snapshot\"", "\"generation\":1",
        "\"cluster_sizes\":[4,2]", "\"refinement\"",
        "\"termination_reason\":\"completed\""}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle << "\n"
                                                      << report;
  }
}

TEST(ResidentEngineDeathTest, EnginesRefuseAblationConfigs) {
  // Only AdaptiveLsh::Run honors the ablation knobs; both engines refuse a
  // non-default value at construction instead of silently ignoring it.
  GeneratedDataset generated = test::MakePlantedDataset({3, 2}, 25);
  auto ablated = [](int which) {
    ResidentEngine::Options options = test::EngineOptions(1, 2);
    if (which == 0) options.config.selection = SelectionStrategy::kRandom;
    if (which == 1) options.config.jump_model = JumpModel::kSampledPurity;
    if (which == 2) options.config.ablate_incremental_reuse = true;
    return options;
  };
  for (int which = 0; which < 3; ++which) {
    EXPECT_DEATH(ResidentEngine(generated.rule, ablated(which)),
                 "canonical Largest-First");
    ShardedEngine::Options sharded;
    sharded.shards = 2;
    sharded.engine = ablated(which);
    EXPECT_DEATH(ShardedEngine(generated.rule, sharded),
                 "canonical Largest-First");
  }
}

}  // namespace
}  // namespace adalsh
