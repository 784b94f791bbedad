// Differential crash-recovery coverage for the durable engine
// (docs/durability.md): reopening a data directory after an abrupt close must
// converge to state byte-identical to the from-scratch reference — across
// seeds, thread counts and shard counts, with and without checkpoints, and
// with torn or bit-flipped log tails, and reopened at another shard count.
// Also the failure semantics: permanent WAL errors degrade the engine to
// read-only without crashing, replay faults fail Open gracefully, and a
// non-empty per-shard log of the retired layout is refused. The storage
// layer's own unit tests live in wal_test.cc; the process-level kill-point
// matrix is tools/crash_smoke.sh.

#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/durability.h"
#include "engine/engine_report.h"
#include "io/checkpoint.h"
#include "io/wal.h"
#include "util/fault_injection.h"
#include "util/run_controller.h"
#include "engine_harness.h"
#include "test_util.h"

namespace adalsh {
namespace {

/// mkdtemp-backed data directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/adalsh_recovery_test_XXXXXX";
    char* made = ::mkdtemp(buf);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

DurableEngine::Options DurableOptions(
    int shards, int threads, int top_k, std::string dir,
    WalSyncPolicy sync = WalSyncPolicy::kNone, uint64_t checkpoint_every_n = 0,
    uint64_t seed = 3) {
  DurableEngine::Options options;
  options.engine = test::EngineOptions(threads, top_k, seed);
  options.shards = shards;
  options.data_dir = std::move(dir);
  options.sync = sync;
  options.checkpoint_every_n = checkpoint_every_n;
  return options;
}

std::vector<size_t> SizesForSeed(uint64_t seed) {
  std::vector<size_t> sizes = {12, 9, 7, 5, 3, 2, 1};
  sizes[seed % sizes.size()] += seed % 4;
  if (seed % 3 == 0) sizes.push_back(1);
  return sizes;
}

/// Records `first..first+count` of `dataset` as a fresh ingest batch.
std::vector<Record> Slice(const Dataset& dataset, size_t first, size_t count) {
  std::vector<Record> records;
  for (size_t i = 0; i < count; ++i) records.push_back(dataset.record(first + i));
  return records;
}

/// Writes `frames` as the data directory's log, replacing any previous one.
void WriteLog(const TempDir& dir, const std::vector<WalFrame>& frames) {
  std::ofstream out(dir.file("wal-0.log"), std::ios::binary | std::ios::trunc);
  for (const WalFrame& frame : frames) out << EncodeWalFrame(frame);
}

/// Every `wal-*` file name in `dir`.
std::vector<std::string> WalFiles(const TempDir& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) names.push_back(name);
  }
  return names;
}

/// One-line recovery summary for failure messages.
std::string StatsDebug(const DurabilityStats& stats) {
  std::string out = "checkpoint_loaded=" +
                    std::to_string(stats.checkpoint_loaded) +
                    " checkpoint_seq=" + std::to_string(stats.checkpoint_seq) +
                    " frames_replayed=" + std::to_string(stats.frames_replayed) +
                    " frames_discarded=" +
                    std::to_string(stats.frames_discarded) +
                    " replay_apply_failures=" +
                    std::to_string(stats.replay_apply_failures) +
                    " log_truncated=" + std::to_string(stats.log_truncated);
  for (const std::string& warning : stats.recovery_warnings) {
    out += "\n  warning: " + warning;
  }
  return out;
}

TEST(WalRecoveryTest, FreshDirectoryOpensEmptyAndServes) {
  TempDir dir;
  auto engine = DurableEngine::Open(MatchRule::Leaf(0, 0.5),
                                    DurableOptions(1, 1, 3, dir.path()));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const DurabilityStats stats = engine.value()->durability_stats();
  EXPECT_FALSE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.frames_replayed, 0u);
  EXPECT_FALSE(stats.log_truncated);
  EXPECT_FALSE(engine.value()->degraded());
  EXPECT_EQ(engine.value()->counters().live_records, 0u);

  GeneratedDataset generated = test::MakePlantedDataset({3}, 3);
  auto ingested = engine.value()->Ingest(Slice(generated.dataset, 0, 3));
  ASSERT_TRUE(ingested.ok());
  EXPECT_EQ(engine.value()->counters().live_records, 3u);
  EXPECT_GT(engine.value()->durability_stats().wal_frames_appended, 0u);
}

// A per-call budget the engines refuse (a deadline the clock cannot hold) is
// refused before its mutation is logged, so replay never meets a frame the
// live engine did not apply.
TEST(WalRecoveryTest, RefusedBudgetNeverReachesTheLog) {
  TempDir dir;
  auto opened = DurableEngine::Open(MatchRule::Leaf(0, 0.5),
                                    DurableOptions(1, 1, 3, dir.path()));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DurableEngine& engine = *opened.value();
  GeneratedDataset generated = test::MakePlantedDataset({3}, 3);
  EngineBatchOptions slo;
  slo.budget.deadline_ms = 1e300;
  EXPECT_EQ(engine.Ingest(Slice(generated.dataset, 0, 3), slo).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.durability_stats().wal_frames_appended, 0u);
  ASSERT_TRUE(engine.Ingest(Slice(generated.dataset, 0, 3)).ok());
  const uint64_t frames = engine.durability_stats().wal_frames_appended;
  EXPECT_EQ(engine.Remove(std::vector<ExternalId>{0}, slo).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Update(0, generated.dataset.record(0), slo).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Flush(slo).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.durability_stats().wal_frames_appended, frames);
  EXPECT_EQ(engine.counters().live_records, 3u);
}

// A sticky-cancelled controller, per call or ambient, refuses every
// mutation before it is logged, at every shard count: a reopen without the
// controller replays exactly what the live engine applied.
TEST(WalRecoveryTest, StickyCancelRefusesMutationsBeforeTheLog) {
  GeneratedDataset generated = test::MakePlantedDataset({4, 3, 2}, 13);
  for (int shards : {1, 2}) {
    for (bool ambient : {false, true}) {
      SCOPED_TRACE("shards " + std::to_string(shards) +
                   (ambient ? " ambient" : " per call"));
      TempDir dir;
      const DurableEngine::Options options =
          DurableOptions(shards, 1, 3, dir.path());
      uint64_t ingested = 0;
      std::string snapshot;
      {
        RunController controller;
        DurableEngine::Options live_options = options;
        if (ambient) live_options.engine.config.controller = &controller;
        auto opened = DurableEngine::Open(generated.rule, live_options);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        DurableEngine& engine = *opened.value();
        ASSERT_TRUE(engine.Ingest(Slice(generated.dataset, 0, 6)).ok());
        ASSERT_TRUE(engine.Remove(std::vector<ExternalId>{1}).ok());
        ASSERT_TRUE(engine.Update(2, generated.dataset.record(6)).ok());
        ASSERT_TRUE(engine.Flush().ok());
        const uint64_t frames = engine.durability_stats().wal_frames_appended;

        controller.Cancel();
        EngineBatchOptions slo;
        if (!ambient) slo.controller = &controller;
        EXPECT_EQ(
            engine.Ingest(Slice(generated.dataset, 7, 2), slo).status().code(),
            StatusCode::kFailedPrecondition);
        EXPECT_EQ(
            engine.Remove(std::vector<ExternalId>{0}, slo).status().code(),
            StatusCode::kFailedPrecondition);
        EXPECT_EQ(
            engine.Update(3, generated.dataset.record(8), slo).status().code(),
            StatusCode::kFailedPrecondition);
        EXPECT_EQ(engine.Flush(slo).status().code(),
                  StatusCode::kFailedPrecondition);
        EXPECT_EQ(engine.durability_stats().wal_frames_appended, frames);
        ingested = engine.counters().ingested;
        snapshot = test::CanonicalSnapshot(*engine.Snapshot());
      }
      auto reopened = DurableEngine::Open(generated.rule, options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      const DurabilityStats stats = reopened.value()->durability_stats();
      EXPECT_EQ(stats.replay_apply_failures, 0u) << StatsDebug(stats);
      ASSERT_TRUE(reopened.value()->Flush().ok());
      EXPECT_EQ(reopened.value()->counters().ingested, ingested);
      EXPECT_EQ(test::CanonicalSnapshot(*reopened.value()->Snapshot()),
                snapshot);
    }
  }
}

// A first batch the rule cannot hash (Leaf(1, ...) over one-field records)
// is refused before it is logged and fixes no schema: the next batch, with
// the field the rule reads, is accepted, and a reopen replays that one
// frame cleanly.
TEST(WalRecoveryTest, UnhashableFirstBatchNeverReachesTheLog) {
  const MatchRule rule = MatchRule::Leaf(1, 0.5);
  GeneratedDataset generated = test::MakePlantedDataset({4, 3}, 17);
  std::vector<Record> two_fields;
  for (RecordId r = 0; r < generated.dataset.num_records(); ++r) {
    const Field& field = generated.dataset.record(r).field(0);
    two_fields.push_back(Record({field, field}));
  }
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    TempDir dir;
    {
      auto opened =
          DurableEngine::Open(rule, DurableOptions(shards, 1, 3, dir.path()));
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      DurableEngine& engine = *opened.value();
      EXPECT_EQ(engine.Ingest(Slice(generated.dataset, 0, 3)).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(engine.durability_stats().wal_frames_appended, 0u);
      auto accepted = engine.Ingest(two_fields);
      ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
      EXPECT_EQ(engine.durability_stats().wal_frames_appended, 1u);
    }
    auto reopened =
        DurableEngine::Open(rule, DurableOptions(shards, 1, 3, dir.path()));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const DurabilityStats stats = reopened.value()->durability_stats();
    EXPECT_EQ(stats.frames_replayed, 1u) << StatsDebug(stats);
    EXPECT_EQ(stats.replay_apply_failures, 0u) << StatsDebug(stats);
    ASSERT_TRUE(reopened.value()->Flush().ok());
    EXPECT_EQ(reopened.value()->counters().live_records, two_fields.size());
  }
}

// The acceptance sweep: a randomized mutation history against the durable
// engine, an abrupt close (no flush, no checkpoint), and a reopen at the next
// shard count (1->2, 2->4, 4->1) must yield a canonical snapshot
// byte-identical to the from-scratch reference — for every (shards, threads)
// combination on every seed. The reopened engine replays the WAL through the
// same confluence contract the differential harness certifies, so any
// divergence is a durability bug, not noise.
TEST(WalRecoveryTest, RecoveredEngineMatchesReferenceAcrossSeedsThreadsShards) {
  constexpr int kShardCounts[] = {1, 2, 4};
  constexpr int kThreadCounts[] = {1, 2, 8};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    GeneratedDataset generated =
        test::MakePlantedDataset(SizesForSeed(seed), seed);
    std::string reference;
    test::LiveMap live;
    bool have_reference = false;
    for (int shards : kShardCounts) {
      for (int threads : kThreadCounts) {
        TempDir dir;
        {
          auto engine = DurableEngine::Open(
              generated.rule,
              DurableOptions(shards, threads, 4, dir.path(),
                             WalSyncPolicy::kNone, /*checkpoint_every_n=*/0,
                             seed));
          ASSERT_TRUE(engine.ok()) << engine.status().ToString();
          test::LiveMap ran = test::RunRandomScript(engine.value().get(),
                                                    generated.dataset, seed);
          if (!have_reference) {
            live = std::move(ran);
            reference = test::ReferenceCanonical(generated.dataset,
                                                 generated.rule, live, 4);
            have_reference = true;
          } else {
            // The script is a pure function of (seed, dataset, knobs);
            // every engine shape must walk the identical id history.
            ASSERT_EQ(ran, live) << "seed " << seed;
          }
        }  // abrupt close: nothing flushed or checkpointed

        const int reopen_shards = shards == 4 ? 1 : 2 * shards;
        auto recovered = DurableEngine::Open(
            generated.rule,
            DurableOptions(reopen_shards, threads, 4, dir.path(),
                           WalSyncPolicy::kNone, /*checkpoint_every_n=*/0,
                           seed));
        ASSERT_TRUE(recovered.ok())
            << "seed " << seed << " shards " << shards << "->"
            << reopen_shards << " threads " << threads << ": "
            << recovered.status().ToString();
        const DurabilityStats stats = recovered.value()->durability_stats();
        EXPECT_FALSE(stats.checkpoint_loaded);
        EXPECT_GT(stats.frames_replayed, 0u);
        EXPECT_EQ(stats.replay_apply_failures, 0u);
        ASSERT_TRUE(recovered.value()->Flush().ok());
        EXPECT_EQ(test::CanonicalSnapshot(*recovered.value()->Snapshot()),
                  reference)
            << "seed " << seed << " shards " << shards << "->"
            << reopen_shards << " threads " << threads;
      }
    }
  }
}

TEST(WalRecoveryTest, ExplicitCheckpointTruncatesLogsAndSeedsRecovery) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset(SizesForSeed(7), 7);
  test::LiveMap live;
  {
    auto engine = DurableEngine::Open(generated.rule,
                                      DurableOptions(4, 2, 4, dir.path()));
    ASSERT_TRUE(engine.ok());
    live = test::RunRandomScript(engine.value().get(), generated.dataset, 7);
    ASSERT_TRUE(engine.value()->Checkpoint().ok());
    EXPECT_EQ(engine.value()->durability_stats().checkpoints_written, 1u);
    // The checkpoint superseded every logged frame. One log at S=4 too.
    EXPECT_EQ(std::filesystem::file_size(dir.file("wal-0.log")), 0u);
    EXPECT_EQ(WalFiles(dir), std::vector<std::string>{"wal-0.log"});
  }
  auto recovered = DurableEngine::Open(generated.rule,
                                       DurableOptions(4, 2, 4, dir.path()));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const DurabilityStats stats = recovered.value()->durability_stats();
  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_GT(stats.checkpoint_seq, 0u);
  EXPECT_EQ(stats.frames_replayed, 0u);
  ASSERT_TRUE(recovered.value()->Flush().ok());
  EXPECT_EQ(test::CanonicalSnapshot(*recovered.value()->Snapshot()),
            test::ReferenceCanonical(generated.dataset, generated.rule, live,
                                     4));
}

TEST(WalRecoveryTest, CheckpointPlusLogTailReplayMatchesReference) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset(SizesForSeed(11), 11);
  test::LiveMap live;
  {
    auto engine = DurableEngine::Open(generated.rule,
                                      DurableOptions(4, 2, 4, dir.path()));
    ASSERT_TRUE(engine.ok());
    live = test::RunRandomScript(engine.value().get(), generated.dataset, 11);
    ASSERT_TRUE(engine.value()->Checkpoint().ok());
    // Post-checkpoint tail: remove one live id, then the abrupt close.
    const ExternalId victim = live.begin()->first;
    std::vector<ExternalId> ids = {victim};
    ASSERT_TRUE(engine.value()->Remove(ids).ok());
    live.erase(victim);
  }
  auto recovered = DurableEngine::Open(generated.rule,
                                       DurableOptions(4, 2, 4, dir.path()));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const DurabilityStats stats = recovered.value()->durability_stats();
  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.frames_replayed, 1u);  // exactly the tail remove
  ASSERT_TRUE(recovered.value()->Flush().ok());
  EXPECT_EQ(test::CanonicalSnapshot(*recovered.value()->Snapshot()),
            test::ReferenceCanonical(generated.dataset, generated.rule, live,
                                     4));
}

TEST(WalRecoveryTest, AutomaticCheckpointEveryNMutations) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset({8}, 5);
  {
    auto engine = DurableEngine::Open(
        generated.rule, DurableOptions(1, 1, 3, dir.path(),
                                       WalSyncPolicy::kBatch,
                                       /*checkpoint_every_n=*/3));
    ASSERT_TRUE(engine.ok());
    for (size_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(engine.value()->Ingest(Slice(generated.dataset, i, 1)).ok());
    }
    EXPECT_GE(engine.value()->durability_stats().checkpoints_written, 2u);
  }
  auto recovered = DurableEngine::Open(
      generated.rule, DurableOptions(1, 1, 3, dir.path(),
                                     WalSyncPolicy::kBatch,
                                     /*checkpoint_every_n=*/3));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value()->durability_stats().checkpoint_loaded);
  EXPECT_EQ(recovered.value()->counters().live_records, 8u);
}

TEST(WalRecoveryTest, ReopenedSessionsContinueIdAndSeqSpaces) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset({12}, 9);
  {
    auto engine = DurableEngine::Open(generated.rule,
                                      DurableOptions(1, 1, 3, dir.path()));
    ASSERT_TRUE(engine.ok());
    auto ingested = engine.value()->Ingest(Slice(generated.dataset, 0, 5));
    ASSERT_TRUE(ingested.ok());
    EXPECT_EQ(ingested.value().assigned_ids.back(), 4u);
  }
  {
    auto engine = DurableEngine::Open(generated.rule,
                                      DurableOptions(1, 1, 3, dir.path()));
    ASSERT_TRUE(engine.ok());
    // External ids must continue past the recovered history, never reuse.
    auto ingested = engine.value()->Ingest(Slice(generated.dataset, 5, 5));
    ASSERT_TRUE(ingested.ok());
    EXPECT_EQ(ingested.value().assigned_ids.front(), 5u);
    std::vector<ExternalId> ids = {2};
    ASSERT_TRUE(engine.value()->Remove(ids).ok());
  }
  auto engine = DurableEngine::Open(generated.rule,
                                    DurableOptions(1, 1, 3, dir.path()));
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->counters().live_records, 9u);
  auto cluster = engine.value()->Cluster(9);
  EXPECT_TRUE(cluster.ok());
}

TEST(WalRecoveryTest, IdCounterPassesTheCheckpointsLiveIds) {
  // A checkpoint whose id counter lags its live ids (0, 1 and 2 live,
  // next_external_id 0) must not hand out a live id: the first ingest gets
  // id 3, and its frame replays cleanly on the next open.
  GeneratedDataset generated = test::MakePlantedDataset({2, 1, 1}, 29);
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    TempDir dir;
    CheckpointData data;
    data.last_seq = 4;
    data.next_external_id = 0;
    data.shards = static_cast<uint32_t>(shards);
    for (ExternalId id = 0; id < 3; ++id) {
      data.ids.push_back(id);
      data.records.push_back(generated.dataset.record(id));
    }
    ASSERT_TRUE(WriteCheckpoint(dir.path(), data).ok());
    {
      auto engine = DurableEngine::Open(
          generated.rule, DurableOptions(shards, 1, 3, dir.path()));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      auto ingested = engine.value()->Ingest(Slice(generated.dataset, 3, 1));
      ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
      EXPECT_EQ(ingested.value().assigned_ids, std::vector<ExternalId>{3});
    }
    auto engine = DurableEngine::Open(generated.rule,
                                      DurableOptions(shards, 1, 3, dir.path()));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const DurabilityStats stats = engine.value()->durability_stats();
    EXPECT_EQ(stats.frames_replayed, 1u) << StatsDebug(stats);
    EXPECT_EQ(stats.replay_apply_failures, 0u) << StatsDebug(stats);
    ASSERT_TRUE(engine.value()->Flush().ok());
    EXPECT_EQ(engine.value()->counters().live_records, 4u);
  }
}

TEST(WalRecoveryTest, GarbageTailIsTruncatedWithoutLosingMutations) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset(SizesForSeed(4), 4);
  test::LiveMap live;
  {
    auto engine = DurableEngine::Open(generated.rule,
                                      DurableOptions(1, 2, 4, dir.path()));
    ASSERT_TRUE(engine.ok());
    live = test::RunRandomScript(engine.value().get(), generated.dataset, 4);
  }
  // Torn bytes after the last complete frame: the post-crash shape when the
  // process died mid-append. Recovery keeps every acked mutation.
  {
    std::ofstream out(dir.file("wal-0.log"),
                      std::ios::binary | std::ios::app);
    out << "torn tail bytes that are not a frame";
  }
  auto recovered = DurableEngine::Open(generated.rule,
                                       DurableOptions(1, 2, 4, dir.path()));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const DurabilityStats stats = recovered.value()->durability_stats();
  EXPECT_TRUE(stats.log_truncated);
  ASSERT_FALSE(stats.recovery_warnings.empty());
  EXPECT_NE(stats.recovery_warnings[0].find("invalid frame"),
            std::string::npos);
  ASSERT_TRUE(recovered.value()->Flush().ok());
  EXPECT_EQ(test::CanonicalSnapshot(*recovered.value()->Snapshot()),
            test::ReferenceCanonical(generated.dataset, generated.rule, live,
                                     4));
}

TEST(WalRecoveryTest, BitFlippedTailDropsOnlyTheDamagedSuffix) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset({8}, 6);
  {
    auto engine = DurableEngine::Open(generated.rule,
                                      DurableOptions(1, 1, 3, dir.path()));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine.value()->Ingest(Slice(generated.dataset, 0, 3)).ok());
    ASSERT_TRUE(engine.value()->Ingest(Slice(generated.dataset, 3, 2)).ok());
  }
  // Flip the last byte on disk: the second ingest's frame fails its CRC, the
  // first survives untouched.
  const std::string path = dir.file("wal-0.log");
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    ASSERT_GT(size, 0);
    file.seekg(size - 1);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(size - 1);
    file.write(&byte, 1);
  }
  auto recovered = DurableEngine::Open(generated.rule,
                                       DurableOptions(1, 1, 3, dir.path()));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const DurabilityStats stats = recovered.value()->durability_stats();
  EXPECT_TRUE(stats.log_truncated);
  EXPECT_EQ(stats.frames_replayed, 1u);
  EXPECT_EQ(recovered.value()->counters().live_records, 3u);
}

TEST(WalRecoveryTest, EmptyIngestFrameReplaysAsAnEmptyIngest) {
  // The engine never logs an empty batch, but a CRC-valid one must replay
  // as an empty ingest and advance no id counter.
  TempDir dir;
  WalFrame empty;
  empty.type = WalFrameType::kIngest;
  empty.seq = 1;
  WriteLog(dir, {empty});
  GeneratedDataset generated = test::MakePlantedDataset({3}, 3);
  {
    auto engine = DurableEngine::Open(generated.rule,
                                      DurableOptions(2, 1, 3, dir.path()));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const DurabilityStats stats = engine.value()->durability_stats();
    EXPECT_EQ(stats.frames_replayed, 1u) << StatsDebug(stats);
    EXPECT_EQ(stats.replay_apply_failures, 0u) << StatsDebug(stats);
    auto ingested = engine.value()->Ingest(Slice(generated.dataset, 0, 3));
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    EXPECT_EQ(ingested.value().assigned_ids,
              (std::vector<ExternalId>{0, 1, 2}));
  }
  auto reopened = DurableEngine::Open(generated.rule,
                                      DurableOptions(1, 1, 3, dir.path()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->durability_stats().frames_replayed, 2u);
  EXPECT_EQ(reopened.value()->counters().live_records, 3u);
}

TEST(WalRecoveryTest, MultiPartFrameEndsReplayablePrefix) {
  // Only the retired per-shard layout wrote frames with parts != 1; their
  // other parts lived in logs this layout does not read. Such a frame ends
  // the replayable prefix and is truncated with everything after it.
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset({4}, 5);
  WalFrame first;
  first.type = WalFrameType::kIngest;
  first.seq = 1;
  first.ids = {0, 1};
  first.records = Slice(generated.dataset, 0, 2);
  WalFrame split = first;
  split.seq = 2;
  split.parts = 2;
  split.ids = {2};
  split.records = Slice(generated.dataset, 2, 1);
  WalFrame flush;
  flush.seq = 3;
  WriteLog(dir, {first, split, flush});

  auto engine = DurableEngine::Open(generated.rule,
                                    DurableOptions(1, 1, 3, dir.path()));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const DurabilityStats stats = engine.value()->durability_stats();
  EXPECT_EQ(stats.frames_replayed, 1u) << StatsDebug(stats);
  EXPECT_EQ(stats.frames_discarded, 2u) << StatsDebug(stats);
  ASSERT_EQ(stats.recovery_warnings.size(), 1u) << StatsDebug(stats);
  EXPECT_NE(stats.recovery_warnings[0].find("2 parts"), std::string::npos);
  EXPECT_EQ(engine.value()->counters().live_records, 2u);
  EXPECT_EQ(std::filesystem::file_size(dir.file("wal-0.log")),
            EncodeWalFrame(first).size());
}

TEST(WalRecoveryTest, PermanentAppendFailureDegradesToReadOnly) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset({6}, 8);
  auto engine = DurableEngine::Open(generated.rule,
                                    DurableOptions(1, 1, 3, dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->Ingest(Slice(generated.dataset, 0, 4)).ok());

  {
    FaultInjector injector;
    injector.FailAt(FaultSite::kWalAppend, 1,
                    Status::FailedPrecondition("injected dead disk"),
                    /*repeat=*/0);
    ScopedFaultInjector installed(&injector);
    auto ingested = engine.value()->Ingest(Slice(generated.dataset, 4, 2));
    ASSERT_FALSE(ingested.ok());
    EXPECT_EQ(ingested.status().code(), StatusCode::kFailedPrecondition);
  }

  // Degradation is sticky (the log's committed offset can no longer be
  // trusted to advance) and never crashes: mutations fail fast, queries keep
  // serving the last applied state.
  EXPECT_TRUE(engine.value()->degraded());
  EXPECT_TRUE(engine.value()->durability_stats().wal_degraded);
  std::vector<ExternalId> ids = {0};
  EXPECT_EQ(engine.value()->Remove(ids).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.value()->Flush().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.value()->Checkpoint().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.value()->counters().live_records, 4u);
  auto topk = engine.value()->TopK(2);
  EXPECT_TRUE(topk.ok());
}

TEST(WalRecoveryTest, PermanentSyncFailureUnderAlwaysDegrades) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset({6}, 8);
  auto engine = DurableEngine::Open(
      generated.rule,
      DurableOptions(1, 1, 3, dir.path(), WalSyncPolicy::kAlways));
  ASSERT_TRUE(engine.ok());

  FaultInjector injector;
  injector.FailAt(FaultSite::kWalSync, 1,
                  Status::FailedPrecondition("injected fsync dead"),
                  /*repeat=*/0);
  ScopedFaultInjector installed(&injector);
  EXPECT_FALSE(engine.value()->Ingest(Slice(generated.dataset, 0, 2)).ok());
  EXPECT_TRUE(engine.value()->degraded());
}

TEST(WalRecoveryTest, TransientSyncFailureIsRetriedInvisibly) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset({6}, 8);
  auto engine = DurableEngine::Open(
      generated.rule,
      DurableOptions(1, 1, 3, dir.path(), WalSyncPolicy::kAlways));
  ASSERT_TRUE(engine.ok());

  FaultInjector injector;
  injector.FailAt(FaultSite::kWalSync, 1,
                  Status::FailedPrecondition("injected fsync EIO"),
                  /*repeat=*/2);
  ScopedFaultInjector installed(&injector);
  ASSERT_TRUE(engine.value()->Ingest(Slice(generated.dataset, 0, 2)).ok());
  EXPECT_FALSE(engine.value()->degraded());
  EXPECT_EQ(engine.value()->durability_stats().wal_sync_retries, 2u);
}

TEST(WalRecoveryTest, ReplayFaultFailsOpenGracefully) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset({6}, 8);
  {
    auto engine = DurableEngine::Open(generated.rule,
                                      DurableOptions(1, 1, 3, dir.path()));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine.value()->Ingest(Slice(generated.dataset, 0, 3)).ok());
  }
  FaultInjector injector;
  injector.FailAt(FaultSite::kRecoveryReplay, 1,
                  Status::FailedPrecondition("injected replay error"));
  ScopedFaultInjector installed(&injector);
  auto recovered = DurableEngine::Open(generated.rule,
                                       DurableOptions(1, 1, 3, dir.path()));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WalRecoveryTest, CheckpointAndLogTailReopenAtAnyShardCount) {
  // Neither the checkpoint nor the log depends on the shard count: an S=4
  // directory with a checkpoint and a log tail reopens at S=1 and at S=2
  // with the reference state.
  GeneratedDataset generated = test::MakePlantedDataset(SizesForSeed(2), 2);
  for (int reopen_shards : {1, 2}) {
    SCOPED_TRACE("reopen at shards=" + std::to_string(reopen_shards));
    TempDir dir;
    test::LiveMap live;
    {
      auto engine = DurableEngine::Open(generated.rule,
                                        DurableOptions(4, 1, 4, dir.path()));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      live = test::RunRandomScript(engine.value().get(), generated.dataset, 2);
      ASSERT_TRUE(engine.value()->Checkpoint().ok());
      // Log tail: a remove, an update and an ingest.
      std::vector<ExternalId> removed = {live.begin()->first};
      ASSERT_TRUE(engine.value()->Remove(removed).ok());
      live.erase(removed[0]);
      const ExternalId updated = live.rbegin()->first;
      ASSERT_TRUE(engine.value()
                      ->Update(updated, generated.dataset.record(0))
                      .ok());
      live[updated] = 0;
      auto ingested = engine.value()->Ingest(Slice(generated.dataset, 1, 1));
      ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
      live[ingested.value().assigned_ids[0]] = 1;
    }
    auto reopened = DurableEngine::Open(
        generated.rule, DurableOptions(reopen_shards, 1, 4, dir.path()));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const DurabilityStats stats = reopened.value()->durability_stats();
    EXPECT_TRUE(stats.checkpoint_loaded) << StatsDebug(stats);
    EXPECT_EQ(stats.frames_replayed, 3u) << StatsDebug(stats);
    EXPECT_EQ(stats.replay_apply_failures, 0u) << StatsDebug(stats);
    ASSERT_TRUE(reopened.value()->Flush().ok());
    EXPECT_EQ(test::CanonicalSnapshot(*reopened.value()->Snapshot()),
              test::ReferenceCanonical(generated.dataset, generated.rule, live,
                                       4));
  }
}

TEST(WalRecoveryTest, NonEmptyPerShardLogIsRefused) {
  // Only the retired per-shard layout wrote wal-<digits>.log besides
  // wal-0.log; a non-empty one holds mutations no replay reads. The long
  // name must not be parsed as a number.
  for (const char* name : {"wal-1.log", "wal-99999999999.log"}) {
    SCOPED_TRACE(name);
    TempDir dir;
    {
      std::ofstream out(dir.file(name), std::ios::binary);
      out << "frames of another shard";
    }
    auto opened = DurableEngine::Open(MatchRule::Leaf(0, 0.5),
                                      DurableOptions(1, 1, 3, dir.path()));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(opened.status().message().find(name), std::string::npos)
        << opened.status().ToString();
  }
  // An empty one is what an older build's checkpoint leaves behind.
  TempDir dir;
  std::ofstream(dir.file("wal-3.log")).close();
  auto opened = DurableEngine::Open(MatchRule::Leaf(0, 0.5),
                                    DurableOptions(2, 1, 3, dir.path()));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
}

TEST(WalRecoveryTest, ShardCountZeroCheckpointOpensAtOneShard) {
  // Checkpoints written before the single-engine shape was folded into S=1
  // record shards=0. Their directories have the one-log layout, so they
  // reopen with the live set intact.
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset({4, 3, 1}, 13);
  CheckpointData data;
  data.last_seq = 5;
  data.shards = 0;
  test::LiveMap live;
  for (size_t r = 0; r < generated.dataset.num_records(); ++r) {
    const ExternalId id = 2 * r;  // sparse, as after removals
    data.ids.push_back(id);
    data.records.push_back(generated.dataset.record(r));
    live[id] = r;
  }
  data.next_external_id = data.ids.back() + 1;
  ASSERT_TRUE(WriteCheckpoint(dir.path(), data).ok());

  auto opened = DurableEngine::Open(generated.rule,
                                    DurableOptions(1, 1, 3, dir.path()));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DurabilityStats stats = opened.value()->durability_stats();
  EXPECT_TRUE(stats.checkpoint_loaded);
  EXPECT_EQ(stats.checkpoint_seq, 5u);
  EXPECT_EQ(test::CanonicalSnapshot(*opened.value()->Snapshot()),
            test::ReferenceCanonical(generated.dataset, generated.rule, live,
                                     3));
  auto ingested = opened.value()->Ingest(Slice(generated.dataset, 0, 1));
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(ingested.value().assigned_ids.front(), data.next_external_id);
}

TEST(WalRecoveryTest, ShardCountZeroIsRefused) {
  TempDir dir;
  auto opened = DurableEngine::Open(MatchRule::Leaf(0, 0.5),
                                    DurableOptions(0, 1, 3, dir.path()));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalRecoveryTest, EngineReportCarriesDurabilityPlane) {
  TempDir dir;
  GeneratedDataset generated = test::MakePlantedDataset({5}, 3);
  auto engine = DurableEngine::Open(generated.rule,
                                    DurableOptions(1, 1, 3, dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->Ingest(Slice(generated.dataset, 0, 5)).ok());
  const std::string report = WriteEngineReportJson(*engine.value());
  EXPECT_NE(report.find("\"durability\""), std::string::npos);
  EXPECT_NE(report.find("\"wal_frames_appended\""), std::string::npos);
  EXPECT_NE(report.find("\"wal_degraded\":false"), std::string::npos);
  EXPECT_NE(report.find("\"recovery\""), std::string::npos);
}

}  // namespace
}  // namespace adalsh
