#include "obs/observer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive_lsh.h"
#include "core/lsh_blocking.h"
#include "core/pairs_baseline.h"
#include "engine/resident_engine.h"
#include "engine_harness.h"
#include "test_util.h"

namespace adalsh {
namespace {

/// Records the full event sequence for golden checks against FilterStats.
class RecordingObserver : public Observer {
 public:
  struct Event {
    enum Kind { kRoundStart, kRoundEnd, kFunction, kPairwise } kind;
    size_t round = 0;  // kRoundStart/kRoundEnd only
  };

  void OnRoundStart(const RoundStartInfo& info) override {
    events.push_back({Event::kRoundStart, info.round});
    starts.push_back(info);
  }
  void OnRoundEnd(const RoundRecord& record) override {
    events.push_back({Event::kRoundEnd, record.round});
    ends.push_back(record);
  }
  void OnFunctionApplied(const FunctionApplyInfo& info) override {
    events.push_back({Event::kFunction});
    functions.push_back(info);
  }
  void OnPairwiseBatch(const PairwiseBatchInfo& info) override {
    events.push_back({Event::kPairwise});
    batches.push_back(info);
  }

  std::vector<Event> events;
  std::vector<RoundStartInfo> starts;
  std::vector<RoundRecord> ends;
  std::vector<FunctionApplyInfo> functions;
  std::vector<PairwiseBatchInfo> batches;
};

// The ordering contract of obs/observer.h: every round is a
// Start ... (Function|Pairwise)* ... End bracket, never interleaved.
void ExpectWellBracketed(const RecordingObserver& observer) {
  bool in_round = false;
  size_t current = 0;
  for (const auto& event : observer.events) {
    switch (event.kind) {
      case RecordingObserver::Event::kRoundStart:
        EXPECT_FALSE(in_round) << "nested OnRoundStart";
        in_round = true;
        current = event.round;
        break;
      case RecordingObserver::Event::kRoundEnd:
        EXPECT_TRUE(in_round) << "OnRoundEnd without start";
        EXPECT_EQ(event.round, current);
        in_round = false;
        break;
      case RecordingObserver::Event::kFunction:
      case RecordingObserver::Event::kPairwise:
        // Calibration probes may fire outside rounds; stage events from the
        // refinement loop are inside one.
        break;
    }
  }
  EXPECT_FALSE(in_round) << "unclosed round";
}

// The golden check: the observer's round sequence is exactly
// FilterStats::round_records.
void ExpectMatchesStats(const RecordingObserver& observer,
                        const FilterStats& stats) {
  EXPECT_EQ(stats.rounds, stats.round_records.size());
  ASSERT_EQ(observer.starts.size(), stats.rounds);
  ASSERT_EQ(observer.ends.size(), stats.rounds);
  for (size_t i = 0; i < stats.rounds; ++i) {
    const RoundRecord& expected = stats.round_records[i];
    EXPECT_EQ(expected.round, i + 1);
    EXPECT_EQ(observer.starts[i].round, expected.round);
    EXPECT_EQ(observer.starts[i].cluster_size, expected.cluster_size);
    const RoundRecord& seen = observer.ends[i];
    EXPECT_EQ(seen.round, expected.round);
    EXPECT_EQ(seen.action, expected.action);
    EXPECT_EQ(seen.function_index, expected.function_index);
    EXPECT_EQ(seen.cluster_size, expected.cluster_size);
    EXPECT_EQ(seen.hashes_computed, expected.hashes_computed);
    EXPECT_EQ(seen.pairwise_similarities, expected.pairwise_similarities);
    EXPECT_DOUBLE_EQ(seen.wall_seconds, expected.wall_seconds);
    EXPECT_DOUBLE_EQ(seen.modeled_cost, expected.modeled_cost);
  }
}

TEST(ObserverTest, AdaptiveLshSequenceMatchesStats) {
  GeneratedDataset generated =
      test::MakePlantedDataset({25, 15, 8, 3, 1, 1}, 21);
  RecordingObserver observer;
  AdaptiveLshConfig config;
  config.sequence.max_budget = 640;
  config.calibration_samples = 30;
  config.seed = 3;
  config.instrumentation.observer = &observer;
  AdaptiveLsh adalsh(generated.dataset, generated.rule, config);
  FilterOutput output = adalsh.Run(3);

  ExpectWellBracketed(observer);
  ExpectMatchesStats(observer, output.stats);

  // The first round is the whole-dataset H_1 pass.
  ASSERT_FALSE(observer.starts.empty());
  EXPECT_EQ(observer.starts[0].producer, -1);
  EXPECT_EQ(observer.starts[0].cluster_size,
            generated.dataset.num_records());

  // Stage events account for all work: function hashes sum to the run's
  // hash total, pairwise batches to its similarity count (conservative jump
  // model: no sampling probes).
  uint64_t hashes = 0;
  for (const auto& info : observer.functions) hashes += info.hashes_computed;
  EXPECT_EQ(hashes, output.stats.hashes_computed);
  uint64_t sims = 0;
  for (const auto& info : observer.batches) sims += info.similarities;
  EXPECT_EQ(sims, output.stats.pairwise_similarities);
}

TEST(ObserverTest, LshBlockingSequenceMatchesStats) {
  GeneratedDataset generated = test::MakePlantedDataset({20, 10, 4, 1}, 23);
  RecordingObserver observer;
  LshBlockingConfig config;
  config.num_hashes = 320;
  config.seed = 3;
  config.instrumentation.observer = &observer;
  LshBlocking blocking(generated.dataset, generated.rule, config);
  FilterOutput output = blocking.Run(3);

  ExpectWellBracketed(observer);
  ExpectMatchesStats(observer, output.stats);

  // Round 1 hashes, every later round verifies with P.
  ASSERT_GE(observer.ends.size(), 1u);
  EXPECT_EQ(observer.ends[0].action, RoundAction::kHash);
  for (size_t i = 1; i < observer.ends.size(); ++i) {
    EXPECT_EQ(observer.ends[i].action, RoundAction::kPairwise);
  }
}

TEST(ObserverTest, PairsBaselineSequenceMatchesStats) {
  GeneratedDataset generated = test::MakePlantedDataset({12, 6, 2}, 25);
  RecordingObserver observer;
  Instrumentation instr;
  instr.observer = &observer;
  PairsBaseline pairs(generated.dataset, generated.rule, /*threads=*/1,
                      instr);
  FilterOutput output = pairs.Run(2);

  ExpectWellBracketed(observer);
  ExpectMatchesStats(observer, output.stats);
  ASSERT_EQ(observer.ends.size(), 1u);
  EXPECT_EQ(observer.ends[0].action, RoundAction::kPairwise);
  EXPECT_EQ(observer.ends[0].cluster_size, generated.dataset.num_records());
  ASSERT_EQ(observer.batches.size(), 1u);
  EXPECT_EQ(observer.batches[0].similarities,
            output.stats.pairwise_similarities);
}

TEST(ObserverTest, ResidentEngineSequenceMatchesStats) {
  // Each mutation's refinement pass brackets its own rounds: the observer
  // sees exactly the pass's round_records, in order, batch after batch.
  GeneratedDataset generated = test::MakePlantedDataset({18, 9, 4, 1}, 27);
  RecordingObserver observer;
  ResidentEngine::Options options = test::EngineOptions(/*threads=*/1, 2);
  options.config.instrumentation.observer = &observer;
  ResidentEngine engine(generated.rule, options);
  const size_t half = generated.dataset.num_records() / 2;
  for (auto [begin, end] : {std::pair<size_t, size_t>{0, half},
                            {half, generated.dataset.num_records()}}) {
    observer.events.clear();
    observer.starts.clear();
    observer.ends.clear();
    std::vector<Record> records;
    for (size_t r = begin; r < end; ++r) {
      records.push_back(generated.dataset.record(r));
    }
    StatusOr<EngineMutationResult> result = engine.Ingest(std::move(records));
    ASSERT_TRUE(result.ok());
    ExpectWellBracketed(observer);
    ExpectMatchesStats(observer, result.value().stats);
  }
}

}  // namespace
}  // namespace adalsh
