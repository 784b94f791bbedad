// Telemetry-plane contract tests (docs/observability.md): attaching the
// metrics registry / trace recorder to an engine never perturbs its results
// (the byte-identity contracts of engine_equivalence_test and
// shard_equivalence_test hold with telemetry enabled), mutation-lifecycle
// histograms carry exact counts — including under concurrent sharded
// writers, where `engine_batch_wall_seconds` must agree sample-for-sample
// with the `engine_batches` counter — the engine report's serialized key
// order is stable, and the slow-op watchdog's median verdicts behave.

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/function_sequence.h"
#include "engine/engine_report.h"
#include "engine/resident_engine.h"
#include "engine/sharded_executor.h"
#include "engine_harness.h"
#include "obs/metrics_registry.h"
#include "obs/slow_op_watchdog.h"
#include "obs/trace_recorder.h"
#include "test_util.h"

namespace adalsh {
namespace {

GeneratedDataset Workload(uint64_t seed) {
  return test::MakePlantedDataset({9, 7, 5, 3, 2, 1}, seed);
}

TEST(EngineTelemetryTest, TelemetryDoesNotPerturbResidentResults) {
  for (int threads : {1, 2, 8}) {
    GeneratedDataset generated = Workload(11);

    ResidentEngine plain(generated.rule, test::EngineOptions(threads, 4));
    test::RunRandomScript(&plain, generated.dataset, /*seed=*/11);
    const std::string expected = test::CanonicalSnapshot(*plain.Snapshot());

    MetricsRegistry registry;
    TraceRecorder trace;
    ResidentEngine::Options options = test::EngineOptions(threads, 4);
    options.config.instrumentation.metrics = &registry;
    options.config.instrumentation.trace = &trace;
    ResidentEngine instrumented(generated.rule, options);
    test::RunRandomScript(&instrumented, generated.dataset, /*seed=*/11);
    EXPECT_EQ(test::CanonicalSnapshot(*instrumented.Snapshot()), expected)
        << "threads " << threads;
    EXPECT_GT(registry.Snapshot().histograms.count("engine_batch_wall_seconds"),
              0u);
    EXPECT_GT(trace.num_spans(), 0u);
  }
}

TEST(EngineTelemetryTest, TelemetryDoesNotPerturbShardedResults) {
  for (int shards : {1, 2, 4}) {
    GeneratedDataset generated = Workload(7);

    ShardedEngine::Options plain_options;
    plain_options.engine = test::EngineOptions(/*threads=*/2, 4);
    plain_options.shards = shards;
    ShardedEngine plain(generated.rule, plain_options);
    test::RunRandomScript(&plain, generated.dataset, /*seed=*/7);
    ASSERT_TRUE(plain.Flush().ok());
    const std::string expected = test::CanonicalSnapshot(*plain.Snapshot());

    MetricsRegistry registry;
    TraceRecorder trace;
    ShardedEngine::Options options;
    options.engine = test::EngineOptions(/*threads=*/2, 4);
    options.engine.config.instrumentation.metrics = &registry;
    options.engine.config.instrumentation.trace = &trace;
    options.shards = shards;
    ShardedEngine instrumented(generated.rule, options);
    test::RunRandomScript(&instrumented, generated.dataset, /*seed=*/7);
    ASSERT_TRUE(instrumented.Flush().ok());
    EXPECT_EQ(test::CanonicalSnapshot(*instrumented.Snapshot()), expected)
        << "shards " << shards;

    // The flush is timed at every S. At S >= 2 it exposed the merge-phase
    // breakdown, one sample per flush in each phase histogram; at S=1 the
    // shard's snapshot already is global, so no merge phase ran.
    MetricsSnapshot snapshot = registry.Snapshot();
    ASSERT_EQ(snapshot.histograms.count("shard_flush_seconds"), 1u);
    EXPECT_EQ(snapshot.histograms.at("shard_flush_seconds").count(), 1u);
    for (const char* name :
         {"shard_merge_seconds", "shard_merge_gather_seconds",
          "shard_merge_refine_seconds"}) {
      if (shards == 1) {
        EXPECT_EQ(snapshot.histograms.count(name), 0u) << name;
        continue;
      }
      ASSERT_EQ(snapshot.histograms.count(name), 1u) << name;
      EXPECT_EQ(snapshot.histograms.at(name).count(), 1u) << name;
    }
    // Per-shard balance gauges for every shard.
    for (int s = 0; s < shards; ++s) {
      const std::string prefix = "shard" + std::to_string(s);
      EXPECT_EQ(snapshot.gauges.count(prefix + "_live_records"), 1u);
      EXPECT_EQ(snapshot.gauges.count(prefix + "_level1_buckets"), 1u);
    }
  }
}

TEST(EngineTelemetryTest, EngineStepSpansNestInTheirBatch) {
  // The engine's work outside refinement records one span per mutation and
  // step: `engine_arrive`, `engine_reopen`, `engine_remove` and
  // `engine_publish`, each on the mutating thread's lane inside that
  // mutation's `engine_batch` span. Tracing them leaves results unchanged.
  GeneratedDataset generated = Workload(17);
  auto drive = [&generated](ResidentEngine* engine) {
    std::vector<Record> records;
    for (RecordId r = 0; r < generated.dataset.num_records(); ++r) {
      records.push_back(generated.dataset.record(r));
    }
    ASSERT_TRUE(engine->Ingest(std::move(records)).ok());
    // Both targets sit in the largest cluster, so the removal has survivors
    // to re-arrive and the update reopens a component.
    const std::vector<ExternalId> largest =
        engine->Snapshot()->clusters.front();
    ASSERT_GE(largest.size(), 3u);
    ASSERT_TRUE(engine->Remove(std::vector<ExternalId>{largest[0]}).ok());
    ASSERT_TRUE(
        engine->Update(largest[1], generated.dataset.record(0)).ok());
  };

  ResidentEngine plain(generated.rule, test::EngineOptions(2, 4));
  drive(&plain);
  TraceRecorder trace;
  ResidentEngine::Options options = test::EngineOptions(2, 4);
  options.config.instrumentation.trace = &trace;
  ResidentEngine traced(generated.rule, options);
  drive(&traced);
  EXPECT_EQ(test::CanonicalSnapshot(*traced.Snapshot()),
            test::CanonicalSnapshot(*plain.Snapshot()));

  const std::vector<TraceRecorder::SpanRecord> spans = trace.Spans();
  std::vector<TraceRecorder::SpanRecord> batches;
  for (const TraceRecorder::SpanRecord& span : spans) {
    if (span.name == "engine_batch") batches.push_back(span);
  }
  ASSERT_EQ(batches.size(), 3u);
  std::map<std::string, int> count;
  for (const TraceRecorder::SpanRecord& span : spans) {
    if (span.name != "engine_arrive" && span.name != "engine_reopen" &&
        span.name != "engine_remove" && span.name != "engine_publish") {
      continue;
    }
    ++count[span.name];
    int containing = 0;
    for (const TraceRecorder::SpanRecord& batch : batches) {
      constexpr double kSlack = 1e-9;  // rounding of the relative stamps
      containing +=
          batch.lane == span.lane && batch.id < span.id &&
          span.start_seconds >= batch.start_seconds - kSlack &&
          span.start_seconds + span.duration_seconds <=
              batch.start_seconds + batch.duration_seconds + kSlack;
    }
    EXPECT_EQ(containing, 1) << span.name << " span " << span.id;
  }
  EXPECT_EQ(count["engine_arrive"], 2);   // the ingest and the update
  EXPECT_EQ(count["engine_remove"], 2);   // the remove and the update
  EXPECT_EQ(count["engine_reopen"], 3);   // every mutation touched one
  EXPECT_EQ(count["engine_publish"], 3);  // every pass completed
}

TEST(EngineTelemetryTest, ResidentHistogramCountsAreExact) {
  for (int threads : {1, 2, 8}) {
    GeneratedDataset generated = Workload(5);
    MetricsRegistry registry;
    ResidentEngine::Options options = test::EngineOptions(threads, 4);
    options.config.instrumentation.metrics = &registry;
    ResidentEngine engine(generated.rule, options);

    // A hand-counted script: 3 ingests, 1 remove, 1 update, 1 flush.
    std::vector<ExternalId> live;
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<Record> records;
      for (size_t r = 0; r < 6; ++r) {
        records.push_back(generated.dataset.record(
            static_cast<size_t>(batch) * 6 + r));
      }
      auto ingested = engine.Ingest(std::move(records));
      ASSERT_TRUE(ingested.ok());
      live.insert(live.end(), ingested.value().assigned_ids.begin(),
                  ingested.value().assigned_ids.end());
    }
    ASSERT_TRUE(engine.Remove(std::vector<ExternalId>{live[0]}).ok());
    ASSERT_TRUE(engine.Update(live[1], generated.dataset.record(20)).ok());
    ASSERT_TRUE(engine.Flush().ok());

    MetricsSnapshot snapshot = registry.Snapshot();
    EXPECT_EQ(snapshot.histograms.at("engine_batch_wall_seconds").count(), 6u);
    EXPECT_EQ(snapshot.histograms.at("engine_batch_cpu_seconds").count(), 6u);
    EXPECT_EQ(snapshot.histograms.at("engine_lock_wait_seconds").count(), 6u);
    EXPECT_EQ(snapshot.histograms.at("engine_ingest_wall_seconds").count(),
              3u);
    EXPECT_EQ(snapshot.histograms.at("engine_remove_wall_seconds").count(),
              1u);
    EXPECT_EQ(snapshot.histograms.at("engine_update_wall_seconds").count(),
              1u);
    EXPECT_EQ(snapshot.histograms.at("engine_flush_wall_seconds").count(), 1u);
    EXPECT_EQ(snapshot.counters.at("engine_op_ingest"), 3u);
    EXPECT_EQ(snapshot.counters.at("engine_op_remove"), 1u);
    EXPECT_EQ(snapshot.counters.at("engine_op_update"), 1u);
    EXPECT_EQ(snapshot.counters.at("engine_op_flush"), 1u);
    auto counter = [&snapshot](const char* name) -> uint64_t {
      auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0 : it->second;
    };
    EXPECT_EQ(counter("engine_refinements_completed") +
                  counter("engine_refinements_interrupted"),
              6u);
  }
}

TEST(EngineTelemetryTest, HashTableEntriesCountBucketWork) {
  // `hash_table_entries` is the bucket work of the refinement hash passes:
  // each completed hash round puts every record of its cluster into every
  // table of the applied function's plan.
  for (int threads : {1, 8}) {
    GeneratedDataset generated = Workload(13);
    MetricsRegistry registry;
    ResidentEngine::Options options = test::EngineOptions(threads, 4);
    options.config.instrumentation.metrics = &registry;
    ResidentEngine engine(generated.rule, options);
    const FunctionSequence sequence =
        FunctionSequence::Build(generated.rule, generated.dataset.record(0),
                                options.config.sequence)
            .value();

    uint64_t expected = 0;
    size_t hash_rounds = 0;
    auto tally = [&](const StatusOr<EngineMutationResult>& result) {
      ASSERT_TRUE(result.ok());
      for (const RoundRecord& round : result.value().stats.round_records) {
        if (round.action != RoundAction::kHash || round.interrupted) continue;
        expected += round.cluster_size *
                    sequence.plan(round.function_index).tables.size();
        ++hash_rounds;
      }
    };
    std::vector<ExternalId> live;
    for (size_t base = 0; base < generated.dataset.num_records(); base += 9) {
      std::vector<Record> records;
      for (size_t r = base;
           r < std::min(base + 9, generated.dataset.num_records()); ++r) {
        records.push_back(generated.dataset.record(r));
      }
      auto ingested = engine.Ingest(std::move(records));
      tally(ingested);
      live.insert(live.end(), ingested.value().assigned_ids.begin(),
                  ingested.value().assigned_ids.end());
    }
    tally(engine.Remove(std::vector<ExternalId>{live[0], live[9]}));
    tally(engine.Update(live[1], generated.dataset.record(20)));
    tally(engine.Flush());

    ASSERT_GT(hash_rounds, 0u) << "threads " << threads;
    EXPECT_EQ(registry.Snapshot().counters.at("hash_table_entries"), expected)
        << "threads " << threads;
  }
}

// Four concurrent writers against a sharded engine sharing one registry and
// one trace recorder (the TSan configuration the telemetry plane must stay
// clean under). Exactness invariant: every per-shard ApplyBatch bumps the
// `engine_batches` counter and records exactly one `engine_batch_wall_seconds`
// sample, so the two must agree whatever interleaving happened.
TEST(EngineTelemetryTest, ConcurrentShardedWritersKeepExactCounts) {
  GeneratedDataset generated = test::MakePlantedDataset(
      {8, 8, 8, 8, 6, 6, 6, 6}, /*seed=*/21);
  MetricsRegistry registry;
  TraceRecorder trace(/*max_spans=*/4096);
  ShardedEngine::Options options;
  options.engine = test::EngineOptions(/*threads=*/2, 6);
  options.engine.config.instrumentation.metrics = &registry;
  options.engine.config.instrumentation.trace = &trace;
  options.shards = 4;
  ShardedEngine engine(generated.rule, options);

  constexpr int kWriters = 4;
  const size_t total = generated.dataset.num_records();
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&engine, &generated, total, w] {
      // Writer w ingests its strided slice in batches of 4 and removes the
      // first id it was assigned — disjoint id ranges, no cross-writer
      // coordination needed.
      std::vector<ExternalId> mine;
      std::vector<Record> batch;
      for (size_t r = static_cast<size_t>(w); r < total; r += kWriters) {
        batch.push_back(generated.dataset.record(r));
        if (batch.size() == 4) {
          auto ingested = engine.Ingest(std::move(batch));
          ASSERT_TRUE(ingested.ok());
          mine.insert(mine.end(), ingested.value().assigned_ids.begin(),
                      ingested.value().assigned_ids.end());
          batch.clear();
        }
      }
      if (!batch.empty()) {
        auto ingested = engine.Ingest(std::move(batch));
        ASSERT_TRUE(ingested.ok());
        mine.insert(mine.end(), ingested.value().assigned_ids.begin(),
                    ingested.value().assigned_ids.end());
      }
      ASSERT_TRUE(engine.Remove(std::vector<ExternalId>{mine.front()}).ok());
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_TRUE(engine.Flush().ok());

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.histograms.at("engine_batch_wall_seconds").count(),
            snapshot.counters.at("engine_batches"));
  EXPECT_EQ(snapshot.histograms.at("engine_lock_wait_seconds").count(),
            snapshot.counters.at("engine_batches"));
  EXPECT_EQ(engine.counters().live_records,
            total - static_cast<size_t>(kWriters));
  EXPECT_GT(trace.num_spans() + trace.dropped_spans(), 0u);
}

// Golden key-order test for the engine report schema: consumers parse this
// document positionally in shell pipelines (tools/*.sh), so the serialized
// key sequence is a compatibility surface, not an implementation detail.
TEST(EngineTelemetryTest, EngineReportKeyOrderIsStable) {
  GeneratedDataset generated = Workload(3);
  MetricsRegistry registry;
  ShardedEngine::Options options;
  options.engine = test::EngineOptions(/*threads=*/1, 4);
  options.engine.config.instrumentation.metrics = &registry;
  options.shards = 2;
  ShardedEngine engine(generated.rule, options);
  test::RunRandomScript(&engine, generated.dataset, /*seed=*/3);
  ASSERT_TRUE(engine.Flush().ok());

  const MetricsSnapshot snapshot = registry.Snapshot();
  const std::string report = WriteEngineReportJson(engine, &snapshot);
  const std::vector<std::string> ordered_keys = {
      "{\"schema\":\"adalsh-engine-report-v1\"",
      "\"top_k\":",
      "\"shards\":2",
      "\"simd\":{\"dot\":",
      "\"minhash\":",
      "\"counters\":{\"batches\":",
      "\"ingested\":",
      "\"removed\":",
      "\"updated\":",
      "\"arrivals_merged\":",
      "\"refinements_completed\":",
      "\"refinements_interrupted\":",
      "\"generation\":",
      "\"live_records\":",
      "\"internal_records\":",
      "\"level1_buckets\":",
      "\"snapshot_lag_batches\":",
      "\"total_hashes\":",
      "\"total_similarities\":",
      "\"per_shard\":[{\"shard\":0,\"counters\":{\"batches\":",
      "{\"shard\":1,\"counters\":{\"batches\":",
      "\"snapshot\":{\"generation\":",
      "\"cluster_sizes\":[",
      "\"cluster_verification\":[",
      "\"refinement\":{",
      "\"metrics\":{\"counters\":{",
      "\"gauges\":{",
      "\"distributions\":{",
      "\"histograms\":{",
      "\"engine_batch_wall_seconds\":{\"count\":",
      "\"p50\":",
      "\"p90\":",
      "\"p99\":",
      "\"p99_9\":",
      "\"buckets\":[",
      "\"overflow\":",
  };
  size_t pos = 0;
  for (const std::string& key : ordered_keys) {
    const size_t at = report.find(key, pos);
    ASSERT_NE(at, std::string::npos)
        << "missing or out of order: " << key << "\nreport: " << report;
    pos = at + 1;
  }
}

TEST(SlowOpWatchdogTest, FlagsOutliersAgainstTheRunningMedian) {
  std::ostringstream log;
  SlowOpWatchdog::Options options;
  options.factor = 3.0;
  options.min_samples = 4;
  options.window = 8;
  SlowOpWatchdog watchdog(options, &log);

  // Warm-up: below min_samples no verdicts, even for a huge spike.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(watchdog.Observe("ingest", 0.010, /*span_id=*/i + 1));
  }
  EXPECT_FALSE(watchdog.Observe("ingest", 1.0, /*span_id=*/4));
  EXPECT_EQ(watchdog.slow_ops(), 0u);
  EXPECT_TRUE(log.str().empty());

  // History is now {10ms x3, 1s}: median ~10ms, so 25ms is not slow (2.5x)
  // but 50ms is (5x). The verdict line carries the op and the span id.
  EXPECT_FALSE(watchdog.Observe("ingest", 0.025, /*span_id=*/5));
  EXPECT_TRUE(watchdog.Observe("ingest", 0.050, /*span_id=*/6));
  EXPECT_EQ(watchdog.slow_ops(), 1u);
  EXPECT_NE(log.str().find("slow ingest"), std::string::npos);
  EXPECT_NE(log.str().find("span_id=6"), std::string::npos);

  // Ops have independent histories: a fresh op starts its own warm-up.
  EXPECT_FALSE(watchdog.Observe("flush", 0.050, /*span_id=*/7));
}

TEST(SlowOpWatchdogTest, FactorZeroDisablesEverything) {
  std::ostringstream log;
  SlowOpWatchdog watchdog(SlowOpWatchdog::Options{}, &log);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(watchdog.Observe("ingest", i == 49 ? 100.0 : 0.001, i));
  }
  EXPECT_EQ(watchdog.slow_ops(), 0u);
  EXPECT_TRUE(log.str().empty());
}

TEST(SlowOpWatchdogTest, SlowSamplesMoveTheMedian) {
  std::ostringstream log;
  SlowOpWatchdog::Options options;
  options.factor = 2.0;
  options.min_samples = 2;
  options.window = 4;
  SlowOpWatchdog watchdog(options, &log);
  watchdog.Observe("op", 0.010, 1);
  watchdog.Observe("op", 0.010, 2);
  // A durable regime change: the first slow observations page, but as they
  // fill the bounded window the median follows and the paging stops.
  EXPECT_TRUE(watchdog.Observe("op", 0.100, 3));
  watchdog.Observe("op", 0.100, 4);
  watchdog.Observe("op", 0.100, 5);
  watchdog.Observe("op", 0.100, 6);
  EXPECT_FALSE(watchdog.Observe("op", 0.100, 7));
}

}  // namespace
}  // namespace adalsh
