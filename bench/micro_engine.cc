// Micro-benchmarks for the resident engine (docs/engine.md), written as a
// JSON baseline (BENCH_engine.json) so perf regressions are diffable:
//
//   * ingest: streaming a Cora-like workload through ResidentEngine::Ingest
//     at several batch sizes — small batches pay a refinement pass per
//     batch, large batches amortize it, and the spread is the price of
//     freshness the engine's incremental caches are supposed to bound;
//   * one_shot: the same records in a single batch (the from-scratch
//     filter's work shape), the reference point for the streaming overhead;
//   * mutations: remove/update round-trips on a resident population, each
//     of which dismantles and re-refines a level-1 component;
//   * queries: TopK/Cluster served from the published snapshot — these ride
//     the read path only and should be orders of magnitude above mutations;
//   * sharded: the same concurrent multi-writer update load against the
//     sharded engine at several shard counts, S=1 being the single mutation
//     lock — the A/B for the sharded executor's claim that partitioning the
//     mutation lock buys writer throughput. Reported with
//     the summed per-mutation lock wait so the contention that disappears
//     is visible, not just inferred;
//   * durability: the streamed ingest through the durable engine at each
//     WAL sync policy (none/batch/always) against the in-memory baseline —
//     what write-ahead logging costs at each point of the durability dial
//     (docs/durability.md).
//
// Flags:
//   --out=PATH   where to write the JSON document (default
//                BENCH_engine.json in the working directory)
//   --smoke      tiny workloads and time budgets; used by the engine_bench_smoke
//                ctest target to validate the schema, not to measure

#include <cstdlib>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/cora_like.h"
#include "engine/durability.h"
#include "engine/resident_engine.h"
#include "engine/sharded_executor.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace adalsh {
namespace {

ResidentEngine::Options EngineOptions() {
  ResidentEngine::Options options;
  options.config.seed = 3;
  options.config.sequence.max_budget = 640;
  options.top_k = 10;
  // Pinned unit costs: the baseline must not move with calibration noise.
  options.cost_model = CostModel(1e-8, 1e-6);
  return options;
}

std::vector<Record> CopyRecords(const Dataset& dataset, size_t begin,
                                size_t end) {
  std::vector<Record> records;
  records.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) records.push_back(dataset.record(i));
  return records;
}

/// W concurrent writers, each updating its own disjoint slice of the live
/// ids (index mod W) with random replacement records. Returns wall seconds
/// and the lock wait summed over every mutation — at S=1 the wait is the
/// single-lock queue; at S >= 2 writers only collide when their ids share a
/// shard.
void RunMultiWriterUpdates(ShardedEngine* engine, const Dataset& dataset,
                           const std::vector<ExternalId>& live,
                           size_t writers, size_t rounds, double* seconds,
                           double* lock_wait_seconds) {
  std::vector<double> waits(writers, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(writers);
  Timer timer;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([engine, &dataset, &live, writers, rounds, &waits,
                          w] {
      Rng rng(DeriveSeed(bench::kDataSeed, 0x3a4d + w));
      std::vector<ExternalId> mine;
      for (size_t i = w; i < live.size(); i += writers) {
        mine.push_back(live[i]);
      }
      double wait = 0;
      for (size_t r = 0; r < rounds; ++r) {
        const ExternalId id = mine[r % mine.size()];
        StatusOr<EngineMutationResult> updated = engine->Update(
            id, dataset.record(rng.NextBelow(dataset.num_records())));
        ADALSH_CHECK(updated.ok()) << updated.status().message();
        wait += updated.value().lock_wait_seconds;
      }
      waits[w] = wait;
    });
  }
  for (std::thread& t : threads) t.join();
  *seconds = timer.ElapsedSeconds();
  *lock_wait_seconds = 0;
  for (double w : waits) *lock_wait_seconds += w;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string out = flags.GetString("out", "BENCH_engine.json");
  const bool smoke = flags.GetBool("smoke", false);
  flags.CheckNoUnusedFlags();

  CoraLikeConfig config;
  config.num_entities = smoke ? 12 : 100;
  config.num_records = smoke ? 60 : 600;
  config.seed = bench::kDataSeed;
  GeneratedDataset workload = GenerateCoraLike(config);
  const size_t n = workload.dataset.num_records();

  bench::JsonWriter json;
  json.BeginObject()
      .Key("benchmark")
      .String("micro_engine")
      .Key("smoke")
      .Bool(smoke)
      .Key("records")
      .Uint(n);

  // --- Streaming ingest at several batch sizes. ---
  json.Key("ingest").BeginArray();
  double streamed_full_seconds = 0;
  for (size_t batch : {size_t{4}, size_t{32}, n}) {
    ResidentEngine engine(workload.rule, EngineOptions());
    Timer timer;
    for (size_t begin = 0; begin < n; begin += batch) {
      const size_t end = std::min(begin + batch, n);
      StatusOr<EngineMutationResult> result =
          engine.Ingest(CopyRecords(workload.dataset, begin, end));
      ADALSH_CHECK(result.ok()) << result.status().message();
    }
    const double seconds = timer.ElapsedSeconds();
    if (batch == 4) streamed_full_seconds = seconds;
    json.BeginObject()
        .Key("batch")
        .Uint(batch)
        .Key("seconds")
        .Double(seconds)
        .Key("records_per_second")
        .Double(static_cast<double>(n) / seconds)
        .Key("generations")
        .Uint(engine.counters().generation)
        .Key("total_hashes")
        .Uint(engine.counters().total_hashes)
        .EndObject();
  }
  json.EndArray();

  // --- One-shot reference: the whole workload in a single batch, timed
  // against the batch=4 streamed run. The ratio is the cost of keeping the
  // top-k continuously certified instead of filtering once at the end. ---
  {
    ResidentEngine engine(workload.rule, EngineOptions());
    Timer timer;
    StatusOr<EngineMutationResult> result =
        engine.Ingest(CopyRecords(workload.dataset, 0, n));
    ADALSH_CHECK(result.ok()) << result.status().message();
    const double seconds = timer.ElapsedSeconds();
    json.Key("one_shot")
        .BeginObject()
        .Key("seconds")
        .Double(seconds)
        .Key("records_per_second")
        .Double(static_cast<double>(n) / seconds)
        .Key("streamed_over_one_shot")
        .Double(seconds > 0 ? streamed_full_seconds / seconds : 0.0)
        .EndObject();
  }

  // --- Mutations and queries against a resident population. ---
  ResidentEngine engine(workload.rule, EngineOptions());
  StatusOr<EngineMutationResult> seeded =
      engine.Ingest(CopyRecords(workload.dataset, 0, n));
  ADALSH_CHECK(seeded.ok()) << seeded.status().message();
  std::vector<ExternalId> live = seeded.value().assigned_ids;

  Rng rng(bench::kDataSeed);
  const size_t mutation_rounds = smoke ? 8 : 64;
  Timer timer;
  for (size_t i = 0; i < mutation_rounds; ++i) {
    const size_t victim = rng.NextBelow(live.size());
    const ExternalId id = live[victim];
    StatusOr<EngineMutationResult> removed =
        engine.Remove(std::vector<ExternalId>{id});
    ADALSH_CHECK(removed.ok()) << removed.status().message();
    live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
  }
  const double remove_seconds = timer.ElapsedSeconds();

  timer.Reset();
  for (size_t i = 0; i < mutation_rounds; ++i) {
    const ExternalId id = live[rng.NextBelow(live.size())];
    StatusOr<EngineMutationResult> updated =
        engine.Update(id, workload.dataset.record(rng.NextBelow(n)));
    ADALSH_CHECK(updated.ok()) << updated.status().message();
  }
  const double update_seconds = timer.ElapsedSeconds();

  json.Key("mutations")
      .BeginObject()
      .Key("rounds")
      .Uint(mutation_rounds)
      .Key("removes_per_second")
      .Double(static_cast<double>(mutation_rounds) / remove_seconds)
      .Key("updates_per_second")
      .Double(static_cast<double>(mutation_rounds) / update_seconds)
      .EndObject();

  const size_t query_rounds = smoke ? 1000 : 100000;
  const ExternalId probe = engine.Snapshot()->clusters.empty()
                               ? 0
                               : engine.Snapshot()->clusters[0][0];
  timer.Reset();
  uint64_t topk_members = 0;
  for (size_t i = 0; i < query_rounds; ++i) {
    StatusOr<std::vector<std::vector<ExternalId>>> top = engine.TopK(10);
    ADALSH_CHECK(top.ok()) << top.status().message();
    topk_members += top.value().size();
  }
  const double topk_seconds = timer.ElapsedSeconds();

  timer.Reset();
  uint64_t cluster_hits = 0;
  for (size_t i = 0; i < query_rounds; ++i) {
    cluster_hits += engine.Cluster(probe).ok();
  }
  const double cluster_seconds = timer.ElapsedSeconds();

  json.Key("queries")
      .BeginObject()
      .Key("rounds")
      .Uint(query_rounds)
      .Key("topk_per_second")
      .Double(static_cast<double>(query_rounds) / topk_seconds)
      .Key("cluster_per_second")
      .Double(static_cast<double>(query_rounds) / cluster_seconds)
      .Key("topk_clusters_seen")
      .Uint(topk_members)
      .Key("cluster_hits")
      .Uint(cluster_hits)
      .EndObject();

  // --- Sharded multi-writer A/B (docs/sharding.md). shards=1 is the single
  // mutation lock under the identical load. ---
  {
    const size_t writers = smoke ? 2 : 4;
    const size_t writer_rounds = smoke ? 4 : 48;
    json.Key("sharded").BeginObject().Key("writers").Uint(writers).Key(
        "rounds_per_writer").Uint(writer_rounds);
    json.Key("sweep").BeginArray();
    for (int shards : {1, 2, 4, 8}) {
      double seconds = 0;
      double lock_wait_seconds = 0;
      ShardedEngine::Options options;
      options.engine = EngineOptions();
      options.shards = shards;
      ShardedEngine ab(workload.rule, options);
      StatusOr<EngineMutationResult> loaded =
          ab.Ingest(CopyRecords(workload.dataset, 0, n));
      ADALSH_CHECK(loaded.ok()) << loaded.status().message();
      RunMultiWriterUpdates(&ab, workload.dataset, loaded.value().assigned_ids,
                            writers, writer_rounds, &seconds,
                            &lock_wait_seconds);
      StatusOr<EngineMutationResult> flushed = ab.Flush();
      ADALSH_CHECK(flushed.ok()) << flushed.status().message();
      const uint64_t total_hashes = ab.counters().total_hashes;
      const double ops = static_cast<double>(writers * writer_rounds);
      json.BeginObject()
          .Key("shards")
          .Int(shards)
          .Key("updates_per_second")
          .Double(seconds > 0 ? ops / seconds : 0.0)
          .Key("lock_wait_seconds")
          .Double(lock_wait_seconds)
          .Key("total_hashes")
          .Uint(total_hashes)
          .EndObject();
    }
    json.EndArray().EndObject();
  }

  // --- Durability overhead (docs/durability.md): the identical streamed
  // ingest through the durable engine at each WAL sync policy, against the
  // in-memory resident engine as the baseline. `always` pays an fsync per
  // mutation, `batch` defers to the flush barrier, `none` is pure logging
  // cost — the three points of the durability/throughput dial. ---
  {
    const size_t batch = 32;
    ResidentEngine baseline(workload.rule, EngineOptions());
    Timer baseline_timer;
    for (size_t begin = 0; begin < n; begin += batch) {
      StatusOr<EngineMutationResult> result = baseline.Ingest(
          CopyRecords(workload.dataset, begin, std::min(begin + batch, n)));
      ADALSH_CHECK(result.ok()) << result.status().message();
    }
    StatusOr<EngineMutationResult> base_flushed = baseline.Flush();
    ADALSH_CHECK(base_flushed.ok()) << base_flushed.status().message();
    const double baseline_seconds = baseline_timer.ElapsedSeconds();

    json.Key("durability")
        .BeginObject()
        .Key("batch")
        .Uint(batch)
        .Key("baseline_seconds")
        .Double(baseline_seconds)
        .Key("sweep")
        .BeginArray();
    for (const char* sync_name : {"none", "batch", "always"}) {
      char dir_template[] = "/tmp/adalsh_walbench_XXXXXX";
      ADALSH_CHECK(mkdtemp(dir_template) != nullptr) << "mkdtemp failed";
      const std::string dir = dir_template;
      StatusOr<WalSyncPolicy> sync = ParseWalSyncPolicy(sync_name);
      ADALSH_CHECK(sync.ok()) << sync.status().message();
      DurableEngine::Options options;
      options.engine = EngineOptions();
      options.data_dir = dir;
      options.sync = *sync;
      StatusOr<std::unique_ptr<DurableEngine>> durable =
          DurableEngine::Open(workload.rule, std::move(options));
      ADALSH_CHECK(durable.ok()) << durable.status().message();
      Timer timer;
      for (size_t begin = 0; begin < n; begin += batch) {
        StatusOr<EngineMutationResult> result = durable.value()->Ingest(
            CopyRecords(workload.dataset, begin, std::min(begin + batch, n)));
        ADALSH_CHECK(result.ok()) << result.status().message();
      }
      StatusOr<EngineMutationResult> flushed = durable.value()->Flush();
      ADALSH_CHECK(flushed.ok()) << flushed.status().message();
      const double seconds = timer.ElapsedSeconds();
      const DurabilityStats wal = durable.value()->durability_stats();
      json.BeginObject()
          .Key("sync")
          .String(sync_name)
          .Key("seconds")
          .Double(seconds)
          .Key("records_per_second")
          .Double(static_cast<double>(n) / seconds)
          .Key("overhead_over_baseline")
          .Double(baseline_seconds > 0 ? seconds / baseline_seconds : 0.0)
          .Key("wal_bytes_appended")
          .Uint(wal.wal_bytes_appended)
          .Key("wal_syncs")
          .Uint(wal.wal_syncs)
          .EndObject();
      durable.value().reset();  // close the log fds before cleanup
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    json.EndArray().EndObject();
  }

  json.Key("final")
      .BeginObject()
      .Key("generation")
      .Uint(engine.counters().generation)
      .Key("live_records")
      .Uint(engine.counters().live_records)
      .EndObject();

  json.EndObject();
  std::string doc = json.TakeString();
  std::ofstream file(out);
  ADALSH_CHECK(file.good()) << "cannot open " << out;
  file << doc;
  ADALSH_CHECK(file.good()) << "failed writing " << out;
  std::cout << doc;
  std::cout << "wrote " << out << "\n";
  return 0;
}

}  // namespace
}  // namespace adalsh

int main(int argc, char** argv) { return adalsh::Main(argc, argv); }
