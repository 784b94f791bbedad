// In-process load generator for the sharded engine (docs/engine.md,
// docs/sharding.md): replays a randomized mutation history — batched
// ingests with interleaved removes and updates over a Cora-like workload,
// split across one or more writer threads — while reader
// threads concurrently hammer TopK/Cluster against the published snapshots,
// then reports throughput and latency percentiles as a JSON document (schema
// adalsh-engine-loadgen-v1).
//
// Readers double as a consistency probe: every observation asserts the
// snapshot generation is monotone and that cluster sizes are descending, so
// a torn snapshot fails the run instead of skewing the numbers.
//
// Every mutation's time spent waiting for the engine lock (summed across
// shard locks) feeds the lock_wait histogram — the before/after signal for
// the sharded engine's multi-writer claim: with --writers=4 the single lock
// of --shards=1 shows the queueing that --shards=4 removes.
//
// Flags:
//   --records=N     dataset size to stream in (default 800)
//   --entities=N    ground-truth entities in the workload (default 120)
//   --batch=N       max records per ingest batch (default 32)
//   --readers=N     concurrent query threads (default 2)
//   --writers=N     concurrent mutation threads (default 1)
//   --shards=N      shard count, >= 1 (default 1)
//   --threads=N     engine worker threads, 0 = hardware (default 0)
//   --k=N           maintained top-k (default 10)
//   --seed=N        workload + history seed (default 1)
//   --out=PATH      write the JSON document here (default: stdout)
//   --smoke         tiny workload; schema validation, not measurement
//   --data-dir=DIR  run the load through the durable engine with its WAL and
//                   checkpoints in DIR (docs/durability.md) — the A/B for
//                   what the durability plane costs under load. Durable
//                   mutations serialize on one lock, so combine with
//                   --writers to see the contention price too.
//   --sync=POLICY   WAL fsync policy with --data-dir: none|batch|always
//                   (default batch)

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "datagen/cora_like.h"
#include "engine/durability.h"
#include "engine/sharded_executor.h"
#include "obs/histogram.h"
#include "obs/json_writer.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace adalsh {
namespace {

/// A command-line mistake: prints `engine_load_gen: <message>`, and the
/// program exits with status 1, as Flags reports its own.
int Fail(const std::string& message) {
  std::cerr << "engine_load_gen: " << message << "\n";
  return 1;
}

struct LatencyStats {
  size_t count = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double p99_9 = 0;
  double max = 0;
};

LatencyStats Summarize(std::vector<double>* values) {
  LatencyStats stats;
  stats.count = values->size();
  if (values->empty()) return stats;
  std::sort(values->begin(), values->end());
  stats.p50 = (*values)[values->size() / 2];
  stats.p95 = (*values)[values->size() * 95 / 100];
  stats.p99 = (*values)[values->size() * 99 / 100];
  stats.p99_9 = (*values)[values->size() * 999 / 1000];
  stats.max = values->back();
  return stats;
}

void WriteLatency(JsonWriter* json, const std::string& name,
                  const LatencyStats& stats, const std::string& unit = "us") {
  json->Key(name)
      .BeginObject()
      .Key("count")
      .Uint(stats.count)
      .Key("p50_" + unit)
      .Double(stats.p50)
      .Key("p95_" + unit)
      .Double(stats.p95)
      .Key("p99_" + unit)
      .Double(stats.p99)
      .Key("p99_9_" + unit)
      .Double(stats.p99_9)
      .Key("max_" + unit)
      .Double(stats.max)
      .EndObject();
}

/// Same JSON shape as WriteLatency but fed from an exact obs histogram
/// (seconds), scaled into the named unit. Percentiles are bucket-exact, so
/// the lock_wait summary matches what a registry snapshot would report for
/// the identical samples.
void WriteHistogramLatency(JsonWriter* json, const std::string& name,
                           const LatencyHistogram& histogram, double scale,
                           const std::string& unit) {
  json->Key(name)
      .BeginObject()
      .Key("count")
      .Uint(histogram.count())
      .Key("p50_" + unit)
      .Double(histogram.Percentile(50) * scale)
      .Key("p95_" + unit)
      .Double(histogram.Percentile(95) * scale)
      .Key("p99_" + unit)
      .Double(histogram.Percentile(99) * scale)
      .Key("p99_9_" + unit)
      .Double(histogram.Percentile(99.9) * scale)
      .Key("max_" + unit)
      .Double(histogram.max() * scale)
      .EndObject();
}

struct ReaderResult {
  std::vector<double> topk_us;
  std::vector<double> cluster_us;
  uint64_t observations = 0;
};

// Queries the engine until `stop`, checking each snapshot for the invariants
// both engines promise (docs/engine.md, docs/sharding.md): monotone
// generation, descending cluster sizes, cluster_of consistent with TopK.
template <typename Engine>
ReaderResult RunReader(const Engine& engine, int k,
                       const std::atomic<bool>& stop) {
  ReaderResult result;
  uint64_t last_generation = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    Timer timer;
    std::shared_ptr<const EngineSnapshot> snap = engine.Snapshot();
    StatusOr<std::vector<std::vector<ExternalId>>> top = engine.TopK(k);
    result.topk_us.push_back(timer.ElapsedSeconds() * 1e6);
    ADALSH_CHECK(top.ok()) << top.status().message();
    ADALSH_CHECK(snap->generation >= last_generation) <<
                 "snapshot generation went backwards";
    last_generation = snap->generation;
    for (size_t i = 1; i < snap->clusters.size(); ++i) {
      ADALSH_CHECK(snap->clusters[i - 1].size() >= snap->clusters[i].size()) <<
                   "snapshot cluster sizes are not descending";
    }
    if (!snap->clusters.empty()) {
      const ExternalId probe = snap->clusters[0][0];
      timer.Reset();
      StatusOr<std::vector<ExternalId>> cluster = engine.Cluster(probe);
      result.cluster_us.push_back(timer.ElapsedSeconds() * 1e6);
      // The engine may have published a newer snapshot between the two
      // calls, so the probe can legitimately have vanished; a *served*
      // answer must be a well-formed cluster.
      if (cluster.ok()) {
        ADALSH_CHECK(!cluster.value().empty()) << "empty cluster served";
      }
    }
    ++result.observations;
  }
  return result;
}

struct WriterResult {
  std::vector<double> ingest_us;
  std::vector<double> remove_us;
  std::vector<double> update_us;
  LatencyHistogram lock_wait;  // seconds; one entry per mutation call
  uint64_t interrupted = 0;
};

// One writer's slice of the mutation history: shuffled ingest order,
// randomized batch sizes, occasional removes/updates of its *own* ids (so
// concurrent writers never race on the same external id) — the same shape
// the differential tests replay, but timed.
template <typename Engine>
WriterResult RunWriter(Engine* engine, const GeneratedDataset& workload,
                       const std::vector<size_t>& order, size_t max_batch,
                       uint64_t seed, int writer_index) {
  WriterResult result;
  Rng rng(DeriveSeed(seed, 0x10ad + static_cast<uint64_t>(writer_index)));
  std::vector<ExternalId> live;
  size_t cursor = 0;
  while (cursor < order.size()) {
    const size_t take =
        1 + rng.NextBelow(std::min(order.size() - cursor, max_batch));
    std::vector<Record> batch;
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(workload.dataset.record(order[cursor + i]));
    }
    cursor += take;
    Timer timer;
    StatusOr<EngineMutationResult> ingested = engine->Ingest(std::move(batch));
    result.ingest_us.push_back(timer.ElapsedSeconds() * 1e6);
    ADALSH_CHECK(ingested.ok()) << ingested.status().message();
    result.lock_wait.Add(ingested.value().lock_wait_seconds);
    result.interrupted +=
        ingested.value().refinement != TerminationReason::kCompleted;
    live.insert(live.end(), ingested.value().assigned_ids.begin(),
                ingested.value().assigned_ids.end());

    if (live.size() > 2 && rng.NextBelow(4) == 0) {
      const size_t victim = rng.NextBelow(live.size());
      const ExternalId id = live[victim];
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      timer.Reset();
      StatusOr<EngineMutationResult> removed =
          engine->Remove(std::vector<ExternalId>{id});
      result.remove_us.push_back(timer.ElapsedSeconds() * 1e6);
      ADALSH_CHECK(removed.ok()) << removed.status().message();
      result.lock_wait.Add(removed.value().lock_wait_seconds);
    }
    if (!live.empty() && rng.NextBelow(4) == 0) {
      const ExternalId id = live[rng.NextBelow(live.size())];
      Record contents =
          workload.dataset.record(rng.NextBelow(workload.dataset.num_records()));
      timer.Reset();
      StatusOr<EngineMutationResult> updated =
          engine->Update(id, std::move(contents));
      result.update_us.push_back(timer.ElapsedSeconds() * 1e6);
      ADALSH_CHECK(updated.ok()) << updated.status().message();
      result.lock_wait.Add(updated.value().lock_wait_seconds);
    }
  }
  return result;
}

struct DriveConfig {
  size_t records;
  size_t entities;
  size_t max_batch;
  int readers;
  int writers;
  int shards;
  int threads;
  int top_k;
  uint64_t seed;
  bool smoke;
  std::string out;
  std::string data_dir;  // empty = no durability plane
  std::string sync;
};

// Runs the full load: reader threads polling, writer threads replaying
// disjoint strided slices of the shuffled history, one final Flush, then the
// JSON report. Works identically over ShardedEngine and DurableEngine.
template <typename Engine>
int Drive(Engine* engine, const GeneratedDataset& workload,
          const DriveConfig& cfg) {
  std::atomic<bool> stop(false);
  std::vector<ReaderResult> reader_results(static_cast<size_t>(cfg.readers));
  std::vector<std::thread> reader_threads;
  reader_threads.reserve(reader_results.size());
  for (ReaderResult& slot : reader_results) {
    reader_threads.emplace_back([engine, &cfg, &stop, &slot] {
      slot = RunReader(*engine, cfg.top_k, stop);
    });
  }

  Rng rng(DeriveSeed(cfg.seed, 0x0bde));
  std::vector<size_t> order(workload.dataset.num_records());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  // Writer w replays the strided slice order[w], order[w + W], ...
  std::vector<std::vector<size_t>> slices(static_cast<size_t>(cfg.writers));
  for (size_t i = 0; i < order.size(); ++i) {
    slices[i % slices.size()].push_back(order[i]);
  }

  std::vector<WriterResult> writer_results(static_cast<size_t>(cfg.writers));
  std::vector<std::thread> writer_threads;
  writer_threads.reserve(writer_results.size());
  Timer wall;
  for (int w = 0; w < cfg.writers; ++w) {
    writer_threads.emplace_back([engine, &workload, &slices, &cfg,
                                 &writer_results, w] {
      writer_results[static_cast<size_t>(w)] =
          RunWriter(engine, workload, slices[static_cast<size_t>(w)],
                    cfg.max_batch, cfg.seed, w);
    });
  }
  for (std::thread& t : writer_threads) t.join();
  StatusOr<EngineMutationResult> flushed = engine->Flush();
  ADALSH_CHECK(flushed.ok()) << flushed.status().message();
  const double wall_seconds = wall.ElapsedSeconds();

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : reader_threads) t.join();

  std::vector<double> topk_us;
  std::vector<double> cluster_us;
  uint64_t observations = 0;
  for (ReaderResult& r : reader_results) {
    topk_us.insert(topk_us.end(), r.topk_us.begin(), r.topk_us.end());
    cluster_us.insert(cluster_us.end(), r.cluster_us.begin(),
                      r.cluster_us.end());
    observations += r.observations;
  }
  std::vector<double> ingest_us;
  std::vector<double> remove_us;
  std::vector<double> update_us;
  // Exact cross-writer aggregation: the merged histogram is identical to
  // one built from all samples on a single thread (docs/observability.md).
  LatencyHistogram lock_wait;
  uint64_t interrupted = 0;
  for (WriterResult& r : writer_results) {
    ingest_us.insert(ingest_us.end(), r.ingest_us.begin(), r.ingest_us.end());
    remove_us.insert(remove_us.end(), r.remove_us.begin(), r.remove_us.end());
    update_us.insert(update_us.end(), r.update_us.begin(), r.update_us.end());
    lock_wait.Merge(r.lock_wait);
    interrupted += r.interrupted;
  }
  lock_wait.Add(flushed.value().lock_wait_seconds);

  const EngineCounters counters = engine->counters();
  JsonWriter json;
  json.BeginObject()
      .Key("schema")
      .String("adalsh-engine-loadgen-v1")
      .Key("config")
      .BeginObject()
      .Key("records")
      .Uint(cfg.records)
      .Key("entities")
      .Uint(cfg.entities)
      .Key("max_batch")
      .Uint(cfg.max_batch)
      .Key("readers")
      .Int(cfg.readers)
      .Key("writers")
      .Int(cfg.writers)
      .Key("shards")
      .Int(cfg.shards)
      .Key("threads")
      .Int(cfg.threads)
      .Key("k")
      .Int(cfg.top_k)
      .Key("seed")
      .Uint(cfg.seed)
      .Key("smoke")
      .Bool(cfg.smoke)
      .Key("data_dir")
      .String(cfg.data_dir)
      .Key("sync")
      .String(cfg.data_dir.empty() ? "" : cfg.sync)
      .EndObject()
      .Key("mutations")
      .BeginObject()
      .Key("wall_seconds")
      .Double(wall_seconds)
      .Key("records_per_second")
      .Double(wall_seconds > 0 ? static_cast<double>(counters.ingested) /
                                     wall_seconds
                               : 0.0)
      .Key("interrupted_refinements")
      .Uint(interrupted);
  WriteLatency(&json, "ingest", Summarize(&ingest_us));
  WriteLatency(&json, "remove", Summarize(&remove_us));
  WriteLatency(&json, "update", Summarize(&update_us));
  // Time each mutation spent queueing for the engine lock (summed across
  // shard locks) — the contention the sharded engine exists to relieve.
  WriteHistogramLatency(&json, "lock_wait", lock_wait, /*scale=*/1e3, "ms");
  json.EndObject().Key("queries").BeginObject().Key("observations").Uint(
      observations);
  WriteLatency(&json, "topk", Summarize(&topk_us));
  WriteLatency(&json, "cluster", Summarize(&cluster_us));
  json.EndObject()
      .Key("final")
      .BeginObject()
      .Key("generation")
      .Uint(counters.generation)
      .Key("live_records")
      .Uint(counters.live_records)
      .Key("clusters")
      .Uint(engine->Snapshot()->clusters.size())
      .Key("total_hashes")
      .Uint(counters.total_hashes)
      .Key("total_similarities")
      .Uint(counters.total_similarities)
      .EndObject();

  // Durability accounting (durable engine only): what the WAL cost under
  // this load — frames/bytes appended, fsyncs, retries, checkpoints.
  if constexpr (std::is_same_v<Engine, DurableEngine>) {
    const DurabilityStats wal = engine->durability_stats();
    json.Key("durability")
        .BeginObject()
        .Key("wal_frames_appended")
        .Uint(wal.wal_frames_appended)
        .Key("wal_bytes_appended")
        .Uint(wal.wal_bytes_appended)
        .Key("wal_syncs")
        .Uint(wal.wal_syncs)
        .Key("wal_append_retries")
        .Uint(wal.wal_append_retries)
        .Key("wal_sync_retries")
        .Uint(wal.wal_sync_retries)
        .Key("checkpoints_written")
        .Uint(wal.checkpoints_written)
        .Key("wal_degraded")
        .Bool(wal.wal_degraded)
        .EndObject();
  }
  json.EndObject();

  const std::string doc = json.TakeString();
  if (cfg.out.empty()) {
    std::cout << doc << "\n";
  } else {
    std::ofstream file(cfg.out);
    if (!file.good()) return Fail("cannot open --out file " + cfg.out);
    file << doc << "\n";
    std::cerr << "engine_load_gen: wrote " << cfg.out << "\n";
  }
  return 0;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  DriveConfig cfg;
  cfg.smoke = flags.GetBool("smoke", false);
  cfg.records = flags.GetSize("records", cfg.smoke ? 60 : 800);
  cfg.entities = flags.GetSize("entities", cfg.smoke ? 12 : 120);
  cfg.max_batch = flags.GetSize("batch", cfg.smoke ? 8 : 32);
  cfg.readers = flags.GetInt32("readers", 2);
  cfg.writers = flags.GetInt32("writers", 1);
  cfg.shards = flags.GetInt32("shards", 1);
  cfg.threads = flags.GetInt32("threads", 0);
  cfg.top_k = flags.GetInt32("k", 10);
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.out = flags.GetString("out", "");
  cfg.data_dir = flags.GetString("data-dir", "");
  cfg.sync = flags.GetString("sync", "batch");
  flags.CheckNoUnusedFlags();
  if (cfg.entities < 1) return Fail("--entities must be >= 1");
  if (cfg.records < cfg.entities) {
    return Fail("--records must be >= --entities");
  }
  if (cfg.max_batch < 1) return Fail("--batch must be >= 1");
  if (cfg.readers < 0) return Fail("--readers must be >= 0");
  if (cfg.writers < 1) return Fail("--writers must be >= 1");
  if (cfg.shards < 1) return Fail("--shards must be >= 1");
  if (cfg.threads < 0) return Fail("--threads must be >= 0");
  if (cfg.top_k < 1) return Fail("--k must be >= 1");
  StatusOr<WalSyncPolicy> sync = ParseWalSyncPolicy(cfg.sync);
  if (!sync.ok()) return Fail(sync.status().message());

  CoraLikeConfig data_config;
  data_config.num_records = cfg.records;
  data_config.num_entities = cfg.entities;
  data_config.seed = DeriveSeed(cfg.seed, 0xda7a);
  GeneratedDataset workload = GenerateCoraLike(data_config);

  ResidentEngine::Options options;
  options.config.seed = 3;
  options.config.threads = cfg.threads;
  options.config.sequence.max_budget = 640;
  options.top_k = cfg.top_k;
  // Pinned unit costs: load-gen runs must be comparable run-over-run, so the
  // jump-to-P point cannot depend on wall-clock calibration noise.
  options.cost_model = CostModel(1e-8, 1e-6);

  if (!cfg.data_dir.empty()) {
    DurableEngine::Options durable_options;
    durable_options.engine = options;
    durable_options.shards = cfg.shards;
    durable_options.data_dir = cfg.data_dir;
    durable_options.sync = *sync;
    StatusOr<std::unique_ptr<DurableEngine>> engine =
        DurableEngine::Open(workload.rule, std::move(durable_options));
    ADALSH_CHECK(engine.ok()) << engine.status().message();
    return Drive(engine.value().get(), workload, cfg);
  }
  ShardedEngine::Options sharded_options;
  sharded_options.engine = options;
  sharded_options.shards = cfg.shards;
  ShardedEngine engine(workload.rule, sharded_options);
  return Drive(&engine, workload, cfg);
}

}  // namespace
}  // namespace adalsh

int main(int argc, char** argv) { return adalsh::Run(argc, argv); }
