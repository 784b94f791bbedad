#include "engine/engine_report.h"

#include <memory>

#include "obs/json_writer.h"
#include "obs/run_report.h"
#include "util/simd_kernels.h"

namespace adalsh {
namespace {

void AppendCounters(const EngineCounters& counters, JsonWriter* out) {
  out->BeginObject()
      .Key("batches")
      .Uint(counters.batches)
      .Key("ingested")
      .Uint(counters.ingested)
      .Key("removed")
      .Uint(counters.removed)
      .Key("updated")
      .Uint(counters.updated)
      .Key("arrivals_merged")
      .Uint(counters.arrivals_merged)
      .Key("arrivals_walked")
      .Uint(counters.arrivals_walked)
      .Key("nodes_pended")
      .Uint(counters.nodes_pended)
      .Key("refinements_completed")
      .Uint(counters.refinements_completed)
      .Key("refinements_interrupted")
      .Uint(counters.refinements_interrupted)
      .Key("generation")
      .Uint(counters.generation)
      .Key("live_records")
      .Uint(counters.live_records)
      .Key("internal_records")
      .Uint(counters.internal_records)
      .Key("level1_buckets")
      .Uint(counters.level1_buckets)
      .Key("snapshot_lag_batches")
      .Uint(counters.snapshot_lag_batches)
      .Key("total_hashes")
      .Uint(counters.total_hashes)
      .Key("total_similarities")
      .Uint(counters.total_similarities)
      .Key("forest_nodes")
      .Uint(counters.forest_nodes)
      .Key("cached_hash_values")
      .Uint(counters.cached_hash_values)
      .EndObject();
}

void AppendDurability(const DurabilityStats& stats, JsonWriter* out) {
  out->BeginObject()
      .Key("wal_frames_appended")
      .Uint(stats.wal_frames_appended)
      .Key("wal_bytes_appended")
      .Uint(stats.wal_bytes_appended)
      .Key("wal_syncs")
      .Uint(stats.wal_syncs)
      .Key("wal_append_retries")
      .Uint(stats.wal_append_retries)
      .Key("wal_sync_retries")
      .Uint(stats.wal_sync_retries)
      .Key("wal_degraded")
      .Bool(stats.wal_degraded)
      .Key("checkpoints_written")
      .Uint(stats.checkpoints_written)
      .Key("checkpoint_failures")
      .Uint(stats.checkpoint_failures)
      .Key("recovery")
      .BeginObject()
      .Key("checkpoint_loaded")
      .Bool(stats.checkpoint_loaded)
      .Key("checkpoint_seq")
      .Uint(stats.checkpoint_seq)
      .Key("frames_replayed")
      .Uint(stats.frames_replayed)
      .Key("frames_discarded")
      .Uint(stats.frames_discarded)
      .Key("replay_apply_failures")
      .Uint(stats.replay_apply_failures)
      .Key("log_truncated")
      .Bool(stats.log_truncated)
      .Key("warnings")
      .Uint(stats.recovery_warnings.size())
      .EndObject()
      .EndObject();
}

/// Shared body for the sharded engine and its durable wrapper: they expose
/// the same Snapshot()/counters()/shard_counters()/top_k()/shards() surface,
/// and the schema is identical except for the durable engine's "durability"
/// object.
template <typename Engine>
std::string WriteReport(const Engine& engine,
                        const DurabilityStats* durability,
                        const MetricsSnapshot* metrics) {
  const std::shared_ptr<const EngineSnapshot> snap = engine.Snapshot();
  const EngineCounters counters = engine.counters();
  const std::vector<EngineCounters> per_shard = engine.shard_counters();

  JsonWriter json;
  json.BeginObject()
      .Key("schema")
      .String("adalsh-engine-report-v1")
      .Key("top_k")
      .Int(engine.top_k())
      .Key("shards")
      .Int(engine.shards());

  // The SIMD level the kernels dispatch to (the pin, else the widest
  // hardware level) — which code paths produced the numbers below, not a
  // result-affecting choice.
  json.Key("simd")
      .BeginObject()
      .Key("dot")
      .String(SimdLevelName(simd::ActiveDotLevel()))
      .Key("minhash")
      .String(SimdLevelName(simd::ActiveMinHashLevel()))
      .EndObject();

  json.Key("counters");
  AppendCounters(counters, &json);

  // Per-shard balance breakdown (once the first ingest built the shards):
  // records, bucket load and work counters per shard, in shard order.
  if (!per_shard.empty()) {
    json.Key("per_shard").BeginArray();
    for (size_t s = 0; s < per_shard.size(); ++s) {
      json.BeginObject().Key("shard").Uint(s).Key("counters");
      AppendCounters(per_shard[s], &json);
      json.EndObject();
    }
    json.EndArray();
  }

  // Durability plane accounting (durable engine only, docs/durability.md).
  if (durability != nullptr) {
    json.Key("durability");
    AppendDurability(*durability, &json);
  }

  json.Key("snapshot")
      .BeginObject()
      .Key("generation")
      .Uint(snap->generation)
      .Key("live_records")
      .Uint(snap->live_records);
  json.Key("cluster_sizes").BeginArray();
  for (const auto& cluster : snap->clusters) json.Uint(cluster.size());
  json.EndArray();
  json.Key("cluster_verification").BeginArray();
  for (int level : snap->verification) json.Int(level);
  json.EndArray();
  // The refinement pass that published this snapshot, with the run report's
  // keys (obs/run_report.h).
  json.Key("refinement").BeginObject();
  AppendFilterStats(snap->stats, &json);
  json.EndObject();
  json.EndObject();

  if (metrics != nullptr) {
    json.Key("metrics");
    AppendMetricsSnapshot(*metrics, &json);
  }
  return json.EndObject().TakeString();
}

}  // namespace

std::string WriteEngineReportJson(const ShardedEngine& engine,
                                  const MetricsSnapshot* metrics) {
  return WriteReport(engine, /*durability=*/nullptr, metrics);
}

std::string WriteEngineReportJson(const DurableEngine& engine,
                                  const MetricsSnapshot* metrics) {
  const DurabilityStats durability = engine.durability_stats();
  return WriteReport(engine, &durability, metrics);
}

}  // namespace adalsh
