#ifndef ADALSH_ENGINE_ENGINE_REPORT_H_
#define ADALSH_ENGINE_ENGINE_REPORT_H_

#include <string>

#include "engine/durability.h"
#include "engine/sharded_executor.h"
#include "obs/metrics_registry.h"

namespace adalsh {

/// The engine's machine-readable report (schema "adalsh-engine-report-v1",
/// documented in docs/engine.md): top-k and shard count, the SIMD levels the
/// kernels resolved to, whole-life counters summed across shards with a
/// "per_shard" breakdown (records, bucket load, refinement outcomes — the
/// shard-imbalance view of the telemetry plane), the published snapshot's
/// shape (generation, live records, cluster sizes, verification levels) and
/// the accounting of the refinement pass that published it — emitted with
/// the exact keys of the run report via the shared AppendFilterStats — and
/// optionally a metrics snapshot.
///
/// Reads the engine's published snapshot and counters; safe to call from any
/// thread (it may block behind an in-flight mutation for the counters).
std::string WriteEngineReportJson(const ShardedEngine& engine,
                                  const MetricsSnapshot* metrics = nullptr);

/// Same schema for a durable engine (docs/durability.md): its sharded
/// engine's report plus a "durability" object with the wal_* accounting
/// (frames/bytes appended, syncs, retries, checkpoints, recovery results and
/// the wal_degraded read-only flag).
std::string WriteEngineReportJson(const DurableEngine& engine,
                                  const MetricsSnapshot* metrics = nullptr);

}  // namespace adalsh

#endif  // ADALSH_ENGINE_ENGINE_REPORT_H_
