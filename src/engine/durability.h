#ifndef ADALSH_ENGINE_DURABILITY_H_
#define ADALSH_ENGINE_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/sharded_executor.h"
#include "io/wal.h"
#include "util/status.h"

namespace adalsh {

/// Recovery/runtime accounting of the durability plane, surfaced as wal_*
/// fields of the engine report and as obs metrics (docs/durability.md).
struct DurabilityStats {
  // Log writer totals, summed across shard logs.
  uint64_t wal_frames_appended = 0;
  uint64_t wal_bytes_appended = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_append_retries = 0;
  uint64_t wal_sync_retries = 0;

  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_failures = 0;

  /// Set when a permanent WAL failure degraded the engine to read-only.
  bool wal_degraded = false;

  // What Open() found.
  bool checkpoint_loaded = false;
  uint64_t checkpoint_seq = 0;
  uint64_t frames_replayed = 0;    // mutations re-applied from the log
  uint64_t frames_discarded = 0;   // dropped after a torn/incomplete tail
  uint64_t replay_apply_failures = 0;  // logged mutations that re-applied non-ok
  bool log_truncated = false;      // some log had a torn/corrupt tail
  std::vector<std::string> recovery_warnings;
};

/// Durable wrapper around the sharded engine (docs/durability.md):
/// every mutation is appended to a write-ahead log *before* it is applied,
/// checkpoints periodically fold the live set into an atomically-replaced
/// snapshot file that truncates the logs, and Open() recovers by loading the
/// newest valid checkpoint and replaying the log tail.
///
/// Data directory layout:
///   <dir>/wal-<shard>.log        one append-only frame log per shard
///   <dir>/checkpoint-<seq>       newest-valid-wins checkpoint files
///
/// Recovery rebuilds state through the engine's own confluence contract:
/// the checkpoint stores only the live records (plus the id counter and the
/// pinned cost model — docs/engine.md's reproducibility prerequisite), and
/// re-ingesting them is byte-identical to the crashed engine's incremental
/// history, which is exactly what the differential harness certifies.
/// Snapshot generations restart after recovery (they count publications,
/// not state).
///
/// Failure semantics: transient append/sync failures are retried inside
/// MutationLog with bounded backoff; a permanent failure rejects the
/// mutation, degrades the engine to read-only (mutations fail fast with
/// FailedPrecondition, queries keep serving the last snapshot) and raises
/// the wal_degraded gauge. The engine never crashes on I/O errors.
///
/// Threading: mutations and checkpoints serialize on one internal lock —
/// the WAL is a total order and replay equivalence requires the apply order
/// to match it. A single Ingest batch still fans out across shards inside
/// the sharded engine; only cross-batch writer parallelism is traded for
/// durability. Queries never take the lock.
class DurableEngine {
 public:
  struct Options {
    /// Per-shard engine template, exactly ResidentEngine::Options.
    ResidentEngine::Options engine;

    /// Shards of the wrapped ShardedEngine, one log each (>= 1; Open refuses
    /// anything less). S=1 certifies continuously, S>=2 at every Flush.
    int shards = 1;

    /// Directory for logs and checkpoints; created if missing.
    std::string data_dir;

    WalSyncPolicy sync = WalSyncPolicy::kBatch;

    /// Write a checkpoint automatically after every N applied mutations
    /// (0 = only on explicit Checkpoint() calls).
    uint64_t checkpoint_every_n = 0;
  };

  /// Opens the data directory, recovers (newest valid checkpoint + log-tail
  /// replay, torn tails truncated with a warning), and returns a serving
  /// engine. Fails with InvalidArgument when `shards` < 1, and with
  /// FailedPrecondition on a stale shard layout (the directory was written
  /// with a different shard count — id routing would scatter records to
  /// wrong logs) and on unreadable/uncreatable storage.
  static StatusOr<std::unique_ptr<DurableEngine>> Open(MatchRule rule,
                                                       Options options);

  ~DurableEngine();

  DurableEngine(const DurableEngine&) = delete;
  DurableEngine& operator=(const DurableEngine&) = delete;

  // Mutations: the wrapped engine's contract, preceded by a WAL append.
  // All return FailedPrecondition without touching anything once degraded.
  StatusOr<EngineMutationResult> Ingest(std::vector<Record> records,
                                        const EngineBatchOptions& opts = {});
  StatusOr<EngineMutationResult> Remove(std::span<const ExternalId> ids,
                                        const EngineBatchOptions& opts = {});
  StatusOr<EngineMutationResult> Update(ExternalId id, Record record,
                                        const EngineBatchOptions& opts = {});
  StatusOr<EngineMutationResult> Flush(const EngineBatchOptions& opts = {});

  /// Writes a checkpoint now: syncs the logs, serializes the live set
  /// atomically (write-temp + fsync + rename + dir fsync), truncates the
  /// logs it supersedes and prunes older checkpoint files. On failure the
  /// logs are left intact — durability is unchanged, only the log stays
  /// long.
  Status Checkpoint();

  // Queries: straight pass-through to the sharded engine, never blocked by
  // mutations.
  std::shared_ptr<const EngineSnapshot> Snapshot() const;
  StatusOr<std::vector<std::vector<ExternalId>>> TopK(int k) const;
  StatusOr<std::vector<ExternalId>> Cluster(ExternalId id) const;
  EngineCounters counters() const;
  std::vector<EngineCounters> shard_counters() const;

  /// Durability accounting: recovery results plus live writer totals.
  DurabilityStats durability_stats() const;

  /// True once a permanent WAL failure switched the engine to read-only.
  bool degraded() const;

  int shards() const { return options_.shards; }
  int top_k() const { return options_.engine.top_k; }
  const std::string& data_dir() const { return options_.data_dir; }
  WalSyncPolicy sync_policy() const { return options_.sync; }

 private:
  DurableEngine(MatchRule rule, Options options);

  /// Replays checkpoint + log tails into the fresh engine. Fills recovery_.
  Status RecoverLocked();

  /// Appends `frame` to the logs in `shard_list` (same seq each), honoring
  /// the sync policy. On permanent failure flips degraded_ and reports.
  Status AppendFramesLocked(WalFrame frame, const std::vector<int>& shards);

  /// After the first applied ingest: persists the engine's calibrated cost
  /// model (unless the options pinned one) so replay prices identically.
  void MaybeLogCostModelLocked();

  /// checkpoint_every_n bookkeeping after an applied mutation.
  void MaybeCheckpointLocked();

  Status CheckpointLocked();

  /// Fast-fail guard shared by every mutation entry point.
  Status CheckWritableLocked() const;

  /// Exports the wal_* counters/gauges through the obs metrics registry.
  void ReportMetricsLocked();

  /// Every shard's log indices, for frames that go to all logs.
  std::vector<int> AllLogs() const;

  MatchRule rule_;
  Options options_;

  /// Built by RecoverLocked once the cost model is pinned.
  std::optional<ShardedEngine> sharded_;

  /// Serializes mutations, WAL appends and checkpoints (see class comment).
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<MutationLog>> logs_;  // one per shard
  uint64_t next_seq_ = 1;
  ExternalId next_ext_id_ = 0;
  std::optional<Record> prototype_;  // schema reference for pre-validation
  bool cost_model_logged_ = false;
  uint64_t mutations_since_checkpoint_ = 0;
  bool degraded_ = false;

  uint64_t checkpoints_written_ = 0;
  uint64_t checkpoint_failures_ = 0;
  DurabilityStats recovery_;  // recovery-time fields, frozen after Open
};

}  // namespace adalsh

#endif  // ADALSH_ENGINE_DURABILITY_H_
