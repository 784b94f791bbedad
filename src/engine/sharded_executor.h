#ifndef ADALSH_ENGINE_SHARDED_EXECUTOR_H_
#define ADALSH_ENGINE_SHARDED_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "engine/resident_engine.h"

namespace adalsh {

/// Sharded execution of the adaptive LSH engine (docs/sharding.md): records
/// are partitioned across S shard engines by a deterministic hash of their
/// external id, each shard runs the full adaptive round loop over its own
/// HashCache/FeatureCache arenas and its own mutation lock, and a canonical
/// cross-shard merge certifies the global top-k of the shards' live records
/// as a one-batch ingest of them would. The contract is the repo's standing
/// discipline: the canonical result (live set, cluster memberships,
/// verification levels) is byte-identical for any shard count at any thread
/// count, provided every configuration shares one cost model
/// (shard_equivalence_test).

/// The partition function: SplitMix64 of the external id, mod `shards`.
/// Content-independent and stable across the engine's lifetime, so a record
/// never migrates and removals/updates route without any directory lookup.
int ShardOfExternalId(ExternalId id, int shards);

/// A resident engine over S internal shards — the one engine shape the
/// durable engine, the serve CLI and the load generator run. Mutations route
/// to their record's shard and serialize only on that shard's lock, so
/// writers touching different shards proceed in parallel — the
/// single-writer-lock bottleneck this layer exists to remove. Each shard
/// continuously maintains its own shard-local certified top-k exactly like a
/// standalone ResidentEngine.
///
/// Certification cadence depends on S. At S=1 the one shard's snapshot
/// already is the global certified top-k (the cross-shard merge is the
/// identity there), so it is published after every mutation — a standalone
/// ResidentEngine's continuous certification, generation for generation —
/// and Flush() runs no merge. At S>=2 global certification is deferred: the
/// globally-merged snapshot served by Snapshot()/TopK()/Cluster() advances
/// only when Flush() runs the cross-shard merge (per-shard refinement alone
/// cannot certify a global top-k, because a component split across shards
/// may hold cross-shard merge evidence no shard ever saw): mutate freely,
/// Flush() to publish. The merge is Flush()'s only work there: it reopens
/// every component, reads each shard's live records and borrows their hash
/// slots, never its forest or its refinement state, so shard refinement
/// reaches the published snapshot only through those hashes. The slots go
/// back to their shards extended by the merge's own hashes, which later
/// shard passes and merges reuse.
///
/// Threading: Ingest/Remove/Update are safe from any thread; a single call
/// that spans multiple shards applies per shard (see each method). Flush()
/// serializes against other Flush() calls and briefly locks every shard.
/// Queries never block on mutations, and published generations never move
/// backwards, whatever order concurrent writers finish in.
class ShardedEngine {
 public:
  struct Options {
    /// Per-shard engine template. `engine.config.threads` is the TOTAL
    /// worker budget: each shard engine gets max(1, threads / shards).
    /// The observer (if any) is detached from shard engines — shard
    /// refinement runs on mutator threads, violating the Observer
    /// single-driving-thread contract; metrics/trace sinks are kept (both
    /// are thread-safe) and report in per-shard lanes.
    ResidentEngine::Options engine;
    int shards = 1;
  };

  ShardedEngine(MatchRule rule, Options options);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// The mutations Admit checks, one per entry point.
  enum class MutationKind { kIngest, kRemove, kUpdate, kFlush };

  /// The admission step: the checks a mutation must pass before it changes
  /// anything. Every mutation entry point runs it first, and the durable
  /// engine runs it before it logs a mutation, so its log holds only
  /// mutations this engine applies (docs/durability.md). `ids` and `records`
  /// are what the mutation carries (an ingest's ids are empty when fresh
  /// ones are assigned after admission). Every kind: the effective SLO by
  /// ResidentEngine::EffectiveOptions's rule under the ambient config.
  /// Ingest: each record's schema against the engine's first record (before
  /// the first ingest: against the batch's first, for which the function
  /// sequence must build), ids strictly increasing and not live. Remove: ids
  /// distinct and live. Update: the id live, the record's schema. Liveness
  /// is point-in-time, best-effort under concurrent writers on the same ids.
  Status Admit(MutationKind kind, std::span<const ExternalId> ids,
               std::span<const Record> records,
               const EngineBatchOptions& opts) const;

  /// Assigns globally-unique ascending external ids, partitions the batch by
  /// ShardOfExternalId, and ingests each shard's sub-batch into its engine —
  /// concurrently on one thread per involved shard. The returned result
  /// aggregates the per-shard passes; `lock_wait_seconds` is the summed
  /// shard lock wait (the contention signal engine_load_gen histograms).
  ///
  /// On the first non-empty ingest, if the options did not pin a cost model,
  /// one model is calibrated on that batch and shared by every shard — shard
  /// engines calibrating separately would disagree on the jump-to-P point
  /// and break cross-shard-count identity (docs/sharding.md).
  StatusOr<EngineMutationResult> Ingest(std::vector<Record> records,
                                        const EngineBatchOptions& opts = {});

  /// Ingest with caller-assigned external ids (ResidentEngine::IngestWithIds
  /// semantics: strictly increasing within the batch, no collision with live
  /// ids — InvalidArgument otherwise, before any shard changes; best-effort
  /// under concurrent writers on the same ids, like Remove): routes each
  /// record by ShardOfExternalId and advances the internal id counter past
  /// the largest assigned id. The durable engine applies logged ingests
  /// through this, so a recovered record lands on the shard its id routes
  /// to at the reopening shard count (docs/durability.md).
  StatusOr<EngineMutationResult> IngestWithIds(
      std::vector<Record> records, std::vector<ExternalId> ids,
      const EngineBatchOptions& opts = {});

  /// Removes by external id, routed per shard. The batch is admitted
  /// against every involved shard (NotFound/InvalidArgument before any state
  /// changes); with concurrent removers racing on the *same* ids the
  /// admission is best-effort and a later shard's apply may still fail,
  /// leaving earlier shards' removals in place (the per-shard results are
  /// each atomic).
  StatusOr<EngineMutationResult> Remove(std::span<const ExternalId> ids,
                                        const EngineBatchOptions& opts = {});

  /// Replaces the record bound to `id` (single-shard: exactly the
  /// ResidentEngine contract on `id`'s shard).
  StatusOr<EngineMutationResult> Update(ExternalId id, Record record,
                                        const EngineBatchOptions& opts = {});

  /// Global certification point. At S=1 it flushes the one shard under
  /// `opts` (completing any SLO-interrupted refinement) and publishes the
  /// shard's snapshot. At S>=2 it runs the canonical cross-shard merge under
  /// all shard locks and publishes the merged snapshot as the next
  /// generation; no budget bounds the merge, which always runs to completion,
  /// so the result's `refinement` is kCompleted and its `stats` are the
  /// merge pass's. A sticky cancel refuses it like every other mutation.
  StatusOr<EngineMutationResult> Flush(const EngineBatchOptions& opts = {});

  /// The published global snapshot (generation 0 before the first
  /// publication). At S>=2 mutations since the last Flush are NOT reflected
  /// — see the class comment on certification cadence.
  std::shared_ptr<const EngineSnapshot> Snapshot() const;

  /// TopK/Cluster against the published snapshot (ResidentEngine
  /// semantics).
  StatusOr<std::vector<std::vector<ExternalId>>> TopK(int k) const;
  StatusOr<std::vector<ExternalId>> Cluster(ExternalId id) const;

  /// Whole-life counters summed across shards; `generation` and
  /// `live_records` describe the published snapshot. So does
  /// `snapshot_lag_batches`: the shard's own lag at S=1, and at S>=2 the
  /// shard batches (`batches` units) applied since the last published merge
  /// read the shards, 0 right after Flush().
  EngineCounters counters() const;

  /// One EngineCounters per shard, in shard order (empty before the first
  /// ingest) — the per-shard breakdown of the engine report: record/bucket
  /// balance, refinement outcomes and hash/pairwise work per shard. Takes
  /// each shard's mutation lock briefly, like counters().
  std::vector<EngineCounters> shard_counters() const;

  /// True when `id` is live on its shard (ResidentEngine::IsLive routed;
  /// point-in-time only). False before the first ingest.
  bool IsLive(ExternalId id) const;

  /// Copies of every live record with its external id across all shards,
  /// sorted by id (ResidentEngine::LiveRecords aggregated) — the checkpoint
  /// payload of the durability plane.
  std::vector<std::pair<ExternalId, Record>> LiveRecords() const;

  /// The shared cost model every shard prices with: the pinned option, the
  /// first ingest's calibration, or nullopt before initialization.
  std::optional<CostModel> cost_model() const;

  int shards() const { return options_.shards; }
  int top_k() const { return options_.engine.top_k; }

 private:
  /// Admit's schema check of an ingest's or update's `records`; before the
  /// first ingest also the function sequence build for the first record,
  /// the only fallible step of the shards' construction.
  Status CheckSchema(std::span<const Record> records) const;

  /// Constructs the shard engines for the first non-empty ingest, which
  /// Admit checked (calibrating the shared cost model if none was pinned).
  /// Caller holds id_mu_.
  void BuildShardsLocked(const std::vector<Record>& first_batch);

  using ShardSpan = std::span<const std::unique_ptr<ResidentEngine>>;

  /// The shard engines, or none before the first ingest built them. Reads
  /// shards_ under id_mu_; the span stays valid after the lock is released
  /// because the vector is filled once, in one locked region, and never
  /// changes again.
  ShardSpan Shards() const;

  /// Ends every mutation: at S=1 adopts the shard's snapshot as the
  /// published one when it is newer (so generations stay monotone when
  /// concurrent writers finish out of order). Returns the published
  /// generation.
  uint64_t Publish();

  /// Shared body of Ingest/IngestWithIds: admits the batch, builds the
  /// shards on the first non-empty one, assigns fresh ids when `ids` is
  /// empty, and only then partitions the batch by shard, runs the involved
  /// shard passes (concurrently unless an external controller forces serial
  /// execution) and aggregates their results.
  StatusOr<EngineMutationResult> RouteIngest(std::vector<Record> records,
                                             std::vector<ExternalId> ids,
                                             const EngineBatchOptions& opts);

  MatchRule rule_;
  Options options_;

  /// Guards id assignment and the shard list, built by the first ingest.
  mutable std::mutex id_mu_;
  ExternalId next_ext_id_ = 0;
  std::vector<std::unique_ptr<ResidentEngine>> shards_;  // read via Shards()
  std::optional<CostModel> shared_cost_model_;
  std::optional<Record> prototype_;  // schema reference, set at first ingest

  /// Serializes Flush() calls; publishes through snapshot_mu_.
  mutable std::mutex flush_mu_;
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const EngineSnapshot> snapshot_;
  /// At S>=2, the shards' summed `batches` when the published merge read
  /// them (under snapshot_mu_, published with snapshot_).
  uint64_t batches_at_merge_ = 0;
};

}  // namespace adalsh

#endif  // ADALSH_ENGINE_SHARDED_EXECUTOR_H_
