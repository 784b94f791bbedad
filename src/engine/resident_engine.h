#ifndef ADALSH_ENGINE_RESIDENT_ENGINE_H_
#define ADALSH_ENGINE_RESIDENT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "clustering/parent_pointer_forest.h"
#include "core/adaptive_lsh.h"
#include "core/cost_model.h"
#include "core/filter_output.h"
#include "core/function_sequence.h"
#include "core/hash_engine.h"
#include "core/pairwise.h"
#include "core/transitive_hash_function.h"
#include "distance/rule.h"
#include "obs/trace_recorder.h"
#include "record/dataset.h"
#include "util/run_controller.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace adalsh {

/// Stable client-facing record handle of the resident engine. External ids
/// are assigned by Ingest (monotonically increasing) and survive Update — an
/// update rebinds the id to the new record contents. Internal RecordIds are
/// an implementation detail: the engine's dataset grows monotonically and an
/// updated record gets a fresh internal id, which is what keeps every hash
/// cache entry valid forever (a given internal id's contents never change).
using ExternalId = uint64_t;

/// An immutable point-in-time view of the engine's certified top-k, shared
/// with query threads by shared_ptr. A snapshot is only ever published by a
/// refinement pass that ran to completion; interrupted passes (deadline,
/// budget, cancel) leave the previous snapshot in place, so queries always
/// see a fully certified answer (docs/engine.md).
struct EngineSnapshot {
  /// Publication counter: strictly increasing, 0 = the empty pre-ingest
  /// snapshot. A query comparing generations can detect concurrent progress.
  uint64_t generation = 0;

  /// Live records at publication time.
  size_t live_records = 0;

  /// The certified top-k clusters in canonical order — descending size, ties
  /// by ascending smallest member id — with each cluster's members sorted
  /// ascending. Canonical ordering makes the snapshot byte-comparable across
  /// engines that ingested the same live set by different histories (the
  /// confluence property the differential tests assert).
  std::vector<std::vector<ExternalId>> clusters;

  /// Verification level per cluster, parallel to `clusters`:
  /// kLastFunctionPairwise for P-certified clusters, otherwise the 0-based
  /// index of the producing hash function (L-1 = fully hash-verified).
  std::vector<int> verification;

  /// Member -> index into `clusters` for O(1) Cluster(id) lookups.
  std::unordered_map<ExternalId, size_t> cluster_of;

  /// Accounting of the refinement pass that published this snapshot.
  FilterStats stats;
};

/// Per-mutation execution limits: the request's SLO. The controller (when
/// set) overrides the budget and allows cross-thread Cancel(), mirroring
/// AdaptiveLshConfig::controller. Every engine mutation refuses a budget
/// that RunBudget::Validate refuses with InvalidArgument, before any state
/// changes.
struct EngineBatchOptions {
  RunBudget budget;
  RunController* controller = nullptr;
};

/// What a mutation did. `refinement` tells whether the post-mutation
/// refinement pass completed (kCompleted => `generation` is a new snapshot
/// containing this mutation) or was interrupted by the request's SLO
/// (`generation` is then the previous published snapshot; the mutation's
/// records are ingested and a later mutation or Flush() will certify them).
struct EngineMutationResult {
  /// Ids bound to the mutation's records, in record order: freshly assigned
  /// for Ingest, the (stable) rebound id for Update, empty otherwise.
  std::vector<ExternalId> assigned_ids;
  uint64_t generation = 0;
  TerminationReason refinement = TerminationReason::kCompleted;
  FilterStats stats;  // the refinement pass's accounting

  /// Wall time this mutation spent waiting to acquire the engine's mutation
  /// lock before any work started — the writer-contention signal the sharded
  /// engine exists to shrink (engine_load_gen reports it as a histogram).
  double lock_wait_seconds = 0;
};

/// Monotonic whole-life counters (engine report / `stats` CLI verb).
struct EngineCounters {
  uint64_t batches = 0;     // mutations applied (ingest/remove/update/flush)
  uint64_t ingested = 0;    // records ever ingested (includes updates)
  uint64_t removed = 0;     // records ever removed (includes updates)
  uint64_t updated = 0;     // update operations
  uint64_t arrivals_merged = 0;
  /// Arrivals that joined one earlier component and walked down its
  /// refinement path instead of reopening it.
  uint64_t arrivals_walked = 0;
  /// Nodes holding earlier records that a mutation handed back to the
  /// refine loop at their own level: a component a removal touched or
  /// arrivals joined to another, children arrivals bridged, a P-refined
  /// node, a node whose jump-to-P decision its new size flips, and a node
  /// the mutation's SLO stopped the walk at. Nodes made only of arrivals
  /// are new, not pended.
  uint64_t nodes_pended = 0;
  uint64_t refinements_completed = 0;
  uint64_t refinements_interrupted = 0;
  uint64_t generation = 0;
  size_t live_records = 0;
  size_t internal_records = 0;  // dataset rows ever allocated
  /// Distinct level-1 bucket keys currently held across all tables — the
  /// load-balance signal for the sharded engine's per-shard breakdown.
  size_t level1_buckets = 0;
  /// Mutations applied since the last published snapshot (0 = the snapshot
  /// is current): the generation lag an SLO-interrupted tail builds up.
  uint64_t snapshot_lag_batches = 0;
  uint64_t total_hashes = 0;
  uint64_t total_similarities = 0;
  /// Nodes the parent-pointer forest holds (memory accounting; compaction
  /// keeps it within ResidentEngine::kForestCompactionFactor times the nodes
  /// of the live trees).
  size_t forest_nodes = 0;
  /// Hash values the per-record caches hold (computed prefixes summed over
  /// hash units and records; removed records hold none).
  size_t cached_hash_values = 0;
};

/// Long-lived resident entity-resolution engine — the online mode (Section
/// 9's future-work direction: records arrive dynamically) as a
/// service-shaped object that supports batched Ingest / Remove / Update
/// while continuously maintaining the certified top-k, and serves
/// concurrent TopK/Cluster queries against an immutable snapshot while
/// mutations proceed. Arrivals pay only H_1's hashes; each mutation's
/// refinement pass reuses every hash and verification earlier passes
/// computed.
///
/// Semantics (docs/engine.md):
///   * Confluence: after any history of mutations whose refinement completed,
///     the published snapshot is byte-identical to the snapshot of a fresh
///     engine that ingested the final live records in one batch. Level-1
///     clusters are connected components of shared bucket keys (arrival-order
///     invariant), each held as one persistent producer-0 tree of the forest
///     that refinement never modifies; refinement of a (member set, level)
///     cluster is deterministic. H_{i+1} splits a node into the connected
///     components of "collides in some table of H_{i+1}", so arrivals only
///     add edges at themselves: an ingest walks each component that gained
///     only arrivals down its refinement path (every record keeps its leaf
///     in the tree each level built for its node). At each node the walk
///     probes the old children's members for a table key colliding with the
///     arrivals' next keys; a child no arrival hits keeps its whole subtree
///     (refinement depends only on its members and level), a child hit
///     alone takes the arrivals and the walk descends into it, and arrivals
///     that hit no child form a new node. Bridged children, a P-refined
///     node, a jump-to-P decision the new size flips, and components
///     joined at level 1 are pended at their level for the refine loop. A
///     removal re-arrives the survivors of every level-1 component that
///     held a removed record and pends them at level 1, discarding any
///     merge evidence that may have flowed through the removed "bridge".
///   * Snapshots: generation advances only when a refinement pass runs to
///     completion. An SLO-interrupted mutation keeps its records (they are
///     ingested, at whatever verification level they reached) but leaves the
///     previous snapshot published.
///   * Caches: hash values, feature norms and the parent-pointer forest are
///     reused across batches — internal record ids are content-immutable, so
///     a live record's cache entries are never invalidated; re-refining after
///     an arrival only pays for hash levels not yet computed.
///   * Memory follows the live set: a removed or replaced record's hash
///     values are freed, and after a publish the forest is compacted to its
///     live trees (the trees on live records' refinement paths) once it
///     holds more than kForestCompactionFactor times the nodes its last
///     compaction kept. Every pass adds a tree per node it refines, even
///     one it returns whole, so a record owns one tree per level it
///     reached.
///   * Shards: the sharded engine's cross-shard merge is this class too
///     (Merge): a fresh engine whose arrivals, refinement pass and snapshot
///     builder are the ones every mutation uses, fed the shards'
///     live records and their borrowed hashes. It does what a one-batch
///     ingest of the live set does, minus the hashes the shards (and earlier
///     merges) already computed.
///
/// Threading: mutations are serialized internally (mu_); queries (TopK,
/// Cluster, Snapshot) never take the mutation lock and are safe from any
/// thread at any time. counters() may block behind an in-flight mutation,
/// and every shard's mutations block behind a Merge reading it.
class ResidentEngine {
 public:
  /// After a publish, the forest is compacted once it holds more than this
  /// many times the nodes its last compaction kept, so it stays within this
  /// factor of its live trees and each compaction's copy is paid for by the
  /// (factor - 1) times as many nodes the passes since built.
  static constexpr size_t kForestCompactionFactor = 2;

  struct Options {
    /// Sequence/threads/seed/instrumentation; `budget` and `controller` act
    /// as the ambient default SLO applied when a mutation passes no
    /// EngineBatchOptions of its own. The ablation-only fields (selection,
    /// jump_model, ablate_incremental_reuse) must keep their defaults; see
    /// ValidateConfig.
    AdaptiveLshConfig config;

    /// How many top clusters every refinement pass certifies and every
    /// snapshot holds. Queries asking for more are truncated to this.
    int top_k = 10;

    /// Fixed unit costs, skipping wall-clock calibration. Calibration times
    /// real code, so two engines calibrating separately can disagree on the
    /// jump-to-P point; tests and the serve golden transcript pin the model
    /// to make runs reproducible.
    std::optional<CostModel> cost_model;
  };

  ResidentEngine(MatchRule rule, Options options);

  ResidentEngine(const ResidentEngine&) = delete;
  ResidentEngine& operator=(const ResidentEngine&) = delete;

  /// Ingests a batch of records, assigning each a fresh ExternalId, then
  /// runs a refinement pass under the request's SLO. All-or-nothing
  /// validation before any state changes:
  ///   * FailedPrecondition — the effective controller holds a sticky
  ///     Cancel().
  ///   * InvalidArgument — a record's schema (field count/kinds/dense dims)
  ///     deviates from the engine's first record, or the first batch's rule/
  ///     sequence construction fails.
  StatusOr<EngineMutationResult> Ingest(std::vector<Record> records,
                                        const EngineBatchOptions& opts = {});

  /// Ingest with caller-assigned external ids — the sharded engine routes a
  /// global id space across shard engines, so each shard sees a sparse id
  /// sequence, and concurrent routed batches may land out of global order.
  /// `ids` must parallel `records`, be strictly increasing within the batch,
  /// and not collide with any currently live id (InvalidArgument otherwise;
  /// the caller owns global uniqueness across batches). Advances the
  /// internal id counter past the largest assigned id so plain Ingest stays
  /// collision-free.
  StatusOr<EngineMutationResult> IngestWithIds(
      std::vector<Record> records, std::vector<ExternalId> ids,
      const EngineBatchOptions& opts = {});

  /// Removes records by external id (NotFound if any id is not live;
  /// all-or-nothing), regroups the survivors of the affected level-1
  /// components, then refines under the request's SLO.
  StatusOr<EngineMutationResult> Remove(std::span<const ExternalId> ids,
                                        const EngineBatchOptions& opts = {});

  /// Replaces the record bound to `id` (NotFound if not live) with new
  /// contents, keeping the external id stable, then refines.
  StatusOr<EngineMutationResult> Update(ExternalId id, Record record,
                                        const EngineBatchOptions& opts = {});

  /// Runs a refinement pass with no new mutation — completes certification
  /// left unfinished by SLO-interrupted mutations. With default (unlimited)
  /// options the pass always completes and publishes.
  StatusOr<EngineMutationResult> Flush(const EngineBatchOptions& opts = {});

  /// The current published snapshot; never null (generation 0 = empty).
  std::shared_ptr<const EngineSnapshot> Snapshot() const;

  /// The k largest certified clusters of the current snapshot (truncated to
  /// the snapshot's size). InvalidArgument when k < 1.
  StatusOr<std::vector<std::vector<ExternalId>>> TopK(int k) const;

  /// Members of the snapshot cluster containing `id`. NotFound when `id` is
  /// in no cluster of the current snapshot (never ingested, removed, or in a
  /// cluster below the maintained top-k).
  StatusOr<std::vector<ExternalId>> Cluster(ExternalId id) const;

  EngineCounters counters() const;

  /// True when `id` is bound to a live record at the time of the call —
  /// point-in-time only: a concurrent mutation may change the answer before
  /// the caller acts on it. Takes the mutation lock briefly.
  bool IsLive(ExternalId id) const;

  /// The structural schema check Ingest applies to every record against the
  /// engine's first record, exposed so the sharded engine's admission can
  /// check a whole batch before partitioning it across engines.
  static Status CheckRecordSchema(const Record& prototype,
                                  const Record& record, size_t index);

  /// Effective SLO of mutation `op`: explicit options win, else `config`'s
  /// ambient budget/controller. InvalidArgument when the explicit budget
  /// fails RunBudget::Validate, FailedPrecondition (naming `op`) when the
  /// effective controller holds a sticky Cancel(). Shared by every mutation
  /// of both engines.
  static StatusOr<EngineBatchOptions> EffectiveOptions(
      const AdaptiveLshConfig& config, const char* op,
      const EngineBatchOptions& opts);

  /// The config check both engine constructors apply (they abort on a
  /// failure): AdaptiveLshConfig::Validate, plus InvalidArgument for a
  /// non-default ablation knob — only AdaptiveLsh::Run honors those, and the
  /// engines' confluence contract rests on canonical Largest-First.
  static Status ValidateConfig(const AdaptiveLshConfig& config);

  /// Copies of every live record with its external id, sorted by id — the
  /// checkpoint payload of the durability plane (docs/durability.md). Takes
  /// the mutation lock for the duration of the copy.
  std::vector<std::pair<ExternalId, Record>> LiveRecords() const;

  /// The engine's effective cost model: the pinned option, or the model the
  /// first ingest calibrated, or nullopt before initialization. The durable
  /// engine persists it so a recovery replay prices jump-to-P decisions
  /// identically to the original run (docs/durability.md).
  std::optional<CostModel> cost_model() const;

  int top_k() const { return options_.top_k; }

  /// What Merge certified: the global snapshot (generation 0; the caller
  /// numbers it), the shards' summed `batches` when the merge read them, and
  /// the time spent acquiring their locks.
  struct MergedShards {
    EngineSnapshot snapshot;
    uint64_t batches = 0;
    double lock_wait_seconds = 0;
  };

  /// The cross-shard merge (docs/sharding.md): takes every shard's mutation
  /// lock in ascending shard order and certifies the global top-k of their
  /// live records with a fresh engine built from `options`, which must pin
  /// the cost model the shards share. The fresh engine arrives the live
  /// records in ascending external-id order with the hash slots it borrows
  /// from their shards, so every component starts at level 1, and refines
  /// with no SLO: the rounds, P sweeps, Definition 3 tally and snapshot of a
  /// one-batch ingest of the live set. The merge reads each shard's live
  /// records and writes only its hash caches, under its lock: every
  /// borrowed slot goes back, extended by the hashes the merge computed,
  /// before the locks drop, so later merges and shard passes reuse them.
  static MergedShards Merge(
      const MatchRule& rule, Options options,
      std::span<const std::unique_ptr<ResidentEngine>> shards);

 private:
  /// Shared Ingest/IngestWithIds validation: schema check against the
  /// prototype and, on the first non-empty batch, the fallible sequence
  /// construction (the batch is all-or-nothing, so this runs before any
  /// state changes).
  Status ValidateIngestLocked(const std::vector<Record>& records);

  /// One serialized mutation: validation has already passed. Applies
  /// removals (survivors re-arrive), appends `adds` (arrivals), arms the
  /// request's SLO, reopens every level-1 component that cannot be walked,
  /// walks the rest, then refines and publishes on completion.
  /// `op` names the public entry point ("ingest"/"remove"/"update"/"flush")
  /// for the per-op latency histograms; `lock_wait_seconds` is the time the
  /// caller spent acquiring mu_ and is both recorded and copied into the
  /// result.
  EngineMutationResult ApplyBatch(const char* op, double lock_wait_seconds,
                                  std::vector<Record> adds,
                                  std::vector<ExternalId> add_ext_ids,
                                  const std::vector<RecordId>& removed_ints,
                                  const EngineBatchOptions& opts);

  /// First non-empty ingest: builds cost model/engine/hasher/pairwise over
  /// the just-appended records (sequence_ was already built — fallibly — by
  /// Ingest before mutating anything).
  void InitializeLocked();

  /// Appends per-record bookkeeping slots and grows the core caches.
  void GrowStateLocked();

  /// What one mutation's level-1 arrivals did to a level-1 tree.
  struct TouchedTree {
    /// The tree holds records from before the mutation; `old_member` is one.
    bool old = false;
    RecordId old_member = 0;
    /// The tree must restart at level 1: arrivals joined two earlier
    /// components in it, or it holds survivors a removal re-arrived.
    bool reopen = false;
  };
  using TouchedTrees = std::unordered_map<NodeId, TouchedTree>;

  /// Level-1 arrival of internal record r (a new record, or a survivor a
  /// removal re-arrives with `reopen` set), whose H_1 hashes are cached (a
  /// batch's new records are hashed in one pass first): joins it to the
  /// level-1 trees of the live records sharing one of its keys — an AddLeaf
  /// into the first, a Merge with each further one — or starts a new
  /// producer-0 tree; r's path is that one leaf. Only the level-1 trees
  /// change: the component's refinement stays in place until
  /// ReopenOrWalkLocked. Records what the arrival did in `touched`, keyed by
  /// current root, when it is non-null. Returns whether r joined an
  /// existing tree (the `arrivals_merged` counter).
  bool ArriveLocked(RecordId r, bool reopen, TouchedTrees* touched);

  /// Hands each level-1 tree in `touched` to the refine loop: a tree that
  /// holds one earlier component no removal touched is walked with its
  /// `arrivals` under `controller`; every other one is reopened, pended at
  /// level 1 so the next pass starts it over from its producer-0 tree.
  /// Emits the `engine_reopen` and `engine_walk` spans.
  void ReopenOrWalkLocked(const TouchedTrees& touched,
                          const std::vector<RecordId>& arrivals,
                          RunController* controller);

  /// The dirty region of a removal is the level-1 trees holding a record of
  /// `removed_ints`. Kills the removed records, erases every bucket key a
  /// dirty record holds (a live record sharing one is itself dirty), and
  /// re-arrives the dirty survivors in ascending id order, which regroups
  /// them exactly as a fresh engine's arrivals would, marking their trees
  /// in `touched` to be reopened.
  void RemoveLocked(const std::vector<RecordId>& removed_ints,
                    TouchedTrees* touched);

  /// One node of a walk at level `depth`: `root`'s tree is the one
  /// function `depth` produced for it and holds the node's earlier members
  /// at index `depth` of their paths; `old_member` is one of them.
  /// `arrivals` joined the node: at depth 0 they are leaves of the level-1
  /// tree already, deeper they are not yet leaves of `root`.
  struct WalkStep {
    NodeId root;
    size_t depth;
    RecordId old_member;
    std::vector<RecordId> arrivals;
  };

  /// Walks each step's node down its refinement path (the class comment's
  /// walk), checking `controller` before each level's hashes: once it
  /// stops, every node not yet walked is pended where it stands, its
  /// members' paths cut back to its tree. Annotates `span` with the walk's
  /// outcome counts (docs/observability.md).
  void WalkLocked(std::vector<WalkStep> steps, RunController* controller,
                  TraceRecorder::Span* span);

  /// A fresh tree at `level` over `records`, entered at index `level` of
  /// each record's path, which is cut there first.
  void NewNodeLocked(const std::vector<RecordId>& records, int level);

  /// How a node's earlier children and the arrivals joining it connect
  /// under the next function: slot i < arrivals.size() is arrival i, slot
  /// arrivals.size() + c is children[c]. `cls` names each slot's class.
  struct Probe {
    std::vector<NodeId> children;
    std::vector<RecordId> child_member;  // one member of each child
    std::vector<uint32_t> cls;
  };

  /// Probes the members of `step`'s tree whose paths go one level deeper —
  /// the node's children are their trees there — for a table key of the
  /// next function colliding with one of the arrivals' keys. Computes the
  /// arrivals' hashes in one pass over the pool; the members' are cached. A
  /// child stops being probed once its class holds every arrival.
  Probe ProbeLocked(const WalkStep& step);

  /// The Algorithm 1 refinement loop with canonical Largest-First selection
  /// (size desc, smallest external id asc), delegated to the shared
  /// core/refine_loop.h implementation under the mutation's armed
  /// `controller` (may be null). Returns the termination reason; on
  /// kCompleted fills `finals` with the certified roots in canonical order.
  TerminationReason RefineLocked(RunController* controller,
                                 std::vector<NodeId>* finals,
                                 FilterStats* stats);

  /// The snapshot of certified roots, unnumbered (generation 0): members
  /// sorted, clusters in the given canonical order, verification levels read
  /// off the forest.
  EngineSnapshot SnapshotLocked(const std::vector<NodeId>& finals,
                                FilterStats stats) const;

  /// Numbers and publishes SnapshotLocked's snapshot of certified roots.
  void PublishLocked(const std::vector<NodeId>& finals, FilterStats stats);

  /// Compacts the forest to the trees on the live records' paths when it
  /// holds more than kForestCompactionFactor times the nodes the last
  /// compaction kept, remapping every path.
  void CompactForestLocked();

  /// Merge's work once every shard lock is held.
  static EngineSnapshot MergeLocked(
      const MatchRule& rule, Options options,
      std::span<const std::unique_ptr<ResidentEngine>> shards);

  MatchRule rule_;
  Options options_;
  ScopedThreadPool pool_;
  Dataset dataset_;

  // Lazy-initialized on the first non-empty ingest (sequence construction
  // needs a prototype record; calibration needs data).
  bool initialized_ = false;
  std::optional<FunctionSequence> sequence_;
  std::optional<CostModel> cost_model_;
  std::optional<HashEngine> engine_;
  ParentPointerForest forest_;
  std::optional<TransitiveHasher> hasher_;
  std::optional<PairwiseComputer> pairwise_;

  /// Persistent level-1 buckets, one map per table: key -> one live record
  /// holding it, the arrival's way into the key's level-1 tree. Only live
  /// records' keys are present, and all live records sharing a key are in
  /// the same level-1 tree.
  std::vector<std::unordered_map<uint64_t, RecordId>> buckets_;

  // Per-internal-record state (parallel vectors, grown on append).
  std::vector<char> live_;
  /// The record's refinement path: entry j is its leaf in the tree function
  /// j produced for its node, from its component's level-1 tree (front(),
  /// producer 0) down to its current cluster's tree (back(); a P tree only
  /// there), recorded by the refine loop (RefineLoopDeps::paths) and the
  /// walk, so all members of a tree share its entry index. The level-1 tree
  /// is the engine's only record of level-1 membership: its root keeps
  /// producer 0 and refinement never modifies it (arrivals extend it,
  /// compaction carries it over), so it lists exactly the component's live
  /// members until a removal abandons it. Empty for dead records.
  std::vector<std::vector<NodeId>> path_;
  std::vector<int> last_fn_;
  std::vector<ExternalId> ext_of_;

  std::unordered_map<ExternalId, RecordId> int_of_;  // live records only
  ExternalId next_ext_id_ = 0;

  EngineCounters counters_;

  /// Nodes the forest held right after its last compaction (0 before one).
  size_t forest_nodes_kept_ = 0;

  /// counters_.batches at the moment of the last PublishLocked; the
  /// difference to counters_.batches is the snapshot generation lag.
  uint64_t batches_at_publish_ = 0;

  /// Serializes mutations. Queries never take it.
  mutable std::mutex mu_;

  /// Guards only the snapshot pointer swap/read.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const EngineSnapshot> snapshot_;
  uint64_t generation_ = 0;
};

}  // namespace adalsh

#endif  // ADALSH_ENGINE_RESIDENT_ENGINE_H_
