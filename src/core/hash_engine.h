#ifndef ADALSH_CORE_HASH_ENGINE_H_
#define ADALSH_CORE_HASH_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "lsh/composite_scheme.h"
#include "lsh/hash_cache.h"
#include "obs/observer.h"
#include "record/dataset.h"
#include "util/thread_pool.h"

namespace adalsh {

/// Owns one HashCache per hash unit of a compiled rule and turns cached raw
/// hashes into table bucket keys. A single engine is shared by every
/// transitive hashing function in a run, which is what makes the sequence
/// incremental: H_{i+1}'s plan asks for a longer prefix of the same per-unit
/// streams H_i already computed. A record's slots are freed by ClearHashes
/// and lent to another engine by SwapRecordHashes, never copied.
class HashEngine {
 public:
  /// `structure` must come from CompileRuleForHashing on the rule used by
  /// the run; `seed` determines all hash functions.
  HashEngine(const Dataset& dataset, RuleHashStructure structure,
             uint64_t seed);

  HashEngine(const HashEngine&) = delete;
  HashEngine& operator=(const HashEngine&) = delete;

  /// Ensures record r's caches cover every prefix `plan` needs.
  void EnsureHashes(RecordId r, const SchemePlan& plan);

  /// Forgets every cached hash of record r and frees their storage, so the
  /// next EnsureHashes recomputes them from scratch and counts them again
  /// (the incremental-reuse ablation; the resident engine's removals). Same
  /// concurrency contract as EnsureHashes.
  void ClearHashes(RecordId r);

  /// Batch form: ensures every record in `records` covers `plan`,
  /// partitioning the records across `pool`'s workers (serial when `pool` is
  /// null). Safe because each record owns independent cache slots; family
  /// parameters are Prepare()d and the slots reserved (ReserveHashes) on the
  /// calling thread before forking. The total hash count is identical to
  /// calling EnsureHashes serially — per-record prefix extensions are
  /// order-independent.
  void EnsureHashesParallel(std::span<const RecordId> records,
                            const SchemePlan& plan, ThreadPool* pool);

  /// Grows every record's slots to hold the prefixes `plan` needs, computing
  /// nothing (HashCache::Reserve). Every parallel hash pass calls it before
  /// it forks, so long-lived slots stay in the calling thread's allocator
  /// arena instead of scattering over the workers' arenas.
  void ReserveHashes(std::span<const RecordId> records,
                     const SchemePlan& plan);

  /// Serially materializes every unit's family parameters up to the prefix
  /// `plan` needs. After this, EnsureHashes calls covered by `plan` may run
  /// concurrently for distinct records (EnsureHashesParallel does both steps;
  /// this is for callers that fold hashing into their own ParallelFor).
  void PreparePlan(const SchemePlan& plan);

  /// Extends every unit's cache to cover records [old, num_records) appended
  /// to the dataset since construction (no-op when nothing was appended).
  /// Existing cached prefixes are untouched — see HashCache::GrowTo. Call
  /// from the ingesting thread, outside any concurrent hash pass.
  void GrowTo(size_t num_records);

  /// Bucket keys of record r for every table of `plan`, folded in one call:
  /// table t's key goes to out[t * stride] (stride 1 for one record's keys,
  /// the pass's record count for TransitiveHasher's table-major buffer).
  /// EnsureHashes must have covered the plan for r — checked once per unit
  /// against `plan.hashes_per_unit`, which must cover every table part (as
  /// BuildPlan's plans do). Safe to call concurrently for distinct records.
  void TableKeys(RecordId r, const SchemePlan& plan, uint64_t* out,
                 size_t stride = 1) const;

  /// Exchanges record r's per-unit hash slots with record `other_r`'s slots
  /// in `*other`, an engine built over the same rule structure and seed whose
  /// record `other_r` has the same content as this engine's record r (see
  /// HashCache::SwapSlot). The cross-shard merge borrows every live record's
  /// slots from its shard this way and swaps them back, extended by what it
  /// computed; nothing is copied or counted. Single-threaded, outside any
  /// hash pass of either engine.
  void SwapRecordHashes(RecordId r, HashEngine* other, RecordId other_r);

  /// Total raw hash evaluations across all units (cost accounting).
  uint64_t total_hashes_computed() const;

  /// Hash values currently held across all units and records (memory
  /// accounting: computed prefixes, not evaluations).
  size_t cached_hash_values() const;

  /// Attaches observability sinks: EnsureHashesParallel emits a `hash_pass`
  /// trace span and a `hashes_computed` counter delta. Callers that drive
  /// EnsureHashes through their own loops (TransitiveHasher) report at their
  /// level instead, so counters are never double-counted.
  void set_instrumentation(Instrumentation instr) { instr_ = instr; }

  const RuleHashStructure& structure() const { return structure_; }
  const Dataset& dataset() const { return *dataset_; }

 private:
  const Dataset* dataset_;
  RuleHashStructure structure_;
  std::vector<HashCache> caches_;  // one per unit
  Instrumentation instr_;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_HASH_ENGINE_H_
