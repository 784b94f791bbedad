#ifndef ADALSH_CORE_TRANSITIVE_HASH_FUNCTION_H_
#define ADALSH_CORE_TRANSITIVE_HASH_FUNCTION_H_

#include <cstdint>
#include <vector>

#include "clustering/parent_pointer_forest.h"
#include "core/hash_engine.h"
#include "lsh/composite_scheme.h"
#include "obs/observer.h"
#include "util/run_controller.h"

namespace adalsh {

/// Applies transitive hashing functions (Definition 1) with the efficient
/// implementation of Appendix B.2:
///   * each invocation uses fresh hash tables (so clusters from different
///     invocations never merge);
///   * every bucket stores only the record last added to it;
///   * record/tree bookkeeping follows the four cases of Fig. 19, building
///     parent-pointer trees in the shared forest.
///
/// One TransitiveHasher is reused for all invocations in a run (or, in the
/// resident engine, for the life of the process); it keeps the
/// epoch-stamped record->leaf scratch map so per-invocation setup is O(1),
/// and reuses its key buffer and bucket table across invocations.
///
/// Each Apply is three phases (docs/threading.md):
///   1. keys — hash evaluation and every table's bucket key per record,
///      fanned out to `pool` in blocks of records, written table-major into
///      one buffer holding the whole pass;
///   2. buckets — one table at a time through one flat open-addressing
///      table, replacing each key with its bucket's previous record (the
///      record the paper's bucket would hold when this one arrives);
///   3. forest — Fig. 19's cases replayed serially in record order from
///      those predecessors.
/// A record's predecessor in table t depends only on table t's keys of the
/// records before it, so phase 2 reproduces the record-major merge's bucket
/// contents exactly, and phase 3 issues the same forest calls in the same
/// order: the output is byte-identical to a single-threaded record-major
/// run at any thread count.
class TransitiveHasher {
 public:
  /// `pool` may be null for strictly serial execution. `instr` attaches
  /// observability sinks: each Apply emits a `hash_pass` trace span (inside
  /// it, one `buckets` span and a `merge` span per forest-phase block), an
  /// Observer::OnFunctionApplied event and metric counters; empty
  /// instrumentation costs one boolean test per Apply.
  TransitiveHasher(HashEngine* engine, ParentPointerForest* forest,
                   size_t num_records, ThreadPool* pool = nullptr,
                   Instrumentation instr = {},
                   RunController* controller = nullptr);

  TransitiveHasher(const TransitiveHasher&) = delete;
  TransitiveHasher& operator=(const TransitiveHasher&) = delete;

  /// Attaches/detaches the cooperative-cancellation controller (borrowed,
  /// may be null). Long-lived hashers (resident engine) point this at the
  /// controller of the current refinement pass.
  void set_controller(RunController* controller) { controller_ = controller; }

  /// Ablation knob (AdaptiveLshConfig::ablate_incremental_reuse): when
  /// false, every Apply clears its records' cached hashes before hashing, so
  /// each function application recomputes — and the engine counts — every
  /// hash from scratch instead of extending the per-record caches.
  void set_reuse_hashes(bool reuse) { reuse_hashes_ = reuse; }

  /// Extends the per-record scratch maps after records were appended to the
  /// dataset (resident-engine ingest). New entries start unstamped, so they
  /// are invisible until an Apply touches them. Ingesting thread only.
  void GrowTo(size_t num_records);

  /// Applies the function described by `plan` to `records`, producing one new
  /// tree per output cluster, each tagged with `producer` (the function's
  /// 0-based sequence index). Returns the new roots. Hash computation goes
  /// through the engine's caches, so values computed by earlier functions are
  /// reused (incremental computation, Appendix B.2).
  ///
  /// Anytime behavior: the attached RunController is checked once per
  /// kKeyBlock record block of the key phase, on the driving thread, at
  /// input-deterministic boundaries. A stopped Apply sets
  /// last_apply_interrupted() and returns an empty root set without touching
  /// the forest: records in unprocessed blocks were never hashed, so callers
  /// must discard the round (the input records' previous trees are
  /// untouched — see docs/robustness.md).
  std::vector<NodeId> Apply(const std::vector<RecordId>& records,
                            const SchemePlan& plan, int producer);

  /// True when the last Apply was stopped mid-pass by the controller.
  bool last_apply_interrupted() const { return interrupted_; }

  /// Sets the invocation counter, so tests can run passes across its wrap.
  void set_epoch_for_test(uint32_t epoch) { epoch_ = epoch; }

 private:
  /// One slot of the bucket table: a key and the record last added under it
  /// (kNoRecord marks an empty slot).
  struct Bucket {
    uint64_t key;
    RecordId last;
  };

  /// Phase 2: replaces each key of keys_ by its bucket predecessor.
  void LinkBucketPredecessors(const std::vector<RecordId>& records,
                              size_t num_tables);

  HashEngine* engine_;
  ParentPointerForest* forest_;
  ThreadPool* pool_;
  Instrumentation instr_;
  RunController* controller_;
  bool interrupted_ = false;
  bool reuse_hashes_ = true;
  std::vector<NodeId> leaf_of_;      // valid when leaf_epoch_[r] == epoch_
  std::vector<uint32_t> leaf_epoch_;
  /// Table-major, keys_[t * records + i]: record i's key in table t after
  /// phase 1, its predecessor in table t (or kNoRecord) after phase 2.
  std::vector<uint64_t> keys_;
  std::vector<Bucket> buckets_;  // power-of-two size, cleared per table
  uint32_t epoch_ = 0;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_TRANSITIVE_HASH_FUNCTION_H_
