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
/// One TransitiveHasher is reused for all invocations in a run; it keeps the
/// epoch-stamped record->leaf scratch map so per-invocation setup is O(1).
///
/// Parallel execution (docs/threading.md): hash evaluation and bucket-key
/// construction — the run's hot path — are farmed out to `pool` in blocks of
/// records, while the bucket/forest merge consumes the precomputed keys
/// serially in record order. The merge is the only stateful step ("bucket
/// remembers the last-added record", Fig. 19's four cases), so keeping it
/// serial makes the output byte-identical to a single-threaded run at any
/// thread count.
class TransitiveHasher {
 public:
  /// `pool` may be null for strictly serial execution. `instr` attaches
  /// observability sinks: each Apply emits a `hash_pass` trace span (plus a
  /// `merge` span per serial merge block), an Observer::OnFunctionApplied
  /// event and metric counters; empty instrumentation costs one boolean test
  /// per Apply.
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
  /// kKeyBlock record block, on the driving thread, at input-deterministic
  /// boundaries. A stopped Apply sets last_apply_interrupted() and returns
  /// an empty root set: records in unprocessed blocks were never hashed, so
  /// the invocation's partial trees are incomplete and callers must discard
  /// the round (the input records' previous trees are untouched — see
  /// docs/robustness.md).
  std::vector<NodeId> Apply(const std::vector<RecordId>& records,
                            const SchemePlan& plan, int producer);

  /// True when the last Apply was stopped mid-pass by the controller.
  bool last_apply_interrupted() const { return interrupted_; }

 private:
  HashEngine* engine_;
  ParentPointerForest* forest_;
  ThreadPool* pool_;
  Instrumentation instr_;
  RunController* controller_;
  bool interrupted_ = false;
  bool reuse_hashes_ = true;
  std::vector<NodeId> leaf_of_;      // valid when leaf_epoch_[r] == epoch_
  std::vector<uint32_t> leaf_epoch_;
  std::vector<uint64_t> key_block_;  // reused per-block key buffer
  uint32_t epoch_ = 0;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_TRANSITIVE_HASH_FUNCTION_H_
