#ifndef ADALSH_CORE_REFINE_LOOP_H_
#define ADALSH_CORE_REFINE_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "clustering/parent_pointer_forest.h"
#include "core/adaptive_lsh.h"
#include "core/cost_model.h"
#include "core/filter_output.h"
#include "core/function_sequence.h"
#include "core/hash_engine.h"
#include "core/pairwise.h"
#include "core/transitive_hash_function.h"
#include "obs/observer.h"
#include "obs/trace_recorder.h"
#include "util/run_controller.h"

namespace adalsh {

/// The Algorithm 1 refinement round loop — the only code that runs
/// Algorithm 1 rounds. Every execution context drives it, so all of them
/// agree byte-for-byte: the batch filter (AdaptiveLsh::Run, after its H_1
/// pass over the whole dataset, with the record id as the order key), the
/// resident engine's per-mutation refinement, each shard's local run, and
/// the cross-shard merge pass (docs/sharding.md).
///
/// Candidates are ordered canonically — cluster size descending, ties by
/// ascending smallest per-record order key (the engines and the sharded
/// merge use external ids, the batch filter record ids; keys are unique per
/// cluster, so the root id never actually decides). Unverified clusters wait
/// in a pending set, outcomes of H_L or P in a certified set. A certified
/// cluster becomes the next final once it precedes every pending cluster —
/// nothing still pending can outrank it — and the loop stops after k finals
/// or when both sets drain. Otherwise it expands one pending cluster, chosen
/// by the config's SelectionStrategy: Largest-First (the paper's rule,
/// Theorems 1-2) takes the first, the ablation orders the smallest, the
/// oldest, or a seeded random one. For Largest-First this is exactly "pop
/// the largest cluster; stop after k final pops".
///
/// Selection order cannot change final cluster membership — refinement of a
/// (member set, level) cluster is deterministic in isolation — but a
/// canonical order makes the emitted finals, round schedule and anytime
/// prefixes reproducible.
struct RefineLoopDeps {
  /// Selection order, jump model, seed and instrumentation sinks.
  const AdaptiveLshConfig* config = nullptr;
  const FunctionSequence* sequence = nullptr;
  const CostModel* cost_model = nullptr;
  HashEngine* engine = nullptr;
  TransitiveHasher* hasher = nullptr;
  PairwiseComputer* pairwise = nullptr;
  ParentPointerForest* forest = nullptr;

  /// Per internal record: last function applied (kLastFunctionPairwise for
  /// P). Updated as rounds complete.
  std::vector<int>* last_fn = nullptr;

  /// Per internal record: the canonical tie-break key (the resident engine's
  /// external id). Must be unique per record so the selection order is
  /// total. Null means the record id itself (the batch filter).
  const std::vector<uint64_t>* order_key = nullptr;

  /// Optional per-record refinement paths (resident engine bookkeeping):
  /// entry j is a record's leaf in the tree function j produced for its
  /// node, from its level-1 tree (front()) to its current tree (back()), a
  /// P tree only last. A completed round appends each output tree's leaves
  /// to their records' paths. May be null.
  std::vector<std::vector<NodeId>>* paths = nullptr;

  /// Incremental mode (Section 4.2): called with (rank, records) as soon as
  /// each final is certified, in rank order. Not called for the clusters an
  /// anytime stop fills in. May be empty.
  std::function<void(size_t rank, const std::vector<RecordId>&)> on_final;
};

/// Runs the loop from `initial_roots` (deduplicated current tree roots, any
/// mix of verification levels) under `controller`, checked at every round
/// boundary. The caller resolves and arms the controller (may be null): the
/// batch filter once per Run, so H_1 counts against its deadline and
/// budgets; the resident engine once per pass, with its cumulative counters
/// as the zero points.
///
/// On return `finals` holds the certified roots in canonical order. When
/// the controller stopped the loop, the largest remaining clusters — verified
/// or not, still in canonical order — complete the top-k (the engines
/// publish nothing from such a pass).
///
/// Adds the loop's share to `stats`: rounds, round_records, hash/pairwise
/// totals (so a caller's own earlier rounds stay counted) and modeled_cost;
/// sets filtering_seconds (the loop's own time), termination_reason and
/// cluster_verification. The caller owns the per-record Definition 3
/// snapshot (records_last_hashed_at) and the ReportTermination epilogue,
/// which need the caller's live-record iteration.
TerminationReason RunRefineLoop(const RefineLoopDeps& deps, int k,
                                const std::vector<NodeId>& initial_roots,
                                RunController* controller,
                                std::vector<NodeId>* finals,
                                FilterStats* stats);

/// Closes out one finished round: appends it to `stats`, annotates its
/// trace span and notifies the metric and observer sinks. Shared by the loop
/// and AdaptiveLsh::Run's H_1 round.
void RecordRound(const Instrumentation& instr, RoundRecord round,
                 TraceRecorder::Span* span, FilterStats* stats);

}  // namespace adalsh

#endif  // ADALSH_CORE_REFINE_LOOP_H_
