#ifndef ADALSH_OBS_OBSERVER_H_
#define ADALSH_OBS_OBSERVER_H_

#include <cstddef>
#include <cstdint>

#include "obs/events.h"
#include "util/run_controller.h"

namespace adalsh {

class MetricsRegistry;
class TraceRecorder;

/// Notification payloads. All fields are exact counts/times for the reported
/// event, not cumulative totals.

struct RoundStartInfo {
  size_t round = 0;         // 1-based
  size_t cluster_size = 0;  // records the round will treat
  /// Producer of the cluster being refined: sequence index of the function
  /// that built it (0-based), or -1 for the initial whole-dataset round.
  int producer = -1;
};

struct FunctionApplyInfo {
  int function_index = 0;   // sequence index of the applied H_i
  size_t records = 0;       // records hashed
  uint64_t hashes_computed = 0;
  size_t clusters_out = 0;  // trees the invocation produced
  double seconds = 0.0;     // wall time of the invocation
};

struct PairwiseBatchInfo {
  size_t records = 0;       // records swept by P
  uint64_t similarities = 0;  // rule evaluations actually performed
  size_t clusters_out = 0;  // connected components found
  double seconds = 0.0;     // wall time of the sweep
};

struct TerminationInfo {
  TerminationReason reason = TerminationReason::kCompleted;
  size_t rounds = 0;           // rounds recorded (incl. an interrupted one)
  size_t clusters_returned = 0;
  uint64_t hashes_computed = 0;
  uint64_t pairwise_similarities = 0;
  double elapsed_seconds = 0.0;
};

/// Pluggable pipeline observer. AdaptiveLsh, the resident engines,
/// LshBlocking, PairsBaseline, PairwiseComputer, the TransitiveHasher and
/// the cost-model calibration all report through this interface when one is
/// attached (see Instrumentation); with none attached the hooks cost a
/// single pointer test.
///
/// Threading contract: every callback fires on the thread driving the
/// filtering run (never from pool workers), strictly ordered:
/// OnRoundStart precedes the OnFunctionApplied/OnPairwiseBatch of its round,
/// which precede its OnRoundEnd. Implementations therefore need no locking
/// of their own unless they share state across runs.
class Observer {
 public:
  virtual ~Observer() = default;

  /// A refinement round picked a cluster and is about to treat it.
  virtual void OnRoundStart(const RoundStartInfo&) {}

  /// The round finished; `record` is its final accounting (the same object
  /// appended to FilterStats::round_records).
  virtual void OnRoundEnd(const RoundRecord&) {}

  /// A transitive hashing function was applied to a record set.
  virtual void OnFunctionApplied(const FunctionApplyInfo&) {}

  /// The exact pairwise function P swept a record set.
  virtual void OnPairwiseBatch(const PairwiseBatchInfo&) {}

  /// The run ended — the last callback of every run, fired whether it
  /// completed or degraded (deadline/cancel/budget; docs/robustness.md).
  virtual void OnTermination(const TerminationInfo&) {}
};

/// Bundle of observability sinks threaded through the pipeline. All pointers
/// are borrowed and may independently be null; a default-constructed
/// Instrumentation disables everything at the cost of one pointer test per
/// (coarse) event. Copy freely — it is three pointers.
struct Instrumentation {
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  Observer* observer = nullptr;

  bool enabled() const {
    return metrics != nullptr || trace != nullptr || observer != nullptr;
  }
};

}  // namespace adalsh

#endif  // ADALSH_OBS_OBSERVER_H_
