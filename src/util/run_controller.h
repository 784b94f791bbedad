#ifndef ADALSH_UTIL_RUN_CONTROLLER_H_
#define ADALSH_UTIL_RUN_CONTROLLER_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.h"

namespace adalsh {

/// Why a filtering run ended (docs/robustness.md). Every FilterOutput carries
/// one of these in FilterStats::termination_reason; anything other than
/// kCompleted marks a best-effort partial result whose clusters reflect the
/// state after the last fully completed round.
enum class TerminationReason {
  kCompleted = 0,     // ran to the natural Algorithm 1 termination
  kDeadline,          // wall-clock deadline expired
  kCancelled,         // RunController::Cancel() was called
  kBudgetExhausted,   // a pairwise/hash budget ran out
};

/// Human-readable name ("completed", "deadline", "cancelled",
/// "budget_exhausted") — stable identifiers used by the run report JSON and
/// the run_controller metrics.
const char* TerminationReasonName(TerminationReason reason);

/// Resource limits of one filtering run. Default-constructed = unlimited
/// (the pre-existing run-to-completion behavior, bit-for-bit).
struct RunBudget {
  /// Wall-clock deadline in milliseconds, measured from RunController::Arm()
  /// (each filtering method arms at Run()/TopK() entry). <= 0 disables.
  double deadline_ms = 0.0;

  /// Maximum rule evaluations by the exact pairwise function P. 0 disables.
  uint64_t max_pairwise = 0;

  /// Maximum raw LSH hash evaluations. 0 disables.
  uint64_t max_hashes = 0;

  bool unlimited() const {
    return deadline_ms <= 0.0 && max_pairwise == 0 && max_hashes == 0;
  }

  /// InvalidArgument on a non-finite deadline. A negative deadline is valid
  /// and, like 0, disables the deadline.
  Status Validate() const;
};

/// Shared deadline + cooperative cancellation token + resource budgets for
/// one filtering run (the tentpole of docs/robustness.md).
///
/// Threading contract: Cancel() may be called from any thread at any time
/// (it is the only cross-thread entry point, one atomic store). Everything
/// else — Arm, the Report* progress feeds and ShouldStop — is called only by
/// the thread driving the filtering run, at round boundaries and at
/// stripe/block granularity inside the hash and pairwise sweeps. Checks are
/// therefore deterministic points in the run's serial instruction stream:
/// with cancellation triggered at a fixed site hit (FaultInjector), the run
/// stops after the same completed prefix of work at any thread count.
///
/// The stop decision is sticky: once ShouldStop() returns true, reason() is
/// fixed and every later ShouldStop() returns true until the next Arm().
class RunController {
 public:
  /// Unlimited controller (useful as a pure cancellation token).
  RunController() : RunController(RunBudget{}) {}

  /// Budgeted controller, armed immediately (see Arm).
  explicit RunController(const RunBudget& budget);

  RunController(const RunController&) = delete;
  RunController& operator=(const RunController&) = delete;

  /// Starts (or restarts) a run: the deadline clock begins now and
  /// `hash_base` / `pairwise_base` become the zero points the budget caps
  /// are measured against (callers report absolute cumulative totals, which
  /// for long-lived engines span multiple runs). Clears a
  /// previously recorded stop reason but NOT a pending Cancel(): a
  /// cancellation always stops the next (or current) run.
  void Arm(uint64_t hash_base = 0, uint64_t pairwise_base = 0);

  /// Requests cooperative cancellation. Thread-safe; sticky across Arm().
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Progress feeds (driving thread only): absolute cumulative totals from
  /// the run's counter sources. Monotonic — a lower value than previously
  /// reported is ignored, so multiple sources (engine totals vs per-object
  /// totals) can feed the same controller safely.
  void ReportHashes(uint64_t total) {
    if (total > hashes_) hashes_ = total;
  }
  void ReportPairwise(uint64_t total) {
    if (total > pairwise_) pairwise_ = total;
  }

  /// The cooperative check (driving thread only). Returns true when the run
  /// must stop, recording the first reason that fired. Checked in
  /// deterministic order — cancellation, pairwise budget, hash budget, then
  /// the (inherently timing-dependent) deadline — so fault-injected tests
  /// observe reproducible reasons.
  bool ShouldStop();

  /// True once ShouldStop() has returned true since the last Arm().
  bool stopped() const { return reason_ != TerminationReason::kCompleted; }

  /// The recorded stop reason; kCompleted while the run may still proceed.
  TerminationReason reason() const { return reason_; }

  const RunBudget& budget() const { return budget_; }

  /// Milliseconds remaining until the deadline (negative once expired);
  /// +infinity when no deadline is set. Diagnostic only.
  double RemainingMillis() const;

 private:
  RunBudget budget_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<bool> cancelled_{false};
  // Driving-thread state (see threading contract).
  uint64_t hash_base_ = 0;
  uint64_t pairwise_base_ = 0;
  uint64_t hashes_ = 0;
  uint64_t pairwise_ = 0;
  TerminationReason reason_ = TerminationReason::kCompleted;
};

/// Null-tolerant check helper: the hot paths hold a possibly-null controller
/// and this keeps the disabled cost to one pointer test.
inline bool StopRequested(RunController* controller) {
  return controller != nullptr && controller->ShouldStop();
}

}  // namespace adalsh

#endif  // ADALSH_UTIL_RUN_CONTROLLER_H_
