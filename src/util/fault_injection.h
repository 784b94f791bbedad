#ifndef ADALSH_UTIL_FAULT_INJECTION_H_
#define ADALSH_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "util/status.h"

namespace adalsh {

class RunController;

/// Named instrumentation points in the filtering hot paths and the
/// durability plane. Each compute site (the first three) is hit exactly once
/// per unit of cooperative-cancellation granularity, always from the thread
/// driving the run, in an order that is a pure function of the input (never
/// of the thread count) — the property the deterministic degradation tests
/// rely on (docs/robustness.md). The I/O sites (docs/durability.md) are hit
/// once per physical attempt — per write() chunk for kWalAppend, per fsync
/// for kWalSync, twice per checkpoint for kCheckpointWrite (before the temp
/// write and again before the rename), once per replayed frame for
/// kRecoveryReplay — so crash and error injection can land between any two
/// bytes reaching the disk.
enum class FaultSite {
  kHashApply = 0,    // TransitiveHasher::Apply key phase, once per block
  kPairwiseTile,     // PairwiseComputer sweep, once per row stripe
  kMerge,            // TransitiveHasher's serial forest phase, once per block
  kWalAppend,        // MutationLog::Append, once per write() attempt
  kWalSync,          // MutationLog fsync, once per attempt
  kCheckpointWrite,  // checkpoint: hit 1 before temp write, hit 2 pre-rename
  kRecoveryReplay,   // recovery, once per frame about to be re-applied
};
inline constexpr int kNumFaultSites = 7;

/// "hash_apply" / "pairwise_tile" / "merge" / "wal_append" / "wal_sync" /
/// "checkpoint_write" / "recovery_replay".
const char* FaultSiteName(FaultSite site);

/// Parses a FaultSiteName back into the site (InvalidArgument on an unknown
/// name) — the CLI's --crash-at flag names sites in scripts.
StatusOr<FaultSite> ParseFaultSite(const std::string& name);

/// Deterministic fault-injection harness, compiled in always and zero-cost
/// when disabled (one relaxed atomic pointer load per site hit, branch
/// predicted to null). Install with ScopedFaultInjector; production code
/// reports sites via FaultInjectionPoint() and, on the fallible I/O paths,
/// consults ConsumeFailure()/ConsumeShortWrite() through the status hooks.
///
/// Fault kinds, independently configurable per site:
///   * latency: every hit of the site sleeps a fixed number of microseconds,
///     turning wall-clock deadline expiry into a deterministic event ("the
///     deadline fires by the Nth hit");
///   * cancellation/trigger: the Nth hit of the site invokes a trigger
///     (typically RunController::Cancel; the CLI's --crash-at uses
///     std::_Exit), so every degradation path can be exercised at an exact,
///     thread-count-independent point of the run;
///   * error return: hits [nth, nth+repeat) of the site make the
///     instrumented operation fail with an injected Status instead of
///     touching the real resource — how the durability tests model EIO and
///     ENOSPC (docs/durability.md);
///   * short write: the Nth hit caps the instrumented write() at a byte
///     count, producing a torn frame exactly where the test asked for one.
///
/// Hit counters are atomics only so concurrent installs in multi-run test
/// binaries stay race-free; in a single run all hits come from the driving
/// thread and the observed sequence is deterministic.
class FaultInjector {
 public:
  FaultInjector() = default;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Every hit of `site` sleeps `micros` microseconds (0 disables).
  void InjectLatency(FaultSite site, int micros);

  /// The `nth_hit`-th hit of `site` (1-based) invokes `trigger` once.
  void TriggerAt(FaultSite site, uint64_t nth_hit,
                 std::function<void()> trigger);

  /// Convenience: TriggerAt with RunController::Cancel as the trigger.
  void CancelAt(FaultSite site, uint64_t nth_hit, RunController* controller);

  /// Hits [nth_hit, nth_hit + repeat) of `site` report `status` to the
  /// instrumented operation (via ConsumeFailure). repeat = 0 means every hit
  /// from nth_hit on — a permanently failed disk.
  void FailAt(FaultSite site, uint64_t nth_hit, Status status,
              uint64_t repeat = 1);

  /// The `nth_hit`-th hit of `site` caps the instrumented write at
  /// `max_bytes` (torn-frame injection; one shot).
  void ShortWriteAt(FaultSite site, uint64_t nth_hit, size_t max_bytes);

  /// Called by instrumented code (via FaultInjectionPoint).
  void OnSite(FaultSite site);

  /// Called by fallible instrumented code after OnSite: the injected error
  /// for this hit, if any (FaultStatusPoint wraps OnSite + ConsumeFailure).
  std::optional<Status> ConsumeFailure(FaultSite site);

  /// The injected write cap for this hit, if any. Does not count a hit.
  std::optional<size_t> ConsumeShortWrite(FaultSite site);

  /// Total hits of `site` so far — lets tests discover how many sites a
  /// reference run passes before choosing an injection point.
  uint64_t hits(FaultSite site) const;

 private:
  struct SiteState {
    std::atomic<uint64_t> hits{0};
    int latency_micros = 0;
    uint64_t trigger_at = 0;  // 0 = never
    std::function<void()> trigger;
    uint64_t fail_at = 0;    // 0 = never
    uint64_t fail_until = 0;  // exclusive; 0 with fail_at set = forever
    Status fail_status;
    uint64_t short_write_at = 0;  // 0 = never
    size_t short_write_bytes = 0;
  };
  SiteState sites_[kNumFaultSites];
};

namespace internal_fault {
extern std::atomic<FaultInjector*> g_injector;
}  // namespace internal_fault

/// The production-side hook: nearly free when no injector is installed.
inline void FaultInjectionPoint(FaultSite site) {
  FaultInjector* injector =
      internal_fault::g_injector.load(std::memory_order_acquire);
  if (injector != nullptr) injector->OnSite(site);
}

/// Fallible-operation hook: counts a hit and returns the injected error for
/// it, if any. The caller treats a returned Status exactly like the real
/// operation failing with it.
inline std::optional<Status> FaultStatusPoint(FaultSite site) {
  FaultInjector* injector =
      internal_fault::g_injector.load(std::memory_order_acquire);
  if (injector == nullptr) return std::nullopt;
  injector->OnSite(site);
  return injector->ConsumeFailure(site);
}

/// Write-cap hook: the injected short-write limit for the current hit, if
/// any. Counts no hit of its own — call after FaultStatusPoint on the same
/// attempt.
inline std::optional<size_t> FaultShortWritePoint(FaultSite site) {
  FaultInjector* injector =
      internal_fault::g_injector.load(std::memory_order_acquire);
  if (injector == nullptr) return std::nullopt;
  return injector->ConsumeShortWrite(site);
}

/// RAII process-global installation. Installs stack: a nested install
/// shadows the previous injector and the destructor restores it, so a crash
/// test can layer an I/O-fault injector over a long-lived cancellation one
/// (the compute sites of the outer injector go dark while the inner one is
/// installed). Destruction must be in reverse installation order, which
/// scoping gives for free.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector);
  ~ScopedFaultInjector();

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace adalsh

#endif  // ADALSH_UTIL_FAULT_INJECTION_H_
