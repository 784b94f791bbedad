#ifndef ADALSH_CORE_LSH_BLOCKING_H_
#define ADALSH_CORE_LSH_BLOCKING_H_

#include <cstdint>

#include "core/filter_output.h"
#include "core/scheme_optimizer.h"
#include "distance/rule.h"
#include "obs/observer.h"
#include "record/dataset.h"
#include "util/run_controller.h"
#include "util/status.h"

namespace adalsh {

/// Configuration of the LSH-X blocking baseline (Section 6.1.1).
struct LshBlockingConfig {
  /// X — hash functions applied to every record in stage 1. The (w, z)
  /// scheme is chosen by the same optimization programs adaLSH uses, with
  /// w*z <= X.
  int num_hashes = 1280;

  /// True for LSH-X (stage 1 + P verification); false for LSH-X-nP
  /// (Appendix E.1), which trusts the stage-1 clusters.
  bool apply_pairwise = true;

  OptimizerConfig optimizer;

  /// Worker threads for stage 1's hashing (same semantics as
  /// AdaptiveLshConfig::threads): 0 = global pool, 1 = serial, N > 1 =
  /// private pool. Output is identical at any setting.
  int threads = 0;

  uint64_t seed = 1;

  /// Observability sinks (obs/observer.h); same contract as
  /// AdaptiveLshConfig::instrumentation.
  Instrumentation instrumentation;

  /// Anytime-execution limits and optional external controller; same
  /// contract as the AdaptiveLshConfig fields (docs/robustness.md).
  RunBudget budget;
  RunController* controller = nullptr;

  /// Validates every user-settable field; InvalidArgument with a
  /// field-specific message on the first violation.
  Status Validate() const;
};

/// The traditional LSH blocking approach adapted to top-k filtering, with the
/// paper's three fairness optimizations: (1) early termination once k
/// verified clusters dominate all unverified ones, (2) P skips transitively
/// closed pairs, (3) the same implementation/data structures as adaLSH
/// (shared hash engine, forest, and Algorithm 1's canonical candidate order,
/// clustering/candidate_order.h).
class LshBlocking {
 public:
  LshBlocking(const Dataset& dataset, const MatchRule& rule,
              const LshBlockingConfig& config);

  LshBlocking(const LshBlocking&) = delete;
  LshBlocking& operator=(const LshBlocking&) = delete;

  /// Runs the baseline for the k largest clusters.
  FilterOutput Run(int k);

  /// The stage-1 scheme selected for the budget (for reporting).
  const CompositeScheme& scheme() const { return scheme_; }

 private:
  const Dataset* dataset_;
  MatchRule rule_;
  LshBlockingConfig config_;
  RuleHashStructure structure_;
  CompositeScheme scheme_;
  SchemePlan plan_;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_LSH_BLOCKING_H_
