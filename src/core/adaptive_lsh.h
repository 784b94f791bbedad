#ifndef ADALSH_CORE_ADAPTIVE_LSH_H_
#define ADALSH_CORE_ADAPTIVE_LSH_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "core/cost_model.h"
#include "core/filter_output.h"
#include "core/function_sequence.h"
#include "distance/rule.h"
#include "obs/observer.h"
#include "record/dataset.h"
#include "util/run_controller.h"
#include "util/status.h"

namespace adalsh {

/// Which pending cluster each round expands. kLargestFirst is the paper's
/// rule, proved optimal in Theorems 1-2; the alternatives exist for the
/// ablation benchmark that demonstrates the theorem empirically
/// (bench/ablation_selection) and are honored by AdaptiveLsh::Run only (the
/// resident engines refuse them). All strategies terminate with the same
/// answer — only the cost differs — because termination requires the k
/// largest clusters to be outcomes of H_L or P regardless of order
/// (core/refine_loop.h).
enum class SelectionStrategy {
  kLargestFirst,
  kSmallestFirst,
  kFifo,
  kRandom,
};

/// Configuration of an AdaptiveLsh run.
struct AdaptiveLshConfig {
  /// Design of the function sequence H_1 ... H_L (Section 5).
  SequenceConfig sequence;

  /// Cluster-selection order (see SelectionStrategy).
  SelectionStrategy selection = SelectionStrategy::kLargestFirst;

  /// How Line 5 estimates P's cost (see JumpModel). kConservative is the
  /// paper's Definition 3 model; kSampledPurity implements the Appendix D.2
  /// direction and jumps to P much earlier on large pure clusters.
  JumpModel jump_model = JumpModel::kConservative;

  /// Ablation knob (bench/ablation_incremental): when true, every function
  /// application recomputes its hashes from scratch instead of extending the
  /// per-record caches — disabling the incremental-computation property
  /// (Section 2.2, Property 4) to measure what it is worth.
  bool ablate_incremental_reuse = false;

  /// Samples for cost-model calibration (Appendix E.2 uses 100). Ignored
  /// when an explicit cost model is supplied.
  int calibration_samples = 100;

  /// Noise factor applied to the cost model's P estimate (Fig. 21 study).
  double pairwise_noise_factor = 1.0;

  /// Worker threads for the hash hot path and calibration: 0 uses the global
  /// pool (--threads / hardware concurrency), 1 is strictly serial, N > 1
  /// uses a private pool. Results are byte-identical at any setting
  /// (docs/threading.md).
  int threads = 0;

  /// Seed for all hash functions and calibration sampling.
  uint64_t seed = 1;

  /// Observability sinks (obs/observer.h), borrowed for the lifetime of the
  /// AdaptiveLsh object: trace spans per round/hash pass/P sweep, metric
  /// counters, and Observer callbacks from the thread driving Run(). An
  /// empty Instrumentation (the default) costs one pointer test per round.
  /// Per-round RoundRecords land in FilterStats::round_records regardless.
  Instrumentation instrumentation;

  /// Anytime-execution limits (docs/robustness.md). The default (unlimited)
  /// budget reproduces the run-to-completion behavior bit for bit; any limit
  /// makes Run() return a best-effort partial FilterOutput with
  /// FilterStats::termination_reason set when it fires.
  RunBudget budget;

  /// Optional externally owned controller (borrowed; may be null). When set
  /// it overrides `budget` and lets another thread Cancel() the run; Run()
  /// re-arms it at entry, so its deadline is measured from run start.
  RunController* controller = nullptr;

  /// Validates every field reachable from user input (sequence design,
  /// calibration knobs, budget). InvalidArgument with a field-specific
  /// message on the first violation; OkStatus when a construction from this
  /// config cannot abort on config grounds.
  Status Validate() const;
};

/// Adaptive LSH — Algorithm 1, the paper's primary contribution. Filters a
/// dataset down to the records of its k largest entities by applying a
/// sequence of increasingly accurate (and expensive) transitive hashing
/// functions, always expanding the currently largest cluster (Largest-First,
/// optimal by Theorems 1-2) and jumping to the exact pairwise function P when
/// the cost model says hashing would cost more.
///
/// Typical use:
///
///   AdaptiveLsh adalsh(dataset, rule, config);
///   FilterOutput out = adalsh.Run(/*k=*/10);
///   // out.clusters: the 10 largest clusters, ranked by size.
///
/// To trade precision for recall, pass bk > k to Run() and keep comparing
/// against the top-k ground truth (Section 6.1.2's "return more clusters").
class AdaptiveLsh {
 public:
  /// Builds the function sequence and calibrates the cost model. Aborts on
  /// invalid rule/config (use FunctionSequence::Build directly to probe).
  AdaptiveLsh(const Dataset& dataset, const MatchRule& rule,
              const AdaptiveLshConfig& config);

  AdaptiveLsh(const AdaptiveLsh&) = delete;
  AdaptiveLsh& operator=(const AdaptiveLsh&) = delete;

  /// Runs the filtering stage for the k largest clusters: H_1 over the whole
  /// dataset, then the shared round loop (core/refine_loop.h) with record
  /// ids as the tie-break key. Each call is an independent run (fresh
  /// forest, tables and hash caches). The output is canonical, as the
  /// resident engines publish it: clusters by size descending, ties by
  /// smallest member, members ascending.
  FilterOutput Run(int k);

  /// Incremental mode (Section 4.2): `on_cluster(rank, records)` fires as
  /// soon as each final cluster is known — rank 0 is the largest cluster,
  /// which Theorem 2 guarantees is found at minimum cost — and the full
  /// result is still returned at the end. `on_cluster` may be empty.
  FilterOutput Run(int k,
                   const std::function<void(size_t rank,
                                            const std::vector<RecordId>&)>&
                       on_cluster);

  /// Replaces the calibrated cost model (tests and the Fig. 21 noise study).
  void set_cost_model(const CostModel& model) { cost_model_ = model; }
  const CostModel& cost_model() const { return cost_model_; }

  const FunctionSequence& sequence() const { return sequence_; }

 private:
  const Dataset* dataset_;
  MatchRule rule_;
  AdaptiveLshConfig config_;
  FunctionSequence sequence_;
  CostModel cost_model_;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_ADAPTIVE_LSH_H_
