// Tests for deadline-aware anytime execution (docs/robustness.md): the
// RunController/RunBudget primitives, the deterministic fault-injection
// harness, and — the property the whole design hangs on — that a run stopped
// at an exact, fault-injected point returns a *valid* best-effort partial
// FilterOutput that is bit-identical at any thread count.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_lsh.h"
#include "core/cost_model.h"
#include "core/lsh_blocking.h"
#include "core/pairs_baseline.h"
#include "datagen/generated_dataset.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/run_controller.h"
#include "util/rng.h"

namespace adalsh {
namespace {

const int kThreadCounts[] = {1, 2, 8};
const FaultSite kAllSites[] = {FaultSite::kHashApply, FaultSite::kPairwiseTile,
                               FaultSite::kMerge};

/// Fixed cost model (as in parallel_equivalence_test.cc) so jump-to-P
/// decisions do not depend on wall-clock calibration noise.
CostModel FixedCostModel() { return CostModel(1e-8, 1e-6); }

// ---------------------------------------------------------------------------
// RunBudget / RunController unit behavior.
// ---------------------------------------------------------------------------

TEST(RunBudgetTest, DefaultIsUnlimitedAndValid) {
  RunBudget budget;
  EXPECT_TRUE(budget.unlimited());
  EXPECT_TRUE(budget.Validate().ok());
}

TEST(RunBudgetTest, NonFiniteDeadlineIsInvalid) {
  RunBudget budget;
  budget.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(budget.Validate().ok());
  budget.deadline_ms = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(budget.Validate().ok());
  budget.deadline_ms = -5.0;  // negative = disabled, not invalid
  EXPECT_TRUE(budget.Validate().ok());
}

TEST(RunBudgetTest, DeadlineTheClockCannotHoldIsInvalid) {
  // Arm adds the deadline to a steady_clock time point, 64-bit nanoseconds:
  // 1e300 ms overflowed it and stopped every run at its first check.
  RunBudget budget;
  budget.deadline_ms = 1e300;
  EXPECT_EQ(budget.Validate().code(), StatusCode::kInvalidArgument);
  budget.deadline_ms = 2 * kMaxDeadlineMs;
  EXPECT_FALSE(budget.Validate().ok());
  AdaptiveLshConfig config;
  config.budget.deadline_ms = 1e300;
  EXPECT_FALSE(config.Validate().ok());

  // The longest valid deadline still lies about 31 years ahead once armed.
  budget.deadline_ms = kMaxDeadlineMs;
  ASSERT_TRUE(budget.Validate().ok());
  RunController controller(budget);
  EXPECT_FALSE(controller.ShouldStop());
  EXPECT_GT(controller.RemainingMillis(), 0.99 * kMaxDeadlineMs);
}

TEST(RunControllerTest, UnlimitedControllerNeverStops) {
  RunController controller;
  controller.ReportHashes(1u << 30);
  controller.ReportPairwise(1u << 30);
  EXPECT_FALSE(controller.ShouldStop());
  EXPECT_FALSE(controller.stopped());
  EXPECT_EQ(controller.reason(), TerminationReason::kCompleted);
  EXPECT_EQ(controller.RemainingMillis(),
            std::numeric_limits<double>::infinity());
}

TEST(RunControllerTest, CancelStopsAndIsSticky) {
  RunController controller;
  EXPECT_FALSE(controller.ShouldStop());
  controller.Cancel();
  EXPECT_TRUE(controller.cancel_requested());
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.reason(), TerminationReason::kCancelled);
  // Sticky within the run...
  EXPECT_TRUE(controller.ShouldStop());
  // ...and across Arm(): a cancellation always stops the next run too.
  controller.Arm();
  EXPECT_EQ(controller.reason(), TerminationReason::kCompleted);
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.reason(), TerminationReason::kCancelled);
}

TEST(RunControllerTest, PairwiseBudgetTrips) {
  RunBudget budget;
  budget.max_pairwise = 100;
  RunController controller(budget);
  controller.ReportPairwise(99);
  EXPECT_FALSE(controller.ShouldStop());
  controller.ReportPairwise(100);
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.reason(), TerminationReason::kBudgetExhausted);
}

TEST(RunControllerTest, HashBudgetTrips) {
  RunBudget budget;
  budget.max_hashes = 10;
  RunController controller(budget);
  controller.ReportHashes(9);
  EXPECT_FALSE(controller.ShouldStop());
  controller.ReportHashes(10);
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.reason(), TerminationReason::kBudgetExhausted);
}

TEST(RunControllerTest, ProgressReportsAreMonotonicMax) {
  RunBudget budget;
  budget.max_hashes = 100;
  RunController controller(budget);
  controller.ReportHashes(150);
  controller.ReportHashes(10);  // lower report must not rewind progress
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.reason(), TerminationReason::kBudgetExhausted);
}

TEST(RunControllerTest, ArmBasesOffsetBudgets) {
  // Long-lived engines (streaming) report cumulative totals across calls;
  // the bases make the caps per-run.
  RunBudget budget;
  budget.max_hashes = 100;
  budget.max_pairwise = 50;
  RunController controller(budget);
  controller.Arm(/*hash_base=*/1000, /*pairwise_base=*/500);
  controller.ReportHashes(1099);
  controller.ReportPairwise(549);
  EXPECT_FALSE(controller.ShouldStop());
  controller.ReportHashes(1100);
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.reason(), TerminationReason::kBudgetExhausted);
}

TEST(RunControllerTest, CancellationWinsTheCheckOrder) {
  RunBudget budget;
  budget.max_pairwise = 1;
  RunController controller(budget);
  controller.ReportPairwise(10);  // budget exhausted too
  controller.Cancel();
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.reason(), TerminationReason::kCancelled);
}

TEST(RunControllerTest, ExpiredDeadlineStops) {
  RunBudget budget;
  budget.deadline_ms = 1e-9;  // rounds to a zero-length deadline
  RunController controller(budget);
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.reason(), TerminationReason::kDeadline);
  EXPECT_LE(controller.RemainingMillis(), 0.0);
}

TEST(TerminationReasonTest, NamesAreStable) {
  // The run report JSON and the run_controller metrics key on these.
  EXPECT_STREQ(TerminationReasonName(TerminationReason::kCompleted),
               "completed");
  EXPECT_STREQ(TerminationReasonName(TerminationReason::kDeadline),
               "deadline");
  EXPECT_STREQ(TerminationReasonName(TerminationReason::kCancelled),
               "cancelled");
  EXPECT_STREQ(TerminationReasonName(TerminationReason::kBudgetExhausted),
               "budget_exhausted");
}

// ---------------------------------------------------------------------------
// FaultInjector unit behavior.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, CountsHitsAndTriggersAtNth) {
  FaultInjector injector;
  int fired = 0;
  injector.TriggerAt(FaultSite::kHashApply, 2, [&] { ++fired; });
  ScopedFaultInjector scoped(&injector);
  FaultInjectionPoint(FaultSite::kHashApply);
  EXPECT_EQ(fired, 0);
  FaultInjectionPoint(FaultSite::kHashApply);
  EXPECT_EQ(fired, 1);
  FaultInjectionPoint(FaultSite::kHashApply);  // fires once, not again
  EXPECT_EQ(fired, 1);
  FaultInjectionPoint(FaultSite::kMerge);  // other sites independent
  EXPECT_EQ(injector.hits(FaultSite::kHashApply), 3u);
  EXPECT_EQ(injector.hits(FaultSite::kMerge), 1u);
  EXPECT_EQ(injector.hits(FaultSite::kPairwiseTile), 0u);
}

TEST(FaultInjectorTest, UninstalledSitesAreInert) {
  FaultInjector injector;
  {
    ScopedFaultInjector scoped(&injector);
    FaultInjectionPoint(FaultSite::kPairwiseTile);
  }
  FaultInjectionPoint(FaultSite::kPairwiseTile);  // after uninstall: no-op
  EXPECT_EQ(injector.hits(FaultSite::kPairwiseTile), 1u);
}

TEST(FaultInjectorTest, CancelAtCancelsTheController) {
  FaultInjector injector;
  RunController controller;
  injector.CancelAt(FaultSite::kPairwiseTile, 1, &controller);
  ScopedFaultInjector scoped(&injector);
  EXPECT_FALSE(controller.cancel_requested());
  FaultInjectionPoint(FaultSite::kPairwiseTile);
  EXPECT_TRUE(controller.cancel_requested());
}

// ---------------------------------------------------------------------------
// Method-level anytime behavior.
// ---------------------------------------------------------------------------

/// Everything in a (possibly partial) FilterOutput that the robustness
/// contract defines to be deterministic. Timing fields are excluded.
struct RoundSummary {
  size_t cluster_size;
  uint64_t hashes;
  uint64_t pairwise;
  bool interrupted;

  bool operator==(const RoundSummary&) const = default;
};

struct ComparablePartial {
  std::vector<std::vector<RecordId>> clusters;
  std::vector<int> verification;
  TerminationReason reason;
  uint64_t hashes;
  uint64_t pairwise;
  std::vector<RoundSummary> rounds;
  std::vector<size_t> records_last_hashed_at;
  size_t records_finished_by_pairwise;

  bool operator==(const ComparablePartial&) const = default;
};

ComparablePartial Comparable(const FilterOutput& output) {
  ComparablePartial c;
  c.clusters = output.clusters.clusters;
  c.verification = output.stats.cluster_verification;
  c.reason = output.stats.termination_reason;
  c.hashes = output.stats.hashes_computed;
  c.pairwise = output.stats.pairwise_similarities;
  for (const RoundRecord& round : output.stats.round_records) {
    c.rounds.push_back(RoundSummary{round.cluster_size, round.hashes_computed,
                                    round.pairwise_similarities,
                                    round.interrupted});
  }
  c.records_last_hashed_at = output.stats.records_last_hashed_at;
  c.records_finished_by_pairwise = output.stats.records_finished_by_pairwise;
  return c;
}

/// Structural validity of a best-effort partial output: disjoint in-range
/// clusters, an aligned verification array, at most k clusters, and the
/// FilterStats sum invariants (which must survive interrupted rounds).
void ExpectValidPartial(const FilterOutput& output, size_t num_records,
                        int k) {
  EXPECT_LE(output.clusters.clusters.size(), static_cast<size_t>(k));
  std::set<RecordId> seen;
  for (const std::vector<RecordId>& cluster : output.clusters.clusters) {
    EXPECT_FALSE(cluster.empty());
    for (RecordId r : cluster) {
      EXPECT_LT(r, num_records);
      EXPECT_TRUE(seen.insert(r).second) << "record " << r << " in two clusters";
    }
  }
  const FilterStats& stats = output.stats;
  ASSERT_EQ(stats.cluster_verification.size(), output.clusters.clusters.size());
  for (int level : stats.cluster_verification) {
    EXPECT_GE(level, kLastFunctionPairwise);
  }
  EXPECT_EQ(stats.round_records.size(), stats.rounds);
  uint64_t round_hashes = 0;
  uint64_t round_pairwise = 0;
  for (const RoundRecord& round : stats.round_records) {
    round_hashes += round.hashes_computed;
    round_pairwise += round.pairwise_similarities;
  }
  EXPECT_EQ(round_hashes, stats.hashes_computed);
  EXPECT_EQ(round_pairwise, stats.pairwise_similarities);
  // Definition 3 conservation: every record counted exactly once. The one
  // exception is the Pairs baseline stopped before its single round, which
  // treated nothing.
  size_t treated = stats.records_finished_by_pairwise;
  for (size_t n : stats.records_last_hashed_at) treated += n;
  EXPECT_TRUE(treated == num_records || (stats.rounds == 0 && treated == 0))
      << "treated " << treated << " of " << num_records << " records in "
      << stats.rounds << " rounds";
}

GeneratedDataset PlantedForSeed(uint64_t seed, uint64_t salt) {
  Rng rng(DeriveSeed(seed, salt));
  std::vector<size_t> sizes;
  for (int c = 0; c < 5; ++c) sizes.push_back(2 + rng.NextBelow(20));
  for (int s = 0; s < 20; ++s) sizes.push_back(1);
  return test::MakePlantedDataset(sizes, seed);
}

FilterOutput RunAdaptive(const GeneratedDataset& generated, uint64_t seed,
                         int threads, int k, RunController* controller,
                         FaultInjector* injector, RunBudget budget = {},
                         bool ablate = false) {
  AdaptiveLshConfig config;
  config.sequence.max_budget = 320;
  config.calibration_samples = 5;
  config.seed = seed;
  config.threads = threads;
  config.budget = budget;
  config.controller = controller;
  config.ablate_incremental_reuse = ablate;
  AdaptiveLsh adalsh(generated.dataset, generated.rule, config);
  adalsh.set_cost_model(FixedCostModel());
  // Installed only around Run(): construction/calibration is out of scope.
  std::optional<ScopedFaultInjector> scoped;
  if (injector != nullptr) scoped.emplace(injector);
  return adalsh.Run(k);
}

FilterOutput RunLshBlocking(const GeneratedDataset& generated, uint64_t seed,
                            int threads, int k, RunController* controller,
                            FaultInjector* injector, RunBudget budget = {}) {
  LshBlockingConfig config;
  config.num_hashes = 256;
  config.seed = seed;
  config.threads = threads;
  config.budget = budget;
  config.controller = controller;
  LshBlocking blocking(generated.dataset, generated.rule, config);
  std::optional<ScopedFaultInjector> scoped;
  if (injector != nullptr) scoped.emplace(injector);
  return blocking.Run(k);
}

FilterOutput RunPairs(const GeneratedDataset& generated, int threads, int k,
                      RunController* controller, FaultInjector* injector,
                      RunBudget budget = {}) {
  PairsBaseline pairs(generated.dataset, generated.rule, threads,
                      Instrumentation{}, budget, controller);
  std::optional<ScopedFaultInjector> scoped;
  if (injector != nullptr) scoped.emplace(injector);
  return pairs.Run(k);
}

/// The core fault-injection matrix: cancel at the nth hit of `site` and
/// demand a valid, kCancelled partial output that is identical at every
/// thread count. `runner` abstracts over the method.
template <typename Runner>
void ExpectCancellationDeterministicAcrossThreads(
    Runner runner, size_t num_records, int k, FaultSite site, uint64_t nth,
    const char* what) {
  std::optional<ComparablePartial> reference;
  for (int threads : kThreadCounts) {
    RunController token;  // unlimited: a pure cancellation token
    FaultInjector injector;
    injector.CancelAt(site, nth, &token);
    FilterOutput output = runner(threads, &token, &injector);
    EXPECT_EQ(output.stats.termination_reason, TerminationReason::kCancelled)
        << what << " site " << FaultSiteName(site) << " nth " << nth;
    ExpectValidPartial(output, num_records, k);
    ComparablePartial comparable = Comparable(output);
    if (!reference.has_value()) {
      reference = std::move(comparable);
    } else {
      EXPECT_EQ(comparable, *reference)
          << what << ": partial output with " << threads
          << " threads diverged (site " << FaultSiteName(site) << ", hit "
          << nth << ")";
    }
  }
}

TEST(FaultInjectedCancellationTest, AdaptiveLshAllSitesAllThreadCounts) {
  constexpr int kK = 3;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratedDataset generated = PlantedForSeed(seed, 0xfa11);
    const size_t num_records = generated.dataset.num_records();
    // Reference run discovers how many times each site fires.
    FaultInjector counting;
    RunAdaptive(generated, seed, /*threads=*/1, kK, nullptr, &counting);
    for (FaultSite site : kAllSites) {
      const uint64_t total = counting.hits(site);
      if (total == 0) continue;
      for (uint64_t nth : {uint64_t{1}, (total + 1) / 2}) {
        ExpectCancellationDeterministicAcrossThreads(
            [&](int threads, RunController* token, FaultInjector* injector) {
              return RunAdaptive(generated, seed, threads, kK, token,
                                 injector);
            },
            num_records, kK, site, nth, "adaLSH");
      }
    }
  }
}

TEST(FaultInjectedCancellationTest, LshBlockingAllSites) {
  constexpr int kK = 3;
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    GeneratedDataset generated = PlantedForSeed(seed, 0xb10c);
    const size_t num_records = generated.dataset.num_records();
    FaultInjector counting;
    RunLshBlocking(generated, seed, /*threads=*/1, kK, nullptr, &counting);
    for (FaultSite site : kAllSites) {
      const uint64_t total = counting.hits(site);
      if (total == 0) continue;
      for (uint64_t nth : {uint64_t{1}, (total + 1) / 2}) {
        ExpectCancellationDeterministicAcrossThreads(
            [&](int threads, RunController* token, FaultInjector* injector) {
              return RunLshBlocking(generated, seed, threads, kK, token,
                                    injector);
            },
            num_records, kK, site, nth, "LSH-X");
      }
    }
  }
}

TEST(FaultInjectedCancellationTest, PairsBaselineMidSweep) {
  constexpr int kK = 3;
  for (uint64_t seed = 31; seed <= 34; ++seed) {
    // A leading cluster spanning multiple row stripes, so cancellation lands
    // mid-sweep in the tiled engine too.
    Rng rng(DeriveSeed(seed, 0xba5e));
    std::vector<size_t> sizes;
    sizes.push_back(60 + rng.NextBelow(60));
    for (int c = 0; c < 3; ++c) sizes.push_back(2 + rng.NextBelow(20));
    for (int s = 0; s < 30; ++s) sizes.push_back(1);
    GeneratedDataset generated = test::MakePlantedDataset(sizes, seed);
    const size_t num_records = generated.dataset.num_records();
    FaultInjector counting;
    RunPairs(generated, /*threads=*/1, kK, nullptr, &counting);
    const uint64_t total = counting.hits(FaultSite::kPairwiseTile);
    ASSERT_GT(total, 1u);
    for (uint64_t nth : {uint64_t{2}, (total + 1) / 2}) {
      ExpectCancellationDeterministicAcrossThreads(
          [&](int threads, RunController* token, FaultInjector* injector) {
            return RunPairs(generated, threads, kK, token, injector);
          },
          num_records, kK, FaultSite::kPairwiseTile, nth, "Pairs");
    }
  }
}

TEST(FaultInjectedCancellationTest, AdaptiveLshAblationSelectionPath) {
  // The ablation selection path has its own degradation fill; cancel
  // mid-run and demand the same cross-thread determinism.
  constexpr int kK = 3;
  for (uint64_t seed = 41; seed <= 43; ++seed) {
    GeneratedDataset generated = PlantedForSeed(seed, 0xab1a);
    const size_t num_records = generated.dataset.num_records();
    FaultInjector counting;
    RunAdaptive(generated, seed, /*threads=*/1, kK, nullptr, &counting,
                RunBudget{}, /*ablate=*/true);
    const uint64_t total = counting.hits(FaultSite::kHashApply);
    ASSERT_GT(total, 0u);
    ExpectCancellationDeterministicAcrossThreads(
        [&](int threads, RunController* token, FaultInjector* injector) {
          return RunAdaptive(generated, seed, threads, kK, token, injector,
                             RunBudget{}, /*ablate=*/true);
        },
        num_records, kK, FaultSite::kHashApply, (total + 1) / 2,
        "adaLSH-ablation");
  }
}

// ---------------------------------------------------------------------------
// Deadline paths (wall-clock, made deterministic by injected latency).
// ---------------------------------------------------------------------------

TEST(DeadlineTest, PreRoundOneStopReturnsEmptyBestEffort) {
  // A zero-length deadline fires at the very first cooperative check: no
  // round runs, the output is the empty best-effort answer.
  GeneratedDataset generated = PlantedForSeed(51, 0xdead);
  RunBudget budget;
  budget.deadline_ms = 1e-9;
  for (int threads : kThreadCounts) {
    FilterOutput adalsh =
        RunAdaptive(generated, 51, threads, 3, nullptr, nullptr, budget);
    EXPECT_EQ(adalsh.stats.termination_reason, TerminationReason::kDeadline);
    EXPECT_EQ(adalsh.stats.rounds, 0u);
    EXPECT_TRUE(adalsh.clusters.clusters.empty());
    ExpectValidPartial(adalsh, generated.dataset.num_records(), 3);

    FilterOutput lsh =
        RunLshBlocking(generated, 51, threads, 3, nullptr, nullptr, budget);
    EXPECT_EQ(lsh.stats.termination_reason, TerminationReason::kDeadline);
    EXPECT_EQ(lsh.stats.rounds, 0u);
    EXPECT_TRUE(lsh.clusters.clusters.empty());

    FilterOutput pairs =
        RunPairs(generated, threads, 3, nullptr, nullptr, budget);
    EXPECT_EQ(pairs.stats.termination_reason, TerminationReason::kDeadline);
    EXPECT_EQ(pairs.stats.rounds, 0u);
    EXPECT_TRUE(pairs.clusters.clusters.empty());
    ExpectValidPartial(pairs, generated.dataset.num_records(), 3);
  }
}

TEST(DeadlineTest, LatencyInjectionExpiresDeadlineMidHashPass) {
  // 100ms of injected latency at every hash block against a 50ms deadline: the
  // first block's check already sees the deadline expired, so the initial
  // H_1 pass is interrupted deterministically.
  GeneratedDataset generated = PlantedForSeed(52, 0xdead);
  RunBudget budget;
  budget.deadline_ms = 50.0;
  FaultInjector injector;
  injector.InjectLatency(FaultSite::kHashApply, 100000);
  FilterOutput output =
      RunAdaptive(generated, 52, /*threads=*/2, 3, nullptr, &injector, budget);
  EXPECT_EQ(output.stats.termination_reason, TerminationReason::kDeadline);
  ASSERT_EQ(output.stats.rounds, 1u);
  EXPECT_TRUE(output.stats.round_records[0].interrupted);
  // An interrupted initial pass degrades to the empty clustering.
  EXPECT_TRUE(output.clusters.clusters.empty());
  ExpectValidPartial(output, generated.dataset.num_records(), 3);
}

TEST(DeadlineTest, LatencyInjectionExpiresDeadlineMidPairwiseSweep) {
  GeneratedDataset generated = PlantedForSeed(53, 0xdead);
  RunBudget budget;
  budget.deadline_ms = 50.0;
  FaultInjector injector;
  injector.InjectLatency(FaultSite::kPairwiseTile, 100000);
  FilterOutput output = RunPairs(generated, /*threads=*/2, 3, nullptr,
                                 &injector, budget);
  EXPECT_EQ(output.stats.termination_reason, TerminationReason::kDeadline);
  ASSERT_EQ(output.stats.rounds, 1u);
  EXPECT_TRUE(output.stats.round_records[0].interrupted);
  ExpectValidPartial(output, generated.dataset.num_records(), 3);
}

// ---------------------------------------------------------------------------
// Budget exhaustion (counter-based, hence deterministic across threads).
// ---------------------------------------------------------------------------

TEST(BudgetTest, AdaptiveLshHashBudgetExhaustsDeterministically) {
  GeneratedDataset generated = PlantedForSeed(61, 0xb4d6);
  RunBudget budget;
  budget.max_hashes = 2000;
  std::optional<ComparablePartial> reference;
  for (int threads : kThreadCounts) {
    FilterOutput output =
        RunAdaptive(generated, 61, threads, 3, nullptr, nullptr, budget);
    EXPECT_EQ(output.stats.termination_reason,
              TerminationReason::kBudgetExhausted);
    ExpectValidPartial(output, generated.dataset.num_records(), 3);
    ComparablePartial comparable = Comparable(output);
    if (!reference.has_value()) {
      reference = std::move(comparable);
    } else {
      EXPECT_EQ(comparable, *reference);
    }
  }
}

TEST(BudgetTest, PairsPairwiseBudgetKeepsPartialComponents) {
  // The Pairs deviation: an interrupted sweep KEEPS the components found so
  // far (every applied merge is exact), unlike the hash methods' discard.
  std::vector<size_t> sizes{80, 15, 10};
  for (int s = 0; s < 30; ++s) sizes.push_back(1);
  GeneratedDataset generated = test::MakePlantedDataset(sizes, 62);
  RunBudget budget;
  budget.max_pairwise = 500;  // far below the full quadratic sweep
  std::optional<ComparablePartial> reference;
  for (int threads : kThreadCounts) {
    FilterOutput output = RunPairs(generated, threads, 3, nullptr, nullptr,
                                   budget);
    EXPECT_EQ(output.stats.termination_reason,
              TerminationReason::kBudgetExhausted);
    ASSERT_EQ(output.stats.rounds, 1u);
    EXPECT_TRUE(output.stats.round_records[0].interrupted);
    EXPECT_FALSE(output.clusters.clusters.empty());
    ExpectValidPartial(output, generated.dataset.num_records(), 3);
    ComparablePartial comparable = Comparable(output);
    if (!reference.has_value()) {
      reference = std::move(comparable);
    } else {
      EXPECT_EQ(comparable, *reference);
    }
  }
}

// ---------------------------------------------------------------------------
// No budget, no controller: bit-identical to the plain run.
// ---------------------------------------------------------------------------

TEST(NoBudgetEquivalenceTest, UnlimitedControllerMatchesUncontrolledRun) {
  for (uint64_t seed : {71, 72, 73}) {
    GeneratedDataset generated = PlantedForSeed(seed, 0xe901);
    FilterOutput plain =
        RunAdaptive(generated, seed, /*threads=*/2, 3, nullptr, nullptr);
    EXPECT_EQ(plain.stats.termination_reason, TerminationReason::kCompleted);

    // An attached-but-unlimited external controller must not perturb the run.
    RunController token;
    FilterOutput controlled =
        RunAdaptive(generated, seed, /*threads=*/2, 3, &token, nullptr);
    EXPECT_EQ(Comparable(controlled), Comparable(plain));

    // Nor must a budget generous enough never to fire.
    RunBudget roomy;
    roomy.max_hashes = 1u << 30;
    roomy.max_pairwise = 1u << 30;
    FilterOutput budgeted =
        RunAdaptive(generated, seed, /*threads=*/2, 3, nullptr, nullptr,
                    roomy);
    EXPECT_EQ(Comparable(budgeted), Comparable(plain));
  }
}

// ---------------------------------------------------------------------------
// Config validation (Status, not CHECK, on user input).
// ---------------------------------------------------------------------------

TEST(ConfigValidationTest, AdaptiveLshConfigRejectsBadValues) {
  AdaptiveLshConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.calibration_samples = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.calibration_samples = 5;
  config.pairwise_noise_factor = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.pairwise_noise_factor = 1.1;
  config.threads = -1;
  EXPECT_FALSE(config.Validate().ok());
  config.threads = 0;
  config.budget.deadline_ms = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(config.Validate().ok());
  config.budget.deadline_ms = 0.0;
  config.sequence.max_budget = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigValidationTest, LshBlockingConfigRejectsBadValues) {
  LshBlockingConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_hashes = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.num_hashes = 64;
  config.threads = -2;
  EXPECT_FALSE(config.Validate().ok());
}

}  // namespace
}  // namespace adalsh
