#include "core/adaptive_lsh.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "clustering/clustering.h"
#include "core/pairwise.h"
#include "core/refine_loop.h"
#include "core/termination.h"
#include "core/transitive_hash_function.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace adalsh {

Status AdaptiveLshConfig::Validate() const {
  Status sequence_valid = sequence.Validate();
  if (!sequence_valid.ok()) return sequence_valid;
  if (calibration_samples < 1) {
    return Status::InvalidArgument("calibration_samples must be >= 1");
  }
  if (!std::isfinite(pairwise_noise_factor) || pairwise_noise_factor <= 0.0) {
    return Status::InvalidArgument(
        "pairwise_noise_factor must be finite and > 0");
  }
  if (threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  return budget.Validate();
}

AdaptiveLsh::AdaptiveLsh(const Dataset& dataset, const MatchRule& rule,
                         const AdaptiveLshConfig& config)
    : dataset_(&dataset),
      rule_(rule),
      config_(config),
      sequence_([&] {
        Status valid = config.Validate();
        ADALSH_CHECK(valid.ok()) << valid.ToString();
        StatusOr<FunctionSequence> built =
            FunctionSequence::Build(rule, dataset.record(0), config.sequence);
        ADALSH_CHECK(built.ok()) << built.status().ToString();
        return std::move(built).value();
      }()),
      cost_model_([&] {
        ScopedThreadPool pool(config.threads);
        return CostModel::Calibrate(dataset, rule, config.calibration_samples,
                                    config.seed, pool.get(),
                                    config.instrumentation);
      }()) {
  cost_model_.set_pairwise_noise_factor(config.pairwise_noise_factor);
}

FilterOutput AdaptiveLsh::Run(int k) { return Run(k, {}); }

FilterOutput AdaptiveLsh::Run(
    int k, const std::function<void(size_t rank, const std::vector<RecordId>&)>&
               on_cluster) {
  ADALSH_CHECK_GE(k, 1);
  const size_t num_records = dataset_->num_records();

  // Sinks are shared with the hasher/pairwise sweeps; TransitiveHasher
  // reports hash passes at its level, so the engine itself stays
  // uninstrumented (no double counting).
  const Instrumentation instr = config_.instrumentation;

  Timer timer;
  // Anytime execution (docs/robustness.md): the effective controller is
  // armed once, here, so H_1 counts against the deadline and the budgets
  // while construction/calibration do not. Null when neither a budget nor
  // an external controller is configured.
  std::optional<RunController> local_controller;
  RunController* controller =
      ResolveController(config_.controller, config_.budget, &local_controller);
  ParentPointerForest forest;
  ScopedThreadPool pool(config_.threads);
  HashEngine engine(*dataset_, sequence_.structure(), config_.seed);
  TransitiveHasher hasher(&engine, &forest, num_records, pool.get(), instr,
                          controller);
  hasher.set_reuse_hashes(!config_.ablate_incremental_reuse);
  PairwiseComputer pairwise(*dataset_, rule_, pool.get(), instr, controller);

  // last_fn[r]: sequence index of the last function applied to r, or
  // kLastFunctionPairwise once P has treated it (Definition 3 accounting).
  std::vector<int> last_fn(num_records, 0);
  FilterStats stats;

  // Line 1: H_1 on the whole dataset, round 1. Skipped entirely when the
  // controller already fired (pre-round-1 stop: empty best-effort output,
  // zero rounds). An interrupted pass leaves no record with a valid H_1
  // cluster, so the run degrades to an empty clustering.
  std::vector<NodeId> initial;
  if (!StopRequested(controller)) {
    RoundRecord round;
    round.round = 1;
    round.action = RoundAction::kHash;
    round.function_index = 0;
    round.cluster_size = num_records;
    round.modeled_cost = cost_model_.HashCost(sequence_.budget(0)) *
                         static_cast<double>(num_records);
    Timer round_timer;
    TraceRecorder::Span round_span(instr.trace, "round", "round");
    if (instr.observer != nullptr) {
      RoundStartInfo start;
      start.round = 1;
      start.cluster_size = num_records;
      start.producer = -1;
      instr.observer->OnRoundStart(start);
    }
    Timer stage_timer;
    initial = hasher.Apply(dataset_->AllRecordIds(), sequence_.plan(0), 0);
    round.hash_seconds = stage_timer.ElapsedSeconds();
    round.interrupted = hasher.last_apply_interrupted();
    round.hashes_computed = engine.total_hashes_computed();
    round.wall_seconds = round_timer.ElapsedSeconds();
    stats.hashes_computed = round.hashes_computed;
    RecordRound(instr, std::move(round), &round_span, &stats);
  }

  // Lines 2-10: the shared round loop, with the record id as the order key.
  RefineLoopDeps deps;
  deps.config = &config_;
  deps.sequence = &sequence_;
  deps.cost_model = &cost_model_;
  deps.engine = &engine;
  deps.hasher = &hasher;
  deps.pairwise = &pairwise;
  deps.forest = &forest;
  deps.last_fn = &last_fn;
  deps.on_final = on_cluster;
  std::vector<NodeId> finals;
  RunRefineLoop(deps, k, initial, controller, &finals, &stats);

  // Canonical output, as the engines publish it: clusters ranked by size
  // descending, ties by smallest member, members ascending.
  FilterOutput output;
  output.clusters = MaterializeClusters(forest, finals);
  for (std::vector<RecordId>& cluster : output.clusters.clusters) {
    std::sort(cluster.begin(), cluster.end());
  }
  stats.filtering_seconds = timer.ElapsedSeconds();
  stats.records_last_hashed_at.assign(sequence_.size(), 0);
  for (RecordId r = 0; r < num_records; ++r) {
    if (last_fn[r] == kLastFunctionPairwise) {
      ++stats.records_finished_by_pairwise;
    } else {
      ++stats.records_last_hashed_at[last_fn[r]];
    }
  }
  ReportTermination(instr, stats, output.clusters.clusters.size());
  output.stats = std::move(stats);
  return output;
}

}  // namespace adalsh
