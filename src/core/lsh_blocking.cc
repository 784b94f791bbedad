#include "core/lsh_blocking.h"

#include <optional>
#include <utility>

#include "clustering/candidate_order.h"
#include "core/hash_engine.h"
#include "core/pairwise.h"
#include "core/refine_loop.h"
#include "core/termination.h"
#include "core/transitive_hash_function.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace adalsh {

Status LshBlockingConfig::Validate() const {
  if (num_hashes < 1) {
    return Status::InvalidArgument("num_hashes must be >= 1");
  }
  if (threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  Status optimizer_valid = optimizer.Validate();
  if (!optimizer_valid.ok()) return optimizer_valid;
  return budget.Validate();
}

LshBlocking::LshBlocking(const Dataset& dataset, const MatchRule& rule,
                         const LshBlockingConfig& config)
    : dataset_(&dataset), rule_(rule), config_(config) {
  Status config_valid = config.Validate();
  ADALSH_CHECK(config_valid.ok()) << config_valid.ToString();
  Status valid = rule.Validate(dataset.record(0));
  ADALSH_CHECK(valid.ok()) << valid.ToString();
  StatusOr<RuleHashStructure> structure = CompileRuleForHashing(rule);
  ADALSH_CHECK(structure.ok()) << structure.status().ToString();
  structure_ = std::move(structure).value();
  scheme_ = OptimizeComposite(structure_, config.num_hashes, config.optimizer,
                              /*previous=*/nullptr);
  plan_ = BuildPlan(structure_, scheme_);
}

FilterOutput LshBlocking::Run(int k) {
  ADALSH_CHECK_GE(k, 1);
  const size_t num_records = dataset_->num_records();
  const Instrumentation instr = config_.instrumentation;

  Timer timer;
  // Anytime execution (docs/robustness.md); null controller = pre-existing
  // run-to-completion behavior, bit for bit.
  std::optional<RunController> local_controller;
  RunController* controller =
      ResolveController(config_.controller, config_.budget, &local_controller);
  ParentPointerForest forest;
  ScopedThreadPool pool(config_.threads);
  HashEngine engine(*dataset_, structure_, config_.seed);
  TransitiveHasher hasher(&engine, &forest, num_records, pool.get(), instr,
                          controller);
  PairwiseComputer pairwise(*dataset_, rule_, pool.get(), instr, controller);

  FilterStats stats;
  // Conservative accounting: every record starts (and, if never verified,
  // stays) in the stage-1 H bucket.
  stats.records_last_hashed_at.assign(1, num_records);

  auto stop_now = [&] {
    if (controller == nullptr) return false;
    controller->ReportHashes(engine.total_hashes_computed());
    controller->ReportPairwise(pairwise.total_similarities());
    return controller->ShouldStop();
  };

  // Closes out a round against the exact counter sources (see the
  // round_records invariants in filter_output.h).
  auto finish_round = [&](RoundRecord round, uint64_t hashes_before,
                          uint64_t sims_before, double wall_seconds,
                          TraceRecorder::Span* span) {
    round.hashes_computed = engine.total_hashes_computed() - hashes_before;
    round.pairwise_similarities =
        pairwise.total_similarities() - sims_before;
    round.wall_seconds = wall_seconds;
    RecordRound(instr, std::move(round), span, &stats);
  };

  // Stage 1: apply all X hash functions to every record. Skipped entirely on
  // a pre-round-1 stop (empty best-effort output, zero rounds).
  std::vector<NodeId> roots;
  if (!stop_now()) {
    RoundRecord round;
    round.round = 1;
    round.action = RoundAction::kHash;
    round.function_index = 0;
    round.cluster_size = num_records;
    Timer round_timer;
    TraceRecorder::Span round_span(instr.trace, "round", "round");
    if (instr.observer != nullptr) {
      RoundStartInfo start;
      start.round = 1;
      start.cluster_size = num_records;
      start.producer = -1;
      instr.observer->OnRoundStart(start);
    }
    roots = hasher.Apply(dataset_->AllRecordIds(), plan_, 0);
    round.hash_seconds = round_timer.ElapsedSeconds();
    // An interrupted stage 1 leaves `roots` empty: no record has a valid
    // blocking cluster yet, so the run degrades to an empty clustering.
    round.interrupted = hasher.last_apply_interrupted();
    finish_round(std::move(round), /*hashes_before=*/0, /*sims_before=*/0,
                 round_timer.ElapsedSeconds(), &round_span);
  }

  std::vector<NodeId> finals;
  if (!config_.apply_pairwise) {
    // LSH-X-nP: trust the stage-1 clusters; return the k largest.
    finals = LargestRoots(forest, roots, static_cast<size_t>(k));
  } else {
    // Stage 2: verify clusters with P, largest first in the canonical
    // candidate order, until the k largest verified clusters dominate
    // everything unverified (optimization (1)).
    CandidateSet candidates;
    auto file = [&](NodeId root) {
      candidates.insert({forest.LeafCount(root),
                         MinOrderKey(forest, nullptr, root), root});
    };
    auto pop = [&] {
      const NodeId root = candidates.begin()->root;
      candidates.erase(candidates.begin());
      return root;
    };
    for (NodeId root : roots) file(root);
    while (finals.size() < static_cast<size_t>(k) && !candidates.empty()) {
      if (stop_now()) break;  // round boundary (anytime exit)
      const NodeId root = pop();
      if (forest.Producer(root) == kProducerPairwise) {
        finals.push_back(root);
        continue;
      }
      std::vector<RecordId> records = forest.Leaves(root);

      RoundRecord round;
      round.round = stats.rounds + 1;
      round.action = RoundAction::kPairwise;
      round.cluster_size = records.size();
      const uint64_t hashes_before = engine.total_hashes_computed();
      const uint64_t sims_before = pairwise.total_similarities();
      Timer round_timer;
      TraceRecorder::Span round_span(instr.trace, "round", "round");
      if (instr.observer != nullptr) {
        RoundStartInfo start;
        start.round = round.round;
        start.cluster_size = records.size();
        start.producer = 0;
        instr.observer->OnRoundStart(start);
      }
      std::vector<NodeId> verified = pairwise.Apply(records, &forest);
      round.pairwise_seconds = round_timer.ElapsedSeconds();
      const bool interrupted = pairwise.last_apply_interrupted();
      round.interrupted = interrupted;
      if (!interrupted) {
        // Verified records move from the H_1 bucket of Definition 3's
        // accounting to the P bucket — each record is counted exactly once,
        // under the last function applied to it. An interrupted verification
        // is discarded, so its records stay in the H_1 bucket.
        ADALSH_CHECK_GE(stats.records_last_hashed_at[0], records.size());
        stats.records_last_hashed_at[0] -= records.size();
        stats.records_finished_by_pairwise += records.size();
      }
      finish_round(std::move(round), hashes_before, sims_before,
                   round_timer.ElapsedSeconds(), &round_span);
      if (interrupted) {
        // The cluster keeps its stage-1 level; the stuck controller ends the
        // loop at its next check and the fill below may still return it.
        file(root);
        continue;
      }
      for (NodeId v : verified) file(v);
    }
    if (controller != nullptr && controller->stopped()) {
      // Graceful degradation: the largest unverified clusters complete the
      // top-k at their stage-1 verification level (pops stay in canonical
      // order, so the ranking is preserved).
      while (finals.size() < static_cast<size_t>(k) && !candidates.empty()) {
        finals.push_back(pop());
      }
    }
  }

  FilterOutput output;
  output.clusters = MaterializeClusters(forest, finals);
  FillClusterVerification(forest, finals, &stats);
  output.clusters.SortBySizeDescending();
  stats.termination_reason = controller != nullptr
                                 ? controller->reason()
                                 : TerminationReason::kCompleted;
  stats.filtering_seconds = timer.ElapsedSeconds();
  stats.pairwise_similarities = pairwise.total_similarities();
  stats.hashes_computed = engine.total_hashes_computed();
  ReportTermination(instr, stats, output.clusters.clusters.size());
  output.stats = std::move(stats);
  return output;
}

}  // namespace adalsh
