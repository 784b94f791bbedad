#include "core/pairs_baseline.h"

#include <optional>
#include <utility>

#include "clustering/candidate_order.h"
#include "core/pairwise.h"
#include "core/refine_loop.h"
#include "core/termination.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace adalsh {

PairsBaseline::PairsBaseline(const Dataset& dataset, const MatchRule& rule,
                             int threads, Instrumentation instr,
                             RunBudget budget, RunController* controller)
    : dataset_(&dataset),
      rule_(rule),
      threads_(threads),
      instr_(instr),
      budget_(budget),
      controller_(controller) {
  Status budget_valid = budget.Validate();
  ADALSH_CHECK(budget_valid.ok()) << budget_valid.ToString();
  Status valid = rule.Validate(dataset.record(0));
  ADALSH_CHECK(valid.ok()) << valid.ToString();
}

FilterOutput PairsBaseline::Run(int k) {
  ADALSH_CHECK_GE(k, 1);
  Timer timer;
  std::optional<RunController> local_controller;
  RunController* controller =
      ResolveController(controller_, budget_, &local_controller);
  ScopedThreadPool pool(threads_);
  ParentPointerForest forest;
  PairwiseComputer pairwise(*dataset_, rule_, pool.get(), instr_, controller);

  // The single round: P over the whole dataset. Skipped on a pre-round-1
  // stop; an interrupted sweep keeps the partial components found so far
  // (every applied merge is an exact certified match — see the constructor
  // comment), recorded as an interrupted round.
  FilterOutput output;
  std::vector<NodeId> roots;
  if (!StopRequested(controller)) {
    RoundRecord round;
    round.round = 1;
    round.action = RoundAction::kPairwise;
    round.cluster_size = dataset_->num_records();
    Timer round_timer;
    TraceRecorder::Span round_span(instr_.trace, "round", "round");
    if (instr_.observer != nullptr) {
      RoundStartInfo start;
      start.round = 1;
      start.cluster_size = dataset_->num_records();
      start.producer = -1;
      instr_.observer->OnRoundStart(start);
    }
    roots = pairwise.Apply(dataset_->AllRecordIds(), &forest);
    round.pairwise_similarities = pairwise.total_similarities();
    round.wall_seconds = round_timer.ElapsedSeconds();
    round.pairwise_seconds = round.wall_seconds;
    round.interrupted = pairwise.last_apply_interrupted();
    RecordRound(instr_, std::move(round), &round_span, &output.stats);
  }

  const std::vector<NodeId> finals =
      LargestRoots(forest, roots, static_cast<size_t>(k));

  output.clusters = MaterializeClusters(forest, finals);
  FillClusterVerification(forest, finals, &output.stats);
  output.clusters.SortBySizeDescending();
  output.stats.termination_reason = controller != nullptr
                                        ? controller->reason()
                                        : TerminationReason::kCompleted;
  output.stats.filtering_seconds = timer.ElapsedSeconds();
  output.stats.pairwise_similarities = pairwise.total_similarities();
  // Pairs has no hashing functions: records_last_hashed_at stays empty and
  // every record treated by the sweep finishes under P (invariants in
  // filter_output.h). A pre-round-1 stop treated nothing.
  output.stats.records_finished_by_pairwise =
      output.stats.rounds == 1 ? dataset_->num_records() : 0;
  ReportTermination(instr_, output.stats, output.clusters.clusters.size());
  return output;
}

}  // namespace adalsh
