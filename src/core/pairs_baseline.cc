#include "core/pairs_baseline.h"

#include <optional>
#include <utility>

#include "clustering/candidate_order.h"
#include "core/pairwise.h"
#include "core/termination.h"
#include "obs/metrics_registry.h"
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
  RoundRecord round;
  round.round = 1;
  round.action = RoundAction::kPairwise;
  round.cluster_size = dataset_->num_records();
  std::vector<NodeId> roots;
  bool ran_round = false;
  if (!StopRequested(controller)) {
    ran_round = true;
    Timer round_timer;
    {
      TraceRecorder::Span round_span(instr_.trace, "round", "round");
      if (instr_.observer != nullptr) {
        RoundStartInfo start;
        start.round = 1;
        start.cluster_size = dataset_->num_records();
        start.producer = -1;
        instr_.observer->OnRoundStart(start);
      }
      roots = pairwise.Apply(dataset_->AllRecordIds(), &forest);
    }
    round.pairwise_similarities = pairwise.total_similarities();
    round.wall_seconds = round_timer.ElapsedSeconds();
    round.pairwise_seconds = round.wall_seconds;
    round.interrupted = pairwise.last_apply_interrupted();
  }

  const std::vector<NodeId> finals =
      LargestRoots(forest, roots, static_cast<size_t>(k));

  FilterOutput output;
  output.clusters = MaterializeClusters(forest, finals);
  FillClusterVerification(forest, finals, &output.stats);
  output.clusters.SortBySizeDescending();
  output.stats.termination_reason = controller != nullptr
                                        ? controller->reason()
                                        : TerminationReason::kCompleted;
  output.stats.filtering_seconds = timer.ElapsedSeconds();
  output.stats.rounds = ran_round ? 1 : 0;
  output.stats.pairwise_similarities = pairwise.total_similarities();
  // Pairs has no hashing functions: records_last_hashed_at stays empty and
  // every record treated by the sweep finishes under P (invariants in
  // filter_output.h). A pre-round-1 stop treated nothing.
  output.stats.records_finished_by_pairwise =
      ran_round ? dataset_->num_records() : 0;
  if (ran_round) {
    output.stats.round_records.push_back(round);
    if (instr_.observer != nullptr) {
      instr_.observer->OnRoundEnd(output.stats.round_records.back());
    }
    if (instr_.metrics != nullptr) {
      instr_.metrics->AddCounter("rounds", 1);
      instr_.metrics->RecordValue("round_cluster_size",
                                  static_cast<double>(round.cluster_size));
      instr_.metrics->RecordValue("round_wall_seconds", round.wall_seconds);
    }
  }
  ReportTermination(instr_, output.stats, output.clusters.clusters.size());
  return output;
}

}  // namespace adalsh
