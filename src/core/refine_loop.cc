#include "core/refine_loop.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>
#include <set>
#include <utility>

#include "core/termination.h"
#include "obs/metrics_registry.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace adalsh {
namespace {

/// Smallest order key among the leaves of `root` (canonical tie-break); the
/// record id itself when `order_key` is null.
uint64_t MinOrderKey(const ParentPointerForest& forest,
                     const std::vector<uint64_t>* order_key, NodeId root) {
  uint64_t min_key = std::numeric_limits<uint64_t>::max();
  forest.ForEachLeaf(root, [&](RecordId r) {
    min_key = std::min<uint64_t>(
        min_key, order_key != nullptr ? (*order_key)[r] : r);
  });
  return min_key;
}

struct Candidate {
  uint32_t size;
  uint64_t min_key;
  NodeId root;
  uint64_t filed;  // filing sequence number (FIFO ablation only)
};

/// Canonical order: size descending, ties by ascending smallest order key
/// (unique per cluster, so the order is total and history-independent —
/// the root id never actually decides).
struct CandidateLess {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.size != b.size) return a.size > b.size;
    if (a.min_key != b.min_key) return a.min_key < b.min_key;
    return a.root < b.root;
  }
};

using CandidateSet = std::set<Candidate, CandidateLess>;

}  // namespace

void RecordRound(const Instrumentation& instr, RoundRecord round,
                 TraceRecorder::Span* span, FilterStats* stats) {
  ++stats->rounds;
  span->AddArg("round", static_cast<double>(round.round));
  span->AddArg("cluster_size", static_cast<double>(round.cluster_size));
  span->AddArg("hashes", static_cast<double>(round.hashes_computed));
  span->AddArg("pairwise", static_cast<double>(round.pairwise_similarities));
  if (instr.metrics != nullptr) {
    instr.metrics->AddCounter("rounds", 1);
    instr.metrics->RecordValue("round_cluster_size",
                               static_cast<double>(round.cluster_size));
    instr.metrics->RecordValue("round_wall_seconds", round.wall_seconds);
    // Exact-tail view of the same data: `round_seconds` (histogram) next to
    // `round_wall_seconds` (mean/stddev), split by the action taken.
    instr.metrics->RecordLatency("round_seconds", round.wall_seconds);
    if (round.action == RoundAction::kPairwise) {
      instr.metrics->RecordLatency("round_pairwise_seconds",
                                   round.pairwise_seconds);
    } else {
      instr.metrics->RecordLatency("round_hash_seconds", round.hash_seconds);
    }
  }
  stats->round_records.push_back(std::move(round));
  if (instr.observer != nullptr) {
    instr.observer->OnRoundEnd(stats->round_records.back());
  }
}

TerminationReason RunRefineLoop(const RefineLoopDeps& deps, int k,
                                const std::vector<NodeId>& initial_roots,
                                RunController* controller,
                                std::vector<NodeId>* finals,
                                FilterStats* stats) {
  ADALSH_CHECK(deps.config != nullptr && deps.sequence != nullptr &&
               deps.cost_model != nullptr && deps.engine != nullptr &&
               deps.hasher != nullptr && deps.pairwise != nullptr &&
               deps.forest != nullptr && deps.last_fn != nullptr);
  ADALSH_CHECK_GE(k, 1);
  Timer timer;
  const AdaptiveLshConfig& config = *deps.config;
  const Instrumentation& instr = config.instrumentation;
  TraceRecorder::Span refine_span(instr.trace, "engine_refine", "engine");
  ParentPointerForest& forest = *deps.forest;
  const FunctionSequence& sequence = *deps.sequence;
  const CostModel& cost_model = *deps.cost_model;
  std::vector<int>& last_fn = *deps.last_fn;
  const int last_function = static_cast<int>(sequence.size()) - 1;

  const CandidateLess less;
  CandidateSet pending;
  CandidateSet certified;
  uint64_t filed = 0;
  auto file = [&](NodeId root) {
    const int producer = forest.Producer(root);
    const bool final = producer == kProducerPairwise ||
                       producer == last_function;
    (final ? certified : pending)
        .insert({forest.LeafCount(root),
                 MinOrderKey(forest, deps.order_key, root), root, filed++});
  };
  for (NodeId root : initial_roots) file(root);

  // Sampled-purity jump decisions (JumpModel::kSampledPurity) spend rule
  // evaluations outside the P sweeps; they count as pairwise work.
  Rng jump_rng(DeriveSeed(config.seed, 0xd2aa));
  Rng selector(DeriveSeed(config.seed, 0xab1a7e));
  uint64_t jump_sampling_evals = 0;
  auto hash_count = [&] { return deps.engine->total_hashes_computed(); };
  auto sim_count = [&] {
    return deps.pairwise->total_similarities() + jump_sampling_evals;
  };
  const uint64_t hashes_before = hash_count();
  const uint64_t sims_before = sim_count();

  // The long-lived hasher/pairwise borrow the controller for this pass.
  deps.hasher->set_controller(controller);
  deps.pairwise->set_controller(controller);
  auto stop_now = [&] {
    if (controller == nullptr) return false;
    controller->ReportHashes(hash_count());
    controller->ReportPairwise(sim_count());
    return controller->ShouldStop();
  };
  auto pick = [&]() -> CandidateSet::iterator {
    switch (config.selection) {
      case SelectionStrategy::kLargestFirst:
        break;
      case SelectionStrategy::kSmallestFirst:
        return std::prev(pending.end());
      case SelectionStrategy::kFifo:
        return std::min_element(pending.begin(), pending.end(),
                                [](const Candidate& a, const Candidate& b) {
                                  return a.filed < b.filed;
                                });
      case SelectionStrategy::kRandom:
        return std::next(pending.begin(),
                         static_cast<std::ptrdiff_t>(
                             selector.NextBelow(pending.size())));
    }
    return pending.begin();  // Line 3 (Largest-First)
  };

  finals->clear();
  while (finals->size() < static_cast<size_t>(k) &&
         !(pending.empty() && certified.empty())) {
    if (stop_now()) break;  // round boundary (anytime exit)
    if (!certified.empty() &&
        (pending.empty() || less(*certified.begin(), *pending.begin()))) {
      // No pending cluster can still outrank it: the next final.
      const NodeId root = certified.begin()->root;
      certified.erase(certified.begin());
      finals->push_back(root);
      if (deps.on_final) deps.on_final(finals->size() - 1, forest.Leaves(root));
      continue;
    }
    const auto picked = pick();
    const NodeId root = picked->root;
    pending.erase(picked);
    std::vector<RecordId> records = forest.Leaves(root);
    const int producer = forest.Producer(root);
    const int next = producer + 1;

    // Lines 4-10: refine the cluster with the next function in the
    // sequence, or with P when the cost model prefers it.
    RoundRecord round;
    round.round = stats->rounds + 1;
    round.cluster_size = records.size();
    const uint64_t round_hashes_before = hash_count();
    const uint64_t round_sims_before = sim_count();
    Timer round_timer;
    TraceRecorder::Span round_span(instr.trace, "round", "round");
    if (instr.observer != nullptr) {
      RoundStartInfo start;
      start.round = round.round;
      start.cluster_size = records.size();
      start.producer = producer;
      instr.observer->OnRoundStart(start);
    }
    bool jump;
    if (config.jump_model == JumpModel::kSampledPurity) {
      uint64_t evals = 0;
      jump = cost_model.ShouldJumpToPairwiseSampled(
          deps.pairwise->dataset(), deps.pairwise->rule(), records,
          sequence.budget(producer), sequence.budget(next), &jump_rng,
          /*sample_pairs=*/20, &evals);
      jump_sampling_evals += evals;
    } else {
      jump = cost_model.ShouldJumpToPairwise(sequence.budget(producer),
                                             sequence.budget(next),
                                             records.size());
    }

    // Interruption handling ("discard the round", docs/robustness.md): both
    // sweeps build fresh trees and never touch the treated cluster's own
    // tree, so an interrupted sweep's partial trees are simply orphaned, the
    // original tree (and leaf_of, which still points into it) is untouched,
    // and the cluster keeps its previous verification level. The round's
    // counter deltas are real work and are recorded.
    std::vector<NodeId> new_roots;
    bool interrupted;
    if (jump) {
      round.action = RoundAction::kPairwise;
      round.modeled_cost = cost_model.PairwiseCost(records.size());
      Timer stage_timer;
      new_roots = deps.pairwise->Apply(records, &forest);  // Line 6
      round.pairwise_seconds = stage_timer.ElapsedSeconds();
      interrupted = deps.pairwise->last_apply_interrupted();
    } else {
      round.action = RoundAction::kHash;
      round.function_index = next;
      round.modeled_cost =
          cost_model.HashUpgradeCost(sequence.budget(producer),
                                     sequence.budget(next)) *
          static_cast<double>(records.size());
      Timer stage_timer;
      // Line 8: the next function of the sequence.
      new_roots = deps.hasher->Apply(records, sequence.plan(next), next);
      round.hash_seconds = stage_timer.ElapsedSeconds();
      interrupted = deps.hasher->last_apply_interrupted();
    }
    if (!interrupted) {
      for (RecordId r : records) {
        last_fn[r] = jump ? kLastFunctionPairwise : next;
      }
    }
    round.interrupted = interrupted;
    round.hashes_computed = hash_count() - round_hashes_before;
    round.pairwise_similarities = sim_count() - round_sims_before;
    round.wall_seconds = round_timer.ElapsedSeconds();
    RecordRound(instr, std::move(round), &round_span, stats);

    if (interrupted) {
      // The stuck controller ends the loop at its next check.
      file(root);
      continue;
    }
    for (NodeId new_root : new_roots) {
      if (deps.leaf_of != nullptr) {
        forest.ForEachLeafNode(new_root, [&](RecordId r, NodeId leaf) {
          (*deps.leaf_of)[r] = leaf;
        });
      }
      file(new_root);
    }
  }
  if (controller != nullptr && controller->stopped()) {
    // Anytime fill: the largest remaining clusters complete the top-k at
    // whatever verification level they reached, in canonical order.
    auto c = certified.begin();
    auto p = pending.begin();
    while (finals->size() < static_cast<size_t>(k) &&
           (c != certified.end() || p != pending.end())) {
      const bool take_certified =
          p == pending.end() || (c != certified.end() && less(*c, *p));
      finals->push_back((take_certified ? c++ : p++)->root);
    }
  }
  // Detach before returning: a request-local controller dies with the pass.
  deps.hasher->set_controller(nullptr);
  deps.pairwise->set_controller(nullptr);

  stats->termination_reason = controller != nullptr
                                  ? controller->reason()
                                  : TerminationReason::kCompleted;
  stats->filtering_seconds = timer.ElapsedSeconds();
  stats->hashes_computed += hash_count() - hashes_before;
  stats->pairwise_similarities += sim_count() - sims_before;
  // Definition 3: sum_i n_i * cost_i + n_P * cost_P, from the exact counts.
  stats->modeled_cost =
      cost_model.cost_per_hash() * static_cast<double>(stats->hashes_computed) +
      cost_model.cost_per_pair() *
          static_cast<double>(stats->pairwise_similarities);
  FillClusterVerification(forest, *finals, stats);
  return stats->termination_reason;
}

}  // namespace adalsh
