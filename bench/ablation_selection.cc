// Ablation: the Largest-First selection rule (Theorem 1). Algorithm 1 is run
// with alternative cluster-selection orders — smallest-first, FIFO, random —
// which all terminate with the same top-k but at different cost. Theorem 1
// predicts Largest-First minimizes the total cost; this bench demonstrates
// it empirically on Cora and SpotSigs via the Definition 3 work counters
// (hashes + pairwise similarities) and wall-clock time.
//
//   ablation_selection [--k=10] [--scale=1]

#include <iostream>

#include "bench_util.h"
#include "util/flags.h"

namespace {

using namespace adalsh;        // NOLINT: bench brevity
using namespace adalsh::bench; // NOLINT: bench brevity

const char* StrategyName(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kLargestFirst:
      return "largest-first";
    case SelectionStrategy::kSmallestFirst:
      return "smallest-first";
    case SelectionStrategy::kFifo:
      return "fifo";
    case SelectionStrategy::kRandom:
      return "random";
  }
  return "?";
}

void RunPanel(const std::string& name, const GeneratedDataset& workload,
              int k) {
  PrintExperimentHeader(std::cout, "Ablation (Thm. 1)",
                        "selection strategies on " + name +
                            ", k = " + std::to_string(k));
  ResultTable table(
      {"strategy", "seconds", "hashes", "pairwise_sims", "rounds"});
  for (SelectionStrategy strategy :
       {SelectionStrategy::kLargestFirst, SelectionStrategy::kSmallestFirst,
        SelectionStrategy::kFifo, SelectionStrategy::kRandom}) {
    AdaptiveLshConfig config;
    config.selection = strategy;
    config.seed = kMethodSeed;
    AdaptiveLsh method(workload.dataset, workload.rule, config);
    FilterOutput output = method.Run(k);
    table.AddRow({StrategyName(strategy),
                  Secs(output.stats.filtering_seconds),
                  std::to_string(output.stats.hashes_computed),
                  std::to_string(output.stats.pairwise_similarities),
                  std::to_string(output.stats.rounds)});
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 10);
  size_t scale = flags.GetSize("scale", 1);
  flags.CheckNoUnusedFlags();

  RunPanel("Cora", MakeCoraWorkload(scale, kDataSeed), k);
  RunPanel("SpotSigs", MakeSpotSigsWorkload(scale, kDataSeed), k);
  return 0;
}
