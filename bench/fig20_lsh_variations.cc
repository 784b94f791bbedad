// Figure 20 (Appendix E.1): the accuracy/performance trade-off of skipping
// the P verification stage. LSH20, LSH640, LSH20nP, LSH640nP and adaLSH on
// SpotSigs 1x..4x (k = 10): (a) execution time, (b) F1 target — accuracy
// against the *exact* (Pairs) outcome, isolating the errors introduced by
// LSH's probabilistic nature. Paper shape: the nP variants are fast but
// F1 target collapses with size (0.7 -> 0.4 for LSH20nP); all P-verified
// methods stay ~1.0; adaLSH beats everything but LSH20nP on time.
//
//   fig20_lsh_variations [--k=10] [--scales=1,2,4]

#include <iostream>

#include "bench_util.h"
#include "eval/metrics.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 10);
  std::vector<size_t> scales = flags.GetSizeList("scales", {1, 2, 4});
  flags.CheckNoUnusedFlags();

  PrintExperimentHeader(std::cout, "Figure 20",
                        "LSH variations with/without P vs adaLSH (SpotSigs, "
                        "k = " + std::to_string(k) + ")");
  ResultTable time_table({"records", "adaLSH", "LSH20", "LSH640", "LSH20nP",
                          "LSH640nP"});
  ResultTable f1_table({"records", "adaLSH", "LSH20", "LSH640", "LSH20nP",
                        "LSH640nP"});
  for (size_t scale : scales) {
    GeneratedDataset workload =
        MakeSpotSigsWorkload(scale, kDataSeed);
    FilterOutput exact = RunPairs(workload, k);
    std::vector<RecordId> target = exact.clusters.UnionOfTopClusters(k);

    auto f1_vs_target = [&](const FilterOutput& output) {
      return FormatDouble(
          ComputeSetAccuracy(output.clusters.UnionOfTopClusters(k), target)
              .f1,
          3);
    };

    FilterOutput ada = RunAdaLsh(workload, k);
    FilterOutput lsh20 = RunLshX(workload, k, 20, /*apply_pairwise=*/true);
    FilterOutput lsh640 = RunLshX(workload, k, 640, true);
    FilterOutput lsh20np = RunLshX(workload, k, 20, false);
    FilterOutput lsh640np = RunLshX(workload, k, 640, false);

    std::string records = std::to_string(workload.dataset.num_records());
    time_table.AddRow({records, Secs(ada.stats.filtering_seconds),
                       Secs(lsh20.stats.filtering_seconds),
                       Secs(lsh640.stats.filtering_seconds),
                       Secs(lsh20np.stats.filtering_seconds),
                       Secs(lsh640np.stats.filtering_seconds)});
    f1_table.AddRow({records, f1_vs_target(ada), f1_vs_target(lsh20),
                     f1_vs_target(lsh640), f1_vs_target(lsh20np),
                     f1_vs_target(lsh640np)});
  }
  std::cout << "\n(a) execution time (s):\n";
  time_table.Print(std::cout);
  std::cout << "\n(b) F1 target (vs exact Pairs outcome):\n";
  f1_table.Print(std::cout);
  return 0;
}
