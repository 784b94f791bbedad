// Figure 10: F1 Gold vs k for adaLSH, LSH1280 and Pairs on (a) Cora and
// (b) SpotSigs. Paper shape: all three methods almost identical (adaLSH's
// probabilistic nature adds no errors); Cora near 1.0 everywhere, SpotSigs
// around 0.8 for k = 5/10 (the simple rule differs from ground truth there).
//
//   fig10_f1_gold [--ks=1,5,10,20] [--lsh_x=1280]

#include <iostream>

#include "bench_util.h"
#include "eval/metrics.h"
#include "util/flags.h"

namespace {

using namespace adalsh;        // NOLINT: bench brevity
using namespace adalsh::bench; // NOLINT: bench brevity

void RunPanel(const std::string& figure, const GeneratedDataset& workload,
              const std::vector<int>& ks, int lsh_x) {
  PrintExperimentHeader(std::cout, figure,
                        "F1 Gold vs k on " + workload.dataset.name());
  GroundTruth truth = workload.dataset.BuildGroundTruth();
  ResultTable table(
      {"k", "adaLSH", "LSH" + std::to_string(lsh_x), "Pairs"});
  for (int k : ks) {
    FilterOutput ada = RunAdaLsh(workload, k);
    FilterOutput lsh = RunLshX(workload, k, lsh_x);
    FilterOutput pairs = RunPairs(workload, k);
    table.AddRow(
        {std::to_string(k),
         FormatDouble(GoldAccuracy(ada.clusters, truth, k).f1, 3),
         FormatDouble(GoldAccuracy(lsh.clusters, truth, k).f1, 3),
         FormatDouble(GoldAccuracy(pairs.clusters, truth, k).f1, 3)});
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::vector<int> ks = flags.GetInt32List("ks", {1, 5, 10, 20});
  int lsh_x = flags.GetInt32("lsh_x", 1280);
  flags.CheckNoUnusedFlags();

  RunPanel("Figure 10(a)", MakeCoraWorkload(1, kDataSeed), ks, lsh_x);
  RunPanel("Figure 10(b)", MakeSpotSigsWorkload(1, kDataSeed), ks, lsh_x);
  return 0;
}
