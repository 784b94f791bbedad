// Figure 13: mean Average Precision / Recall vs bk for k in {2, 5, 10, 20}
// on SpotSigs (Section 7.3.3) — what a "perfect" ER algorithm applied to the
// filtering output could reconstruct. Paper shape: mAP reaches 1.0 as bk
// grows, mAR slightly lower; ranked metrics exceed the set metrics because
// accuracy is higher for higher-ranked entities.
//
//   fig13_map_mar [--ks=2,5,10,20] [--bks=5,10,15,20,25,30]

#include <iostream>

#include "bench_util.h"
#include "eval/metrics.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  std::vector<int> ks = flags.GetInt32List("ks", {2, 5, 10, 20});
  std::vector<int> bks = flags.GetInt32List("bks", {5, 10, 15, 20, 25, 30});
  flags.CheckNoUnusedFlags();

  GeneratedDataset workload = MakeSpotSigsWorkload(1, kDataSeed);
  GroundTruth truth = workload.dataset.BuildGroundTruth();

  PrintExperimentHeader(std::cout, "Figure 13",
                        "mAP / mAR vs bk on SpotSigs (adaLSH filter)");
  ResultTable table({"k", "bk", "mAP", "mAR"});
  for (int k : ks) {
    for (int bk : bks) {
      if (bk < k) continue;
      FilterOutput output = RunAdaLsh(workload, bk);
      RankedAccuracy ranked =
          ComputeRankedAccuracy(output.clusters, truth, k);
      table.AddRow({std::to_string(k), std::to_string(bk),
                    FormatDouble(ranked.map, 3),
                    FormatDouble(ranked.mar, 3)});
    }
  }
  table.Print(std::cout);
  return 0;
}
