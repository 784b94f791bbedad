// Figure 11: the precision/recall trade-off of returning bk > k clusters
// (Section 7.3.1). SpotSigs, k = 5, bk in {5..20}, Jaccard similarity
// thresholds 0.3 / 0.4 / 0.5. Paper shape: recall climbs toward 1.0 with bk
// for every threshold; precision falls from ~0.8 to ~0.4.
//
//   fig11_precision_recall_bk [--k=5] [--bks=5,10,15,20]
//                             [--thresholds=0.3,0.4,0.5]

#include <iostream>

#include "bench_util.h"
#include "eval/metrics.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 5);
  std::vector<int> bks = flags.GetInt32List("bks", {5, 10, 15, 20});
  std::vector<double> thresholds =
      flags.GetDoubleList("thresholds", {0.3, 0.4, 0.5});
  flags.CheckNoUnusedFlags();

  PrintExperimentHeader(
      std::cout, "Figure 11",
      "Recall/Precision Gold vs bk on SpotSigs, k = " + std::to_string(k));
  ResultTable table({"sim_thr", "bk", "recall_gold", "precision_gold"});
  for (double threshold : thresholds) {
    GeneratedDataset workload =
        MakeSpotSigsWorkload(1, threshold, kDataSeed);
    GroundTruth truth = workload.dataset.BuildGroundTruth();
    std::vector<RecordId> gold = truth.TopKRecords(k);
    for (int bk : bks) {
      FilterOutput output = RunAdaLsh(workload, bk);
      SetAccuracy accuracy = ComputeSetAccuracy(
          output.clusters.UnionOfTopClusters(bk), gold);
      table.AddRow({FormatDouble(threshold, 1), std::to_string(bk),
                    FormatDouble(accuracy.recall, 3),
                    FormatDouble(accuracy.precision, 3)});
    }
  }
  table.Print(std::cout);
  return 0;
}
