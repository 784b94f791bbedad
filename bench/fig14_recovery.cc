// Figure 14: the recovery booster (Section 7.3.4).
//   (a) Speedup *with* Recovery vs bk on SpotSigs 1x/2x/4x (k = 5): lower
//       than Speedup w/o Recovery but still growing with dataset size.
//   (b) mAP with Recovery vs bk for k in {2, 5, 10, 20}: rapidly reaches 1.0
//       (mAR behaves almost identically).
//
//   fig14_recovery [--k=5] [--bks=5,10,15,20] [--scales=1,2,4]
//                  [--ks=2,5,10,20]

#include <iostream>

#include "bench_util.h"
#include "eval/metrics.h"
#include "eval/recovery.h"
#include "eval/speedup.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 5);
  std::vector<int> bks = flags.GetInt32List("bks", {5, 10, 15, 20});
  std::vector<size_t> scales = flags.GetSizeList("scales", {1, 2, 4});
  std::vector<int> ks = flags.GetInt32List("ks", {2, 5, 10, 20});
  flags.CheckNoUnusedFlags();

  PrintExperimentHeader(std::cout, "Figure 14(a)",
                        "Speedup with Recovery vs bk (SpotSigs, k = " +
                            std::to_string(k) + ")");
  {
    ResultTable table({"scale", "bk", "speedup_with_recovery"});
    for (size_t scale : scales) {
      GeneratedDataset workload =
          MakeSpotSigsWorkload(scale, kDataSeed);
      size_t n = workload.dataset.num_records();
      SpeedupModel model =
          SpeedupModel::Measure(workload.dataset, workload.rule, 100, 3);
      for (int bk : bks) {
        FilterOutput output = RunAdaLsh(workload, bk);
        size_t kept = output.clusters.TotalRecords();
        table.AddRow({std::to_string(scale) + "x", std::to_string(bk),
                      FormatDouble(model.SpeedupWithRecovery(
                                       output.stats.filtering_seconds, n,
                                       kept),
                                   2) +
                          "x"});
      }
    }
    table.Print(std::cout);
  }

  PrintExperimentHeader(std::cout, "Figure 14(b)",
                        "mAP with Recovery vs bk (SpotSigs 1x)");
  {
    GeneratedDataset workload = MakeSpotSigsWorkload(1, kDataSeed);
    GroundTruth truth = workload.dataset.BuildGroundTruth();
    ResultTable table({"k", "bk", "mAP_with_recovery", "mAR_with_recovery"});
    for (int kk : ks) {
      for (int bk : bks) {
        if (bk < kk) continue;
        FilterOutput output = RunAdaLsh(workload, bk);
        Clustering recovered = PerfectRecovery(
            output.clusters.UnionOfTopClusters(bk), truth);
        RankedAccuracy ranked =
            ComputeRankedAccuracy(recovered, truth, kk);
        table.AddRow({std::to_string(kk), std::to_string(bk),
                      FormatDouble(ranked.map, 3),
                      FormatDouble(ranked.mar, 3)});
      }
    }
    table.Print(std::cout);
  }
  return 0;
}
