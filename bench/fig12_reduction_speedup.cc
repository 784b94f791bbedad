// Figure 12: dataset-reduction percentage and Speedup w/o Recovery vs bk on
// SpotSigs 1x/2x/4x, k = 5 (Section 7.3.2), with adaLSH as the filter.
// Paper shape: reduction % grows with bk but stays a modest share on larger
// datasets; the speedup grows with dataset size and remains significant
// (e.g. ~6x at 40% reduction on 4x).
//
//   fig12_reduction_speedup [--k=5] [--bks=5,10,15,20] [--scales=1,2,4]

#include <iostream>

#include "bench_util.h"
#include "eval/speedup.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 5);
  std::vector<int> bks = flags.GetInt32List("bks", {5, 10, 15, 20});
  std::vector<size_t> scales = flags.GetSizeList("scales", {1, 2, 4});
  flags.CheckNoUnusedFlags();
  (void)k;

  PrintExperimentHeader(std::cout, "Figure 12",
                        "reduction %% and Speedup w/o Recovery vs bk "
                        "(SpotSigs, k = " +
                            std::to_string(k) + ", adaLSH filter)");
  ResultTable table({"scale", "records", "bk", "reduction_%",
                     "actual_topk_%", "speedup_wo_recovery"});
  for (size_t scale : scales) {
    GeneratedDataset workload =
        MakeSpotSigsWorkload(scale, kDataSeed);
    GroundTruth truth = workload.dataset.BuildGroundTruth();
    size_t n = workload.dataset.num_records();
    double actual_percent =
        DatasetReductionPercent(truth.TopKRecords(k).size(), n);
    SpeedupModel model =
        SpeedupModel::Measure(workload.dataset, workload.rule, 100, 3);
    for (int bk : bks) {
      FilterOutput output = RunAdaLsh(workload, bk);
      size_t kept = output.clusters.TotalRecords();
      table.AddRow(
          {std::to_string(scale) + "x", std::to_string(n),
           std::to_string(bk),
           FormatDouble(DatasetReductionPercent(kept, n), 1),
           FormatDouble(actual_percent, 1),
           FormatDouble(model.SpeedupWithoutRecovery(
                            output.stats.filtering_seconds, n, kept),
                        1) +
               "x"});
    }
  }
  table.Print(std::cout);
  return 0;
}
