// Figure 17: F1 Gold on PopularImages for thresholds 2 / 3 / 5 degrees and
// Zipf exponents 1.05 / 1.1 / 1.2, k = 10 (all methods score almost the
// same, so adaLSH's curve stands for all). Paper shape: stricter thresholds
// lower F1 (same-entity images fail to cluster); higher exponents (lighter
// tail, larger top entities) raise it.
//
//   fig17_images_f1 [--k=10] [--records=10000] [--exponents=1.05,1.1,1.2]
//                   [--thresholds=2,3,5]

#include <iostream>

#include "bench_util.h"
#include "eval/metrics.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 10);
  size_t records = flags.GetSize("records", 10000);
  std::vector<double> exponents =
      flags.GetDoubleList("exponents", {1.05, 1.1, 1.2});
  std::vector<double> thresholds =
      flags.GetDoubleList("thresholds", {2, 3, 5});
  flags.CheckNoUnusedFlags();

  PrintExperimentHeader(std::cout, "Figure 17",
                        "F1 Gold on PopularImages (adaLSH), k = " +
                            std::to_string(k));
  std::vector<std::string> headers = {"threshold_deg"};
  for (double exponent : exponents) {
    headers.push_back("zipf=" + FormatDouble(exponent, 2));
  }
  ResultTable table(headers);
  for (double degrees : thresholds) {
    std::vector<std::string> row = {FormatDouble(degrees, 0)};
    for (double exponent : exponents) {
      GeneratedDataset workload =
          MakePopularImagesWorkload(exponent, degrees, records, kDataSeed);
      GroundTruth truth = workload.dataset.BuildGroundTruth();
      FilterOutput output = RunAdaLsh(workload, k);
      row.push_back(
          FormatDouble(GoldAccuracy(output.clusters, truth, k).f1, 3));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  return 0;
}
