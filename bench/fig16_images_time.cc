// Figure 16: execution time on PopularImages vs the Zipf exponent of the
// records-per-entity distribution (Section 7.4.2), for cosine thresholds of
// (a) 3 degrees and (b) 5 degrees: adaLSH vs LSH320 vs LSH2560. The paper's
// "challenging scenario": huge top entities make the final P application
// dominate, so adaLSH's edge shrinks to 1.2-1.7x; time grows with the
// exponent (larger top clusters) and with a looser threshold.
//
// Pairs is omitted by default as in the paper ("almost one hour"); pass
// --run_pairs to include it.
//
//   fig16_images_time [--k=10] [--records=10000] [--exponents=1.05,1.1,1.2]
//                     [--thresholds=3,5] [--run_pairs]

#include <iostream>

#include "bench_util.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 10);
  size_t records = flags.GetSize("records", 10000);
  std::vector<double> exponents =
      flags.GetDoubleList("exponents", {1.05, 1.1, 1.2});
  std::vector<double> thresholds = flags.GetDoubleList("thresholds", {3, 5});
  bool run_pairs = flags.GetBool("run_pairs", false);
  flags.CheckNoUnusedFlags();

  for (double degrees : thresholds) {
    PrintExperimentHeader(
        std::cout, degrees == thresholds.front() ? "Figure 16(a)"
                                                 : "Figure 16(b)",
        "execution time (s) on PopularImages, threshold = " +
            FormatDouble(degrees, 0) + " degrees, k = " + std::to_string(k));
    ResultTable table({"zipf_exponent", "top1_size", "adaLSH", "LSH320",
                       "LSH2560", run_pairs ? "Pairs" : "Pairs(skipped)"});
    for (double exponent : exponents) {
      GeneratedDataset workload =
          MakePopularImagesWorkload(exponent, degrees, records, kDataSeed);
      GroundTruth truth = workload.dataset.BuildGroundTruth();
      FilterOutput ada = RunAdaLsh(workload, k);
      FilterOutput lsh320 = RunLshX(workload, k, 320);
      FilterOutput lsh2560 = RunLshX(workload, k, 2560);
      std::string pairs_cell = "-";
      if (run_pairs) {
        pairs_cell = Secs(RunPairs(workload, k).stats.filtering_seconds);
      }
      table.AddRow({FormatDouble(exponent, 2),
                    std::to_string(truth.cluster(0).size()),
                    Secs(ada.stats.filtering_seconds),
                    Secs(lsh320.stats.filtering_seconds),
                    Secs(lsh2560.stats.filtering_seconds), pairs_cell});
    }
    table.Print(std::cout);
  }
  return 0;
}
