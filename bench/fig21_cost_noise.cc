// Figure 21 (Appendix E.2): sensitivity of adaLSH to cost-model noise. The
// pairwise-cost estimate is scaled by nf in {1/5, 1/2, 1, 2, 5} ("clean" is
// nf = 1) on SpotSigs 1x..4x for (a) k = 2 and (b) k = 10. Paper shape:
// execution time is insensitive except for a heavy *under*-estimate
// (nf = 1/5), which applies P too early on large clusters.
//
//   fig21_cost_noise [--scales=1,2,4] [--noise=0.2,0.5,1,2,5] [--ks=2,10]

#include <iostream>

#include "bench_util.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  std::vector<size_t> scales = flags.GetSizeList("scales", {1, 2, 4});
  std::vector<double> noise =
      flags.GetDoubleList("noise", {0.2, 0.5, 1.0, 2.0, 5.0});
  std::vector<int> ks = flags.GetInt32List("ks", {2, 10});
  flags.CheckNoUnusedFlags();

  for (size_t panel = 0; panel < ks.size(); ++panel) {
    int k = ks[panel];
    PrintExperimentHeader(
        std::cout,
        "Figure 21(" + std::string(1, static_cast<char>('a' + panel)) + ")",
        "adaLSH time (s) under cost-model noise, k = " + std::to_string(k));
    std::vector<std::string> headers = {"records"};
    for (double nf : noise) {
      headers.push_back(nf == 1.0 ? "clean" : "nf=" + FormatDouble(nf, 1));
    }
    ResultTable table(headers);
    for (size_t scale : scales) {
      GeneratedDataset workload =
          MakeSpotSigsWorkload(scale, kDataSeed);
      std::vector<std::string> row = {
          std::to_string(workload.dataset.num_records())};
      for (double nf : noise) {
        FilterOutput output =
            RunAdaLsh(workload, k, /*max_budget=*/5120, nf);
        row.push_back(Secs(output.stats.filtering_seconds));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
  return 0;
}
