// Figure 8: filtering execution time on Cora.
//   (a) adaLSH vs LSH1280 vs Pairs for k in {2, 5, 10, 20} on Cora 1x.
//   (b) the same methods at k = 10 for Cora 1x / 2x / 4x / 8x (log-log in
//       the paper; the table prints the raw series).
//
// Paper shape to reproduce: adaLSH ~10x faster than LSH1280 and Pairs on 1x,
// nearly flat in k; the gap vs Pairs widens with dataset size.
//
//   fig08_cora_time [--ks=2,5,10,20] [--scales=1,2,4,8] [--lsh_x=1280]

#include <iostream>

#include "bench_util.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  std::vector<int> ks = flags.GetInt32List("ks", {2, 5, 10, 20});
  std::vector<size_t> scales = flags.GetSizeList("scales", {1, 2, 4, 8});
  int lsh_x = flags.GetInt32("lsh_x", 1280);
  flags.CheckNoUnusedFlags();

  PrintExperimentHeader(std::cout, "Figure 8(a)",
                        "execution time (s) on Cora vs k");
  {
    GeneratedDataset workload = MakeCoraWorkload(1, kDataSeed);
    ResultTable table({"k", "adaLSH", "LSH" + std::to_string(lsh_x),
                       "Pairs", "adaLSH_speedup_vs_LSH"});
    for (int k : ks) {
      FilterOutput ada = RunAdaLsh(workload, k);
      FilterOutput lsh = RunLshX(workload, k, lsh_x);
      FilterOutput pairs = RunPairs(workload, k);
      table.AddRow({std::to_string(k), Secs(ada.stats.filtering_seconds),
                    Secs(lsh.stats.filtering_seconds),
                    Secs(pairs.stats.filtering_seconds),
                    FormatDouble(lsh.stats.filtering_seconds /
                                     ada.stats.filtering_seconds,
                                 1) +
                        "x"});
    }
    table.Print(std::cout);
  }

  PrintExperimentHeader(std::cout, "Figure 8(b)",
                        "execution time (s) on Cora 1x..8x, k = 10");
  {
    ResultTable table({"records", "adaLSH", "LSH" + std::to_string(lsh_x),
                       "Pairs", "adaLSH_speedup_vs_Pairs"});
    for (size_t scale : scales) {
      GeneratedDataset workload =
          MakeCoraWorkload(scale, kDataSeed);
      FilterOutput ada = RunAdaLsh(workload, 10);
      FilterOutput lsh = RunLshX(workload, 10, lsh_x);
      FilterOutput pairs = RunPairs(workload, 10);
      table.AddRow({std::to_string(workload.dataset.num_records()),
                    Secs(ada.stats.filtering_seconds),
                    Secs(lsh.stats.filtering_seconds),
                    Secs(pairs.stats.filtering_seconds),
                    FormatDouble(pairs.stats.filtering_seconds /
                                     ada.stats.filtering_seconds,
                                 1) +
                        "x"});
    }
    table.Print(std::cout);
  }
  return 0;
}
