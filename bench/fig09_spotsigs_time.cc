// Figure 9: filtering execution time on SpotSigs (the high-dimensional
// workload: large spot-signature sets make every hash function expensive).
//   (a) adaLSH vs LSH1280 vs Pairs for k in {2, 5, 10, 20} on SpotSigs 1x.
//   (b) the same at k = 10 for SpotSigs 1x / 2x / 4x / 8x.
//
// Paper shape: adaLSH's edge grows vs Cora (25x vs LSH there); LSH is slower
// than Pairs on small datasets and only wins past ~9000 records.
//
// Default scales stop at 4x so the whole bench suite stays laptop-friendly;
// pass --scales=1,2,4,8 for the paper's full range.
//
//   fig09_spotsigs_time [--ks=2,5,10,20] [--scales=1,2,4] [--lsh_x=1280]

#include <iostream>

#include "bench_util.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  std::vector<int> ks = flags.GetInt32List("ks", {2, 5, 10, 20});
  std::vector<size_t> scales = flags.GetSizeList("scales", {1, 2, 4});
  int lsh_x = flags.GetInt32("lsh_x", 1280);
  flags.CheckNoUnusedFlags();

  PrintExperimentHeader(std::cout, "Figure 9(a)",
                        "execution time (s) on SpotSigs vs k");
  {
    GeneratedDataset workload = MakeSpotSigsWorkload(1, kDataSeed);
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

  PrintExperimentHeader(std::cout, "Figure 9(b)",
                        "execution time (s) on SpotSigs 1x..8x, k = 10");
  {
    ResultTable table({"records", "adaLSH", "LSH" + std::to_string(lsh_x),
                       "Pairs", "adaLSH_speedup_vs_Pairs"});
    for (size_t scale : scales) {
      GeneratedDataset workload =
          MakeSpotSigsWorkload(scale, kDataSeed);
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
