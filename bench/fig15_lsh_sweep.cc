// Figure 15: adaLSH against *every* LSH-X variation (Section 7.4.1) on
// (a) SpotSigs 1x and (b) a scaled SpotSigs, k = 10. Paper shape: the best X
// shifts with dataset size (80 on 1x, 320 on 8x) and adaLSH still beats the
// best hand-picked variation by 3-4x — without any tuning.
//
//   fig15_lsh_sweep [--k=10] [--xs=20,40,80,160,320,640,1280,2560,5120]
//                   [--scale_b=4] [--xs_b=20,...,2560]

#include <iostream>

#include "bench_util.h"
#include "util/flags.h"

namespace {

using namespace adalsh;        // NOLINT: bench brevity
using namespace adalsh::bench; // NOLINT: bench brevity

void RunPanel(const std::string& figure, size_t scale, int k,
              const std::vector<int>& xs) {
  GeneratedDataset workload = MakeSpotSigsWorkload(scale, kDataSeed);
  PrintExperimentHeader(std::cout, figure,
                        "adaLSH vs LSH-X sweep on SpotSigs" +
                            (scale > 1 ? std::to_string(scale) + "x" : "") +
                            " (" +
                            std::to_string(workload.dataset.num_records()) +
                            " records, k = " + std::to_string(k) + ")");
  FilterOutput ada = RunAdaLsh(workload, k);
  std::cout << "adaLSH: " << Secs(ada.stats.filtering_seconds) << " s\n";
  ResultTable table({"X", "LSH-X_seconds", "adaLSH_speedup"});
  double best_seconds = -1.0;
  int best_x = 0;
  for (int x : xs) {
    FilterOutput lsh = RunLshX(workload, k, x);
    double seconds = lsh.stats.filtering_seconds;
    if (best_seconds < 0 || seconds < best_seconds) {
      best_seconds = seconds;
      best_x = x;
    }
    table.AddRow({std::to_string(x), Secs(seconds),
                  FormatDouble(seconds / ada.stats.filtering_seconds, 1) +
                      "x"});
  }
  table.Print(std::cout);
  std::cout << "best LSH variation: LSH" << best_x << " ("
            << Secs(best_seconds) << " s); adaLSH is "
            << FormatDouble(best_seconds / ada.stats.filtering_seconds, 1)
            << "x faster than the best hand-picked X\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 10);
  std::vector<int> xs =
      flags.GetInt32List("xs", {20, 40, 80, 160, 320, 640, 1280, 2560, 5120});
  size_t scale_b = flags.GetSize("scale_b", 4);
  std::vector<int> xs_b =
      flags.GetInt32List("xs_b", {20, 40, 80, 160, 320, 640, 1280, 2560});
  flags.CheckNoUnusedFlags();

  RunPanel("Figure 15(a)", 1, k, xs);
  RunPanel("Figure 15(b)", scale_b, k, xs_b);
  return 0;
}
