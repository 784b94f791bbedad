// Figure 22 (Appendix E.2): budget-selection strategies for the function
// sequence (Section 5.2): the default Exponential (20, x2) against Linear
// 320 / 640 / 1280, on (a) Cora 1x..4x and (b) SpotSigs 1x..4x, k = 10.
// Paper shape: Exponential wins clearly — doubling means the work of each
// step roughly matches all previous steps combined, the sweet spot between
// many small steps and few huge ones.
//
//   fig22_budget_modes [--k=10] [--scales=1,2,4] [--linear=320,640,1280]

#include <iostream>

#include "bench_util.h"
#include "util/flags.h"

namespace {

using namespace adalsh;        // NOLINT: bench brevity
using namespace adalsh::bench; // NOLINT: bench brevity

void RunPanel(const std::string& figure, const std::string& dataset_name,
              const std::vector<size_t>& scales,
              const std::vector<int>& linear_steps, int k) {
  PrintExperimentHeader(std::cout, figure,
                        "budget modes on " + dataset_name +
                            ", k = " + std::to_string(k));
  std::vector<std::string> headers = {"records", "expo"};
  for (int step : linear_steps) {
    headers.push_back("lin" + std::to_string(step));
  }
  ResultTable table(headers);
  for (size_t scale : scales) {
    GeneratedDataset workload =
        dataset_name == "Cora"
            ? MakeCoraWorkload(scale, kDataSeed)
            : MakeSpotSigsWorkload(scale, kDataSeed);
    std::vector<std::string> row = {
        std::to_string(workload.dataset.num_records())};
    FilterOutput expo = RunAdaLsh(workload, k);
    row.push_back(Secs(expo.stats.filtering_seconds));
    for (int step : linear_steps) {
      FilterOutput lin =
          RunAdaLsh(workload, k, /*max_budget=*/5120,
                    /*pairwise_noise_factor=*/1.0,
                    BudgetStrategy::Linear(step));
      row.push_back(Secs(lin.stats.filtering_seconds));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 10);
  std::vector<size_t> scales = flags.GetSizeList("scales", {1, 2, 4});
  std::vector<int> linear_steps =
      flags.GetInt32List("linear", {320, 640, 1280});
  flags.CheckNoUnusedFlags();

  RunPanel("Figure 22(a)", "Cora", scales, linear_steps, k);
  RunPanel("Figure 22(b)", "SpotSigs", scales, linear_steps, k);
  return 0;
}
