// Ablation: the incremental-computation property (Section 2.2, Property 4 /
// Appendix B.2). Algorithm 1 is run with hash-cache reuse disabled — every
// function application recomputes its hashes from scratch — to quantify how
// much of adaLSH's speed comes from never repeating hash work. The paper
// notes the Exponential budget mode makes each step's work comparable to all
// previous steps combined, so disabling reuse roughly doubles hash work per
// refined cluster (more when clusters are refined repeatedly).
//
//   ablation_incremental [--k=10] [--scale=1]

#include <iostream>

#include "bench_util.h"
#include "util/flags.h"

namespace {

using namespace adalsh;        // NOLINT: bench brevity
using namespace adalsh::bench; // NOLINT: bench brevity

void RunPanel(const std::string& name, const GeneratedDataset& workload,
              int k) {
  PrintExperimentHeader(std::cout, "Ablation (Property 4)",
                        "incremental hash reuse on " + name +
                            ", k = " + std::to_string(k));
  ResultTable table({"variant", "seconds", "hashes_computed"});
  for (bool ablate : {false, true}) {
    AdaptiveLshConfig config;
    config.ablate_incremental_reuse = ablate;
    config.seed = kMethodSeed;
    AdaptiveLsh method(workload.dataset, workload.rule, config);
    FilterOutput output = method.Run(k);
    table.AddRow({ablate ? "recompute-from-scratch" : "incremental (paper)",
                  Secs(output.stats.filtering_seconds),
                  std::to_string(output.stats.hashes_computed)});
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 10);
  size_t scale = flags.GetSize("scale", 1);
  flags.CheckNoUnusedFlags();

  RunPanel("Cora", MakeCoraWorkload(scale, kDataSeed), k);
  RunPanel("SpotSigs", MakeSpotSigsWorkload(scale, kDataSeed), k);
  return 0;
}
