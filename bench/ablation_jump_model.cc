// Ablation: Line 5's P-cost estimate (Appendix D.2). The paper's model
// charges P the full C(|C|, 2) pairwise cost, deliberately ignoring the
// transitive-closure skipping that makes P nearly linear on a pure cluster;
// Appendix D.2 notes an algorithm "could benefit ... when it keeps estimates
// of the sizes of sub-clusters inside each cluster" and leaves it to future
// research. JumpModel::kSampledPurity implements that idea with a 20-pair
// in-cluster sample.
//
// The image workload is where it matters: the top-1 entity is huge and pure,
// and under the conservative model adaLSH hashes it far up the sequence
// instead of resolving it exactly. Expected shape: identical F1, and
// sampled-purity cuts adaLSH's time at the high zipf exponents (where the
// conservative model loses even to a hand-tuned LSH320).
//
//   ablation_jump_model [--k=10] [--records=10000] [--threshold=3]

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
  double threshold = flags.GetDouble("threshold", 3.0);
  flags.CheckNoUnusedFlags();

  PrintExperimentHeader(std::cout, "Ablation (App. D.2)",
                        "conservative vs sampled-purity jump model on "
                        "PopularImages, k = " + std::to_string(k));
  ResultTable table({"zipf_exponent", "top1", "conservative_s",
                     "sampled_purity_s", "f1_conservative", "f1_sampled"});
  for (double exponent : {1.05, 1.1, 1.2}) {
    GeneratedDataset workload =
        MakePopularImagesWorkload(exponent, threshold, records, kDataSeed);
    GroundTruth truth = workload.dataset.BuildGroundTruth();

    auto run = [&](JumpModel model) {
      AdaptiveLshConfig config;
      config.jump_model = model;
      config.seed = kMethodSeed;
      AdaptiveLsh method(workload.dataset, workload.rule, config);
      return method.Run(k);
    };
    FilterOutput conservative = run(JumpModel::kConservative);
    FilterOutput sampled = run(JumpModel::kSampledPurity);
    table.AddRow(
        {FormatDouble(exponent, 2), std::to_string(truth.cluster(0).size()),
         Secs(conservative.stats.filtering_seconds),
         Secs(sampled.stats.filtering_seconds),
         FormatDouble(GoldAccuracy(conservative.clusters, truth, k).f1, 3),
         FormatDouble(GoldAccuracy(sampled.clusters, truth, k).f1, 3)});
  }
  table.Print(std::cout);
  return 0;
}
