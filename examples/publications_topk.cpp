// Most-cited-publication discovery over noisy citation strings (the paper's
// Cora scenario): multi-field records matched with the combined rule of
// Appendix C — AND(average Jaccard of title+author >= 0.7, rest >= 0.2).
// Also demonstrates the bk-clusters and perfect-recovery accuracy boosters
// of Section 6.1.2.
//
//   build/examples/publications_topk [--k=5] [--bk=10]

#include <iostream>

#include "core/adaptive_lsh.h"
#include "datagen/cora_like.h"
#include "eval/metrics.h"
#include "eval/recovery.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;  // NOLINT: example brevity
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 5);
  int bk = flags.GetInt32("bk", 10);
  flags.CheckNoUnusedFlags();

  CoraLikeConfig data_config;
  data_config.seed = 77;
  GeneratedDataset generated = GenerateCoraLike(data_config);
  const Dataset& dataset = generated.dataset;
  GroundTruth truth = dataset.BuildGroundTruth();
  std::cout << "Citation corpus: " << dataset.num_records() << " records, "
            << truth.num_entities() << " publications\n";
  std::cout << "Match rule: " << generated.rule.DebugString() << "\n";

  AdaptiveLshConfig config;
  config.seed = 11;
  AdaptiveLsh adalsh(dataset, generated.rule, config);

  // Plain top-k filtering.
  FilterOutput at_k = adalsh.Run(k);
  SetAccuracy gold_k = GoldAccuracy(at_k.clusters, truth, k);
  std::cout << "\nk=" << k << ": F1 Gold " << gold_k.f1 << " (P="
            << gold_k.precision << ", R=" << gold_k.recall << ")\n";

  // Booster 1: return bk > k clusters — recall rises, precision pays.
  FilterOutput at_bk = adalsh.Run(bk);
  SetAccuracy gold_bk = GoldAccuracy(at_bk.clusters, truth, k);
  std::cout << "bk=" << bk << ": recall " << gold_k.recall << " -> "
            << gold_bk.recall << ", precision " << gold_k.precision << " -> "
            << gold_bk.precision << "\n";

  // Booster 2: perfect recovery over the bk output.
  Clustering recovered =
      PerfectRecovery(at_bk.clusters.UnionOfTopClusters(bk), truth);
  RankedAccuracy ranked = ComputeRankedAccuracy(recovered, truth, k);
  std::cout << "after recovery: mAP=" << ranked.map << " mAR=" << ranked.mar
            << "\n";

  std::cout << "\nTop publications:\n";
  for (size_t rank = 0; rank < at_k.clusters.clusters.size(); ++rank) {
    const auto& cluster = at_k.clusters.clusters[rank];
    std::cout << "  #" << (rank + 1) << ": " << cluster.size()
              << " citations of '" << dataset.record(cluster[0]).label()
              << "'\n";
  }
  return 0;
}
